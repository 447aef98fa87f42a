"""Acceptance gate: one test per release criterion.

Each test prints a single "[ACCEPTANCE] <name>: PASS/FAIL" line on the
real terminal (outside pytest capture) so the gate can be read at a
glance from the run log.
"""

import contextlib
import json
import os
import random
import subprocess
import sys
import time

import oracles
import props
from subeval.align import load_pharaoh, train_aligner, viterbi_align
from subeval.cli import main
from subeval.conformity import conformity_report, segmentation_plausibility
from subeval.consistency import consistency_report, lexical_consistency_pair
from subeval.markers import load_marked_text
from subeval.model import pair_documents
from subeval.quality import bootstrap_significance, corpus_bleu, wer
from subeval.report import TSV_COLUMNS
from subeval.textproc import Scheme, attach_tags, load_conllu, tokenize

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@contextlib.contextmanager
def criterion(capsys, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[ACCEPTANCE] {name}: FAIL")
        raise
    with capsys.disabled():
        print(f"[ACCEPTANCE] {name}: PASS")


# ---------------------------------------------------------------------------
# 1. Three-block example fidelity


def test_three_block_example_fidelity(capsys, paper_example):
    with criterion(capsys, "three-block example fidelity"):
        start = time.perf_counter()
        pair, align_c2s, align_s2c = paper_example
        assert consistency_report([pair]).structural == 1.0
        result = lexical_consistency_pair(
            pair, align_c2s, align_s2c, caption_lang="en", subtitle_lang="fr"
        )
        bad_subtitle = [
            surface
            for side, _, surface in result.inconsistent_tokens
            if side == "subtitle"
        ]
        assert bad_subtitle == ["le", "capitalisme", ",", "au", "même", "titre"]
        assert abs(result.lex_s2c - 17 / 23) < 1e-9
        assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# 2. Report schema covers every summary-table column


def test_report_schema_columns(capsys):
    with criterion(capsys, "report schema covers all summary columns"):
        from importlib.resources import files

        schema = json.loads(
            files("subeval").joinpath("schemas/report.schema.json").read_text()
        )
        for column in (
            "wer", "bleu", "length", "reading_speed", "segmentation",
            "structural", "lexical", "line_count", "char_ratio",
        ):
            assert column in schema["properties"], column
        for column in (
            "wer", "bleu", "length_captions", "length_subtitles",
            "read_speed_captions", "read_speed_subtitles",
            "segment_captions", "segment_subtitles",
            "struc", "lex", "line_count", "char_ratio",
        ):
            assert column in TSV_COLUMNS, column


# ---------------------------------------------------------------------------
# 3. Micro-corpus metrics vs brute-force oracles

_ORACLE_FUNCTION_TAGS = {"ADP", "AUX", "CCONJ", "SCONJ", "DET", "PART", "PRON"}


def _oracle_utterance_streams(raw_lines, conllu_path):
    """Independently interleave CoNLL-U forms with the break markers of
    each raw line, by greedy surface matching per whitespace chunk."""
    with open(conllu_path, encoding="utf-8") as fh:
        sentences = []
        current = []
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                if current:
                    sentences.append(current)
                    current = []
                continue
            cols = line.split("\t")
            current.append((cols[1], cols[3]))
        if current:
            sentences.append(current)
    assert len(sentences) == len(raw_lines)
    streams = []
    for raw, sentence in zip(raw_lines, sentences):
        stream = []
        forms = list(sentence)
        for chunk in raw.split():
            if chunk in ("<eob>", "<eol>"):
                stream.append((chunk, None))
                continue
            consumed = ""
            while consumed != chunk:
                form, tag = forms.pop(0)
                consumed += form
                stream.append((form, tag))
        assert not forms
        streams.append(stream)
    return streams


def _oracle_segmentation_rate(streams):
    plausible = 0
    total = 0
    for stream in streams:
        for pos, (surface, tag) in enumerate(stream):
            if surface not in ("<eob>", "<eol>"):
                continue
            prev_tag = next(
                t for s, t in reversed(stream[:pos]) if s not in ("<eob>", "<eol>")
            )
            following = [
                t for s, t in stream[pos + 1 :] if s not in ("<eob>", "<eol>")
            ]
            total += 1
            if not following:
                if prev_tag == "PUNCT":
                    plausible += 1
            elif prev_tag == "PUNCT":
                plausible += 1
            elif (
                prev_tag not in _ORACLE_FUNCTION_TAGS
                and prev_tag != "PUNCT"
                and following[0] in _ORACLE_FUNCTION_TAGS
            ):
                plausible += 1
    return plausible / total


def _oracle_block_indices(stream):
    indices = []
    block = 0
    for surface, _ in stream:
        if surface == "<eob>":
            block += 1
        elif surface != "<eol>":
            indices.append(block)
    return indices


def test_micro_corpus_matches_oracles(capsys, micro_docs, micro_raw, micro_paths):
    with criterion(capsys, "micro-corpus metrics match brute-force oracles"):
        start = time.perf_counter()
        rel = lambda a, b: abs(a - b) <= 1e-9 * max(1.0, abs(b))

        # WER
        got = wer(
            micro_docs["captions_hyp"].utterances, micro_docs["captions_ref"].utterances
        ).wer
        assert rel(got, oracles.corpus_wer(
            micro_raw["captions_hyp"], micro_raw["captions_ref"]
        ))

        # BLEU (break tokens kept)
        got = corpus_bleu(
            micro_docs["subtitles_hyp"].utterances,
            micro_docs["subtitles_ref"].utterances,
        ).score
        assert rel(got, oracles.corpus_bleu(
            micro_raw["subtitles_hyp"], micro_raw["subtitles_ref"]
        ))

        # Length conformity (per line, CPL 42); reading speed has no
        # denominator here (the micro corpus carries no timing).
        for doc_key in ("captions_hyp", "subtitles_hyp"):
            lines = [
                text
                for raw in micro_raw[doc_key]
                for text in oracles.utterance_lines(raw)
            ]
            expected = sum(
                1 for text in lines if oracles.char_count(text) <= 42
            ) / len(lines)
            assert rel(conformity_report(micro_docs[doc_key]).length_rate, expected)

        # Segmentation plausibility from independently parsed tag streams.
        for doc_key, pos_key, lang in (
            ("captions_hyp", "pos_captions", "en"),
            ("subtitles_hyp", "pos_subtitles", "fr"),
        ):
            streams = _oracle_utterance_streams(
                micro_raw[doc_key], micro_paths[pos_key]
            )
            tagged = []
            for utt, sentence in zip(
                micro_docs[doc_key].utterances, load_conllu(micro_paths[pos_key])
            ):
                tokens = tokenize(utt.text(), Scheme.MT_DETACHED, lang=lang)
                tagged.append(
                    attach_tags(tokens, [tag for _, tag in sentence], utt_id=utt.id)
                )
            assert rel(
                segmentation_plausibility(tagged), _oracle_segmentation_rate(streams)
            )

        # Structural consistency
        pairs = pair_documents(
            micro_docs["captions_hyp"], micro_docs["subtitles_hyp"]
        )
        expected = sum(
            1
            for c, s in zip(micro_raw["captions_hyp"], micro_raw["subtitles_hyp"])
            if c.count("<eob>") == s.count("<eob>")
        ) / len(pairs)
        assert rel(consistency_report(pairs).structural, expected)

        # Lexical consistency, with block maps rebuilt from the oracle streams
        cap_streams = _oracle_utterance_streams(
            micro_raw["captions_hyp"], micro_paths["pos_captions"]
        )
        sub_streams = _oracle_utterance_streams(
            micro_raw["subtitles_hyp"], micro_paths["pos_subtitles"]
        )
        c2s = load_pharaoh(micro_paths["align_c2s"])
        s2c = load_pharaoh(micro_paths["align_s2c"])
        expected_pairs = []
        for cap_stream, sub_stream, a_c2s, a_s2c in zip(
            cap_streams, sub_streams, c2s, s2c
        ):
            cap_blocks = _oracle_block_indices(cap_stream)
            sub_blocks = _oracle_block_indices(sub_stream)
            lex_c2s = oracles.directional_lexical(
                cap_blocks, sub_blocks, set(a_c2s.links)
            )
            lex_s2c = oracles.directional_lexical(
                sub_blocks, cap_blocks, set(a_s2c.links)
            )
            expected_pairs.append((lex_c2s + lex_s2c) / 2)
        mean = consistency_report(
            pairs, list(zip(c2s, s2c)), caption_lang="en", subtitle_lang="fr"
        ).lexical
        assert rel(mean, sum(expected_pairs) / len(expected_pairs))

        # Line-count consistency over structurally consistent pairs
        equal = total = 0
        for c, s in zip(micro_raw["captions_hyp"], micro_raw["subtitles_hyp"]):
            cap_blocks = oracles.split_blocks(c)
            sub_blocks = oracles.split_blocks(s)
            if len(cap_blocks) != len(sub_blocks):
                continue
            for cb, sb in zip(cap_blocks, sub_blocks):
                total += 1
                if len(oracles.split_lines(cb)) == len(oracles.split_lines(sb)):
                    equal += 1
        assert rel(consistency_report(pairs).line_count, equal / total)

        # Character ratio
        cap_chars = sum(
            oracles.char_count(text)
            for raw in micro_raw["captions_hyp"]
            for text in oracles.utterance_lines(raw)
        )
        sub_chars = sum(
            oracles.char_count(text)
            for raw in micro_raw["subtitles_hyp"]
            for text in oracles.utterance_lines(raw)
        )
        assert rel(consistency_report(pairs).char_ratio, cap_chars / sub_chars)

        assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# 4. BLEU cross-validation on a synthetic 100-sentence corpus


def test_bleu_cross_validation(capsys):
    with criterion(capsys, "BLEU matches independent scorer within 0.1"):
        rng = random.Random(20)
        vocab = [
            "the", "a", "cat", "dog", "runs", "sleeps", "quickly", "home",
            "garden", "tree", "bird", "sings", "loudly", "today", "1,000",
        ]
        ref_lines = []
        hyp_lines = []
        for _ in range(100):
            length = rng.randint(4, 15)
            words = [rng.choice(vocab) for _ in range(length)]
            ref = words + ["."]
            hyp = list(ref)
            for _ in range(rng.randint(0, 3)):
                op = rng.random()
                pos = rng.randrange(len(hyp))
                if op < 0.4:
                    hyp[pos] = rng.choice(vocab)
                elif op < 0.7 and len(hyp) > 2:
                    hyp.pop(pos)
                else:
                    hyp.insert(pos, rng.choice(vocab))
            ref_lines.append(" ".join(ref) + " <eob>")
            hyp_lines.append(" ".join(hyp) + " <eob>")
        from subeval.markers import parse_marked_text

        ref_doc = parse_marked_text("".join(line + "\n" for line in ref_lines))
        hyp_doc = parse_marked_text("".join(line + "\n" for line in hyp_lines))
        got = corpus_bleu(hyp_doc.utterances, ref_doc.utterances).score
        expected = oracles.corpus_bleu(hyp_lines, ref_lines)
        assert abs(got - expected) <= 0.1


# ---------------------------------------------------------------------------
# 5. Aligner quality on a synthetic monotone corpus


def test_aligner_quality(capsys):
    with criterion(capsys, "aligner F1 >= 0.9 and monotone log-likelihood"):
        from test_align import make_monotone_corpus

        start = time.perf_counter()
        corpus, gold = make_monotone_corpus(n_pairs=500)
        lls = []
        model = train_aligner(
            corpus, iterations=5, update_tension=False, log_likelihoods=lls
        )
        for earlier, later in zip(lls, lls[1:]):
            assert later >= earlier - 1e-12
        tp = fp = fn = 0
        for bitext, reference in zip(corpus, gold):
            predicted = viterbi_align(model, bitext).links
            tp += len(predicted & reference)
            fp += len(predicted - reference)
            fn += len(reference - predicted)
        f1 = 2 * tp / (2 * tp + fp + fn)
        assert f1 >= 0.9
        assert time.perf_counter() - start < 30.0


# ---------------------------------------------------------------------------
# 6. Bootstrap calibration


def test_bootstrap_calibration(capsys):
    with criterion(capsys, "bootstrap calibration at seed 42"):
        from subeval.markers import parse_marked_text

        rng = random.Random(99)
        vocab = ["v", "w", "x", "y", "z"]
        ref_lines = [
            " ".join(rng.choice(vocab) for _ in range(6)) + " <eob>"
            for _ in range(20)
        ]
        ref = parse_marked_text("".join(line + "\n" for line in ref_lines)).utterances
        garbage = parse_marked_text(
            "".join("q q q q q q <eob>\n" for _ in range(20))
        ).utterances
        for metric in ("bleu", "wer"):
            self_vs_self = bootstrap_significance(
                ref, ref, ref, metric=metric, resamples=1000, seed=42
            )
            assert self_vs_self.p_value == 1.0
            dominated = bootstrap_significance(
                ref, garbage, ref, metric=metric, resamples=1000, seed=42
            )
            assert dominated.p_value == 0.0
            again = bootstrap_significance(
                ref, garbage, ref, metric=metric, resamples=1000, seed=42
            )
            assert again == dominated


# ---------------------------------------------------------------------------
# 7. Property suites, 1000 random cases each


def test_property_suites(capsys):
    with criterion(capsys, "property suites (1000 cases each)"):
        for check in props.ALL_CHECKS:
            check(1000)


# ---------------------------------------------------------------------------
# 8. End-to-end throughput and determinism


def _write_large_corpus(directory, n_pairs=10_000, seed=77):
    rng = random.Random(seed)
    en = ["team", "builds", "fast", "tools", "every", "day", "with", "care",
          "good", "tests", "keep", "things", "working", "well"]
    fr = ["equipe", "construit", "vite", "outils", "chaque", "jour", "avec",
          "soin", "bons", "tests", "gardent", "choses", "marchent", "bien"]

    def make_line(vocab):
        words = [rng.choice(vocab) for _ in range(rng.randint(3, 8))]
        if len(words) >= 5 and rng.random() < 0.5:
            words.insert(len(words) // 2, "<eob>")
        return " ".join(words) + " <eob>"

    paths = {}
    lines = {}
    for key, vocab in (
        ("captions.ref", en), ("captions.hyp", en),
        ("subtitles.ref", fr), ("subtitles.hyp", fr),
    ):
        content = [make_line(vocab) for _ in range(n_pairs)]
        path = directory / key
        path.write_text("".join(line + "\n" for line in content))
        paths[key] = str(path)
        lines[key] = content

    def word_count(line):
        return sum(1 for w in line.split() if w not in ("<eob>", "<eol>"))

    for key, src, tgt in (
        ("align.c2s", "captions.hyp", "subtitles.hyp"),
        ("align.s2c", "subtitles.hyp", "captions.hyp"),
    ):
        rows = []
        for s_line, t_line in zip(lines[src], lines[tgt]):
            n = min(word_count(s_line), word_count(t_line))
            rows.append(" ".join(f"{i}-{i}" for i in range(n)))
        path = directory / key
        path.write_text("".join(row + "\n" for row in rows))
        paths[key] = str(path)
    return paths


def test_end_to_end_throughput_and_determinism(capsys, tmp_path):
    with criterion(capsys, "10k-pair eval under 60 s, byte-identical"):
        paths = _write_large_corpus(tmp_path)
        out = tmp_path / "report.out"
        args = [
            "eval",
            "--captions-hyp", paths["captions.hyp"],
            "--captions-ref", paths["captions.ref"],
            "--subtitles-hyp", paths["subtitles.hyp"],
            "--subtitles-ref", paths["subtitles.ref"],
            "--align-c2s", paths["align.c2s"],
            "--align-s2c", paths["align.s2c"],
            "--subtitle-lang", "fr",
            "--out", "both",
            "--out-file", str(out),
        ]
        start = time.perf_counter()
        assert main(args) == 0
        assert time.perf_counter() - start < 60.0
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first
        report = json.loads(first.decode().split("system\twer")[0])
        assert report["wer"] is not None and report["bleu"] is not None


def _write_as_srt(path):
    """Rewrite the marked-text file at `path` as SRT: one cue per line,
    holding the line's words, so the Pharaoh files still fit."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cues = []
    for index, line in enumerate(lines, start=1):
        words = " ".join(w for w in line.split() if w not in ("<eob>", "<eol>"))
        start = props.srt_timestamp(index * 2_000)
        end = props.srt_timestamp(index * 2_000 + 1_500)
        cues.append(f"{index}\n{start} --> {end}\n{words}\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(cues))


def _eval_args(directory, n_pairs, srt=False):
    """`eval` with Pharaoh files and diagnostics on a generated corpus of
    `n_pairs` pairs written to `directory`, as SRT if `srt`."""
    directory.mkdir(parents=True)
    paths = _write_large_corpus(directory, n_pairs=n_pairs)
    if srt:
        for key in ("captions.hyp", "captions.ref", "subtitles.hyp", "subtitles.ref"):
            _write_as_srt(paths[key])
    return [
        "eval",
        *(["--format", "srt"] if srt else []),
        "--captions-hyp", paths["captions.hyp"],
        "--captions-ref", paths["captions.ref"],
        "--subtitles-hyp", paths["subtitles.hyp"],
        "--subtitles-ref", paths["subtitles.ref"],
        "--align-c2s", paths["align.c2s"],
        "--align-s2c", paths["align.s2c"],
        "--subtitle-lang", "fr",
        "--out-file", str(directory / "report.json"),
        "--diagnostics", str(directory / "diag.jsonl"),
    ]


# Runs `cli.main` on the arguments before `--`, unmeasured, then prints
# tracemalloc's peak over `cli.main` on the arguments after it.
_PEAK_SCRIPT = """
import sys, tracemalloc
from subeval.cli import main
split = sys.argv.index("--")
assert main(sys.argv[1:split]) == 0
tracemalloc.start()
assert main(sys.argv[split + 1:]) == 0
print(tracemalloc.get_traced_memory()[1])
"""


def _peaks(tmp_path, cli_args):
    """tracemalloc's peak over `cli.main` on `cli_args(directory, n)`
    at 1,000 and at 4,000 items.

    The generated corpus draws from 14 words per language, so the
    tokenizer memos (bounded at 2**16 entries each by design) stay
    small, and the peaks measure the state a command keeps per item.
    Each peak is taken in a new interpreter after an unmeasured
    1,000-item run.  That run makes what every run builds once, such
    as those memos, and fills the interpreter's bounded free lists
    (tuples, for instance), whose level otherwise depends on what
    ran before and on when the collector last emptied them."""
    warm = cli_args(tmp_path / "warm", 1_000)

    def peak(n):
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_SCRIPT, *warm, "--", *cli_args(tmp_path / str(n), n)],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout.splitlines()[-1])  # after what the command printed

    return peak(1_000), peak(4_000)


def _assert_eval_memory_flat(tmp_path, srt=False):
    small, large = _peaks(tmp_path, lambda directory, n: _eval_args(directory, n, srt))
    assert large <= 1.1 * small, (small, large)


def test_eval_memory_does_not_grow_with_the_corpus(capsys, tmp_path):
    with criterion(capsys, "eval memory flat from 1,000 to 4,000 pairs"):
        _assert_eval_memory_flat(tmp_path)


def test_eval_srt_memory_does_not_grow_with_the_corpus(capsys, tmp_path):
    with criterion(capsys, "eval --format srt memory flat from 1,000 to 4,000 cues"):
        _assert_eval_memory_flat(tmp_path, srt=True)


def _significance_args(directory, n_segments, metric):
    """`significance` on SRT files of `n_segments` cues written to
    `directory`: the captions of two generated corpora and one reference."""
    directory.mkdir(parents=True)
    (directory / "b").mkdir()
    paths = _write_large_corpus(directory, n_pairs=n_segments)
    hyp_b = _write_large_corpus(directory / "b", n_pairs=n_segments, seed=78)["captions.hyp"]
    hyp_a, ref = paths["captions.hyp"], paths["captions.ref"]
    for path in (hyp_a, hyp_b, ref):
        _write_as_srt(path)
    return ["significance", "--metric", metric, "--resamples", "10", "--format", "srt",
            "--hyp-a", hyp_a, "--hyp-b", hyp_b, "--ref", ref]


def _assert_significance_memory_per_segment(tmp_path, metric):
    # A BLEU row is 20 int64 statistics, 160 bytes, and one reordered
    # copy of the rows is made for resampling.  Keeping each segment's
    # utterances would cost more than 1 KB a segment.
    small, large = _peaks(tmp_path, lambda directory, n: _significance_args(directory, n, metric))
    assert large - small <= 1024 * 3_000, (small, large)


def test_significance_bleu_memory_grows_by_a_row_per_segment(capsys, tmp_path):
    with criterion(capsys, "significance --metric bleu under 1 KB per added segment"):
        _assert_significance_memory_per_segment(tmp_path, "bleu")


def test_significance_wer_memory_grows_by_a_row_per_segment(capsys, tmp_path):
    with criterion(capsys, "significance --metric wer under 1 KB per added segment"):
        _assert_significance_memory_per_segment(tmp_path, "wer")


def _write_bitext(directory, n_pairs):
    """A bitext of `n_pairs` pairs written to `directory`, over 1,500 words
    a side drawn with Zipf weights; most target words translate a source
    word.  Returns its path and its co-occurrence slot count, the sum of
    (m + 1) * n over pairs of m source and n target words."""
    directory.mkdir(parents=True)
    rng = random.Random(5)
    ranks = range(1500)
    weights = [1 / (rank + 1) for rank in ranks]
    lines = []
    slots = 0
    for _ in range(n_pairs):
        m = rng.randint(3, 15)
        source = rng.choices(ranks, weights, k=m)
        target = [word if rng.random() < 0.8 else rng.randrange(1500) for word in source]
        rng.shuffle(target)
        target = target[: rng.randint(max(1, m - 3), m)]
        slots += (m + 1) * len(target)
        lines.append(" ".join(f"s{w}" for w in source) + " ||| " + " ".join(f"t{w}" for w in target))
    path = directory / "bitext.txt"
    path.write_text("".join(line + "\n" for line in lines))
    return str(path), slots


# The aligner's bounds are on the peaks' growth from 1,000 to 4,000 pairs,
# per added co-occurrence slot or model row.  `align train` keeps two
# 8-byte arrays per slot, key ids and posteriors.  `align apply` keeps
# three per model row, and its alignments grow with the pairs.


def test_align_train_memory_per_slot(capsys, tmp_path):
    with criterion(capsys, "align train under 42 bytes per added co-occurrence slot"):
        slots = {}

        def train_args(directory, n_pairs):
            bitext, slots[n_pairs] = _write_bitext(directory, n_pairs)
            return ["align", "train", "--train-bitext", bitext,
                    "--model-out", str(directory / "model.tsv")]

        small, large = _peaks(tmp_path, train_args)
        assert large - small <= 42 * (slots[4_000] - slots[1_000]), (small, large, slots)


def test_align_apply_memory_per_model_row(capsys, tmp_path):
    with criterion(capsys, "align apply under 80 bytes per added model row"):
        rows = {}

        def apply_args(directory, n_pairs):
            bitext, _ = _write_bitext(directory, n_pairs)
            model = str(directory / "model.tsv")
            assert main(["align", "train", "--train-bitext", bitext, "--model-out", model]) == 0
            with open(model, encoding="utf-8") as fh:
                rows[n_pairs] = sum(1 for _ in fh) - 1
            return ["align", "apply", "--model", model, "--bitext", bitext,
                    "--out-file", str(directory / "align.out")]

        small, large = _peaks(tmp_path, apply_args)
        assert large - small <= 80 * (rows[4_000] - rows[1_000]), (small, large, rows)
