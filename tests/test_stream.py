"""`eval` scores blocks of pairs: its reports equal those of the
whole-corpus library functions and those of the brute-force oracles (on
SRT, for consistency and segmentation on marked text, on the lines
`--lenient` keeps, and with aligners trained on `--train-bitext`), its
outputs, errors and warnings are those of scoring one pair at a time,
in pair order, and an error exit leaves no diagnostics file.  `significance`, which also streams its inputs,
equals the NumPy bootstrap oracle."""

import io
import json
import os
import stat
import subprocess
import sys
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import Phase, given, settings, strategies as st

import oracles
import test_cli
import props
from subeval import cli
from subeval.align import BitextPair, train_aligner, viterbi_align_corpus
from subeval.conformity import (
    DEFAULT_MAX_CPS,
    BreakSelection,
    ConformityThresholds,
    LengthAggregation,
    conformity_report,
)
from subeval.consistency import consistency_report
from subeval.links import SentenceAlignment
from subeval.markers import load_marked_text
from subeval.model import pair_documents
from subeval.quality import corpus_bleu, wer
from subeval.report import EvaluationReport
from subeval.srt import load_srt
from subeval.textproc import UPOS_TAGS, Scheme, attach_tags, tokenize

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden")
FILES = (
    "captions_hyp", "captions_ref", "subtitles_hyp", "subtitles_ref",
    "pos_captions", "pos_subtitles", "align_c2s", "align_s2c",
)
# The `eval` properties skip Hypothesis's explain phase: after shrinking,
# it records every branch `cli.main` takes, and a failure then takes
# minutes and hundreds of MB to report.
_PHASES = [phase for phase in Phase if phase is not Phase.explain]
# Alphanumeric words first, so that every line can start with one and no
# reference is empty after WER normalization.
WORDS = [
    "alpha", "Bravo", "echo", "kilo", "l'eau", "don't", "1,000", "x-y", "«oui»", "...", "so,",
]

word = st.sampled_from(WORDS)
line = st.builds(lambda first, rest: " ".join([first, *rest]),
                 st.sampled_from(WORDS[:4]), st.lists(word, max_size=4))
block = st.lists(line, min_size=1, max_size=3).map(" <eol> ".join)
utterance = st.lists(block, min_size=1, max_size=3).map(lambda b: " <eob> ".join(b) + " <eob>")


def _args(paths, *extra):
    args = ["eval", "--caption-lang", "en", "--subtitle-lang", "fr", *extra]
    for key in FILES:
        if key in paths:
            args += ["--" + key.replace("_", "-"), paths[key]]
    return args


def _write(directory, name, lines):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))
    return path


def _micro_copy(micro_paths, directory, **edits):
    """The micro corpus copied to `directory`, each file in `edits` given
    as a function of its lines."""
    paths = {}
    for key, path in micro_paths.items():
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")[:-1]
        if key in edits:
            lines = edits[key](lines)
        paths[key] = _write(directory, os.path.basename(path), lines)
    return paths


def _replace(index, text):
    return lambda lines: lines[:index] + [text] + lines[index + 1:]


def _eval_report(paths, *options):
    """The report `eval` computes on `paths`, before it is written."""
    reports = []
    real = cli.report_to_json
    with mock.patch.object(cli, "report_to_json", lambda r: reports.append(r) or real(r)):
        assert cli.main(_args(paths, *options)) == 0
    (report,) = reports
    return report


def _pharaoh_lines(data, tokens):
    """Random in-range (c2s, s2c) alignments of each pair of (caption,
    subtitle) MT tokens, and the Pharaoh lines of each direction."""
    alignments = []
    for cap, sub in tokens:
        n_cap, n_sub = len(cap.words()), len(sub.words())
        alignments.append(tuple(
            SentenceAlignment(frozenset(data.draw(st.lists(
                st.tuples(st.integers(0, own - 1), st.integers(0, other - 1)), max_size=6
            ))))
            for own, other in ((n_cap, n_sub), (n_sub, n_cap))
        ))
    lines = [
        [" ".join(f"{i}-{j}" for i, j in sorted(pair[side].links)) for pair in alignments]
        for side in (0, 1)
    ]
    return alignments, lines


@settings(max_examples=40, deadline=None, phases=_PHASES)
@given(
    data=st.data(),
    n_pairs=st.integers(min_value=1, max_value=4),
    max_cpl=st.integers(min_value=5, max_value=42),
    aggregation=st.sampled_from(list(LengthAggregation)),
    breaks=st.sampled_from(list(BreakSelection)),
    exclude_trailing_eob=st.booleans(),
    skip_unaligned=st.booleans(),
)
def test_streamed_report_equals_the_whole_corpus_functions(
    data, n_pairs, max_cpl, aggregation, breaks, exclude_trailing_eob, skip_unaligned
):
    lines = {
        key: data.draw(st.lists(utterance, min_size=n_pairs, max_size=n_pairs))
        for key in FILES[:4]
    }
    with tempfile.TemporaryDirectory() as tmp:
        paths = {key: _write(tmp, key, lines[key]) for key in lines}
        docs = {key: load_marked_text(paths[key]) for key in lines}
        tokens = {
            key: [tokenize(utt.text(), Scheme.MT_DETACHED, lang) for utt in docs[key]]
            for key, lang in (("captions_hyp", "en"), ("subtitles_hyp", "fr"))
        }
        tags = {}
        for key, pos in (("captions_hyp", "pos_captions"), ("subtitles_hyp", "pos_subtitles")):
            tags[key] = [
                data.draw(st.lists(st.sampled_from(sorted(UPOS_TAGS)),
                                   min_size=len(t.words()), max_size=len(t.words())))
                for t in tokens[key]
            ]
            paths[pos] = _write(tmp, pos, [
                "".join(f"{i}\t{w}\t_\t{tag}\t_\t_\t0\t_\t_\t_\n"
                        for i, (w, tag) in enumerate(zip(t.words(), sentence), 1))
                for t, sentence in zip(tokens[key], tags[key])
            ])
        alignments, pharaoh = _pharaoh_lines(
            data, zip(tokens["captions_hyp"], tokens["subtitles_hyp"])
        )
        for key, side in zip(FILES[6:], pharaoh):
            paths[key] = _write(tmp, key, side)
        options = ["--max-cpl", str(max_cpl), "--aggregation", aggregation.value,
                   "--breaks", breaks.value, "--out-file", os.path.join(tmp, "report.json"),
                   "--diagnostics", os.path.join(tmp, "diag.jsonl")]
        options += ["--exclude-trailing-eob"] * exclude_trailing_eob
        options += ["--skip-unaligned"] * skip_unaligned
        streamed = _eval_report(paths, *options)
        with open(os.path.join(tmp, "diag.jsonl"), encoding="utf-8") as fh:
            diagnostics = [json.loads(record) for record in fh]

    thresholds = ConformityThresholds(max_cpl=max_cpl)
    conformity = [
        conformity_report(
            docs[key], thresholds, aggregation,
            [attach_tags(t, sentence) for t, sentence in zip(tokens[key], tags[key])],
            include_trailing_eob=not exclude_trailing_eob, breaks=breaks,
        )
        for key in ("captions_hyp", "subtitles_hyp")
    ]
    pairs = pair_documents(docs["captions_hyp"], docs["subtitles_hyp"])
    cons = consistency_report(pairs, alignments, "en", "fr", skip_unaligned=skip_unaligned)
    assert streamed == EvaluationReport(
        system_name="system",
        wer=wer(docs["captions_hyp"].utterances, docs["captions_ref"].utterances).wer,
        bleu=corpus_bleu(docs["subtitles_hyp"].utterances, docs["subtitles_ref"].utterances).score,
        length_captions=conformity[0].length_rate,
        length_subtitles=conformity[1].length_rate,
        reading_speed_captions=conformity[0].reading_speed_rate,
        reading_speed_subtitles=conformity[1].reading_speed_rate,
        segmentation_captions=conformity[0].segmentation_rate,
        segmentation_subtitles=conformity[1].segmentation_rate,
        structural=cons.structural,
        lexical=cons.lexical,
        line_count=cons.line_count,
        char_ratio=cons.char_ratio,
        config_echo=streamed.config_echo,
    )
    assert diagnostics == [
        {"id": pair.id, "blocks_c": len(pair.caption.blocks),
         "blocks_s": len(pair.subtitle.blocks), **json.loads(json.dumps(vars(result)))}
        for pair, result in zip(pairs, cons.per_pair)
    ]


# A cue's text lines, and its gap from the previous cue and duration in ms.
cue = st.tuples(st.lists(line, min_size=1, max_size=3), st.integers(0, 3000), st.integers(1, 9000))


@settings(max_examples=40, deadline=None, phases=_PHASES)
@given(
    data=st.data(),
    n_pairs=st.integers(min_value=1, max_value=4),
    aggregation=st.sampled_from(list(LengthAggregation)),
)
def test_srt_eval_matches_the_cue_oracles(data, n_pairs, aggregation):
    cues, markers = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for key in FILES[:4]:
            srt, cues[key], end = [], [], 0
            for index, (text, gap, duration) in enumerate(
                data.draw(st.lists(cue, min_size=n_pairs, max_size=n_pairs)), 1
            ):
                start, end = end + gap, end + gap + duration
                cues[key].append((text, start, end))
                timing = f"{props.srt_timestamp(start)} --> {props.srt_timestamp(end)}"
                srt += [str(index), timing, *text, ""]
            paths[key] = _write(tmp, key, srt)
            markers[key] = [" <eol> ".join(text) + " <eob>" for text, _, _ in cues[key]]
        tokens = zip(*(
            [tokenize(marker, Scheme.MT_DETACHED, lang) for marker in markers[key]]
            for key, lang in (("captions_hyp", "en"), ("subtitles_hyp", "fr"))
        ))
        for key, side in zip(FILES[6:], _pharaoh_lines(data, tokens)[1]):
            paths[key] = _write(tmp, key, side)
        # Either bound may sit exactly on a hypothesis line or cue, so
        # that the inclusive comparisons are exercised.
        hyp_cues = cues["captions_hyp"] + cues["subtitles_hyp"]
        max_cpl = data.draw(st.one_of(
            st.integers(5, 42), st.sampled_from([len(t) for text, _, _ in hyp_cues for t in text])
        ))
        max_cps = data.draw(st.one_of(
            st.integers(5, 30).map(float),
            st.sampled_from([len("".join(text)) / ((end - start) / 1000)
                             for text, start, end in hyp_cues]),
        ))
        report = _eval_report(
            paths, "--format", "srt", "--max-cpl", str(max_cpl), "--max-cps", repr(max_cps),
            "--aggregation", aggregation.value, "--out-file", os.path.join(tmp, "report.json"),
        )

    per_block = aggregation is LengthAggregation.PER_BLOCK
    for key, length, reading_speed in (
        ("captions_hyp", report.length_captions, report.reading_speed_captions),
        ("subtitles_hyp", report.length_subtitles, report.reading_speed_subtitles),
    ):
        assert (length, reading_speed) == oracles.cue_conformity(
            cues[key], max_cpl, max_cps, per_block
        )
    assert report.wer == oracles.corpus_wer(markers["captions_hyp"], markers["captions_ref"])
    assert report.bleu == oracles.corpus_bleu(markers["subtitles_hyp"], markers["subtitles_ref"])


@settings(max_examples=40, deadline=None, phases=_PHASES)
@given(
    data=st.data(),
    n_pairs=st.integers(min_value=1, max_value=4),
    breaks=st.sampled_from(list(BreakSelection)),
    exclude_trailing_eob=st.booleans(),
    skip_unaligned=st.booleans(),
)
def test_eval_consistency_and_segmentation_match_the_loop_oracles(
    data, n_pairs, breaks, exclude_trailing_eob, skip_unaligned
):
    markers = {
        key: data.draw(st.lists(utterance, min_size=n_pairs, max_size=n_pairs))
        for key in FILES[:4]
    }
    tokens, tagged = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        paths = {key: _write(tmp, key, markers[key]) for key in markers}
        for key, pos, lang in (("captions_hyp", "pos_captions", "en"),
                               ("subtitles_hyp", "pos_subtitles", "fr")):
            tokens[key] = [tokenize(marker, Scheme.MT_DETACHED, lang) for marker in markers[key]]
            tags = [
                data.draw(st.lists(st.sampled_from(sorted(UPOS_TAGS)),
                                   min_size=len(t.words()), max_size=len(t.words())))
                for t in tokens[key]
            ]
            tagged[key] = [attach_tags(t, sentence) for t, sentence in zip(tokens[key], tags)]
            paths[pos] = _write(tmp, pos, [
                "".join(f"{i}\t{w}\t_\t{tag}\t_\t_\t0\t_\t_\t_\n"
                        for i, (w, tag) in enumerate(zip(t.words(), sentence), 1))
                for t, sentence in zip(tokens[key], tags)
            ])
        token_pairs = list(zip(tokens["captions_hyp"], tokens["subtitles_hyp"]))
        alignments, pharaoh = _pharaoh_lines(data, token_pairs)
        for key, side in zip(FILES[6:], pharaoh):
            paths[key] = _write(tmp, key, side)
        options = ["--breaks", breaks.value, "--out-file", os.path.join(tmp, "report.json")]
        options += ["--exclude-trailing-eob"] * exclude_trailing_eob
        options += ["--skip-unaligned"] * skip_unaligned
        report = _eval_report(paths, *options)

    assert (report.structural, report.line_count, report.char_ratio) == oracles.pair_consistency(
        markers["captions_hyp"], markers["subtitles_hyp"]
    )
    for key, rate in (("captions_hyp", report.segmentation_captions),
                      ("subtitles_hyp", report.segmentation_subtitles)):
        assert rate == oracles.segmentation_plausibility(
            tagged[key], include_trailing_eob=not exclude_trailing_eob, breaks=breaks
        )
    # The mean of lex_pair, added in pair order.
    lex_sum = 0.0
    for index, (pair_tokens, (c2s, s2c)) in enumerate(zip(token_pairs, alignments)):
        lex_sum += oracles.lexical_consistency_pair_dict(
            str(index), pair_tokens, c2s, s2c, skip_unaligned
        ).lex_pair
    assert report.lexical == lex_sum / n_pairs


# A block whose lines may be empty, so that it holds empty segments or,
# with every line empty, is an empty block: `--lenient` drops both.  Each
# utterance keeps one block with words between them.
gappy_block = st.lists(st.one_of(line, st.just("")), min_size=1, max_size=3).map(" <eol> ".join)
gappy_utterance = st.builds(
    lambda before, kept, after: " <eob> ".join([*before, kept, *after]) + " <eob>",
    st.lists(gappy_block, max_size=2), block, st.lists(gappy_block, max_size=2),
)


@settings(max_examples=40, deadline=None, phases=_PHASES)
@given(
    data=st.data(),
    n_pairs=st.integers(min_value=1, max_value=4),
    max_cpl=st.integers(min_value=5, max_value=42),
    aggregation=st.sampled_from(list(LengthAggregation)),
)
def test_lenient_eval_matches_the_oracles_on_the_kept_lines(data, n_pairs, max_cpl, aggregation):
    raw = {
        key: data.draw(st.lists(gappy_utterance, min_size=n_pairs, max_size=n_pairs))
        for key in FILES[:4]
    }
    # What the checked parser keeps: each utterance as marker text, and
    # the text lines of each of its blocks.
    markers, blocks = {}, {}
    for key, lines in raw.items():
        kept = [
            [[line.text for line in b.lines] for b in utt.blocks]
            for utt in oracles.parse_marked_text_checked(lines, lenient=True).utterances
        ]
        markers[key] = [" <eob> ".join(map(" <eol> ".join, utt)) + " <eob>" for utt in kept]
        blocks[key] = [lines for utt in kept for lines in utt]
    with tempfile.TemporaryDirectory() as tmp:
        paths = {key: _write(tmp, key, raw[key]) for key in raw}
        tokens = zip(*(
            [tokenize(marker, Scheme.MT_DETACHED, lang) for marker in markers[key]]
            for key, lang in (("captions_hyp", "en"), ("subtitles_hyp", "fr"))
        ))
        for key, side in zip(FILES[6:], _pharaoh_lines(data, tokens)[1]):
            paths[key] = _write(tmp, key, side)
        report = _eval_report(
            paths, "--lenient", "--max-cpl", str(max_cpl), "--aggregation", aggregation.value,
            "--out-file", os.path.join(tmp, "report.json"),
        )

    assert report.wer == oracles.corpus_wer(markers["captions_hyp"], markers["captions_ref"])
    assert report.bleu == oracles.corpus_bleu(markers["subtitles_hyp"], markers["subtitles_ref"])
    assert (report.structural, report.line_count, report.char_ratio) == oracles.pair_consistency(
        markers["captions_hyp"], markers["subtitles_hyp"]
    )
    # Each block as a one-second cue: only the CPL half is compared.
    per_block = aggregation is LengthAggregation.PER_BLOCK
    for key, length in (("captions_hyp", report.length_captions),
                        ("subtitles_hyp", report.length_subtitles)):
        cues = [(lines, 0, 1000) for lines in blocks[key]]
        assert length == oracles.cue_conformity(cues, max_cpl, DEFAULT_MAX_CPS, per_block)[0]


@settings(max_examples=40, deadline=None, phases=_PHASES)
@given(
    data=st.data(),
    n_segments=st.integers(min_value=2, max_value=5),
    srt=st.booleans(),
    metric=st.sampled_from(["bleu", "wer"]),
    resamples=st.integers(min_value=1, max_value=50),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_streamed_significance_matches_the_numpy_oracle(
    data, n_segments, srt, metric, resamples, seed
):
    docs = {}
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for key in ("hyp-a", "hyp-b", "ref"):
            if srt:
                lines, end = [], 0
                for index, (text, gap, duration) in enumerate(
                    data.draw(st.lists(cue, min_size=n_segments, max_size=n_segments)), 1
                ):
                    start, end = end + gap, end + gap + duration
                    timing = f"{props.srt_timestamp(start)} --> {props.srt_timestamp(end)}"
                    lines += [str(index), timing, *text, ""]
            else:
                lines = data.draw(st.lists(utterance, min_size=n_segments, max_size=n_segments))
            paths[key] = _write(tmp, key, lines)
            docs[key] = (load_srt if srt else load_marked_text)(paths[key]).utterances
        args = ["significance", "--metric", metric, "--resamples", str(resamples),
                "--seed", str(seed), "--format", "srt" if srt else "mustcinema"]
        for key, path in paths.items():
            args += ["--" + key, path]
        with redirect_stdout(io.StringIO()) as out:
            assert cli.main(args) == 0
    got = json.loads(out.getvalue())
    want = oracles.bootstrap_numpy(
        docs["hyp-a"], docs["hyp-b"], docs["ref"], metric=metric, resamples=resamples, seed=seed
    )
    assert (got["p_value"], got["delta_mean"], got["better_system"]) == (
        want.p_value, want.delta_mean, want.better_system,
    )


@settings(max_examples=40, deadline=None, phases=_PHASES)
@given(
    data=st.data(),
    n_pairs=st.integers(min_value=1, max_value=4),
    n_bitext=st.integers(min_value=1, max_value=4),
    iterations=st.integers(min_value=0, max_value=5),
    no_diagonal_prior=st.booleans(),
    skip_unaligned=st.booleans(),
)
def test_trained_eval_matches_the_aligner_and_the_loop_oracle(
    data, n_pairs, n_bitext, iterations, no_diagonal_prior, skip_unaligned
):
    markers = {
        key: data.draw(st.lists(utterance, min_size=n_pairs, max_size=n_pairs))
        for key in FILES[:4]
    }
    bitext = data.draw(st.lists(st.tuples(line, line), min_size=n_bitext, max_size=n_bitext))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {key: _write(tmp, key, markers[key]) for key in markers}
        options = ["--train-bitext", _write(tmp, "bitext", [f"{s} ||| {t}" for s, t in bitext]),
                   "--iterations", str(iterations),
                   "--out-file", os.path.join(tmp, "report.json"),
                   "--diagnostics", os.path.join(tmp, "diag.jsonl")]
        options += ["--no-diagonal-prior"] * no_diagonal_prior
        options += ["--skip-unaligned"] * skip_unaligned
        report = _eval_report(paths, *options)
        with open(os.path.join(tmp, "diag.jsonl"), encoding="utf-8") as fh:
            diagnostics = [json.loads(record) for record in fh]

    def pair(source, target):
        return BitextPair(tuple(source.words()), tuple(target.words()))

    def train(corpus):
        return train_aligner(corpus, iterations=iterations, use_diagonal_prior=not no_diagonal_prior)

    token_pairs = [
        (tokenize(c, Scheme.MT_DETACHED, "en"), tokenize(s, Scheme.MT_DETACHED, "fr"))
        for c, s in zip(markers["captions_hyp"], markers["subtitles_hyp"])
    ]
    system = [pair(c, s) for c, s in token_pairs]
    forward = [
        pair(tokenize(s, Scheme.MT_DETACHED, "en"), tokenize(t, Scheme.MT_DETACHED, "fr"))
        for s, t in bitext
    ] + system
    backward = [BitextPair(p.target, p.source) for p in forward]
    c2s = viterbi_align_corpus(train(forward), system)
    s2c = viterbi_align_corpus(train(backward), backward[n_bitext:])
    results = [
        oracles.lexical_consistency_pair_dict(str(index), tokens, *links, skip_unaligned)
        for index, (tokens, links) in enumerate(zip(token_pairs, zip(c2s, s2c)))
    ]
    # The mean of lex_pair, added in pair order.
    assert report.lexical == sum(result.lex_pair for result in results) / n_pairs
    assert diagnostics == [
        {"id": str(index), "blocks_c": marker_c.count("<eob>"),
         "blocks_s": marker_s.count("<eob>"), **json.loads(json.dumps(vars(result)))}
        for index, (marker_c, marker_s, result) in enumerate(
            zip(markers["captions_hyp"], markers["subtitles_hyp"], results)
        )
    ]


def test_first_error_in_pair_order_is_reported(micro_paths, tmp_path, capsys):
    # A bad reference line at pair 7 and a link out of bounds at pair 3.
    paths = _micro_copy(micro_paths, tmp_path, captions_ref=_replace(6, ""),
                        align_c2s=_replace(2, "99-99"))
    assert cli.main(_args(paths)) == 2
    assert capsys.readouterr().err == (
        f"error: {paths['align_c2s']}:3: alignment link 99-99 out of bounds (utterance '2')\n"
    )


def test_end_of_corpus_errors_come_after_every_pair_error(micro_paths, tmp_path, capsys):
    # Every reference is empty after normalization, which is known only
    # at the end; the last pair has a link out of bounds.
    paths = _micro_copy(micro_paths, tmp_path,
                        captions_ref=lambda lines: ["... <eob>"] * len(lines),
                        align_s2c=_replace(19, "99-99"))
    assert cli.main(_args(paths)) == 2
    assert capsys.readouterr().err == (
        f"error: {paths['align_s2c']}:20: alignment link 99-99 out of bounds (utterance '19')\n"
    )
    # Without the bad link, the end-of-corpus error is reported.
    paths = _micro_copy(micro_paths, tmp_path,
                        captions_ref=lambda lines: ["... <eob>"] * len(lines))
    assert cli.main(_args(paths)) == 2
    assert capsys.readouterr().err == (
        f"error: {paths['captions_hyp']} vs {paths['captions_ref']}: "
        "reference corpus is empty after normalization\n"
    )


def test_count_errors_keep_their_order(micro_paths, tmp_path, capsys):
    # The reference count is checked before the Pharaoh line count, and
    # a count error before the rates, whose sums would cover only the
    # pairs read.
    paths = _micro_copy(micro_paths, tmp_path,
                        captions_ref=lambda lines: ["... <eob>"] * (len(lines) - 1),
                        align_c2s=lambda lines: lines[:-1])
    assert cli.main(_args(paths)) == 2
    assert capsys.readouterr().err == (
        f"error: {paths['captions_hyp']} vs {paths['captions_ref']}: "
        "utterance count mismatch: 20 vs 19\n"
    )
    paths = _micro_copy(micro_paths, tmp_path,
                        captions_ref=lambda lines: ["... <eob>"] * len(lines),
                        align_c2s=lambda lines: lines[:-1])
    assert cli.main(_args(paths)) == 2
    assert capsys.readouterr().err == f"error: {paths['align_c2s']}: 19 lines for 20 pairs\n"


def test_warnings_come_in_pair_order(micro_paths, tmp_path):
    def empty_segments(lines):
        # An empty last segment in utterances 1 and 4, dropped with --lenient.
        return [line.replace(" <eob>", " <eol> <eob>") if i in (1, 4) else line
                for i, line in enumerate(lines)]

    paths = _micro_copy(micro_paths, tmp_path, captions_hyp=empty_segments,
                        captions_ref=_replace(2, "... <eob>"))
    proc = subprocess.run(
        [sys.executable, "-m", "subeval.cli", *_args(paths, "--lenient")],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == (
        "dropping empty segment in utterance 1\n"
        "utterance 2: empty reference after normalization; "
        "hypothesis words counted as insertions\n"
        "dropping empty segment in utterance 4\n"
    )


def test_error_exit_leaves_no_diagnostics_file(micro_paths, tmp_path, capsys):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    paths = _micro_copy(micro_paths, inputs, align_s2c=_replace(19, "99-99"))
    out = tmp_path / "out"
    out.mkdir()
    diagnostics = out / "d.jsonl"
    assert cli.main(_args(paths, "--diagnostics", str(diagnostics))) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert list(out.iterdir()) == []
    # A file from an earlier run is left as it was.
    diagnostics.write_text("earlier\n", encoding="utf-8")
    assert cli.main(_args(paths, "--diagnostics", str(diagnostics))) == 2
    assert list(out.iterdir()) == [diagnostics]
    assert diagnostics.read_text(encoding="utf-8") == "earlier\n"
    # On success it is replaced.
    assert cli.main(_args(micro_paths, "--diagnostics", str(diagnostics))) == 0
    assert list(out.iterdir()) == [diagnostics]
    assert len(diagnostics.read_text(encoding="utf-8").splitlines()) == 20


def test_symlinked_diagnostics_path_is_written_through(micro_paths, tmp_path, capsys):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    bad = _micro_copy(micro_paths, inputs, align_s2c=_replace(19, "99-99"))
    real = tmp_path / "real"
    real.mkdir()
    target = real / "d.jsonl"
    target.write_text("earlier\n", encoding="utf-8")
    links = tmp_path / "links"
    links.mkdir()
    link = links / "d.jsonl"
    link.symlink_to(target)
    assert cli.main(_args(bad, "--diagnostics", str(link))) == 2
    assert target.read_text(encoding="utf-8") == "earlier\n"
    assert cli.main(_args(micro_paths, "--diagnostics", str(link))) == 0
    # The link still names the file it named, which now holds the lines;
    # no temporary file is left beside either.
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert len(target.read_text(encoding="utf-8").splitlines()) == 20
    assert list(links.iterdir()) == [link]
    assert list(real.iterdir()) == [target]


def test_diagnostics_to_a_pipe_are_written_directly(micro_paths, tmp_path, capsys):
    fifo = tmp_path / "d.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(
        target=lambda: received.append(fifo.read_text(encoding="utf-8")), daemon=True
    )
    reader.start()
    try:
        assert cli.main(_args(micro_paths, "--diagnostics", str(fifo))) == 0
    finally:
        reader.join(timeout=30)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert list(tmp_path.iterdir()) == [fifo]
    assert len(received[0].splitlines()) == 20


@pytest.mark.parametrize("stdout", ["pipe", "file"])
def test_diagnostics_to_stdout_come_before_the_report(micro_paths, tmp_path, stdout):
    """/dev/stdout, as a pipe or as a regular file, carries the
    diagnostics lines as the pairs are scored and then the report."""
    def run(*options, **kwargs):
        command = [sys.executable, "-m", "subeval.cli", *_args(micro_paths, *options)]
        return subprocess.run(command, env=dict(os.environ, PYTHONPATH=SRC), **kwargs)

    plain = run(stdout=subprocess.PIPE)
    assert plain.returncode == 0
    if stdout == "pipe":
        proc = run("--diagnostics", "/dev/stdout", stdout=subprocess.PIPE)
        written = proc.stdout
    else:
        with open(tmp_path / "out.txt", "wb") as fh:
            proc = run("--diagnostics", "/dev/stdout", stdout=fh)
        written = (tmp_path / "out.txt").read_bytes()
    assert proc.returncode == 0
    lines = written.decode("utf-8").splitlines(keepends=True)
    with open(os.path.join(GOLDEN, "diag.jsonl"), encoding="utf-8") as fh:
        assert lines[:20] == fh.readlines()
    report = json.loads("".join(lines[20:]))
    expected = json.loads(plain.stdout)
    assert report.pop("config")["diagnostics"] == "/dev/stdout"
    expected.pop("config")
    assert report == expected


@pytest.mark.parametrize("stderr", ["pipe", "file"])
def test_diagnostics_to_stderr_are_written_through_it(micro_paths, tmp_path, stderr):
    """/dev/stderr, as a pipe or as a regular file, carries the
    diagnostics lines after what it held, and the file stays stderr's."""
    command = [sys.executable, "-m", "subeval.cli",
               *_args(micro_paths, "--diagnostics", "/dev/stderr")]
    env = dict(os.environ, PYTHONPATH=SRC)
    if stderr == "pipe":
        proc = subprocess.run(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        written = proc.stderr
    else:
        err = tmp_path / "err.txt"
        err.write_bytes(b"earlier\n")
        with open(err, "ab") as fh:
            proc = subprocess.run(command, env=env, stdout=subprocess.PIPE, stderr=fh)
        written = err.read_bytes()
        assert written.startswith(b"earlier\n")
        written = written[len(b"earlier\n"):]
        assert list(tmp_path.iterdir()) == [err]
    assert proc.returncode == 0
    with open(os.path.join(GOLDEN, "diag.jsonl"), "rb") as fh:
        assert written == fh.read()
    assert json.loads(proc.stdout)["config"]["diagnostics"] == "/dev/stderr"


# ---------------------------------------------------------------------------
# Block boundaries: `eval` scores `cli._BLOCK_PAIRS` pairs at once, and
# every output, error and warning is that of scoring one pair at a time.

@pytest.mark.parametrize("block_pairs", [1, 3, 7])
@pytest.mark.parametrize("golden", ["micro", "skip", "trained", "srt"])
def test_goldens_hold_at_any_block_size(
    golden, block_pairs, micro_paths, tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(cli, "_BLOCK_PAIRS", block_pairs)
    if golden == "micro":
        test_cli._check_micro_eval_golden(
            micro_paths, tmp_path, monkeypatch, "report.out", "diag.jsonl"
        )
    elif golden == "skip":
        test_cli._check_micro_eval_golden(
            micro_paths, tmp_path, monkeypatch, "report.skip.out", "diag.skip.jsonl",
            "--skip-unaligned",
        )
    elif golden == "trained":
        test_cli.test_eval_with_trained_aligner_matches_golden(micro_paths, tmp_path, monkeypatch)
    else:
        test_cli.test_eval_srt_matches_golden(tmp_path, monkeypatch, capsys)


def _drop_second_token(index):
    """Drop the second token line of sentence `index` of a CoNLL-U file."""
    def edit(lines):
        first = ([0] + [i + 1 for i, line in enumerate(lines) if not line])[index]
        return lines[:first + 1] + lines[first + 2:]
    return edit


def _pos_args(paths, *extra):
    return _args(paths, "--pos-captions", paths["pos_captions"],
                 "--pos-subtitles", paths["pos_subtitles"], *extra)


def test_first_error_comes_first_across_blocks(micro_paths, tmp_path, monkeypatch, capsys):
    # At 3 pairs a block, the link out of bounds at pair 3 is in the first
    # block and the bad reference line at pair 7 in the third.
    monkeypatch.setattr(cli, "_BLOCK_PAIRS", 3)
    paths = _micro_copy(micro_paths, tmp_path, captions_ref=_replace(6, ""),
                        align_c2s=_replace(2, "99-99"))
    assert cli.main(_args(paths)) == 2
    assert capsys.readouterr().err == (
        f"error: {paths['align_c2s']}:3: alignment link 99-99 out of bounds (utterance '2')\n"
    )


def test_pair_error_comes_before_a_read_error_in_its_block(
    micro_paths, tmp_path, monkeypatch, capsys
):
    # Pairs 4 to 6 are one block: pair 4 has one tag too few, and reading
    # pair 5 fails on its empty reference line.
    monkeypatch.setattr(cli, "_BLOCK_PAIRS", 3)
    paths = _micro_copy(micro_paths, tmp_path, pos_captions=_drop_second_token(3),
                        captions_ref=_replace(4, ""))
    assert cli.main(_pos_args(paths)) == 2
    assert capsys.readouterr().err == (
        f"error: {paths['pos_captions']}:31: utterance '3': 8 word tokens but 7 tags\n"
    )
    # Without the bad tags, the read error is reported.
    paths = _micro_copy(micro_paths, tmp_path, captions_ref=_replace(4, ""))
    assert cli.main(_pos_args(paths)) == 2
    assert capsys.readouterr().err == (
        f"error: {paths['captions_ref']}:5: empty utterance (utterance 4)\n"
    )


def test_last_partial_block_is_scored_before_the_rest_of_a_longer_file(
    micro_paths, tmp_path, monkeypatch, capsys
):
    # At 3 pairs a block, pairs 19 and 20 make the last block, and pair 20
    # has a link out of bounds.  The reference file has a 21st line, which
    # is read once the hypotheses end, and is bad.
    monkeypatch.setattr(cli, "_BLOCK_PAIRS", 3)
    paths = _micro_copy(micro_paths, tmp_path, align_s2c=_replace(19, "99-99"),
                        captions_ref=lambda lines: lines + [""])
    assert cli.main(_args(paths)) == 2
    assert capsys.readouterr().err == (
        f"error: {paths['align_s2c']}:20: alignment link 99-99 out of bounds (utterance '19')\n"
    )


def test_warnings_come_in_pair_order_across_blocks(micro_paths, tmp_path, monkeypatch, capsys):
    # Pairs 0 to 2 and 3 to 5 are blocks.  A block is read, logging its
    # parsing warnings, before its WER warnings are known; each pair's
    # parsing warnings, then its WER warning, still come before the next
    # pair's.
    monkeypatch.setattr(cli, "_BLOCK_PAIRS", 3)

    def empty_segments(lines):
        return [line.replace(" <eob>", " <eol> <eob>") if i in (1, 2, 4) else line
                for i, line in enumerate(lines)]

    paths = _micro_copy(micro_paths, tmp_path, captions_hyp=empty_segments,
                        captions_ref=lambda lines: [
                            "... <eob>" if i in (0, 2, 3) else line for i, line in enumerate(lines)
                        ])
    assert cli.main(_args(paths, "--lenient", "--out-file", str(tmp_path / "r.json"))) == 0
    wer = "utterance {}: empty reference after normalization; hypothesis words counted as insertions"
    # Utterance 2 has two blocks, so two empty segments.
    dropped = "dropping empty segment in utterance {}"
    assert capsys.readouterr().err.splitlines() == [
        wer.format(0), dropped.format(1), dropped.format(2), dropped.format(2), wer.format(2),
        wer.format(3), dropped.format(4),
    ]


def _kept_markers(lines):
    """Each marked-text line as `--lenient` keeps it, in marker form."""
    return [
        " <eob> ".join(" <eol> ".join(line.text for line in b.lines) for b in utt.blocks) + " <eob>"
        for utt in oracles.parse_marked_text_checked(lines, lenient=True).utterances
    ]


@settings(max_examples=40, deadline=None, phases=_PHASES)
@given(
    data=st.data(),
    n_pairs=st.integers(min_value=2, max_value=7),
    lenient=st.sampled_from([True, True, True, False]),
    faulty=st.booleans(),
)
def test_blocks_of_pairs_score_as_single_pairs(data, n_pairs, lenient, faulty):
    """On a corpus that may hold lines `--lenient` drops (an input error
    without it), empty WER references and, when `faulty`, two to four
    wrong tag counts or links out of bounds, `eval` 3 pairs a block
    exits, prints and writes what it does 1 pair a block."""
    raw = {
        key: data.draw(st.lists(st.one_of(utterance, gappy_utterance),
                                min_size=n_pairs, max_size=n_pairs))
        for key in FILES[:4]
    }
    empty_refs = data.draw(st.lists(st.booleans(), min_size=n_pairs, max_size=n_pairs))
    raw["captions_ref"] = [
        "... <eob>" if empty else line for line, empty in zip(raw["captions_ref"], empty_refs)
    ]
    # (what, on which side, at which pair): a tag too many or too few,
    # or a link out of bounds.
    fault = st.tuples(
        st.sampled_from(["tags", "link"]), st.integers(0, 1), st.integers(0, n_pairs - 1)
    )
    faults = data.draw(st.lists(fault, min_size=2, max_size=4)) if faulty else []
    with tempfile.TemporaryDirectory() as tmp:
        paths = {key: _write(tmp, key, raw[key]) for key in raw}
        tokens = []
        for side, (key, lang) in enumerate((("captions_hyp", "en"), ("subtitles_hyp", "fr"))):
            tokens.append([tokenize(marker, Scheme.MT_DETACHED, lang)
                           for marker in _kept_markers(raw[key])])
            sentences = [[(w, "NOUN") for w in t.words()] for t in tokens[side]]
            for what, fault_side, index in faults:
                if (what, fault_side) == ("tags", side):
                    sentence = sentences[index]
                    sentences[index] = sentence[1:] if len(sentence) > 1 else sentence * 2
            paths[FILES[4 + side]] = _write(tmp, FILES[4 + side], [
                "".join(f"{i}\t{w}\t_\t{tag}\t_\t_\t0\t_\t_\t_\n"
                        for i, (w, tag) in enumerate(sentence, 1))
                for sentence in sentences
            ])
        for side, lines in enumerate(_pharaoh_lines(data, zip(*tokens))[1]):
            for what, fault_side, index in faults:
                if (what, fault_side) == ("link", side):
                    lines[index] = "99-99"
            paths[FILES[6 + side]] = _write(tmp, FILES[6 + side], lines)
        outputs = [os.path.join(tmp, "report.json"), os.path.join(tmp, "diag.jsonl")]
        args = _args(paths, "--pos-captions", paths["pos_captions"],
                     "--pos-subtitles", paths["pos_subtitles"],
                     "--out-file", outputs[0], "--diagnostics", outputs[1])
        args += ["--lenient"] * lenient

        def run(block_pairs):
            """The exit code, stderr and output files of `eval`, which
            are removed."""
            with mock.patch.object(cli, "_BLOCK_PAIRS", block_pairs), \
                    redirect_stderr(io.StringIO()) as err:
                code = cli.main(args)
            written = []
            for path in outputs:
                written.append(None)
                if os.path.exists(path):
                    with open(path, "rb") as fh:
                        written[-1] = fh.read()
                    os.remove(path)
            return code, err.getvalue(), written

        assert run(3) == run(1)
