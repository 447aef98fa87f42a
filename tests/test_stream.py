"""`eval` scores one pair at a time: its reports equal those of the
whole-corpus library functions and those of the brute-force oracles (on
SRT, for consistency and segmentation on marked text, and on the lines
`--lenient` keeps), its errors and warnings come in pair order, and an
error exit leaves no diagnostics file."""

import json
import os
import stat
import subprocess
import sys
import tempfile
import threading
from unittest import mock

from hypothesis import Phase, given, settings, strategies as st

import oracles
import props
from subeval import cli
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
from subeval.textproc import UPOS_TAGS, Scheme, attach_tags, tokenize

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
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
