import builtins
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

from subeval import cli, consistency, textproc
from subeval.cli import main
from subeval.textproc import Scheme

try:
    from importlib.resources import files as resource_files
except ImportError:  # pragma: no cover
    resource_files = None


def load_schema():
    text = resource_files("subeval").joinpath("schemas/report.schema.json").read_text()
    return json.loads(text)


def eval_args(micro_paths, *extra):
    return [
        "eval",
        "--captions-hyp", micro_paths["captions_hyp"],
        "--captions-ref", micro_paths["captions_ref"],
        "--subtitles-hyp", micro_paths["subtitles_hyp"],
        "--subtitles-ref", micro_paths["subtitles_ref"],
        "--align-c2s", micro_paths["align_c2s"],
        "--align-s2c", micro_paths["align_s2c"],
        "--caption-lang", "en",
        "--subtitle-lang", "fr",
        *extra,
    ]


# ---------------------------------------------------------------------------
# eval


def test_eval_json_validates_against_schema(micro_paths, capsys):
    code = main(
        eval_args(
            micro_paths,
            "--pos-captions", micro_paths["pos_captions"],
            "--pos-subtitles", micro_paths["pos_subtitles"],
            "--segmentation",
        )
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, load_schema())
    assert report["structural"] == 1.0
    assert report["segmentation"]["captions"] is not None


def test_eval_tsv_output(micro_paths, capsys):
    code = main(eval_args(micro_paths, "--out", "tsv", "--system-name", "demo"))
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split("\t")[0] == "system"
    row = lines[1].split("\t")
    assert row[0] == "demo"
    # Rates print Table-1 style, without a leading zero.
    assert row[9].startswith(".") or row[9] == "1.00"


def test_eval_identity_run(micro_paths, tmp_path, capsys):
    # Hypothesis files equal to the references; the aligner trains on a
    # bitext written from the reference documents themselves.
    from subeval.markers import load_marked_text

    caps = load_marked_text(micro_paths["captions_ref"])
    subs = load_marked_text(micro_paths["subtitles_ref"])
    bitext = tmp_path / "bitext.txt"
    with open(bitext, "w", encoding="utf-8") as fh:
        for c, s in zip(caps.utterances, subs.utterances):
            src = c.text().replace("<eob>", "").replace("<eol>", "")
            tgt = s.text().replace("<eob>", "").replace("<eol>", "")
            fh.write(f"{src} ||| {tgt}\n")
    code = main(
        [
            "eval",
            "--captions-hyp", micro_paths["captions_ref"],
            "--captions-ref", micro_paths["captions_ref"],
            "--subtitles-hyp", micro_paths["subtitles_ref"],
            "--subtitles-ref", micro_paths["subtitles_ref"],
            "--subtitle-lang", "fr",
            "--train-bitext", str(bitext),
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["wer"] == 0.0
    assert report["bleu"] == 100.0


def test_eval_missing_pos_with_segmentation(micro_paths, capsys):
    code = main(eval_args(micro_paths, "--segmentation"))
    assert code == 1
    assert capsys.readouterr().err == (
        "usage error: --segmentation requires --pos-captions and --pos-subtitles\n"
    )


def test_eval_missing_required_flag(capsys):
    code = main(["eval", "--captions-hyp", "x"])
    assert code == 1
    assert "required" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag",
    [("eval", "--iterations"), ("eval", "--config"), ("eval", "--captions-hyp"),
     ("align train", "--iterations"), ("significance", "--resamples")],
)
def test_option_given_double_dash_is_usage_error(micro_paths, tmp_path, capsys, command, flag):
    # argparse reads `--key=--` as an empty list and skips the option's type.
    required = {
        "eval": eval_args(micro_paths)[1:],
        "align train": ["--train-bitext", "bitext.txt", "--model-out", str(tmp_path / "m.tsv")],
        "significance": ["--metric", "bleu", "--hyp-a", "a", "--hyp-b", "b", "--ref", "ref"],
    }[command]
    assert main([*command.split(), *required, f"{flag}=--"]) == 1
    assert capsys.readouterr().err == f"usage error: {flag} expected one argument\n"
    assert not (tmp_path / "m.tsv").exists()


@pytest.mark.parametrize(
    "command, message",
    [("align train", "the following arguments are required: --model-out"),
     ("eval", "unrecognized arguments: --sys abbrev")],
    ids=["align-train", "eval"],
)
def test_option_prefix_is_usage_error(micro_paths, tmp_path, monkeypatch, capsys, command, message):
    # argparse reads an unambiguous prefix as the option it starts, unless
    # told not to: `--model` would be `align train`'s `--model-out`, and
    # `--sys` `eval`'s `--system-name`.
    monkeypatch.chdir(tmp_path)
    argv = {
        "align train": ["align", "train", "--train-bitext", os.path.join(GOLDEN, "bitext.txt"),
                        "--model", "m.tsv", "--iterations", "1"],
        "eval": [*eval_args(micro_paths), "--sys", "abbrev", "--out", "tsv"],
    }[command]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"usage error: {message}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--out", "xml"), ("--aggregation", "foo"), ("--breaks", "sideways"), ("--format", "vtt"),
        ("--max-cpl", "0"), ("--max-cps", "-1"), ("--max-cps", "nan"),
        ("--iterations", "-2"), ("--tension", "nan"), ("--tension", "inf"),
        ("--p0", "1.5"), ("--p0", "nan"), ("--tension", "-1000"), ("--tension", "20"),
        ("--train-bitext", ""), ("--extra-bitext", ""), ("--diagnostics", ""), ("--out-file", ""),
        ("--pos-captions", ""), ("--pos-subtitles", ""), ("--align-c2s", ""), ("--align-s2c", ""),
        ("--system-name", "a\tb"), ("--system-name", "a\nb"),
    ],
)
def test_eval_invalid_choice_is_usage_error_before_reading(micro_paths, capsys, flag, value):
    # A missing input file would exit 2; exit 1 shows the value was
    # rejected before any file was read.
    args = eval_args(micro_paths, flag, value)
    args[args.index("--captions-hyp") + 1] = "/nonexistent/captions.hyp"
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {flag} must be ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--config", ""],
        ["align", "apply", "--model", "", "--bitext", "/nonexistent/b.txt"],
        ["align", "apply", "--model", "/nonexistent/m.tsv", "--bitext", ""],
        ["align", "apply", "--model", "/nonexistent/m.tsv", "--bitext", "/nonexistent/b.txt",
         "--out-file", ""],
        ["validate-lexical", "--auto-scores", "", "--manual-scores", "/nonexistent/m",
         "--auto-judgements", "/nonexistent/a", "--manual-judgements", "/nonexistent/j"],
    ],
    ids=["config", "model", "bitext", "out-file", "auto-scores"],
)
def test_empty_path_is_usage_error_before_reading(capsys, argv):
    assert main(argv) == 1
    flag = argv[argv.index("") - 1]
    assert capsys.readouterr().err == f"usage error: {flag} must be a non-empty path, got ''\n"


def _without(args, flag):
    """`args` less `flag` and its value."""
    at = args.index(flag)
    return args[:at] + args[at + 2:]


@pytest.mark.parametrize(
    "dropped, message",
    [
        (["--align-s2c"], "--align-c2s and --align-s2c must be given together"),
        (["--align-c2s"], "--align-c2s and --align-s2c must be given together"),
        (
            ["--align-c2s", "--align-s2c"],
            "consistency requires --align-c2s/--align-s2c or --train-bitext",
        ),
    ],
)
def test_eval_alignment_source_is_checked_before_reading(micro_paths, capsys, dropped, message):
    args = eval_args(micro_paths)
    for flag in dropped:
        args = _without(args, flag)
    args[args.index("--captions-hyp") + 1] = "/nonexistent/captions.hyp"
    assert main(args) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"


def test_eval_tokenizes_each_hypothesis_utterance_once_under_mt(
    micro_paths, micro_docs, monkeypatch, capsys
):
    original = textproc.tokenize
    mt_texts = Counter()

    def counting_tokenize(text, scheme, lang="en"):
        if scheme is Scheme.MT_DETACHED:
            mt_texts[text, lang] += 1
        return original(text, scheme, lang)

    for name, module in list(sys.modules.items()):
        if name.startswith("subeval") and getattr(module, "tokenize", None) is original:
            monkeypatch.setattr(module, "tokenize", counting_tokenize)
    code = main(
        eval_args(
            micro_paths,
            "--pos-captions", micro_paths["pos_captions"],
            "--pos-subtitles", micro_paths["pos_subtitles"],
            "--segmentation",
        )
    )
    assert code == 0
    capsys.readouterr()
    expected = Counter(
        [(utt.text(), "en") for utt in micro_docs["captions_hyp"]]
        + [(utt.text(), "fr") for utt in micro_docs["subtitles_hyp"]]
    )
    assert mt_texts == expected


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_eval_missing_file(micro_paths, tmp_path, capsys, kind):
    args = eval_args(micro_paths)
    path = "/nonexistent/captions.hyp" if kind == "missing" else str(tmp_path)
    args[args.index("--captions-hyp") + 1] = path
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_eval_non_utf8_input_names_file_and_line(micro_paths, tmp_path, capsys):
    path = tmp_path / "captions.hyp"
    with open(micro_paths["captions_hyp"], "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    lines[2] = b"caf\xe9 <eob>\n"
    path.write_bytes(b"".join(lines))
    args = eval_args(micro_paths)
    args[args.index("--captions-hyp") + 1] = str(path)
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {path}:3: not valid UTF-8\n"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda cols: cols[:3] + ["FOO"] + cols[4:], "unknown UPOS 'FOO'"),
        (lambda cols: cols[:9], "expected 10 columns, got 9"),
    ],
    ids=["unknown-upos", "nine-columns"],
)
def test_eval_bad_conllu_names_file(micro_paths, tmp_path, capsys, edit, message):
    with open(micro_paths["pos_captions"], encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    lines[1] = "\t".join(edit(lines[1].split("\t")))
    pos = tmp_path / "captions.conllu"
    pos.write_text("\n".join(lines), encoding="utf-8")
    args = eval_args(
        micro_paths, "--pos-captions", str(pos), "--pos-subtitles", micro_paths["pos_subtitles"]
    )
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {pos}:2: {message}\n"


def test_eval_srt_cue_numbers_that_do_not_pair(tmp_path, capsys):
    cue = "\n00:00:01,000 --> 00:00:02,000\nhello there\n"
    (tmp_path / "captions.srt").write_text("1" + cue, encoding="utf-8")
    (tmp_path / "subtitles.srt").write_text("2" + cue, encoding="utf-8")
    (tmp_path / "align.txt").write_text("0-0 1-1\n", encoding="utf-8")
    caps, subs, links = (
        str(tmp_path / name) for name in ("captions.srt", "subtitles.srt", "align.txt")
    )
    code = main(["eval", "--format", "srt", "--captions-hyp", caps, "--captions-ref", caps,
                 "--subtitles-hyp", subs, "--subtitles-ref", subs,
                 "--align-c2s", links, "--align-s2c", links])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {caps} vs {subs}: paired utterances disagree on id: '1' vs '2'\n"
    )


def test_eval_caption_subtitle_count_mismatch_names_both_files(tmp_path, capsys):
    (tmp_path / "captions.txt").write_text("a <eob>\nb <eob>\n", encoding="utf-8")
    (tmp_path / "subtitles.txt").write_text("a <eob>\n", encoding="utf-8")
    (tmp_path / "align.txt").write_text("0-0\n0-0\n", encoding="utf-8")
    caps, subs, links = (
        str(tmp_path / name) for name in ("captions.txt", "subtitles.txt", "align.txt")
    )
    code = main(["eval", "--captions-hyp", caps, "--captions-ref", caps,
                 "--subtitles-hyp", subs, "--subtitles-ref", subs,
                 "--align-c2s", links, "--align-s2c", links])
    assert code == 2
    assert capsys.readouterr().err == f"error: {caps} vs {subs}: utterance count mismatch: 2 vs 1\n"


@pytest.mark.parametrize(
    "key, at, text, message",
    [
        ("pos_captions", 1, None, "{pos_captions}:1: utterance '0': 8 word tokens but 7 tags"),
        # The line of the sentence's first token.
        ("pos_captions", 10, None, "{pos_captions}:10: utterance '1': 10 word tokens but 9 tags"),
        ("align_c2s", 19, None, "{align_c2s}: 19 lines for 20 pairs"),
        ("align_c2s", 0, "99-99",
         "{align_c2s}:1: alignment link 99-99 out of bounds (utterance '0')"),
        ("captions_hyp", 1, "", "{captions_hyp}:2: empty utterance (utterance 1)"),
        # Each Pharaoh file is named alone, on the line of the pair.
        ("align_s2c", 0, "99-99",
         "{align_s2c}:1: alignment link 99-99 out of bounds (utterance '0')"),
        ("align_s2c", 6, "0-0 0-99",
         "{align_s2c}:7: alignment link 0-99 out of bounds (utterance '6')"),
        ("align_c2s", 6, "99-0",
         "{align_c2s}:7: alignment link 99-0 out of bounds (utterance '6')"),
        ("pos_captions", 20, "1\tThe", "{pos_captions}:21: expected 10 columns, got 2"),
        # The last sentence's five token lines and the blank line after them.
        ("pos_captions", slice(-7, -1), None, "{pos_captions}: 19 sentences for 20 utterances"),
        ("captions_ref", slice(None), None, "{captions_hyp} vs {captions_ref}: empty corpus"),
    ],
    ids=[
        "pos-tag-count", "pos-tag-count-sentence-2", "pharaoh-line-count",
        "pharaoh-link-bounds", "empty-utterance", "pharaoh-s2c-link-bounds", "pharaoh-s2c-link-bounds-pair-7",
        "pharaoh-c2s-link-bounds-pair-7", "conllu-line", "pos-sentence-count", "empty-reference",
    ],
)
def test_eval_input_error_names_file_and_line(micro_paths, tmp_path, capsys, key, at, text,
                                              message):
    # Line `at` (or the lines of slice `at`) of one micro-corpus file is
    # replaced by `text`, or dropped.
    with open(micro_paths[key], encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    lines[at if isinstance(at, slice) else slice(at, at + 1)] = [] if text is None else [text]
    paths = dict(micro_paths, **{key: str(tmp_path / os.path.basename(micro_paths[key]))})
    with open(paths[key], "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
    assert main(eval_args(paths, "--pos-captions", paths["pos_captions"])) == 2
    assert capsys.readouterr().err == f"error: {message.format(**paths)}\n"


def test_eval_srt_error_names_file_and_line(tmp_path, capsys):
    # Pairs are read in order, so the three other inputs are valid SRT
    # too: the error of the hypothesis's second cue is the first one met.
    good = "1\n00:00:01,000 --> 00:00:02,000\nhello\n\n2\n00:00:04,000 --> 00:00:05,000\nthere\n"
    args = ["eval", "--format", "srt"]
    for key in ("captions-hyp", "captions-ref", "subtitles-hyp", "subtitles-ref"):
        path = tmp_path / f"{key}.srt"
        path.write_text(good, encoding="utf-8")
        args += [f"--{key}", str(path)]
    for key in ("align-c2s", "align-s2c"):
        (tmp_path / key).write_text("0-0\n0-0\n", encoding="utf-8")
        args += [f"--{key}", str(tmp_path / key)]
    path = tmp_path / "captions.srt"
    path.write_text(good.replace("00:00:05,000", "00:00:03,000"), encoding="utf-8")
    args[args.index("--captions-hyp") + 1] = str(path)
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {path}:6: cue 2: non-positive duration\n"


def test_eval_checks_each_pharaoh_link_once(micro_paths, monkeypatch, capsys):
    checked = Counter()
    # `eval` drops each pair's alignments once it is scored; holding them
    # here keeps their ids from being reused.
    held = []

    def check_links(alignment, *args):
        checked[id(alignment)] += 1
        held.append(alignment)
        return real(alignment, *args)

    real = consistency.check_links
    monkeypatch.setattr(consistency, "check_links", check_links)
    assert main(eval_args(micro_paths)) == 0
    # Each of the 20 lines of both Pharaoh files, once.
    assert sorted(checked.values()) == [1] * 40


# One mutation of one micro-corpus file per example.
FUZZ_FILES = (
    "captions_hyp", "captions_ref", "subtitles_hyp", "subtitles_ref",
    "pos_captions", "pos_subtitles", "align_c2s", "align_s2c",
)


def _mutate(data, mutation, at, junk):
    lines = data.splitlines(keepends=True)
    if mutation == "replace":
        start = at % len(data)
        return data[:start] + junk + data[start + len(junk):]
    if mutation == "drop":
        i = at % len(lines)
        return b"".join(lines[:i] + lines[i + 1:])
    if mutation == "duplicate":
        i = at % len(lines)
        return b"".join(lines[: i + 1] + lines[i:])
    return data[: at % (len(data) + 1)]


@settings(max_examples=50, deadline=None)
@given(
    key=st.sampled_from(FUZZ_FILES),
    mutation=st.sampled_from(("replace", "drop", "duplicate", "truncate")),
    at=st.integers(min_value=0, max_value=10**6),
    junk=st.one_of(
        st.binary(min_size=1, max_size=8),
        st.text(min_size=1, max_size=8).map(str.encode),
    ),
)
def test_eval_fuzzed_input_exits_with_contract_code(micro_paths, key, mutation, at, junk):
    with open(micro_paths[key], "rb") as fh:
        data = _mutate(fh.read(), mutation, at, junk)
    with tempfile.TemporaryDirectory() as tmp:
        paths = dict(micro_paths)
        paths[key] = os.path.join(tmp, os.path.basename(micro_paths[key]))
        with open(paths[key], "wb") as fh:
            fh.write(data)
        args = eval_args(
            paths,
            "--pos-captions", paths["pos_captions"],
            "--pos-subtitles", paths["pos_subtitles"],
            "--segmentation",
        )
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(args)
    assert code in (0, 1, 2)


def test_eval_config_file_merge(micro_paths, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(
        "captions-hyp = {captions_hyp}\n"
        "captions-ref = {captions_ref}\n"
        "subtitles-hyp = {subtitles_hyp}\n"
        "subtitles-ref = {subtitles_ref}\n"
        "align-c2s = {align_c2s}\n"
        "align-s2c = {align_s2c}\n"
        "subtitle-lang = fr\n"
        "system-name = from-config\n".format(**micro_paths)
    )
    code = main(["eval", "--config", str(config), "--system-name", "from-cli"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    # CLI value wins over the config file.
    assert report["system"] == "from-cli"
    assert report["config"]["subtitle-lang"] == "fr"


def test_eval_config_unknown_key(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("no-such-option = 1\n")
    code = main(["eval", "--config", str(config)])
    assert code == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, message",
    [
        ("no-such-option = 1", "unknown key 'no-such-option'"),
        ("lenient = maybe", "key 'lenient': expected a boolean, got 'maybe'"),
        ("max-cpl = wide", "key 'max-cpl': bad value 'wide'"),
    ],
)
def test_eval_config_error_names_file_and_line(tmp_path, capsys, line, message):
    config = tmp_path / "bad.cfg"
    config.write_text(f"# settings\n\nsystem-name = x\n{line}\n")
    code = main(["eval", "--config", str(config)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {config}:4: {message}\n"


@pytest.mark.parametrize("word", ["false", "0", "no"])
def test_eval_config_false_word_turns_a_flag_off(micro_paths, tmp_path, capsys, word):
    # Turned on, --segmentation without POS files is a usage error.
    config = tmp_path / "run.cfg"
    config.write_text(f"segmentation = {word}\n")
    assert main(eval_args(micro_paths, "--config", str(config))) == 0
    assert json.loads(capsys.readouterr().out)["config"]["segmentation"] is False


def test_eval_config_path_with_nul_is_usage_error(capsys):
    assert main(["eval", "--config", "a\x00b"]) == 1
    assert capsys.readouterr().err == (
        "usage error: --config must be UTF-8 text without NUL, got 'a\\x00b'\n"
    )


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
def test_eval_report_on_stdout_is_utf8_whatever_its_encoding(micro_paths, tmp_path, encoding):
    # A non-ASCII system name: stdout must carry the bytes --out-file gets.
    args = eval_args(micro_paths, "--out", "tsv", "--system-name", "sys\u00e9")
    out = tmp_path / "report.tsv"
    assert main([*args, "--out-file", str(out)]) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "subeval.cli", *args], capture_output=True,
        env=dict(os.environ, PYTHONPATH=SRC, PYTHONIOENCODING=encoding),
    )
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    assert proc.stdout == out.read_bytes()


def test_eval_byte_identical_reruns(micro_paths, tmp_path):
    out = tmp_path / "report.json"
    args = eval_args(micro_paths, "--out", "both", "--out-file", str(out))
    assert main(args) == 0
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first


GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden")


def _check_micro_eval_golden(micro_paths, tmp_path, monkeypatch, report, diag, *extra):
    # Relative input names keep the config echo free of machine paths.
    for path in micro_paths.values():
        shutil.copy(path, tmp_path)
    monkeypatch.chdir(tmp_path)
    names = {key: os.path.basename(path) for key, path in micro_paths.items()}
    args = eval_args(
        names,
        "--pos-captions", names["pos_captions"],
        "--pos-subtitles", names["pos_subtitles"],
        "--segmentation",
        *extra,
        "--out", "both",
        "--out-file", report,
        "--diagnostics", diag,
    )
    assert main(args) == 0
    for name in (report, diag):
        with open(os.path.join(GOLDEN, name), "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read(), name


def test_eval_report_and_diagnostics_match_golden(micro_paths, tmp_path, monkeypatch):
    _check_micro_eval_golden(micro_paths, tmp_path, monkeypatch, "report.out", "diag.jsonl")


def test_eval_skip_unaligned_matches_golden(micro_paths, tmp_path, monkeypatch):
    # Unaligned words leave the denominator: lexical .98 against .89.
    _check_micro_eval_golden(
        micro_paths, tmp_path, monkeypatch, "report.skip.out", "diag.skip.jsonl",
        "--skip-unaligned",
    )


def test_eval_with_trained_aligner_matches_golden(micro_paths, tmp_path, monkeypatch):
    # Both aligner directions are trained on the micro bitext plus the
    # system pairs, then each applied to every system pair.
    for key in ("captions_hyp", "captions_ref", "subtitles_hyp", "subtitles_ref"):
        shutil.copy(micro_paths[key], tmp_path)
    shutil.copy(os.path.join(os.path.dirname(micro_paths["captions_ref"]), "bitext.txt"), tmp_path)
    monkeypatch.chdir(tmp_path)
    args = [
        "eval",
        "--captions-hyp", "captions.hyp",
        "--captions-ref", "captions.ref",
        "--subtitles-hyp", "subtitles.hyp",
        "--subtitles-ref", "subtitles.ref",
        "--caption-lang", "en",
        "--subtitle-lang", "fr",
        "--train-bitext", "bitext.txt",
        "--out", "both",
        "--out-file", "report.trained.out",
        "--diagnostics", "diag.trained.jsonl",
    ]
    assert main(args) == 0
    for name in ("report.trained.out", "diag.trained.jsonl"):
        with open(os.path.join(GOLDEN, name), "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read(), name


def test_eval_srt_matches_golden(tmp_path, monkeypatch, capsys):
    # Timed input: reading speed is scored per cue.  The aligner trains
    # on the golden bitext plus the system pairs.
    for name in ("significance.a.srt", "significance.b.srt", "significance.ref.srt", "bitext.txt"):
        shutil.copy(os.path.join(GOLDEN, name), tmp_path)
    monkeypatch.chdir(tmp_path)
    args = [
        "eval", "--format", "srt",
        "--captions-hyp", "significance.a.srt",
        "--captions-ref", "significance.ref.srt",
        "--subtitles-hyp", "significance.b.srt",
        "--subtitles-ref", "significance.ref.srt",
        "--train-bitext", "bitext.txt",
        "--out", "both",
        "--diagnostics", "diag.srt.jsonl",
    ]
    assert main(args) == 0
    with open(os.path.join(GOLDEN, "report.srt.out"), encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()
    with open(os.path.join(GOLDEN, "diag.srt.jsonl"), "rb") as fh:
        assert (tmp_path / "diag.srt.jsonl").read_bytes() == fh.read()


def _check_align_golden(tmp_path, model_name, out_name, *train_flags):
    bitext = os.path.join(GOLDEN, "bitext.txt")
    model, out = tmp_path / model_name, tmp_path / out_name
    assert main(
        ["align", "train", "--train-bitext", bitext, "--model-out", str(model), *train_flags]
    ) == 0
    assert main(
        ["align", "apply", "--model", str(model), "--bitext", bitext, "--out-file", str(out)]
    ) == 0
    for path in (model, out):
        with open(os.path.join(GOLDEN, path.name), "rb") as fh:
            assert path.read_bytes() == fh.read(), path.name


def test_align_train_and_apply_match_golden(tmp_path):
    _check_align_golden(tmp_path, "model.tsv", "align.out")


def test_align_train_and_apply_without_prior_match_golden(tmp_path):
    # IBM Model 1: the diagonal prior at tension 0; the model file still
    # records the unused tension.
    _check_align_golden(tmp_path, "model.flat.tsv", "align.flat.out", "--no-diagonal-prior")


def test_eval_diagnostics_jsonl(micro_paths, tmp_path, capsys):
    diag = tmp_path / "diag.jsonl"
    code = main(eval_args(micro_paths, "--diagnostics", str(diag)))
    assert code == 0
    capsys.readouterr()
    records = [json.loads(line) for line in diag.read_text().splitlines()]
    assert len(records) == 20
    for record in records:
        assert set(record) == {
            "id", "blocks_c", "blocks_s", "lex_c2s", "lex_s2c", "lex_pair",
            "inconsistent_tokens",
        }
        assert record["lex_pair"] == pytest.approx(
            (record["lex_c2s"] + record["lex_s2c"]) / 2
        )


# ---------------------------------------------------------------------------
# align train / apply


@pytest.fixture
def toy_bitext(tmp_path):
    path = tmp_path / "bitext.txt"
    path.write_text("a ||| x\na b ||| x y\n")
    return str(path)


def test_align_train_and_apply(toy_bitext, tmp_path, capsys):
    model_path = tmp_path / "model.tsv"
    code = main(
        [
            "align", "train",
            "--train-bitext", toy_bitext,
            "--model-out", str(model_path),
            "--iterations", "10",
            "--no-diagonal-prior",
        ]
    )
    assert code == 0
    apply_input = tmp_path / "apply.txt"
    apply_input.write_text("a b ||| x y\n")
    code = main(
        ["align", "apply", "--model", str(model_path), "--bitext", str(apply_input)]
    )
    assert code == 0
    assert capsys.readouterr().out == "0-0 1-1\n"


def test_align_train_deterministic(toy_bitext, tmp_path):
    model_a = tmp_path / "a.tsv"
    model_b = tmp_path / "b.tsv"
    for path in (model_a, model_b):
        assert main(
            ["align", "train", "--train-bitext", toy_bitext, "--model-out", str(path)]
        ) == 0
    assert model_a.read_bytes() == model_b.read_bytes()


@pytest.mark.parametrize(
    "flag, value",
    [("--iterations", "-1"), ("--tension", "nan"), ("--tension", "inf"), ("--p0", "1.5"),
     ("--p0", "-0.1"), ("--tension", "-1000"), ("--tension", "20"),
     ("--train-bitext", ""), ("--extra-bitext", ""), ("--model-out", "")],
)
def test_align_train_invalid_value_is_usage_error_before_reading(tmp_path, capsys, flag, value):
    model = tmp_path / "model.tsv"
    args = ["align", "train", "--train-bitext", "/nonexistent/bitext.txt",
            "--model-out", str(model), flag, value]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {flag} must be ")
    assert err.count("\n") == 1
    assert not model.exists()


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_align_apply_missing_model(tmp_path, capsys, kind):
    bitext = tmp_path / "b.txt"
    bitext.write_text("a ||| x\n")
    model = tmp_path / "no.tsv" if kind == "missing" else tmp_path
    code = main(["align", "apply", "--model", str(model), "--bitext", str(bitext)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_align_apply_bad_model_number_names_file_and_line(tmp_path, capsys):
    model = tmp_path / "model.tsv"
    model.write_text("tension\t4.0\tp0\t0.08\tdiagonal\t1\na\tx\t0.5\na\ty\tlots\n")
    bitext = tmp_path / "b.txt"
    bitext.write_text("a ||| x\n")
    code = main(["align", "apply", "--model", str(model), "--bitext", str(bitext)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {model}:3: bad probability 'lots'\n"


@pytest.mark.parametrize("command", ["train", "apply"])
def test_align_bad_bitext_names_file_and_line(toy_bitext, tmp_path, capsys, command):
    model = tmp_path / "model.tsv"
    assert main(["align", "train", "--train-bitext", toy_bitext, "--model-out", str(model)]) == 0
    bad = tmp_path / "bad.txt"
    bad.write_text("a ||| x\nno separator\n")
    args = {
        "train": ["--train-bitext", str(bad), "--model-out", str(model)],
        "apply": ["--model", str(model), "--bitext", str(bad)],
    }[command]
    assert main(["align", command, *args]) == 2
    assert capsys.readouterr().err == f"error: {bad}:2: missing ||| separator\n"


def test_align_extra_bitext(toy_bitext, tmp_path):
    extra = tmp_path / "extra.txt"
    extra.write_text("c ||| z\n")
    model_path = tmp_path / "model.tsv"
    code = main(
        [
            "align", "train",
            "--train-bitext", toy_bitext,
            "--extra-bitext", str(extra),
            "--model-out", str(model_path),
        ]
    )
    assert code == 0
    assert "c\tz\t" in model_path.read_text()


# ---------------------------------------------------------------------------
# significance


def test_significance_self_comparison(micro_paths, capsys):
    code = main(
        [
            "significance",
            "--metric", "bleu",
            "--resamples", "200",
            "--seed", "42",
            "--hyp-a", micro_paths["subtitles_hyp"],
            "--hyp-b", micro_paths["subtitles_hyp"],
            "--ref", micro_paths["subtitles_ref"],
        ]
    )
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["p_value"] == 1.0
    assert result["seed"] == 42


def _check_significance_golden(capsys):
    # significance.{a,b,ref}.srt are `perfbench/gen.py --workload
    # significance-srt --seed 7 --scale 0.015` (150 cues); bleu.json and
    # wer.json are what the CLI printed before the bootstrap scored each
    # reference once and resampled with count vectors.
    docs = {name: os.path.join(GOLDEN, f"significance.{name}.srt") for name in ("a", "b", "ref")}
    for metric in ("bleu", "wer"):
        args = ["significance", "--metric", metric, "--resamples", "1000", "--seed", "3"]
        args += ["--hyp-a", docs["a"], "--hyp-b", docs["b"], "--ref", docs["ref"], "--format", "srt"]
        assert main(args) == 0
        with open(os.path.join(GOLDEN, f"{metric}.json"), encoding="utf-8") as fh:
            assert capsys.readouterr().out == fh.read(), metric


def test_significance_matches_golden(capsys):
    _check_significance_golden(capsys)


def test_significance_zero_resamples_is_usage_error(micro_paths, capsys):
    code = main(
        [
            "significance",
            "--metric", "wer",
            "--resamples", "0",
            "--hyp-a", micro_paths["captions_hyp"],
            "--hyp-b", micro_paths["captions_ref"],
            "--ref", micro_paths["captions_ref"],
        ]
    )
    assert code == 1
    assert "resamples" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--resamples", "0", "--resamples must be a positive integer, got 0"),
        ("--metric", "chrf", "--metric must be bleu or wer, got 'chrf'"),
        ("--format", "vtt", "--format must be mustcinema or srt, got 'vtt'"),
        ("--seed", "-1", "--seed must be non-negative, got -1"),
        ("--hyp-a", "", "--hyp-a must be a non-empty path, got ''"),
        ("--hyp-b", "", "--hyp-b must be a non-empty path, got ''"),
        ("--ref", "", "--ref must be a non-empty path, got ''"),
    ],
)
def test_significance_invalid_value_is_usage_error_before_reading(capsys, flag, value, message):
    args = ["significance", "--metric", "wer", "--hyp-a", "/nonexistent/a",
            "--hyp-b", "/nonexistent/b", "--ref", "/nonexistent/ref", flag, value]
    assert main(args) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"


@pytest.mark.parametrize(
    "fmt, text, message",
    [
        ("mustcinema", "a <eob> <eob>\n", "empty segment (utterance 0)"),
        ("srt", "1\n00:00:02,000 --> 00:00:01,000\nhi\n", "cue 1: non-positive duration"),
        ("srt", "1\n00:00:01,000 --> 00:00:02,000\n<eob>\n",
         "line text contains a break token literal: '<eob>'"),
    ],
)
def test_significance_input_error_names_file(tmp_path, capsys, fmt, text, message):
    bad = tmp_path / "segments.txt"
    bad.write_text(text, encoding="utf-8")
    args = ["significance", "--metric", "bleu", "--format", fmt]
    assert main(args + ["--hyp-a", str(bad), "--hyp-b", str(bad), "--ref", str(bad)]) == 2
    # The marked-text line, the cue's timing line or its text line.
    line = {"empty segment (utterance 0)": 1, "cue 1: non-positive duration": 2}.get(message, 3)
    assert capsys.readouterr().err == f"error: {bad}:{line}: {message}\n"


# ---------------------------------------------------------------------------
# Warnings on stderr, in a fresh process where no logging handler is set up

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _run_cli(cwd, *args):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "subeval.cli", *args],
        cwd=cwd, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
    )


@pytest.mark.parametrize(
    "reference, code, err",
    [
        ("a <eob>\n", 2, "error: hyp.txt vs ref.txt: utterance count mismatch: 2 vs 1\n"),
        ("a <eob>\nb <eob>\n", 0, "dropping empty block in utterance 0\n" * 2),
    ],
    ids=["error", "success"],
)
def test_eval_lenient_warnings_print_only_on_success(tmp_path, reference, code, err):
    (tmp_path / "hyp.txt").write_text("a <eob> <eob>\nb <eob>\n", encoding="utf-8")
    (tmp_path / "ref.txt").write_text(reference, encoding="utf-8")
    (tmp_path / "align.txt").write_text("0-0\n0-0\n", encoding="utf-8")
    proc = _run_cli(
        tmp_path, "eval", "--lenient", "--captions-hyp", "hyp.txt", "--captions-ref", "ref.txt",
        "--subtitles-hyp", "hyp.txt", "--subtitles-ref", "ref.txt",
        "--align-c2s", "align.txt", "--align-s2c", "align.txt",
    )
    assert (proc.returncode, proc.stderr) == (code, err)


def test_significance_empty_wer_reference_prints_only_the_error(tmp_path):
    (tmp_path / "hyp.txt").write_text("a <eob>\nb <eob>\n", encoding="utf-8")
    (tmp_path / "ref.txt").write_text("... <eob>\n! <eob>\n", encoding="utf-8")
    proc = _run_cli(tmp_path, "significance", "--metric", "wer",
                    "--hyp-a", "hyp.txt", "--hyp-b", "hyp.txt", "--ref", "ref.txt")
    assert (proc.returncode, proc.stderr) == (
        2, "error: hyp.txt and hyp.txt vs ref.txt: reference corpus is empty after normalization\n"
    )


def test_significance_wer_prints_warnings_for_a_then_b(tmp_path):
    for name, lines in (
        ("a.txt", ["a b", "x", "c", "y z"]), ("b.txt", ["a", "w", "c d", "v"]),
        ("ref.txt", ["a b", "...", "c", "!"]),
    ):
        (tmp_path / name).write_text("".join(f"{line} <eob>\n" for line in lines), encoding="utf-8")
    proc = _run_cli(tmp_path, "significance", "--metric", "wer", "--resamples", "20",
                    "--hyp-a", "a.txt", "--hyp-b", "b.txt", "--ref", "ref.txt")
    warning = "utterance {}: empty reference after normalization; " \
        "hypothesis words counted as insertions\n"
    assert (proc.returncode, proc.stderr) == (0, "".join(warning.format(i) for i in "1313"))
    assert json.loads(proc.stdout)["resamples"] == 20


def test_significance_reports_the_first_error_in_segment_order(tmp_path, capsys):
    # The three inputs are read in lockstep, one segment from each, so a
    # bad reference cue at segment 2 is met before a bad hypothesis A cue
    # at segment 5.
    def cue(index, start="00:00:01,000"):
        return f"{index}\n{start} --> 00:00:02,000\nword\n\n"

    good = "".join(cue(i) for i in range(1, 6))
    texts = {
        "a.srt": "".join(cue(i, "00:00:03,000" if i == 5 else "00:00:01,000") for i in range(1, 6)),
        "b.srt": good,
        "ref.srt": "".join(cue(i, "00:00:03,000" if i == 2 else "00:00:01,000") for i in range(1, 6)),
    }
    paths = []
    for name, text in texts.items():
        paths.append(str(tmp_path / name))
        (tmp_path / name).write_text(text, encoding="utf-8")
    a, b, r = paths
    args = ["significance", "--metric", "bleu", "--format", "srt", "--hyp-a", a, "--hyp-b", b]
    assert main(args + ["--ref", r]) == 2
    assert capsys.readouterr().err == f"error: {r}:6: cue 2: non-positive duration\n"


@pytest.mark.parametrize(
    "hyp_a, hyp_b, ref, message",
    [
        (3, 2, 2, "utterance count mismatch: 3 vs 2"),
        (2, 1, 2, "utterance count mismatch: 1 vs 2"),
        (1, 1, 1, "need at least 2 segments, got 1"),
    ],
)
def test_significance_comparison_error_names_its_files(tmp_path, capsys, hyp_a, hyp_b, ref,
                                                       message):
    paths = []
    for name, lines in (("a.txt", hyp_a), ("b.txt", hyp_b), ("ref.txt", ref)):
        paths.append(str(tmp_path / name))
        (tmp_path / name).write_text("word <eob>\n" * lines, encoding="utf-8")
    a, b, r = paths
    assert main(["significance", "--metric", "bleu", "--hyp-a", a, "--hyp-b", b, "--ref", r]) == 2
    assert capsys.readouterr().err == f"error: {a} and {b} vs {r}: {message}\n"


# What a fresh interpreter has imported after each step: numpy is loaded
# only to train, align or resample.
_IMPORT_STEPS = """
import json, sys
seen = {}
import subeval
seen["import subeval"] = "numpy" in sys.modules
import subeval.cli
seen["import subeval.cli"] = "numpy" in sys.modules
for name, argv in json.loads(sys.argv[1]):
    seen[name] = [subeval.cli.main(argv), "numpy" in sys.modules]
try:
    subeval.nope
except AttributeError:
    seen["subeval.nope"] = "AttributeError"
from subeval import TranslationModel, train_aligner
import subeval.align, subeval.links
seen["from subeval import train_aligner"] = [
    train_aligner is subeval.align.train_aligner,
    TranslationModel is subeval.align.TranslationModel,
    "numpy" in sys.modules,
]
seen["align.load_pharaoh"] = subeval.align.load_pharaoh is subeval.links.load_pharaoh
print(json.dumps(seen))
"""


def test_eval_with_pharaoh_files_and_validate_lexical_never_import_numpy(micro_paths, tmp_path):
    for name, text in (("auto", "0.5\n"), ("manual", "0.7\n"), ("autoj", "1\n"), ("manualj", "0\n")):
        (tmp_path / f"{name}.txt").write_text(text, encoding="utf-8")
    runs = [
        ("eval", eval_args(
            micro_paths, "--pos-captions", micro_paths["pos_captions"],
            "--pos-subtitles", micro_paths["pos_subtitles"], "--segmentation",
            "--out-file", "report.json", "--diagnostics", "diag.jsonl",
        )),
        ("validate-lexical", [
            "validate-lexical", "--auto-scores", "auto.txt", "--manual-scores", "manual.txt",
            "--auto-judgements", "autoj.txt", "--manual-judgements", "manualj.txt",
        ]),
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_STEPS, json.dumps(runs)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "import subeval": False,
        "import subeval.cli": False,
        "eval": [0, False],
        "validate-lexical": [0, False],
        "subeval.nope": "AttributeError",
        "from subeval import train_aligner": [True, True, True],
        "align.load_pharaoh": True,
    }


# ---------------------------------------------------------------------------
# validate-lexical


def test_validate_lexical_subcommand(tmp_path, capsys):
    auto_scores = tmp_path / "auto.txt"
    manual_scores = tmp_path / "manual.txt"
    auto_judgements = tmp_path / "autoj.txt"
    manual_judgements = tmp_path / "manualj.txt"
    auto_scores.write_text("0.5\n0.9\n")
    manual_scores.write_text("0.7\n0.9\n")
    auto_judgements.write_text("1\n0\n1\n")
    manual_judgements.write_text("true\nfalse\nfalse\n")
    code = main(
        [
            "validate-lexical",
            "--auto-scores", str(auto_scores),
            "--manual-scores", str(manual_scores),
            "--auto-judgements", str(auto_judgements),
            "--manual-judgements", str(manual_judgements),
        ]
    )
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["mae"] == pytest.approx(0.1)
    assert result["agreement"] == pytest.approx(2 / 3)


def test_validate_lexical_non_numeric_score_names_file_and_line(tmp_path, capsys):
    paths = {name: tmp_path / f"{name}.txt" for name in ("auto", "manual", "autoj", "manualj")}
    paths["auto"].write_text("0.5\nhigh\n")
    paths["manual"].write_text("0.7\n0.9\n")
    paths["autoj"].write_text("1\n0\n")
    paths["manualj"].write_text("1\n0\n")
    code = main(
        [
            "validate-lexical",
            "--auto-scores", str(paths["auto"]),
            "--manual-scores", str(paths["manual"]),
            "--auto-judgements", str(paths["autoj"]),
            "--manual-judgements", str(paths["manualj"]),
        ]
    )
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {paths['auto']}:2: expected a number, got 'high'\n"
    )


@pytest.mark.parametrize("score", ["nan", "inf", "-inf", "1e999"])
def test_validate_lexical_non_finite_score_names_file_and_line(tmp_path, capsys, score):
    paths = {name: tmp_path / f"{name}.txt" for name in ("auto", "manual", "autoj", "manualj")}
    paths["auto"].write_text("0.5\n0.9\n")
    paths["manual"].write_text(f"0.7\n{score}\n")
    paths["autoj"].write_text("1\n0\n")
    paths["manualj"].write_text("1\n0\n")
    args = ["validate-lexical"]
    for flag, name in (("auto-scores", "auto"), ("manual-scores", "manual"),
                       ("auto-judgements", "autoj"), ("manual-judgements", "manualj")):
        args += [f"--{flag}", str(paths[name])]
    assert main(args) == 2
    assert capsys.readouterr().err == (
        f"error: {paths['manual']}:2: expected a number, got {score!r}\n"
    )


@pytest.mark.parametrize(
    "manual, manualj, message",
    [
        ("0.7\n", "1\n0\n", "score vector length mismatch: 2 vs 1"),
        ("0.7\n0.9\n", "1\n", "judgement vector length mismatch: 2 vs 1"),
    ],
)
def test_validate_lexical_comparison_error_names_its_files(tmp_path, capsys, manual, manualj,
                                                           message):
    texts = {"auto": "0.5\n0.9\n", "manual": manual, "autoj": "1\n0\n", "manualj": manualj}
    paths = {name: tmp_path / f"{name}.txt" for name in texts}
    for name, text in texts.items():
        paths[name].write_text(text)
    args = ["validate-lexical"]
    for flag, name in (("auto-scores", "auto"), ("manual-scores", "manual"),
                       ("auto-judgements", "autoj"), ("manual-judgements", "manualj")):
        args += [f"--{flag}", str(paths[name])]
    assert main(args) == 2
    files = "{auto} vs {manual}, {autoj} vs {manualj}".format(**paths)
    assert capsys.readouterr().err == f"error: {files}: {message}\n"


def test_validate_lexical_empty_files_name_their_files(tmp_path, capsys):
    args, paths = ["validate-lexical"], []
    for flag in ("auto-scores", "manual-scores", "auto-judgements", "manual-judgements"):
        paths.append(tmp_path / flag)
        paths[-1].write_text("")
        args += [f"--{flag}", str(paths[-1])]
    assert main(args) == 2
    files = "{} vs {}, {} vs {}".format(*paths)
    assert capsys.readouterr().err == f"error: {files}: empty validation vectors\n"


# ---------------------------------------------------------------------------
# Float sums: outputs must not depend on how the built-in `sum` rounds


_BUILTIN_SUM = sum


def _compensated_sum(values, start=0):
    """The built-in `sum` of Python 3.12 and later: floats are added with
    Neumaier's compensation, so the result can differ from adding left to
    right in its last bit."""
    values = list(values)
    if not any(isinstance(value, float) for value in values):
        return _BUILTIN_SUM(values, start)
    total, compensation = float(start), 0.0
    for value in values:
        step = total + value
        if abs(total) >= abs(value):
            compensation += (total - step) + value
        else:
            compensation += (value - step) + total
        total = step
    return total + compensation if compensation and math.isfinite(compensation) else total


def test_outputs_do_not_depend_on_how_sum_rounds(micro_paths, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    # Left to right, 1.0 + 1e-16 + 1e-16 is 1.0; compensated, it is one
    # ulp above, and the MAE would read 0.3333333333333334.
    texts = {"auto": "1.0\n1e-16\n1e-16\n", "manual": "0\n0\n0\n", "autoj": "1\n", "manualj": "1\n"}
    args = ["validate-lexical"]
    for flag, name in (("auto-scores", "auto"), ("manual-scores", "manual"),
                       ("auto-judgements", "autoj"), ("manual-judgements", "manualj")):
        (tmp_path / name).write_text(texts[name])
        args += [f"--{flag}", str(tmp_path / name)]
    assert main(args) == 0
    assert capsys.readouterr().out == '{"agreement": 1.0, "mae": 0.3333333333333333}\n'
    _check_micro_eval_golden(micro_paths, tmp_path, monkeypatch, "report.out", "diag.jsonl")
    _check_micro_eval_golden(
        micro_paths, tmp_path, monkeypatch, "report.skip.out", "diag.skip.jsonl",
        "--skip-unaligned",
    )
    _check_significance_golden(capsys)


# ---------------------------------------------------------------------------
# argv fuzz: every subcommand, in-process

MICRO = os.path.join(os.path.dirname(__file__), "data", "micro")
_FILES = sorted(os.path.join(d, name) for d in (MICRO, GOLDEN) for name in os.listdir(d))
_JUNK = st.text(max_size=12)
_NUMBERS = st.one_of(st.floats().map(repr), st.integers().map(str), _JUNK)


def _count(limit):
    """Integers up to `limit`, floats and digit-free words: nothing drawn
    parses as a larger int, so runs stay short."""
    return st.one_of(
        st.integers(max_value=limit).map(str),
        st.floats().map(repr),
        st.text(alphabet="ab-. _", max_size=6),
    )


def _one_of(*choices):
    return st.one_of(st.sampled_from(choices), _JUNK)


_INPUT = st.one_of(st.sampled_from(_FILES), _JUNK)
# Outputs land in the example's working directory, a temporary one.
_OUTPUT = st.sampled_from(["out.txt", "missing/out.txt", ".", ""])
_BOOL = st.sampled_from(["true", "no", "1", "maybe", ""])

# flag -> strategy of its value; None for a flag without one.
_FLAG_VALUES = {
    **dict.fromkeys(
        ("--captions-hyp", "--captions-ref", "--subtitles-hyp", "--subtitles-ref",
         "--pos-captions", "--pos-subtitles", "--align-c2s", "--align-s2c",
         "--train-bitext", "--extra-bitext", "--model", "--bitext", "--hyp-a", "--hyp-b",
         "--ref", "--auto-scores", "--manual-scores", "--auto-judgements",
         "--manual-judgements"),
        _INPUT,
    ),
    **dict.fromkeys(("--out-file", "--diagnostics", "--model-out"), _OUTPUT),
    **dict.fromkeys(
        ("--system-name", "--caption-lang", "--subtitle-lang", "--source-lang",
         "--target-lang"),
        _JUNK,
    ),
    **dict.fromkeys(("--max-cpl", "--max-cps", "--p0", "--tension", "--seed"), _NUMBERS),
    "--iterations": _count(3),
    "--resamples": _count(20),
    "--format": _one_of("mustcinema", "srt"),
    "--breaks": _one_of("eol", "eob", "both"),
    "--aggregation": _one_of("line", "block"),
    "--out": _one_of("json", "tsv", "both"),
    "--metric": _one_of("bleu", "wer"),
    **dict.fromkeys(
        ("--lenient", "--skip-unaligned", "--exclude-trailing-eob", "--segmentation",
         "--no-diagonal-prior", "--nope", "-x", "--"),
        None,
    ),
}


def _config_value(key):
    strategy = _FLAG_VALUES.get(f"--{key}", _JUNK)
    return _BOOL if strategy is None else strategy


# A config file: lines of a known or random key, "=" or " ", and a value.
_CONFIG = st.lists(
    st.one_of(st.sampled_from(sorted(cli.EVAL_OPTIONS)), _JUNK).flatmap(
        lambda key: st.tuples(st.just(key), st.sampled_from([" = ", " "]), _config_value(key))
    ),
    max_size=6,
).map(lambda lines: "".join(f"{key}{sep}{value}\n" for key, sep, value in lines))

# The flags of each subcommand; any flag may also be drawn for another.
_COMMAND_FLAGS = {
    "eval": [f"--{key}" for key in cli.EVAL_OPTIONS] + ["--config"],
    "align train": ["--train-bitext", "--extra-bitext", "--model-out", "--iterations", "--p0",
                    "--tension", "--no-diagonal-prior", "--source-lang", "--target-lang"],
    "align apply": ["--model", "--bitext", "--out-file", "--source-lang", "--target-lang"],
    "significance": ["--metric", "--resamples", "--seed", "--hyp-a", "--hyp-b", "--ref",
                     "--format"],
    "validate-lexical": ["--auto-scores", "--manual-scores", "--auto-judgements",
                         "--manual-judgements"],
}
_ANY_FLAG = sorted(set(_FLAG_VALUES) | {"--config"})


# Marked text with empty blocks, empty segments and lines that WER
# normalizes away, for an input written into the run's directory.
_MARKED = st.lists(
    st.lists(st.sampled_from(["a", "b", "...", "<eob>", "<eol>"]), min_size=1, max_size=6),
    min_size=1,
    max_size=4,
).map(lambda lines: "".join(" ".join(line) + "\n" for line in lines))
_MARKED_INPUTS = ("--captions-hyp", "--captions-ref", "--subtitles-hyp", "--subtitles-ref",
                  "--hyp-a", "--hyp-b", "--ref")


def _flag_tokens(flag):
    """The argv tokens of one `flag`: the flag alone, or with its value as
    the next token or after `=`.  Tokens that name a file written for the
    run end in its (name, text): `--config`, and a marked-text input,
    maybe with `--lenient`."""
    if flag == "--config":
        return _CONFIG.map(lambda text: ["--config", "run.cfg", ("run.cfg", text)])
    values = _FLAG_VALUES[flag]
    if values is None:
        return st.just([flag])
    tokens = st.tuples(values, st.booleans()).map(
        lambda drawn: [f"{flag}={drawn[0]}"] if drawn[1] else [flag, drawn[0]]
    )
    if flag not in _MARKED_INPUTS:
        return tokens
    marked = st.tuples(_MARKED, st.booleans()).map(
        lambda drawn: ["--lenient"] * drawn[1] + [flag, "marked.txt", ("marked.txt", drawn[0])]
    )
    return st.one_of(tokens, marked)


def _extra_tokens(flag):
    if flag is None:  # a junk token, or a flag of any subcommand
        return st.one_of(st.sampled_from(_ANY_FLAG).flatmap(_flag_tokens), _JUNK.map(lambda t: [t]))
    return _flag_tokens(flag)


def _extras(command):
    return st.lists(st.sampled_from(_COMMAND_FLAGS[command] + [None]).flatmap(_extra_tokens),
                    max_size=5)


# A subcommand, the indices of the flag/value pairs dropped from its
# valid run, and the argv extras appended to it.
_RUNS = st.sampled_from(sorted(_COMMAND_FLAGS)).flatmap(
    lambda command: st.tuples(
        st.just(command), st.sets(st.integers(0, 7), max_size=1), _extras(command)
    )
)


def _base_argv(command, micro_paths):
    """A valid run of `command`, as (words, flag/value pairs)."""
    g = GOLDEN
    if command == "eval":
        args = eval_args(micro_paths)
        return args[:1], list(zip(args[1::2], args[2::2]))
    if command == "align train":
        pairs = [("--train-bitext", f"{g}/bitext.txt"), ("--model-out", "model.tsv"),
                 ("--iterations", "1")]
    elif command == "align apply":
        pairs = [("--model", f"{g}/model.tsv"), ("--bitext", f"{g}/bitext.txt")]
    elif command == "significance":
        pairs = [("--metric", "bleu"), ("--resamples", "5"),
                 ("--hyp-a", micro_paths["subtitles_hyp"]),
                 ("--hyp-b", micro_paths["subtitles_ref"]),
                 ("--ref", micro_paths["subtitles_ref"])]
    else:
        pairs = [(f"--{name}", f"{name}.txt") for name in
                 ("auto-scores", "manual-scores", "auto-judgements", "manual-judgements")]
    return command.split(), pairs


@settings(max_examples=200, deadline=None)
@given(run=_RUNS)
# Runs that once escaped the contract: a ValueError from numpy's seeding,
# an OverflowError from the diagonal prior, a two-line usage error, and a
# ValueError or UnicodeEncodeError from `open`.
@example(run=("significance", set(), [["--seed", "-1"]]))
@example(run=("align train", set(), [["--tension", "-1000"]]))
@example(run=("eval", set(), [["junk\nline"]]))
@example(run=("eval", set(), [["--captions-hyp", "a\x00b"]]))
@example(run=("eval", set(), [["--config", "a\x00b"]]))
@example(run=("eval", set(), [["--system-name", "\udc80"], ["--out-file", "out.txt"]]))
# Runs that once raised a TypeError: argparse reads `--key=--` as [].
@example(run=("eval", set(), [["--iterations=--"]]))
@example(run=("eval", set(), [["--max-cpl=--"]]))
# Runs that once printed warnings before their error line.
@example(run=("eval", set(), [["--lenient", "--captions-hyp", "marked.txt",
                               ("marked.txt", "a <eob> <eob>\nb <eob>\n")]]))
@example(run=("significance", set(), [["--metric", "wer"]] + [
    [flag, "marked.txt", ("marked.txt", "a <eob>\nb <eob>\n")] for flag in ("--hyp-a", "--hyp-b")
] + [["--ref", "ref.txt", ("ref.txt", "... <eob>\n! <eob>\n")]]))
def test_any_argv_exits_with_contract_code(micro_paths, run):
    command, dropped, extras = run
    words, pairs = _base_argv(command, micro_paths)
    argv = words + [token for i, pair in enumerate(pairs) if i not in dropped for token in pair]
    files = {}
    for extra in extras:
        if isinstance(extra[-1], tuple):
            *extra, (name, files[name]) = extra
        argv += extra
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in (("auto-scores", "0.5\n0.9\n"), ("manual-scores", "0.7\nnan\n"),
                               ("auto-judgements", "1\n0\n"), ("manual-judgements", "yes\n0\n")):
                with open(f"{name}.txt", "w", encoding="utf-8") as fh:
                    fh.write(text)
            for name, text in files.items():
                with open(name, "w", encoding="utf-8", errors="surrogatepass") as fh:
                    fh.write(text)
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse exits after --help
                    code = exc.code
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().count("\n") == 1, err.getvalue()


# ---------------------------------------------------------------------------
# Defaults, pinned options and options that would have no effect


def test_eval_with_extra_bitext_matches_golden(micro_paths, tmp_path, monkeypatch):
    # The aligner trains on the micro bitext, then the golden bitext, then
    # the system pairs: lexical .882 against .8876 without the extra file.
    for key in ("captions_hyp", "captions_ref", "subtitles_hyp", "subtitles_ref"):
        shutil.copy(micro_paths[key], tmp_path)
    shutil.copy(os.path.join(MICRO, "bitext.txt"), tmp_path)
    shutil.copy(os.path.join(GOLDEN, "bitext.txt"), tmp_path / "extra.txt")
    monkeypatch.chdir(tmp_path)
    args = [
        "eval",
        "--captions-hyp", "captions.hyp",
        "--captions-ref", "captions.ref",
        "--subtitles-hyp", "subtitles.hyp",
        "--subtitles-ref", "subtitles.ref",
        "--caption-lang", "en",
        "--subtitle-lang", "fr",
        "--train-bitext", "bitext.txt",
        "--extra-bitext", "extra.txt",
        "--out", "both",
        "--out-file", "report.extra.out",
        "--diagnostics", "diag.extra.jsonl",
    ]
    assert main(args) == 0
    for name in ("report.extra.out", "diag.extra.jsonl"):
        with open(os.path.join(GOLDEN, name), "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read(), name


# Each subcommand's default values, written out as flags.  validate-lexical
# has no option with a default.
_SPELLED_DEFAULTS = {
    "eval": ["--format", "mustcinema", "--max-cpl", "42", "--max-cps", "21.0",
             "--breaks", "both", "--aggregation", "line", "--seed", "0", "--out", "json",
             "--system-name", "system", "--caption-lang", "en", "--subtitle-lang", "en",
             "--iterations", "5", "--p0", "0.08", "--tension", "4.0"],
    "align train": ["--iterations", "5", "--p0", "0.08", "--tension", "4.0",
                    "--source-lang", "en", "--target-lang", "en"],
    "align apply": ["--source-lang", "en", "--target-lang", "en"],
    "significance": ["--resamples", "1000", "--seed", "0", "--format", "mustcinema"],
}


@pytest.mark.parametrize("command", sorted(_SPELLED_DEFAULTS))
def test_spelled_out_defaults_change_no_output(micro_paths, tmp_path, monkeypatch, capsys, command):
    bitext = os.path.join(GOLDEN, "bitext.txt")
    required = {
        "eval": [
            "--captions-hyp", micro_paths["captions_hyp"],
            "--captions-ref", micro_paths["captions_ref"],
            "--subtitles-hyp", micro_paths["subtitles_hyp"],
            "--subtitles-ref", micro_paths["subtitles_ref"],
            "--train-bitext", os.path.join(MICRO, "bitext.txt"),
        ],
        "align train": ["--train-bitext", bitext, "--model-out", "model.tsv"],
        "align apply": ["--model", os.path.join(GOLDEN, "model.tsv"), "--bitext", bitext],
        "significance": ["--metric", "bleu", "--hyp-a", micro_paths["subtitles_hyp"],
                         "--hyp-b", micro_paths["subtitles_ref"],
                         "--ref", micro_paths["subtitles_ref"]],
    }[command]
    outputs = []
    for run, extra in (("bare", []), ("spelled", _SPELLED_DEFAULTS[command])):
        (tmp_path / run).mkdir()
        monkeypatch.chdir(tmp_path / run)
        assert main([*command.split(), *required, *extra]) == 0
        files = {path.name: path.read_bytes() for path in (tmp_path / run).iterdir()}
        outputs.append((capsys.readouterr().out, files))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] or outputs[0][1]


_UNUSED_BITEXT = "--train-bitext and --extra-bitext are unused with --align-c2s/--align-s2c"
_LENIENT_SRT = "--lenient applies to marked text, not to --format srt"
_SAME_OUTPUT = "--out-file and --diagnostics must name different files"


@pytest.mark.parametrize(
    "extra, config, message",
    [
        (["--train-bitext", "bitext.txt"], "", _UNUSED_BITEXT),
        (["--extra-bitext", "bitext.txt"], "", _UNUSED_BITEXT),
        ([], "extra-bitext = bitext.txt\n", _UNUSED_BITEXT),
        (["--lenient", "--format", "srt"], "", _LENIENT_SRT),
        (["--format", "srt"], "lenient = yes\n", _LENIENT_SRT),
        ([], "diagnostics = \n", "--diagnostics must be a non-empty path, got ''"),
        ([], "pos-subtitles\n", "--pos-subtitles must be a non-empty path, got ''"),
        (["--out-file", "same.out", "--diagnostics", "./same.out"], "", _SAME_OUTPUT),
        (["--out-file", "same.out"], "diagnostics = same.out\n", _SAME_OUTPUT),
    ],
    ids=["train-bitext", "extra-bitext", "extra-bitext-in-config", "lenient", "lenient-in-config",
         "empty-diagnostics-in-config", "empty-pos-in-config", "same-output",
         "same-output-in-config"],
)
def test_eval_option_without_effect_is_usage_error(micro_paths, tmp_path, capsys, extra, config,
                                                   message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config, encoding="utf-8")
    args = eval_args(micro_paths, "--config", str(cfg), *extra)
    args[args.index("--captions-hyp") + 1] = "/nonexistent/captions.hyp"
    assert main(args) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"


@pytest.mark.parametrize(
    "line, side",
    [("a b ||| ", "target"), ("<eob> <eol> ||| x", "source"), ("a ||| <eob><eol>", "target")],
    ids=["empty", "spaced-breaks", "joined-breaks"],
)
def test_bitext_side_without_words_names_file_and_line(tmp_path, capsys, line, side):
    bad = tmp_path / "bad.txt"
    bad.write_text(f"{line}\na ||| x\n", encoding="utf-8")
    args = ["align", "train", "--train-bitext", str(bad), "--model-out", str(tmp_path / "m.tsv")]
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {bad}:1: no word on the {side} side\n"


@pytest.mark.parametrize("extra", [False, True], ids=["train", "train-and-extra"])
def test_align_train_empty_corpus_names_its_files(tmp_path, capsys, extra):
    # An empty file and a blank one hold no pair.
    files = [tmp_path / "train.txt", tmp_path / "extra.txt"][: 1 + extra]
    args = ["align", "train", "--model-out", str(tmp_path / "m.tsv")]
    for path, flag, text in zip(files, ("--train-bitext", "--extra-bitext"), ("", " \n\n")):
        path.write_text(text, encoding="utf-8")
        args += [flag, str(path)]
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {' and '.join(map(str, files))}: empty corpus\n"
    assert not (tmp_path / "m.tsv").exists()
