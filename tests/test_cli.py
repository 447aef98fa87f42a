import io
import json
import os
import shutil
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from subeval import textproc
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
    assert code == 2
    assert "segmentation requires POS input" in capsys.readouterr().err


def test_eval_missing_required_flag(capsys):
    code = main(["eval", "--captions-hyp", "x"])
    assert code == 1
    assert "required" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--out", "xml"), ("--aggregation", "foo"), ("--breaks", "sideways"), ("--format", "vtt"),
        ("--max-cpl", "0"), ("--max-cps", "-1"), ("--max-cps", "nan"),
        ("--iterations", "-2"), ("--tension", "nan"), ("--tension", "inf"),
        ("--p0", "1.5"), ("--p0", "nan"),
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


def test_eval_byte_identical_reruns(micro_paths, tmp_path):
    out = tmp_path / "report.json"
    args = eval_args(micro_paths, "--out", "both", "--out-file", str(out))
    assert main(args) == 0
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first


GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden")


def test_eval_report_and_diagnostics_match_golden(micro_paths, tmp_path, monkeypatch, capsys):
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
        "--out", "both",
        "--out-file", "report.out",
        "--diagnostics", "diag.jsonl",
    )
    assert main(args) == 0
    for name in ("report.out", "diag.jsonl"):
        with open(os.path.join(GOLDEN, name), "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read(), name


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
     ("--p0", "-0.1")],
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


def test_significance_matches_golden(capsys):
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
