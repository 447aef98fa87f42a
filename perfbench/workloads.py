"""What each benchmark workload runs through the ``subeval`` CLI, and how
its outputs are checked.

Workloads, and why each was chosen:

- ``eval-10k``: ``subeval eval`` on 10,000 caption/subtitle pairs with
  POS tags, Pharaoh alignments, segmentation, diagnostics and both report
  formats.  The paper's main use; it runs every tokenizer, quality,
  conformity and consistency layer plus report writing, and never EM.
- ``align-5k``: ``align train`` (5 EM iterations, diagonal prior) on a
  5,000-pair Zipf bitext, then ``align apply`` with the saved model.  EM,
  Viterbi and the model file dominate; WER, BLEU and consistency are
  bypassed.
- ``significance-srt``: ``significance`` with BLEU and then WER at 1,000
  resamples between two systems and a 10,000-cue SRT reference.  Segment
  statistics once, then many rescorings; reads SRT and never uses the MT
  tokenizer, so a change to that tokenizer must show no change here.

No workload has timed marked text, so reading-speed conformity is
measured by none of them.

Every path is relative to the run directory and constant, because the
eval report echoes its configuration: byte-identical inputs must give
byte-identical reports across runs.
"""

from __future__ import annotations

import hashlib
import json
import os

import gen

INPUTS = "../inputs"
SIGNIFICANCE_SEED = 42
ALIGN_ITERATIONS = 5
MIN_ALIGN_F1 = 0.9

EVAL_OPTIONS = {
    "captions-hyp": f"{INPUTS}/captions.hyp",
    "captions-ref": f"{INPUTS}/captions.ref",
    "subtitles-hyp": f"{INPUTS}/subtitles.hyp",
    "subtitles-ref": f"{INPUTS}/subtitles.ref",
    "align-c2s": f"{INPUTS}/align.c2s",
    "align-s2c": f"{INPUTS}/align.s2c",
    "pos-captions": f"{INPUTS}/captions.hyp.conllu",
    "pos-subtitles": f"{INPUTS}/subtitles.hyp.conllu",
    "segmentation": True,
    "caption-lang": "en",
    "subtitle-lang": "fr",
    "diagnostics": "diag.jsonl",
    "out": "both",
    "out-file": "report.out",
}


class CheckError(Exception):
    """An output of the program is wrong."""


def resamples(scale):
    return gen._scaled(gen.RESAMPLES, scale, 10)


def _read_lines(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().split("\n")[:-1]
    except OSError as exc:
        raise CheckError(f"missing output: {exc}")


def _check_eval(run_dir, ctx):
    """The JSON part validates against the report schema, the TSV part
    has one header and one row, and there is one diagnostics line per
    pair."""
    import jsonschema

    text = "\n".join(_read_lines(os.path.join(run_dir, "report.out"))) + "\n"
    json_part, sep, tsv_part = text.partition("system\twer")
    if not sep:
        raise CheckError("report has no TSV part")
    try:
        jsonschema.validate(json.loads(json_part), ctx["schema"])
    except (ValueError, jsonschema.ValidationError) as exc:
        raise CheckError(f"report JSON invalid: {str(exc).splitlines()[0]}")
    rows = (sep + tsv_part).splitlines()
    if len(rows) != 2 or any(len(row.split("\t")) != 13 for row in rows):
        raise CheckError("report TSV is not one header and one 13-column row")
    diagnostics = _read_lines(os.path.join(run_dir, "diag.jsonl"))
    if len(diagnostics) != ctx["items"]:
        raise CheckError(f"{len(diagnostics)} diagnostics lines for {ctx['items']} pairs")
    for line in diagnostics:
        json.loads(line)
    return ["report.out", "diag.jsonl"]


def _check_model(run_dir, ctx):
    if len(_read_lines(os.path.join(run_dir, "model.tsv"))) < 2:
        raise CheckError("model file has no rows")
    return ["model.tsv"]


def _links(line):
    return {tuple(map(int, token.split("-"))) for token in line.split()}


def _check_alignments(run_dir, ctx):
    """Viterbi links reach F1 >= 0.9 against the planted gold."""
    predicted = _read_lines(os.path.join(run_dir, "align.out"))
    gold = _read_lines(os.path.join(ctx["inputs"], "gold.txt"))
    if len(predicted) != len(gold):
        raise CheckError(f"{len(predicted)} alignment lines for {len(gold)} pairs")
    tp = fp = fn = 0
    for pred_line, gold_line in zip(predicted, gold):
        pred, ref = _links(pred_line), _links(gold_line)
        tp += len(pred & ref)
        fp += len(pred - ref)
        fn += len(ref - pred)
    f1 = 2 * tp / (2 * tp + fp + fn)
    if f1 < MIN_ALIGN_F1:
        raise CheckError(f"alignment F1 {f1:.4f} < {MIN_ALIGN_F1}")
    return ["align.out"]


def _significance_check(name):
    def check(run_dir, ctx):
        lines = _read_lines(os.path.join(run_dir, name))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            raise CheckError(f"{name}: no JSON result")
        if set(result) != {"p_value", "delta_mean", "resamples", "seed", "better_system"}:
            raise CheckError(f"{name}: unexpected keys {sorted(result)}")
        if not 0.0 <= result["p_value"] <= 1.0:
            raise CheckError(f"{name}: p_value {result['p_value']} outside [0, 1]")
        if result["resamples"] != ctx["resamples"] or result["seed"] != SIGNIFICANCE_SEED:
            raise CheckError(f"{name}: resamples or seed not echoed")
        return [name]

    return check


def _eval_argv():
    argv = ["eval"]
    for key, value in EVAL_OPTIONS.items():
        argv += [f"--{key}"] if value is True else [f"--{key}", str(value)]
    return argv


def invocations(workload, ctx):
    """CLI calls of one iteration as (argv, stdout file or None, check)."""
    if workload == "eval-10k":
        return [(_eval_argv(), None, _check_eval)]
    if workload == "align-5k":
        bitext = f"{INPUTS}/bitext.txt"
        return [
            (["align", "train", "--train-bitext", bitext, "--model-out", "model.tsv",
              "--iterations", str(ALIGN_ITERATIONS)], None, _check_model),
            (["align", "apply", "--model", "model.tsv", "--bitext", bitext,
              "--out-file", "align.out"], None, _check_alignments),
        ]
    calls = []
    for metric in ("bleu", "wer"):
        calls.append((
            ["significance", "--metric", metric, "--resamples", str(ctx["resamples"]),
             "--seed", str(SIGNIFICANCE_SEED), "--hyp-a", f"{INPUTS}/a.srt",
             "--hyp-b", f"{INPUTS}/b.srt", "--ref", f"{INPUTS}/ref.srt", "--format", "srt"],
            f"{metric}.json",
            _significance_check(f"{metric}.json"),
        ))
    return calls


# Tokenizer schemes (and languages) each workload's CLI calls use.
SCHEMES = {
    "eval-10k": [("whitespace", "en"), ("13a", "en"), ("mt", "en"), ("mt", "fr")],
    "align-5k": [("mt", "en")],
    "significance-srt": [("whitespace", "en"), ("13a", "en")],
}


def digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
