"""Smoke test of the benchmark itself, at a tiny input size.

    python3 perfbench/smoke.py

For every workload it runs the benchmark untraced, traced, and untraced
again on one seed, and checks that

- every run succeeds with no failed invocation;
- the printed metric names and units are exactly those of
  ``BENCHMARK.json`` (end-to-end untraced, per-layer traced);
- the outputs are byte-identical across the three runs, which also
  shows that the traced run writes what the CLI writes (the runs share
  one digest store);
- the CoNLL-U forms the generator writes are the MT tokens ``subeval``
  produces for the hypotheses.

Exits 0 when all hold, else prints what failed and exits 1.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import gen
import run

SCALE = 0.03
SEED = 7


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--scale", str(SCALE)],
        capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        return None, f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr.strip()


def _check_mt_tokens():
    """Generated CoNLL-U forms equal the MT tokens of each hypothesis."""
    sys.path.insert(0, run.SRC)
    from subeval.markers import load_marked_text
    from subeval.textproc import Scheme, load_conllu, tokenize

    inputs = os.path.join(run.WORK, "eval-10k", "inputs")
    problems = []
    for side, lang in (("captions", "en"), ("subtitles", "fr")):
        doc = load_marked_text(os.path.join(inputs, f"{side}.hyp"))
        sentences = load_conllu(os.path.join(inputs, f"{side}.hyp.conllu"))
        for utt, sentence in zip(doc.utterances, sentences):
            words = tokenize(utt.text(), Scheme.MT_DETACHED, lang).words()
            if words != [form for form, _ in sentence]:
                problems.append(f"{side} utterance {utt.id}: MT tokens {words}")
    return problems


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []
    if sorted(w["name"] for w in bench["workloads"]) != sorted(gen.GENERATORS):
        failures.append("BENCHMARK.json workloads differ from the generators")
    for workload in sorted(gen.GENERATORS):
        for trace in (0, 1, 0):
            result, stderr = _run(workload, trace)
            label = f"{workload} --trace {trace}"
            if result is None or not result["correct"] or result["failed"]:
                failures.append(f"{label}: {stderr}")
                continue
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected[trace]:
                failures.append(f"{label}: metrics {sorted(units)} differ from BENCHMARK.json")
            print(f"smoke: {label}: ok, {result['attempted']} invocations")
    failures += _check_mt_tokens()
    for failure in failures:
        print(f"smoke: FAIL {failure}")
    print("smoke: " + ("FAILED" if failures else "OK"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
