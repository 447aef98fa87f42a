"""Benchmark of the subeval CLI: end-to-end metrics per workload, or
per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload eval-10k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is taken from ``src/`` beside this
directory.  Inputs are generated from ``--seed`` (see ``gen.py``) under
``.bench_build/perfbench/``, and every CLI call runs in a fresh process,
one at a time, in a closed loop.  A run repeats whole workload
iterations: it starts another only while the median iteration still
fits in ``--seconds``; the first always runs, so a workload longer than
the window is measured once.

``--trace 0`` reports the end-to-end metrics (``END_TO_END``); each is
printed by name and unit, with ``error_rate``, before a last line of
JSON.  ``--trace 1`` runs ``tracing.py`` instead and reports the
per-layer metrics (``PER_LAYER``), each with the end-to-end metric and
workload it should move.  Every output is checked; a failed check or a
nonzero exit counts as a failed invocation.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import gen
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCHEMA = os.path.join(SRC, "subeval", "schemas", "report.schema.json")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
# setup_s is the median of this many fresh interpreters, half started
# before the measured iterations and half after, so it spans the run.
SETUP_REPEATS = 8
# A run of one workload must end within 180 s; a child still running
# after this budget is killed.
RUN_BUDGET_S = 170

END_TO_END = [
    ("wall_s", "s"),
    ("items_per_s", "items/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

_EVAL, _ALIGN, _SIG = "eval-10k", "align-5k", "significance-srt"
# (name, unit, the end-to-end metric and workloads it should move)
PER_LAYER = [
    ("markers.parse_s", "s", f"wall_s on {_EVAL}"),
    ("markers.utterances", "count", "-"),
    ("srt.parse_s", "s", f"wall_s on {_SIG}"),
    ("srt.cues", "count", "-"),
    ("textproc.tokenize_mt_s", "s", f"wall_s and setup_s on {_EVAL} and {_ALIGN}; not {_SIG}"),
    ("textproc.tokenize_13a_s", "s", f"wall_s on {_EVAL} and {_SIG}"),
    ("textproc.tokenize_ws_s", "s", f"wall_s on {_EVAL} and {_SIG}"),
    ("textproc.tokens", "count", "-"),
    ("textproc.conllu_s", "s", f"wall_s on {_EVAL}"),
    ("quality.wer_s", "s", f"wall_s on {_EVAL}"),
    ("quality.wer_cells", "count", f"wall_s on {_EVAL} and {_SIG}"),
    ("quality.bleu_s", "s", f"wall_s on {_EVAL}"),
    ("quality.bleu_stats_s", "s", f"wall_s on {_SIG}"),
    ("quality.wer_stats_s", "s", f"wall_s on {_SIG}"),
    ("quality.bootstrap_bleu_s", "s", f"wall_s on {_SIG}"),
    ("quality.bootstrap_wer_s", "s", f"wall_s on {_SIG}"),
    ("quality.resample_bleu_us", "us", f"wall_s on {_SIG}"),
    ("conformity.report_s", "s", f"wall_s on {_EVAL}"),
    ("conformity.breaks", "count", "-"),
    ("consistency.report_s", "s", f"wall_s on {_EVAL}"),
    ("consistency.pairs", "count", "-"),
    ("align.load_pharaoh_s", "s", f"wall_s on {_EVAL}"),
    ("align.links", "count", "-"),
    ("align.load_bitext_s", "s", f"wall_s on {_ALIGN}"),
    ("align.init_s", "s", f"wall_s on {_ALIGN}"),
    ("align.train_s", "s", f"wall_s on {_ALIGN}"),
    ("align.target_tokens", "count", "-"),
    ("align.us_per_token_iter", "us", f"wall_s on {_ALIGN}"),
    ("align.save_model_s", "s", f"wall_s on {_ALIGN}"),
    ("align.model_rows", "count", f"peak_rss_mb on {_ALIGN}"),
    ("align.load_model_s", "s", f"wall_s on {_ALIGN}"),
    ("align.viterbi_s", "s", f"wall_s on {_ALIGN}"),
    ("report.write_s", "s", f"wall_s on {_EVAL}"),
    ("trace.total_s", "s", "its gap to wall_s is the tracing overhead"),
    ("trace.unattributed_share", "ratio", "share of trace.total_s no layer span covers"),
]


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout()


def _invoke(argv, cwd, deadline, stdout_path=None):
    """Run one child to completion in `cwd`.  Returns (exit code or None
    on timeout, wall s, user+sys CPU s, max RSS MB) of that child alone."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    with open(stdout_path or os.devnull, "wb") as out, \
            open(os.path.join(cwd, "stderr.log"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        signal.alarm(max(1, int(deadline - time.monotonic())))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            proc.wait()
            return None, time.perf_counter() - start, 0.0, 0.0
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def _setup_times(workload, cwd, deadline, repeats):
    """Wall times of `repeats` fresh interpreters that each import
    subeval.cli and tokenize one utterance under each scheme the
    workload uses."""
    calls = "".join(
        f"tokenize({'Hello, world. <eol> Bonjour l’ami ! <eob>'!r}, Scheme({scheme!r}), {lang!r})\n"
        for scheme, lang in workloads.SCHEMES[workload]
    )
    argv = [sys.executable, "-c",
            f"import subeval.cli\nfrom subeval.textproc import Scheme, tokenize\n{calls}"]
    times = []
    for _ in range(repeats):
        code, wall, _, _ = _invoke(argv, cwd, deadline)
        if code != 0:
            raise RuntimeError(f"set-up interpreter failed: {_stderr_tail(cwd)}")
        times.append(wall)
    return times


def _stderr_tail(cwd):
    with open(os.path.join(cwd, "stderr.log"), encoding="utf-8", errors="replace") as fh:
        lines = fh.read().strip().splitlines()
    return lines[-1] if lines else "(no stderr)"


class _Outputs:
    """Checks the outputs of each invocation and that they are
    byte-identical to every earlier run with the same inputs, in this
    run or an earlier one in the same checkout."""

    def __init__(self, key):
        self._path = os.path.join(WORK, "digests.json")
        self._key = key
        try:
            with open(self._path, encoding="utf-8") as fh:
                self._store = json.load(fh)
        except FileNotFoundError:
            self._store = {}

    def check(self, check, run_dir, ctx):
        """None if the outputs are right, else what is wrong."""
        try:
            files = check(run_dir, ctx)
        except workloads.CheckError as exc:
            return str(exc)
        seen = self._store.setdefault(self._key, {})
        for name in files:
            digest = workloads.digest(os.path.join(run_dir, name))
            if seen.setdefault(name, digest) != digest:
                return f"{name} differs from an earlier run on the same inputs"
        return None

    def save(self):
        tmp = self._path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self._store, fh, indent=1, sort_keys=True)
        os.replace(tmp, self._path)


def _cli_iteration(workload, ctx, run_dir, outputs, deadline):
    calls = workloads.invocations(workload, ctx)
    results = []
    start = time.perf_counter()
    for argv, stdout_name, _ in calls:
        stdout_path = os.path.join(run_dir, stdout_name) if stdout_name else None
        results.append(_invoke([sys.executable, "-m", "subeval.cli", *argv], run_dir,
                               deadline, stdout_path))
        if results[-1][0] is None:
            break
    wall = time.perf_counter() - start
    problems = []
    for (_, _, check), (code, *_) in zip(calls, results):
        problem = f"exit code {code}: {_stderr_tail(run_dir)}" if code != 0 else None
        problems.append(problem or outputs.check(check, run_dir, ctx))
    problems += ["not run"] * (len(calls) - len(results))
    return {
        "problems": problems,
        "wall_s": wall,
        "cpu_s": sum(r[2] for r in results),
        "peak_rss_mb": max(r[3] for r in results),
    }


def _layer_metrics(trace, ctx):
    spans = trace["spans"]
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    self_s = {}
    for (name, start, end, _), child_s in zip(spans, covered):
        self_s[name] = self_s.get(name, 0.0) + (end - start - child_s)
    total = sum(end - start for _, start, end, parent in spans if parent is None)
    counts = trace["counts"]
    values = {}
    for name, unit, _ in PER_LAYER:
        if unit == "s":
            values[name] = self_s.get(name[: -len("_s")], 0.0)
        elif unit == "count":
            values[name] = counts.get(name, 0)
    values["trace.total_s"] = total
    values["trace.unattributed_share"] = self_s["trace.total"] / total
    values["quality.resample_bleu_us"] = 0.0
    if "quality.bootstrap_bleu" in self_s:
        values["quality.resample_bleu_us"] = 1e6 * (
            self_s["quality.bootstrap_bleu"] - self_s["quality.bleu_stats"]
        ) / ctx["resamples"]
    values["align.us_per_token_iter"] = 0.0
    if "align.train" in self_s:
        values["align.us_per_token_iter"] = 1e6 * (
            self_s["align.train"] - self_s["align.init"]
        ) / (counts["align.target_tokens"] * workloads.ALIGN_ITERATIONS)
    return values


def _trace_iteration(workload, ctx, run_dir, outputs, deadline):
    spans_path = os.path.join(run_dir, "spans.json")
    argv = [sys.executable, os.path.join(HERE, "tracing.py"), "--workload", workload,
            "--resamples", str(ctx["resamples"]), "--spans", spans_path]
    code, wall, _, _ = _invoke(argv, run_dir, deadline)
    if code != 0:
        return {"problems": [f"exit code {code}: {_stderr_tail(run_dir)}"], "wall_s": wall}
    problems = [outputs.check(check, run_dir, ctx)
                for _, _, check in workloads.invocations(workload, ctx)]
    with open(spans_path, encoding="utf-8") as fh:
        layers = _layer_metrics(json.load(fh), ctx)
    return {"problems": [p for p in problems if p] or [None], "wall_s": wall, "layers": layers}


def _machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "commit": _git_commit(),
    }


def _git_commit():
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                return next(line.split()[0] for line in fh if line.rstrip().endswith(" " + ref))
    except (OSError, StopIteration):
        return "unknown"


def _source_hash():
    """Identifies the inputs and CLI calls, so stored digests are only
    compared across runs of the same benchmark code."""
    sha = hashlib.sha256()
    for name in ("gen.py", "workloads.py"):
        with open(os.path.join(HERE, name), "rb") as fh:
            sha.update(fh.read())
    return sha.hexdigest()[:16]


def run_workload(workload, seed, seconds, trace, scale, deadline):
    base = os.path.join(WORK, workload)
    inputs = os.path.join(base, "inputs")
    run_dir = os.path.join(base, "trace" if trace else "cli")
    for path in (inputs, run_dir):
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
    n = gen.GENERATORS[workload](inputs, seed, scale)
    with open(SCHEMA, encoding="utf-8") as fh:
        schema = json.load(fh)
    ctx = {"items": n, "resamples": workloads.resamples(scale), "inputs": inputs,
           "schema": schema}
    items = 2 * ctx["resamples"] if workload == _SIG else n
    outputs = _Outputs(f"{workload}/{seed}/{scale}/{_source_hash()}")

    setup = []
    if not trace:
        _setup_times(workload, run_dir, deadline, 1)  # byte-compiles the package
        setup += _setup_times(workload, run_dir, deadline, SETUP_REPEATS // 2)
    iteration = _trace_iteration if trace else _cli_iteration
    results = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        results.append(iteration(workload, ctx, run_dir, outputs, deadline))
        results[-1]["elapsed"] = time.perf_counter() - began
        typical = statistics.median(r["elapsed"] for r in results)
        if time.perf_counter() - start + typical > seconds or time.monotonic() + typical > deadline:
            break
    outputs.save()
    if not trace:
        setup += _setup_times(workload, run_dir, deadline, SETUP_REPEATS - len(setup))

    problems = [p for r in results for p in r["problems"]]
    failed = sum(1 for p in problems if p)
    for p in problems:
        if p:
            print(f"{workload}: FAILED: {p}", file=sys.stderr)
    if trace:
        ok = [r["layers"] for r in results if "layers" in r]
        metrics = {
            name: {"value": statistics.median(r[name] for r in ok) if ok else 0.0, "unit": unit}
            for name, unit, _ in PER_LAYER
        }
        moves = {name: what for name, _, what in PER_LAYER}
    else:
        wall = statistics.median(r["wall_s"] for r in results)
        values = {
            "wall_s": wall,
            "items_per_s": items / wall,
            "cpu_s": statistics.median(r["cpu_s"] for r in results),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
            "setup_s": statistics.median(setup),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        moves = {}
    for name, metric in metrics.items():
        print(f"{workload:<17} {name:<26} {metric['value']:>14.6f} {metric['unit']:<8}"
              f" {moves.get(name, '')}")
    if not trace:
        print(f"{workload:<17} {'error_rate':<26} {failed / len(problems):>14.6f} ratio")
    walls = " ".join(f"{r['wall_s']:.3f}" for r in results)
    print(f"{workload:<17} items={items} iterations={len(results)} wall_s: {walls}")
    return {"correct": failed == 0, "attempted": len(problems), "failed": failed,
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(gen.GENERATORS) + ["all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply input sizes (the smoke test uses a tiny scale)")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "subeval", "cli.py")) or not os.path.isfile(SCHEMA):
        print(f"error: no subeval source under {SRC}", file=sys.stderr)
        return 2
    names = sorted(gen.GENERATORS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + RUN_BUDGET_S * len(names)
    signal.signal(signal.SIGALRM, _on_alarm)
    os.makedirs(WORK, exist_ok=True)
    print("machine " + json.dumps(_machine(), sort_keys=True))
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, args.trace, args.scale,
                                     deadline)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
