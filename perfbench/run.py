"""seqgauss benchmark: three workloads, end-to-end metrics and a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload closure-op --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload chaos-project --smoke

Workloads, metric names and units are read from BENCHMARK.json at the
root of the checkout.  The program is imported from ``src/`` of the same
checkout; there is nothing to build.

Each workload runs in a fresh process (``worker.py``) as a closed loop:
one caller, and each pass starts when the previous one has returned.
BLAS runs on one thread.

``--trace 0`` reports the end-to-end metrics.  The two times are scaled
to a reference machine speed with a calibration run timed next to each
sample (see ``worker.py``); the plain wall-clock figures are printed
beside them.

* ``setup_s``: median over several fresh processes, started between the
  passes, of the time from process start until the inputs are ready
  (``import seqgauss`` plus building the inputs from the seed);
* ``pass_s``: median time of one pass after an untimed warm-up;
* ``peak_rss_mb``: peak resident memory of the measured process;
* ``ok_ratio``: passes that ran and passed their correctness gate, over
  passes attempted (``1 - fail_ratio``; reported this way round so that
  the metric is never zero).

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics: self time of the calls into each module, the counts
taken at the same boundaries, and ``trace.overhead_s``.  The spans are
written once at the end to ``.perfbench-out/``.

``--smoke`` runs the workload once at a reduced size with every
correctness gate and no timing bound.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
pass passed its gate, 1 when one did not, and 2 when the benchmark could
not run at all (then no result line is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Fresh set-up processes per run, spread over the measured window so
# that they see the same machine load as the passes do.
SETUP_PROBES = 12
# Every run must end within 180 s; leave room for start-up and reporting.
TIME_LIMIT_S = 170.0

# What was predicted for the traced pass when the workloads were chosen:
# (statement, metrics summed, smallest share of the traced pass_s).
PREDICTIONS = {
    "closure-op": ("closure.step_s + cli.self_s dominate", ["closure.step_s", "cli.self_s"], 0.5),
    "chaos-project": (
        "wick.kernel_inner_s + wick.eval_s dominate", ["wick.kernel_inner_s", "wick.eval_s"], 0.5,
    ),
    "verify-all": ("core.covariance_s is a visible share (>= 5%)", ["core.covariance_s"], 0.05),
}


# Work counts worked out from argument sizes at the traced call, rather
# than counted calls; they repeat exactly from run to run.
COMPUTED_COUNTS = {
    "closure.cell_steps", "wick.kernel_inner_pairs", "wick.kernel_inner_flops",
    "wick.eval_term_samples", "hermite.prob_points",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _pinned_env() -> dict:
    # One BLAS thread: on a shared 2-CPU machine a second thread mostly
    # adds waiting on the busier CPU to every GEMM and Cholesky.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def _worker(args, workdir: str, deadline: float, extra: list[str]) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before the workload could start")
    t0 = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--t0", repr(t0), "--workdir", workdir,
    ] + (["--smoke"] if args.smoke else []) + extra
    # The worker starts set-up probes of its own; a new session lets a
    # timeout stop them together with the worker.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_pinned_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker did not finish within {remaining:.0f} s") from None
    sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def _print_metric(name: str, value, unit: str, note: str = "") -> None:
    shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
    print(f"  {name:<26} {shown} {unit:<6} {note}")


def end_to_end(spec: dict, result: dict) -> dict:
    setups, times = result["setup_times"], result["pass_times"]
    scaled = result["pass_scaled"]
    attempted, failed = result["attempted"], result["failed"]
    values = {
        "setup_s": statistics.median(result["setup_scaled"]),
        "pass_s": statistics.median(scaled),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_ratio": (attempted - failed) / attempted,
    }
    notes = {
        "setup_s": (
            f"median of {len(setups)} fresh processes; wall {statistics.median(setups):.6g} s"
        ),
        "pass_s": (
            f"median of {len(times)} passes; p90 {_quantile(scaled, 0.9):.6g} s (n={len(times)}); "
            f"wall median {statistics.median(times):.6g} s, p90 {_quantile(times, 0.9):.6g} s; "
            f"wall warm-up {result['warmup_s']} s (n=1)"
        ),
        "peak_rss_mb": "measured process",
        "ok_ratio": f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} passes failed)",
    }
    for metric in spec["end_to_end"]:
        _print_metric(metric["name"], values[metric["name"]], metric["unit"], notes[metric["name"]])
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}


def per_layer(args, spec: dict, result: dict) -> dict:
    traced = result["traced"]
    if not traced:
        raise BenchError("no traced pass succeeded")
    untraced = statistics.median(result["pass_times"])
    medians = {}
    for key in traced[0]:
        value = statistics.median(p.get(key, 0) for p in traced)
        # Counts repeat exactly from pass to pass; keep them whole numbers.
        medians[key] = int(value) if isinstance(traced[0][key], int) else value
    medians["trace.overhead_s"] = medians["pass_s"] - untraced
    pass_s = medians["pass_s"]
    print(f"  traced pass_s {pass_s:.6g} s (median of {len(traced)}), untraced {untraced:.6g} s")
    if result["trace_missing"]:
        print(f"  not traced (no longer in the program): {', '.join(result['trace_missing'])}")
    for metric in spec["per_layer"]:
        value = medians.get(metric["name"], 0)
        if metric["unit"] == "s":
            note = f"{value / pass_s:6.1%} of traced pass"
        else:
            note = "computed" if metric["name"] in COMPUTED_COUNTS else ""
        _print_metric(metric["name"], value, metric["unit"], note)

    # Self times partition each traced pass, so their means add up to the
    # mean traced pass exactly; medians of the parts would not.
    mean_pass = statistics.fmean(p["pass_s"] for p in traced)
    layers: dict[str, float] = {}
    for key in traced[0]:
        if key.startswith("self."):
            layer = key[5:].split(".")[0]
            layer = "remainder" if layer == "bench" else layer
            layers[layer] = layers.get(layer, 0.0) + statistics.fmean(p[key] for p in traced)
    print(f"  traced pass by layer (mean self time of {len(traced)} passes; the remainder is"
          " time in no traced call):")
    for layer, value in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"    {layer:<10} {value:10.6f} s {value / mean_pass:7.1%}")
    total = sum(layers.values())
    print(f"    {'sum':<10} {total:10.6f} s {total / mean_pass:7.1%} of {mean_pass:.6f} s")

    statement, names, share = PREDICTIONS[args.workload]
    measured = sum(medians[n] for n in names) / pass_s
    verdict = "holds" if measured >= share else "DOES NOT HOLD"
    print(f"  prediction: {statement}: self time {measured:.1%} of the traced pass -> {verdict}")
    for name in names:
        print(f"    {name}: self {medians[name] / pass_s:.1%}, including child calls"
              f" {medians['inclusive:' + name] / pass_s:.1%}")
    return {
        m["name"]: {"value": medians.get(m["name"], 0), "unit": m["unit"]}
        for m in spec["per_layer"]
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one pass at reduced size")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = 0.0

    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "seqgauss" / "__init__.py").is_file():
        print(f"no seqgauss sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    print(f"workload {args.workload} (seed {args.seed}): {why}")
    workdir = tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT)
    try:
        extra = []
        if not args.trace and not args.smoke:
            extra = ["--setup-probes", str(SETUP_PROBES)]
        if args.trace:
            out_dir = ROOT / ".perfbench-out"
            out_dir.mkdir(exist_ok=True)
            extra = ["--spans-out", str(out_dir / f"spans-{args.workload}-seed{args.seed}.tsv")]
        result = _worker(args, workdir, deadline, extra)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("env " + json.dumps(result["env"], sort_keys=True))
    for error in result["errors"]:
        print(f"FAILED {error}", file=sys.stderr)
    if not result["pass_times"]:
        print("benchmark failed: no pass succeeded", file=sys.stderr)
        return 2
    if args.trace:
        try:
            metrics = per_layer(args, spec, result)
        except BenchError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 2
    else:
        metrics = end_to_end(spec, result)
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
