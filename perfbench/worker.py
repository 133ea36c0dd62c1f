"""One workload in one fresh process: set up, then a closed loop of passes.

Started by ``run.py``; not meant to be run by hand.  The parent passes the
``time.monotonic()`` reading taken just before it started this process, so
``setup_s`` covers interpreter start, ``import seqgauss`` and building the
inputs from the seed.  With ``--setup-only`` the process stops there.

Otherwise it runs an untimed warm-up pass, then passes back to back (one
caller, the next pass starts when the previous one has returned) until
``--seconds`` have passed.  Between passes, at evenly spaced times, it
starts ``--setup-probes`` fresh ``--setup-only`` copies of itself and
waits for each, so set-up is timed under the same load as the passes.  Every pass goes through the workload's gate;
the gate itself is not timed.  With ``--trace 1`` the passes alternate
between untraced and traced, so the tracing overhead is measured in the
same process.  The result is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import seqgauss  # noqa: E402
from workloads import WORKLOADS, GateError  # noqa: E402


def _git_commit() -> str:
    """Commit of the checkout, read from .git without calling git (which
    would search parent directories); 'unknown' outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_build() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def environment(args, sizes: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_build(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "sizes": sizes,
    }


# The benchmark runs on shared machines whose speed drifts by 20-30 % over
# minutes (measured on a 2-vCPU cloud VM).  Every pass and set-up probe is
# therefore timed next to a fixed piece of calibration work, and reported
# as wall time times CAL_REFERENCE_S / (calibration time): seconds at the
# speed where the calibration work takes CAL_REFERENCE_S, which is its
# median on that VM (Python 3.11, numpy 2.4.6, OpenBLAS 0.3.31, 1 thread).
CAL_REFERENCE_S = 0.018
_CAL_RNG = np.random.default_rng(0)
_CAL_MATRIX = _CAL_RNG.standard_normal((96, 96))
_CAL_VECTOR = _CAL_RNG.standard_normal(20_000)
_CAL_SMALL = _CAL_RNG.standard_normal((4, 16))
_CAL_WEIGHT = _CAL_RNG.standard_normal((16, 16))
_CAL_FLOATS = _CAL_VECTOR[:3000].tolist()


def calibrate() -> float:
    """Time the calibration work.  It mixes what the workloads spend their
    time on: interpreter loops, numpy calls on tiny arrays, formatting
    floats as text, elementwise numpy on longer arrays and small matrix
    products.  Each part alone follows the machine's drift less well than
    the mix does."""
    start = time.perf_counter()
    total = 0
    for i in range(40_000):
        total += i & 7
    for _ in range(1_000):
        float(np.sum(_CAL_SMALL * (_CAL_SMALL @ _CAL_WEIGHT)))
    rows = zip(_CAL_FLOATS, _CAL_FLOATS[1:], _CAL_FLOATS[2:])
    "\n".join(",".join([repr(a), repr(b), repr(c)]) for a, b, c in rows)
    x = _CAL_VECTOR
    for _ in range(100):
        x = np.sqrt(x * x + 1.0)
    for _ in range(20):
        _CAL_MATRIX @ _CAL_MATRIX
    return time.perf_counter() - start


def probe_setup(args, workdir: str) -> float:
    """Time one fresh process from start until its inputs are ready."""
    os.makedirs(workdir, exist_ok=True)
    t0 = time.monotonic()
    proc = subprocess.run(
        [
            sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--t0", repr(t0), "--workdir", workdir, "--setup-only",
        ],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Loop:
    """Runs passes of one workload and records their times and failures."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.errors: list[str] = []
        self.failed_ids: set[int] = set()

    def run(self, around=contextlib.nullcontext) -> tuple[float, float] | None:
        """One pass plus its gate; returns the wall time of the pass and
        the mean calibration time around it, or None if the pass raised
        or failed its gate.  ``around`` is entered just outside the timed
        call (the tracer installs itself there)."""
        self.attempted += 1
        gc.collect()
        try:
            cal = calibrate()
            with around():
                start = time.perf_counter()
                output = self.workload.run_pass()
                elapsed = time.perf_counter() - start
            cal = 0.5 * (cal + calibrate())
            self.workload.check(output)
        except GateError as exc:
            self.errors.append(f"pass {self.attempted}: gate: {exc}")
        except Exception:  # noqa: BLE001 - a failing pass is counted, not fatal
            self.errors.append(f"pass {self.attempted}: {traceback.format_exc(limit=3)}")
        else:
            return elapsed, cal
        self.failed_ids.add(self.attempted)
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--setup-probes", type=int, default=0)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    if Path(seqgauss.__file__).resolve().parent != SRC / "seqgauss":
        print(f"imported seqgauss from {seqgauss.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.smoke, args.workdir)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    setups = [(setup_s, calibrate())]
    workload.prepare()
    loop = Loop(workload)
    warmup = loop.run()
    times: list[tuple[float, float]] = []
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    probe_dir = os.path.join(args.workdir, "probe")

    def probe():
        cal = calibrate()
        elapsed = probe_setup(args, probe_dir)
        setups.append((elapsed, 0.5 * (cal + calibrate())))

    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        timed = loop.run()
        if timed is not None:
            times.append(timed)
        if tracer is not None:
            loop.run(lambda: tracer.traced_pass(loop.attempted))
        now = time.perf_counter()
        if len(setups) <= args.setup_probes * (now - start) / max(args.seconds, 1e-9):
            probe()
        if args.smoke or now >= deadline:
            break
    while len(setups) <= args.setup_probes:
        probe()

    def scaled(samples):
        return [t * CAL_REFERENCE_S / cal for t, cal in samples]

    result = {
        "setup_times": [t for t, _ in setups],
        "setup_scaled": scaled(setups),
        "warmup_s": warmup[0] if warmup else None,
        "pass_times": [t for t, _ in times],
        "pass_scaled": scaled(times),
        "attempted": loop.attempted,
        "failed": len(loop.errors),
        "errors": loop.errors[:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(args, workload.sizes),
    }
    if tracer is not None:
        result["traced"] = [
            dict(metrics)
            for pass_id, metrics in sorted(tracer.pass_metrics().items())
            if pass_id not in loop.failed_ids
        ]
        result["trace_missing"] = sorted(tracer.missing)
        if args.spans_out:
            tracer.dump(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
