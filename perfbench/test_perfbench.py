"""Tests of the benchmark itself: smoke runs, the gates and the tracer.

Run with ``python3 -m pytest perfbench``; the repo's own test suite does
not collect this file.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import seqgauss  # noqa: E402
from seqgauss import chaos, core, wick  # noqa: E402
from tracing import ROOT_SPAN, Tracer  # noqa: E402
from workloads import WORKLOADS, GateError  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(*args: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_passes_every_gate(workload):
    code, result = _run("--workload", workload, "--smoke", "--seed", "3")
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_reports_every_layer_metric():
    code, result = _run("--workload", "verify-all", "--smoke", "--trace", "1")
    assert code == 0 and result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["verify.checks"] >= 49 and metrics["verify.checks_failed"] == 0
    assert metrics["core.covariance_max_dim"] == 2048
    assert metrics["closure.cell_steps"] > metrics["closure.step_calls"] > 0
    assert metrics["wick.dense_oracle_s"] > 0 and metrics["measure.isserlis_calls"] > 0


def _small_expansion(rng, m=2, d=3):
    kernels = {
        n: wick.SymKernel(
            degree=n,
            terms=tuple(wick.RankOnePower(1.0, rng.standard_normal((m, d)), n) for _ in range(3)),
        )
        for n in (1, 2)
    }
    return chaos.ChaosExpansion(kernels=kernels)


def test_tracer_partitions_the_pass_and_restores_the_program():
    rng = np.random.default_rng(0)
    cov = core.Covariance(np.eye(3) + 0.1)
    expansion = _small_expansion(rng)
    originals = (seqgauss.wick.inner_a, seqgauss.chaos.kernel_inner_a, core.Covariance.__init__)
    tracer = Tracer()
    with tracer.traced_pass(7):
        assert seqgauss.wick.inner_a is not originals[0]
        assert seqgauss.chaos.kernel_inner_a is not originals[1]
        chaos.chaos_norm(expansion, cov)
        core.Covariance(np.eye(2))
    assert (seqgauss.wick.inner_a, seqgauss.chaos.kernel_inner_a, core.Covariance.__init__) == originals
    assert not tracer.missing

    names = [span[0] for span in tracer.spans]
    assert names[0] == ROOT_SPAN
    parent_of = {i: tracer.spans[span[3]][0] for i, span in enumerate(tracer.spans) if span[3] >= 0}
    assert {parent_of[i] for i, n in enumerate(names) if n == "core.inner_a"} == {"wick.kernel_inner_a"}
    assert {parent_of[i] for i, n in enumerate(names) if n == "wick.kernel_inner_a"} == {"chaos.chaos_inner"}

    duration, self_time = tracer.self_times()
    assert self_time.sum() == pytest.approx(duration[0], rel=1e-9)
    metrics = tracer.pass_metrics()[7]
    assert metrics["wick.kernel_inner_pairs"] == 2 * 3 * 3
    assert metrics["core.inner_a_calls"] == 2 * 3 * 3
    assert metrics["core.covariance_calls"] == 1 and metrics["core.covariance_max_dim"] == 2


def test_closure_gate_rejects_a_wrong_snapshot_and_changed_bytes(tmp_path):
    workload = WORKLOADS["closure-op"](1, True, str(tmp_path))
    workload.prepare()
    workload.check(workload.run_pass())
    workload.check(workload.run_pass())
    text = Path(workload.out_path).read_text()
    head, last = text.rstrip("\n").rsplit("\n", 1)
    fields = last.split(",")
    fields[-1] = repr(float(fields[-1]) * (1 + 1e-6))
    Path(workload.out_path).write_text(head + "\n" + ",".join(fields) + "\n")
    with pytest.raises(GateError, match="determinism"):
        workload.check(0)
    workload.expected_csv = None
    with pytest.raises(GateError, match="reference"):
        workload.check(0)


def test_chaos_gate_rejects_a_broken_projection_identity(tmp_path):
    workload = WORKLOADS["chaos-project"](2, True, str(tmp_path))
    output = workload.run_pass()
    workload.check(output)
    projected, inner, norm_p, norm_f, batch, values_f, values_p = output
    with pytest.raises(GateError, match="P"):
        workload.check((projected, inner * (1 + 1e-8), norm_p, norm_f, batch, values_f, values_p))
    bad_values = values_f.copy()
    bad_values[0] += 1e-6 * (1 + abs(bad_values[0]))
    with pytest.raises(GateError, match="closed-sum"):
        workload.check((projected, inner, norm_p, norm_f, batch, bad_values, values_p))


def test_verify_gate_requires_every_check():
    workload = WORKLOADS["verify-all"](0, True, "")
    workload.check((0, "[PASS] a\n49/49 checks passed\n"))
    for output in ((1, "48/49 checks passed\n"), (0, "40/40 checks passed\n"), (0, "")):
        with pytest.raises(GateError):
            workload.check(output)
