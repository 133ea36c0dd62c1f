"""The benchmark's library workloads still run and pass their own gates.

``perfbench/workloads.py`` builds its inputs through seqgauss's public
objects, among them ``SymKernel(terms=...)`` of ``RankOnePower`` terms,
and its chaos-project gate reads ``.terms``.  A change to that contract
makes every pass of the benchmark fail.  This test loads the workloads
from their file without changing them and runs ``closure-op`` and
``chaos-project`` at smoke size through two passes of their own gates
(the second ``closure-op`` pass checks that the CSV is byte-identical to
the first).  ``verify-all`` is the CLI's ``verify --suite all``, which
``test_cli.py`` runs.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["closure-op", "chaos-project"])
def test_smoke_workload_passes_its_gate_twice(tmp_path, name):
    workload = _load_workloads().WORKLOADS[name](seed=11, smoke=True, workdir=str(tmp_path))
    workload.prepare()
    for _ in range(2):
        workload.check(workload.run_pass())
