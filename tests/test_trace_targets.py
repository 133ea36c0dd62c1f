"""Every function the benchmark's tracer wraps must still exist.

``perfbench/tracing.py`` names seqgauss functions by module and attribute.
A refactor that renames or deletes one of them makes the tracer list it as
missing, and its per-layer metrics then read zero.  This test loads the
tracer from its file without changing it, installs and uninstalls it, and
fails if any target is missing or any original is not put back.
"""

import importlib.util
from pathlib import Path

from seqgauss import cli, closure

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists_and_is_restored():
    originals = (cli.main, cli.load_closure_config, closure.solve_closure)
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
        assert (cli.main, cli.load_closure_config, closure.solve_closure) != originals
    finally:
        tracer.uninstall()
    assert not tracer.missing, f"traced targets no longer in the program: {sorted(tracer.missing)}"
    assert (cli.main, cli.load_closure_config, closure.solve_closure) == originals
