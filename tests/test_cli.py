import contextlib
import csv
import hashlib
import io
import json
import os
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_forks, fork_fails, no_temporary_file, refuse_fork
from seqgauss import _fork, cli, serialize
from seqgauss.closure import solve_closure
from seqgauss.core import Covariance, TruncationDims
from seqgauss.hermite import hermite_phys, hermite_prob
from seqgauss.measure import sample_mu_a


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_hermite_suite_passes(capsys):
    code, out, _ = run_cli(["verify", "--suite", "hermite", "--seed", "1"], capsys)
    assert code == 0
    assert "[PASS]" in out
    assert "[FAIL]" not in out


def test_verify_measure_seed_18_passes(capsys):
    # seed 18 draws a Wick-orthogonality case whose oracle, summed in floats,
    # lost 3e-9 to cancellation and missed the 1e-9 tolerance
    code, out, _ = run_cli(["verify", "--suite", "measure", "--seed", "18"], capsys)
    assert code == 0, out


def test_verify_unknown_suite_is_usage_error(capsys):
    # an unknown suite, and an option verify does not have: every
    # tolerance is the one its check states, so none can be scaled
    for args in (["--suite", "nonsense"], ["--suite", "core", "--tol-scale", "2"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", *args])
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_sample_outputs_are_reproducible(tmp_path, capsys):
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    args = ["sample", "--seed", "5", "--samples", "20", "--dim-h", "2", "--dim-seq", "3"]
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    with open(out1) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [f"w_{i}_{k}" for i in range(2) for k in range(3)]
    assert len(rows) == 21


def test_sample_with_covariance_file(tmp_path, capsys):
    cov_path = tmp_path / "cov.json"
    serialize.save_document(cov_path, {"A": [[2.0, 0.0], [0.0, 1.0]]})
    out = tmp_path / "samples.csv"
    code, _, _ = run_cli(
        [
            "sample", "--seed", "3", "--samples", "10", "--dim-h", "1",
            "--dim-seq", "2", "--cov", str(cov_path), "--out", str(out),
        ],
        capsys,
    )
    assert code == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape == (10, 2)


def test_sample_dimension_mismatch_is_config_error(tmp_path, capsys):
    cov_path = tmp_path / "cov.json"
    serialize.save_document(cov_path, {"A": [[1.0]]})
    code, _, err = run_cli(
        [
            "sample", "--seed", "1", "--samples", "5", "--dim-h", "1",
            "--dim-seq", "3", "--cov", str(cov_path), "--out", str(tmp_path / "x.csv"),
        ],
        capsys,
    )
    assert code == 2
    assert "config error" in err and "'A'" in err


@pytest.mark.parametrize("doc", [
    # said "not a numeric array"
    {"B": [[2.0, 0.0], [0.0, 1.0]]},
    # an undocumented second spelling, read when A was absent
    {"matrix": [[2.0, 0.0], [0.0, 1.0]]},
], ids=["no-A", "matrix"])
def test_sample_covariance_file_without_a_exits_2_saying_a_is_missing(tmp_path, capsys, doc):
    cov_path = tmp_path / "cov.json"
    serialize.save_document(cov_path, doc)
    out = tmp_path / "x.csv"
    args = ["sample", "--samples", "5", "--dim-h", "1", "--dim-seq", "2", "--cov", str(cov_path)]
    code, _, err = run_cli(args + ["--out", str(out)], capsys)
    assert code == 2
    assert err == "config error: field 'A': missing\n"
    assert not out.exists()


def _refuse_cholesky(monkeypatch):
    def refuse(a):
        raise AssertionError("factored a covariance of a mismatched config")

    monkeypatch.setattr(np.linalg, "cholesky", refuse)


def test_sample_shape_mismatch_exits_2_before_factoring(tmp_path, capsys, monkeypatch):
    _refuse_cholesky(monkeypatch)
    args = ["sample", "--seed", "1", "--samples", "5", "--dim-h", "1", "--dim-seq", "3"]
    for matrix in ([[2.0, 0.5], [0.5, 1.0]], [[2.0, 0.5, 0.0], [0.5, 1.0, 0.0]]):
        cov_path = tmp_path / "cov.json"
        serialize.save_document(cov_path, {"A": matrix})
        out = tmp_path / "x.csv"
        code, _, err = run_cli(args + ["--cov", str(cov_path), "--out", str(out)], capsys)
        assert code == 2
        assert "config error: field 'A'" in err and "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize("field, change", [
    ("f", {"f": [[1.0, 2.0, 3.0]]}),
    ("conditioning[1]", {"conditioning": [[1.0, 0.0], [1.0, 0.0, 0.0]]}),
    ("A", {"A": [[2.0, 0.5], [0.5, 1.0], [0.0, 0.0]]}),
    # a shape mismatch is reported before an indefinite A could be found
    ("f", {"A": [[1.0, 2.0], [2.0, 1.0]], "f": [[1.0, 2.0, 3.0]]}),
])
def test_condexp_shape_mismatch_exits_2_before_factoring(
    tmp_path, capsys, monkeypatch, field, change
):
    _refuse_cholesky(monkeypatch)
    config = tmp_path / "cond.json"
    doc = {"A": [[2.0, 0.5], [0.5, 1.0]], "f": [[1.0, 2.0]], "conditioning": [[1.0, 0.0]]}
    serialize.save_document(config, {**doc, **change})
    code, out, err = run_cli(["condexp", "--config", str(config)], capsys)
    assert code == 2 and out == ""
    assert f"config error: field '{field}'" in err and "Traceback" not in err


def test_condexp_worked_example(tmp_path, capsys):
    config = tmp_path / "cond.json"
    serialize.save_document(
        config,
        {
            "A": [
                [1.0, 0.5, 0.0, 0.0],
                [0.5, 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ],
            "f": [
                [1.0, 2.0, 3.0, 4.0],
                [5.0, 6.0, 7.0, 8.0],
            ],
            "conditioning": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]],
        },
    )
    code, out, _ = run_cli(["condexp", "--config", str(config)], capsys)
    assert code == 0
    blob = out[out.index("[") :]
    kernel = np.asarray(json.loads(blob)[0]["terms"][0]["base"])
    # conditioning on the two coupled coordinates keeps exactly those columns
    expected = np.array([[1.0, 2.0, 0.0, 0.0], [5.0, 6.0, 0.0, 0.0]])
    assert np.allclose(kernel, expected, atol=1e-12, rtol=0)


def test_condexp_overflowing_weighted_f_exits_2_naming_f(tmp_path, capsys):
    config = tmp_path / "cond.json"
    serialize.save_document(
        config, {"A": [[1e200, 0.0], [0.0, 1e200]], "f": [[1e200, 1.0]], "conditioning": [[1, 0]]}
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(["condexp", "--config", str(config)], capsys)
    assert code == 2
    assert "config error: field 'f'" in err and "overflows" in err
    assert out == "" and not caught


_SAMPLE_COV = ["sample", "--seed", "1", "--samples", "5", "--dim-h", "1", "--dim-seq", "2"]


@pytest.mark.parametrize(
    "args, doc, field",
    [
        (["condexp", "--config"], {"A": [[2.0, 0.5], [0.5, 1.0]], "f": [[1.0, 2.0]],
                                   "conditioning": [[0.0, 0.0], [0.0, 0.0]]}, "conditioning"),
        (["condexp", "--config"], {"A": [[1.0, 2.0], [2.0, 1.0]], "f": [[1.0, 2.0]],
                                   "conditioning": [[1.0, 0.0]]}, "A"),
        (_SAMPLE_COV + ["--cov"], {"A": [[1.0, 2.0], [2.0, 1.0]]}, "A"),
    ],
    ids=["condexp dependent conditioning", "condexp indefinite A", "sample indefinite A"],
)
def test_library_refusal_is_reported_under_its_config_field(tmp_path, capsys, args, doc, field):
    # the library names its own parameter (xs, matrix); the CLI reports
    # the config field that parameter was read from
    config = tmp_path / "doc.json"
    serialize.save_document(config, doc)
    out = tmp_path / "out.csv"
    tail = ["--out", str(out)] if args[0] == "sample" else []
    code, stdout, err = run_cli(args + [str(config)] + tail, capsys)
    assert code == 2 and stdout == "" and not out.exists()
    assert f"config error: field '{field}': " in err and "Traceback" not in err


def _condexp_kernel(tmp_path, capsys, conditioning):
    config = tmp_path / "cond.json"
    serialize.save_document(
        config, {"A": [[2.0, 0.5], [0.5, 1.0]], "f": [[1.0, 2.0]], "conditioning": conditioning}
    )
    code, out, err = run_cli(["condexp", "--config", str(config)], capsys)
    assert code == 0, err
    return np.asarray(json.loads(out[out.index("[") :])[0]["terms"][0]["base"])


@pytest.mark.parametrize("scale", [1e300, 1e-300, 1e-310])
def test_condexp_conditions_on_huge_and_tiny_vectors(tmp_path, capsys, scale):
    # the span of [scale, 0] is that of [1, 0], though (x, x)_A over- or
    # underflows for the unscaled vector
    expected = _condexp_kernel(tmp_path, capsys, [[1.0, 0.0]])
    kernel = _condexp_kernel(tmp_path, capsys, [[scale, 0.0]])
    np.testing.assert_allclose(kernel, expected, rtol=1e-15, atol=0)


def test_condexp_missing_field_is_config_error(tmp_path, capsys):
    config = tmp_path / "cond.json"
    serialize.save_document(config, {"A": [[1.0]]})
    code, _, err = run_cli(["condexp", "--config", str(config)], capsys)
    assert code == 2
    assert "'f'" in err


def base_closure_doc():
    return {
        "a": 0.0,
        "b": 1.0,
        "J": 40,
        "N": 3,
        "T": 0.1,
        "dt": 0.005,
        "closure": {"kind": "pn"},
        "sigma": 0.0,
        "kappa": 0.0,
        "q": 0.0,
        "initial": [
            list(np.exp(-0.5 * ((np.linspace(0.0125, 0.9875, 40) - 0.5) / 0.1) ** 2)),
            0.0,
            0.0,
            0.0,
        ],
        "output_stride": 5,
    }


def test_closure_truncation_and_identity_prediction_match(tmp_path, capsys):
    doc = base_closure_doc()
    cfg_pn = tmp_path / "pn.json"
    serialize.save_document(cfg_pn, doc)
    doc_op = base_closure_doc()
    doc_op["closure"] = {"kind": "optimal_prediction", "A": np.eye(5).tolist()}
    cfg_op = tmp_path / "op.json"
    serialize.save_document(cfg_op, doc_op)
    out_pn = tmp_path / "pn.csv"
    out_op = tmp_path / "op.csv"
    assert cli.main(["closure", "--config", str(cfg_pn), "--out", str(out_pn)]) == 0
    assert cli.main(["closure", "--config", str(cfg_op), "--out", str(out_op)]) == 0
    capsys.readouterr()
    a = np.loadtxt(out_pn, delimiter=",", skiprows=1)
    b = np.loadtxt(out_op, delimiter=",", skiprows=1)
    assert np.allclose(a, b, atol=1e-12, rtol=0)
    with open(out_pn) as fh:
        header = fh.readline().strip().split(",")
    assert header == ["t", "x", "I_0", "I_1", "I_2", "I_3"]


def test_closure_output_is_reproducible(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    serialize.save_document(cfg, base_closure_doc())
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    assert cli.main(["closure", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["closure", "--config", str(cfg), "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_closure_rejects_bad_config(tmp_path, capsys):
    doc = base_closure_doc()
    del doc["J"]
    cfg = tmp_path / "bad.json"
    serialize.save_document(cfg, doc)
    code, _, err = run_cli(["closure", "--config", str(cfg), "--out", str(tmp_path / "o.csv")], capsys)
    assert code == 2
    assert "'J'" in err


@pytest.mark.parametrize(
    "key, value, field",
    [
        ("sigma", "abc", "sigma"),
        ("initial", ["x", 0.0, 0.0, 0.0], "initial[0]"),
        ("sigma", float("nan"), "sigma"),
        ("kappa", -1.0, "kappa"),
        ("sigma", True, "sigma"),
        ("initial", ["1", 0.0, 0.0, 0.0], "initial[0]"),
        ("closure", {"kind": "optimal_prediction",
                     "A": np.eye(5).tolist()[:4] + [[0.0, 0.0, 0.0, 0.0, True]]},
         "closure.A"),
        # rejected by the solver: singular leading correlation block, dt above the
        # CFL bound, dt and cfl not positive
        ("closure", {"kind": "optimal_prediction", "A": np.ones((5, 5)).tolist()}, "closure.A"),
        ("dt", 0.05, "dt"),
        ("dt", -0.005, "dt"),
        ("cfl", 0.0, "cfl"),
        # rejected by the library: t_final not positive, an empty domain, too
        # few cells and a negative sigma
        ("T", -2.0, "T"),
        ("b", 0.0, "b"),
        ("J", 1, "J"),
        ("sigma", -1.0, "sigma"),
        # optimal prediction with no correlation matrix
        ("closure", {"kind": "optimal_prediction"}, "closure.A"),
    ],
)
def test_closure_bad_material_field_names_the_field(tmp_path, capsys, key, value, field):
    doc = base_closure_doc()
    doc[key] = value
    cfg = tmp_path / "bad.json"
    serialize.save_document(cfg, doc)
    out = tmp_path / "o.csv"
    code, _, err = run_cli(["closure", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 2
    assert f"field '{field}'" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_closure_overlong_run_exits_2_naming_t_without_output(tmp_path, capsys):
    doc = base_closure_doc()
    doc["T"] = 1e9  # 2e11 steps of dt = 0.005
    cfg = tmp_path / "long.json"
    serialize.save_document(cfg, doc)
    out = tmp_path / "o.csv"
    start = time.perf_counter()
    code, _, err = run_cli(["closure", "--config", str(cfg), "--out", str(out)], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "field 'T'" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "changes, field",
    [
        # advection-free N = 0: no CFL bound, but dt / (2 dx) overflows
        ({"N": 0, "initial": [1.0], "dt": 1e308}, "dt"),
        # the initial and final snapshots alone would hold 8e12 values
        ({"J": 10**12}, "J"),
        # refused before the moment system (and the initial list) is built
        ({"N": 10**9}, "N"),
    ],
    ids=["dt", "J", "N"],
)
def test_closure_unrunnable_size_exits_2_naming_the_field(tmp_path, capsys, changes, field):
    doc = base_closure_doc()
    doc.update(changes)
    cfg = tmp_path / "huge.json"
    serialize.save_document(cfg, doc)
    out = tmp_path / "o.csv"
    start = time.perf_counter()
    code, _, err = run_cli(["closure", "--config", str(cfg), "--out", str(out)], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert f"field '{field}'" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_closure_non_hyperbolic_config_exits_2_without_output(tmp_path, capsys):
    doc = base_closure_doc()
    doc["N"] = 1
    doc["initial"] = doc["initial"][:2]
    doc["closure"] = {
        "kind": "optimal_prediction",
        "A": [[1.0, 0.0, -0.9], [0.0, 1.0, 0.0], [-0.9, 0.0, 1.0]],
    }
    cfg = tmp_path / "ill_posed.json"
    serialize.save_document(cfg, doc)
    out = tmp_path / "o.csv"
    code, _, err = run_cli(["closure", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 2
    assert "field 'closure.A'" in err
    assert "not hyperbolic" in err
    assert "Traceback" not in err
    assert not out.exists()


def _mutated(value, how):
    if how == "string":
        return "abc"
    if how == "nan":
        return float("nan")
    if how == "bool":
        return True
    if how == "negative":
        if isinstance(value, list):
            return [_mutated(v, how) for v in value]
        return -abs(value) - 1.0 if isinstance(value, (int, float)) else value
    if how in ("huge", "tiny") and isinstance(value, list):
        return [_mutated(v, how) for v in value]
    if how == "huge":
        return value * (10**12 if isinstance(value, int) else 1e300)
    if how == "tiny":
        return value * 1e-300
    assert how == "wrong length"
    return value[:-1] if isinstance(value, list) and value else [value, value]


@st.composite
def mutated_closure_docs(draw):
    """A valid closure config with one entry (possibly nested) mutated or dropped."""
    doc = base_closure_doc()
    doc["sigma"] = [0.1] * 40
    doc["cfl"] = 0.9
    doc["closure"] = {"kind": "optimal_prediction", "A": (np.eye(5) + 0.1).tolist()}
    parent, key = doc, draw(st.sampled_from(sorted(doc)))
    while isinstance(parent[key], (list, dict)) and draw(st.booleans()):
        parent = parent[key]
        key = draw(st.sampled_from(sorted(parent) if isinstance(parent, dict)
                                   else range(len(parent))))
    hows = ["string", "nan", "negative", "bool", "wrong length", "drop"]
    if parent is doc and key in ("a", "b", "T", "dt", "cfl", "J", "N"):
        hows += ["huge", "tiny"]
    how = draw(st.sampled_from(hows))
    if how == "drop":
        if isinstance(parent, dict):
            del parent[key]
        else:
            del parent[key:]
    else:
        parent[key] = _mutated(parent[key], how)
    return doc


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(doc=mutated_closure_docs())
def test_closure_fuzzed_config_exits_0_or_2_without_traceback(doc):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzz.json"
        serialize.save_document(cfg, doc)
        out = Path(tmp) / "o.csv"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["closure", "--config", str(cfg), "--out", str(out)])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    assert (code == 2) == ("config error: field '" in err.getvalue())


@st.composite
def mutated_numeric_docs(draw, doc):
    """A copy of ``doc``, whose entries are (nested lists of) numbers, with
    one entry (possibly nested) mutated, scaled by 1e300 or 1e-300, or dropped."""
    doc = json.loads(json.dumps(doc))
    parent, key = doc, draw(st.sampled_from(sorted(doc)))
    while isinstance(parent[key], list) and draw(st.booleans()):
        parent, key = parent[key], draw(st.sampled_from(range(len(parent[key]))))
    how = draw(st.sampled_from(
        ["string", "nan", "negative", "bool", "wrong length", "huge", "tiny", "drop"]
    ))
    if how != "drop":
        parent[key] = _mutated(parent[key], how)
    elif isinstance(parent, dict):
        del parent[key]
    else:
        del parent[key:]
    return doc


def run_fuzzed(args, doc):
    """Run the CLI on ``args``, with ``{doc}`` standing for a file holding
    ``doc`` and ``{out}`` for an output path; check that it exits 0 or 2,
    exits 2 exactly when a config error names a field, and shows no
    traceback or warning.  Returns the exit code, stdout and the output
    file's text ("" when none was written)."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"doc": str(Path(tmp) / "doc.json"), "out": str(Path(tmp) / "o.csv")}
        serialize.save_document(paths["doc"], doc)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main([arg.format(**paths) for arg in args])
        written = Path(paths["out"]).read_text() if Path(paths["out"]).exists() else ""
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
    assert not caught, [str(w.message) for w in caught]
    assert (code == 2) == ("config error: field '" in err.getvalue())
    return code, out.getvalue(), written


def _refuse_constant(name):
    raise ValueError(f"non-finite constant {name} in the output")


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(doc=mutated_numeric_docs({
    "A": [[1.0, 0.5, 0.0, 0.0], [0.5, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
          [0.0, 0.0, 0.0, 1.0]],
    "f": [[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]],
    "conditioning": [[1.0, 0.0, 0.0, 0.0], [0.5, 1.0, 0.0, 2.0]],
}))
def test_condexp_fuzzed_config_exits_0_or_2_without_traceback(doc):
    code, out, _ = run_fuzzed(["condexp", "--config", "{doc}"], doc)
    if code == 0:
        json.loads(out[out.index("[") :], parse_constant=_refuse_constant)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(doc=mutated_numeric_docs({"A": [[2.0, 0.5, 0.0], [0.5, 1.0, 0.25], [0.0, 0.25, 1.5]]}))
def test_sample_fuzzed_covariance_exits_0_or_2_without_traceback(doc):
    args = ["sample", "--seed", "1", "--samples", "5", "--dim-h", "2", "--dim-seq", "3"]
    code, _, written = run_fuzzed(args + ["--cov", "{doc}", "--out", "{out}"], doc)
    if code == 0:
        values = np.array([row.split(",") for row in written.splitlines()[1:]], dtype=float)
        assert values.shape == (5, 6) and np.isfinite(values).all()
    else:
        assert written == ""


_EDGE_FLOATS = [0.0, -2.5, 3.0, 5e-324, 1e300, -1e300, np.nan, np.inf, -np.inf]


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(
    max_n=st.sampled_from([-1, 0, 1, 7, 300, 400, 10**6, 10**30]),
    points=st.sampled_from([-1, 0, 1, 2, 5, cli.MAX_HERMITE_CELLS + 1, 10**30]),
    x_min=st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(-10.0, 10.0)),
    x_max=st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(-10.0, 10.0)),
    kind=st.sampled_from(["prob", "phys"]),
)
def test_hermite_fuzzed_arguments_exit_0_or_2_without_traceback(max_n, points, x_min, x_max,
                                                                  kind):
    args = ["hermite", f"--max-n={max_n}", f"--points={points}", f"--x-min={x_min!r}",
            f"--x-max={x_max!r}", f"--kind={kind}", "--out", "{out}"]
    code, _, written = run_fuzzed(args, {})
    if code == 0:
        rows = [line.split(",") for line in written.splitlines()]
        assert rows[0] == ["n", "x", "value"]
        values = np.array(rows[1:], dtype=float)
        assert values.shape == (points * (max_n + 1), 3) and np.isfinite(values).all()
    else:
        assert written == ""


def stdlib_csv_bytes(tmp_path, header, rows):
    """What the stdlib ``csv.writer`` writes for ``header`` and ``rows``."""
    path = tmp_path / "stdlib.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


def read_numeric_csv(path, header):
    """Rows of ``path`` as floats, after checking the header and that every
    cell is the shortest round-trip form of its double."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == header
    for row in rows[1:]:
        for cell in row:
            assert repr(float(cell)) == cell
    return np.array(rows[1:], dtype=float)


def test_seeded_sample_csv_bytes_are_pinned(tmp_path, capsys):
    # default identity covariance: Z @ I.T and the PCG64 draws do not depend
    # on the BLAS, so these bytes hold on every build
    out = tmp_path / "s.csv"
    args = ["sample", "--samples", "3000", "--dim-h", "3", "--dim-seq", "5", "--seed", "7"]
    assert cli.main(args + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "3f3964c8e2cfa9c9aec5519c1432dc0c3fd619ef43d42569e2feba910d06524e"
    )
    # sample_mu_a multiplies all count * m rows of Z in one GEMM; its bits
    # equal the stacked (count, m, d) product Z @ L^T on the CLI shape above,
    # the verify shape and the chaos-project benchmark shape
    rng = np.random.default_rng(3)
    for count, m, d in ((3000, 3, 5), (100_000, 2, 3), (20_000, 4, 16)):
        g = rng.standard_normal((d, d))
        for cov in (Covariance.identity(d), Covariance(g @ g.T / d + np.eye(d))):
            batch = sample_mu_a(cov, TruncationDims(m, d), count, seed=7)
            z = np.random.default_rng(7).standard_normal((count, m, d))
            assert batch.samples.tobytes() == (z @ cov.chol.T).tobytes()


def test_closure_csv_bytes_are_pinned(tmp_path, capsys):
    # optimal prediction with scattering, absorption and a source, every third
    # step kept; the identity leading block makes the closure row exact
    doc = {
        "a": 0.0, "b": 1.0, "J": 16, "N": 2, "T": 0.1, "dt": 0.01, "output_stride": 3,
        "closure": {"kind": "optimal_prediction",
                    "A": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                          [0.0, 0.0, 1.0, 0.5], [0.0, 0.0, 0.5, 1.0]]},
        "sigma": 0.5, "kappa": 0.25, "q": 0.75,
        "initial": [[1.0 if 4 <= j < 12 else 0.25 for j in range(16)], 0.125, 0.0],
    }
    cfg = tmp_path / "run.json"
    serialize.save_document(cfg, doc)
    out = tmp_path / "run.csv"
    assert cli.main(["closure", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote 5 snapshots to {out}\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "2a5096dfdba660496c1b3d9d2c28b83713534ea99c897431abd0f46c38071d24"
    )


def test_sample_csv_cells_are_exact_round_trip_values(tmp_path, capsys):
    out = tmp_path / "s.csv"
    args = ["sample", "--samples", "6", "--dim-h", "2", "--dim-seq", "3", "--seed", "5"]
    assert cli.main(args + ["--out", str(out)]) == 0
    capsys.readouterr()
    header = [f"w_{i}_{k}" for i in range(2) for k in range(3)]
    batch = sample_mu_a(Covariance.identity(3), TruncationDims(2, 3), 6, 5)
    assert np.array_equal(read_numeric_csv(out, header), batch.samples.reshape(6, -1))
    expected_rows = batch.samples.reshape(6, -1).tolist()
    assert out.read_bytes() == stdlib_csv_bytes(tmp_path, header, expected_rows)


def test_sample_csv_lines_written_in_pieces_keep_their_bytes(tmp_path, capsys, monkeypatch):
    # rows of 10 cells in pieces of at most 4: the header and every row span three
    monkeypatch.setattr(cli, "_CHUNK_CELLS", 4)
    out = tmp_path / "s.csv"
    args = ["sample", "--samples", "3", "--dim-h", "2", "--dim-seq", "5", "--seed", "5"]
    assert cli.main(args + ["--out", str(out)]) == 0
    capsys.readouterr()
    header = [f"w_{i}_{k}" for i in range(2) for k in range(5)]
    rows = sample_mu_a(Covariance.identity(5), TruncationDims(2, 5), 3, 5).samples.reshape(3, -1)
    assert out.read_bytes() == stdlib_csv_bytes(tmp_path, header, rows.tolist())


def test_sample_wide_row_memory_does_not_grow_with_the_row(tmp_path, capsys, monkeypatch):
    # rows of 2**13 and 2**15 values in pieces of 1024: the traced peak
    # grew 21 bytes per added value, about the three width-long arrays of a
    # one-sample batch of identity covariance; formatting each row at once
    # grew it 144 bytes per value.  (The ratio of the two peaks tells these
    # apart poorly, 2.7 against 3.9, because those arrays grow too.)
    # one CPU, so that this process formats the whole row where tracemalloc
    # sees it (the worker's memory is checked by
    # test_the_writer_worker_holds_no_more_than_a_piece_at_once)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(cli, "_CHUNK_CELLS", 1024)
    out = tmp_path / "s.csv"

    def run(width):
        args = ["sample", "--samples", "1", "--dim-h", "1", "--dim-seq", str(width), "--seed", "3"]
        assert cli.main(args + ["--out", str(out)]) == 0

    def traced_peak(width):
        tracemalloc.start()
        try:
            run(width)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run(2**13)  # untraced, so that no first-call allocation is counted
    narrow, width = 2**13, 2**15
    narrow_peak = traced_peak(narrow)
    assert traced_peak(width) - narrow_peak < 6 * 8 * (width - narrow)
    capsys.readouterr()
    row = sample_mu_a(Covariance.identity(width), TruncationDims(1, width), 1, 3).samples.ravel()
    with open(out, "rb") as fh:
        assert fh.readline() == ",".join(f"w_0_{k}" for k in range(width)).encode() + b"\r\n"
        assert fh.readline() == ",".join(map(repr, row.tolist())).encode() + b"\r\n"
        assert fh.read() == b""


def test_closure_csv_cells_are_exact_round_trip_values(tmp_path, capsys):
    doc = base_closure_doc()
    doc["closure"] = {"kind": "optimal_prediction", "A": (np.eye(5) + 0.1).tolist()}
    cfg = tmp_path / "run.json"
    serialize.save_document(cfg, doc)
    out = tmp_path / "run.csv"
    assert cli.main(["closure", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    loaded = serialize.load_closure_config(serialize.load_document(cfg))
    snapshots = solve_closure(**loaded)
    x = loaded["params"].x_centers
    expected = np.vstack([
        np.column_stack([np.full(len(x), snap.t), x, snap.values]) for snap in snapshots
    ])
    header = ["t", "x", "I_0", "I_1", "I_2", "I_3"]
    assert np.array_equal(read_numeric_csv(out, header), expected)
    assert out.read_bytes() == stdlib_csv_bytes(tmp_path, header, expected.tolist())


@pytest.mark.parametrize(
    "args, eval_fn, max_n, xs",
    [
        (["--max-n", "4", "--x-min", "-2", "--x-max", "1.5", "--points", "7"],
         hermite_prob, 4, np.linspace(-2.0, 1.5, 7)),
        (["--kind", "phys", "--max-n", "0", "--points", "1"],
         hermite_phys, 0, np.linspace(-3.0, 3.0, 1)),
    ],
)
def test_hermite_csv_cells_are_exact_round_trip_values(tmp_path, capsys, args, eval_fn, max_n, xs):
    out = tmp_path / "h.csv"
    assert cli.main(["hermite", *args, "--out", str(out)]) == 0
    capsys.readouterr()
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "x", "value"]
    for n_cell, x_cell, value_cell in rows[1:]:
        assert str(int(n_cell)) == n_cell
        assert repr(float(x_cell)) == x_cell and repr(float(value_cell)) == value_cell
    expected = np.vstack([
        np.column_stack([np.full(len(xs), n), xs, np.atleast_1d(eval_fn(n, xs))])
        for n in range(max_n + 1)
    ])
    assert np.array_equal(np.array(rows[1:], dtype=float), expected)
    expected_rows = [[int(n), x, value] for n, x, value in expected.tolist()]
    assert out.read_bytes() == stdlib_csv_bytes(tmp_path, ["n", "x", "value"], expected_rows)


def test_hermite_tabulation(tmp_path, capsys):
    out = tmp_path / "herm.csv"
    code, _, _ = run_cli(
        ["hermite", "--max-n", "3", "--x-min", "-1", "--x-max", "1", "--points", "5",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "x", "value"]
    assert len(rows) == 1 + 4 * 5
    for n, x, value in rows[1:]:
        assert float(value) == pytest.approx(hermite_prob(int(n), float(x)), rel=1e-12)


def test_hermite_physicists_tabulation(tmp_path, capsys):
    out = tmp_path / "herm_phys.csv"
    code, _, _ = run_cli(
        ["hermite", "--max-n", "2", "--kind", "phys", "--points", "3", "--out", str(out)],
        capsys,
    )
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))[1:]
    for n, x, value in rows:
        assert float(value) == pytest.approx(hermite_phys(int(n), float(x)), rel=1e-12)


def test_seed_env_var_override(tmp_path, capsys, monkeypatch):
    out1 = tmp_path / "env1.csv"
    out2 = tmp_path / "env2.csv"
    out3 = tmp_path / "flag.csv"
    monkeypatch.setenv(cli.SEED_ENV_VAR, "77")
    cli.main(["sample", "--samples", "5", "--out", str(out1)])
    cli.main(["sample", "--samples", "5", "--out", str(out2)])
    monkeypatch.delenv(cli.SEED_ENV_VAR)
    cli.main(["sample", "--samples", "5", "--seed", "77", "--out", str(out3)])
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() == out3.read_bytes()


@pytest.mark.parametrize(
    "args, env_seed, field",
    [
        (["sample", "--seed", "-1"], None, "seed"),
        (["verify", "--suite", "core", "--seed", "-1"], None, "seed"),
        (["sample"], "-4", "SEQGAUSS_SEED"),
        (["verify", "--suite", "core"], "-4", "SEQGAUSS_SEED"),
        (["hermite", "--max-n", "2", "--x-min", "nan"], None, "x-min"),
        (["hermite", "--max-n", "2", "--x-max", "inf"], None, "x-max"),
        (["verify", "--suite", "core", "--samples", "0"], None, "samples"),
        (["verify", "--suite", "core", "--samples", "1"], None, "samples"),
        (["verify", "--suite", "measure", "--samples", "-5"], None, "samples"),
    ],
)
def test_out_of_range_number_exits_2_naming_the_field(
    tmp_path, capsys, monkeypatch, args, env_seed, field
):
    if env_seed is not None:
        monkeypatch.setenv(cli.SEED_ENV_VAR, env_seed)
    out = tmp_path / "out.csv"
    if args[0] != "verify":
        args = args + ["--out", str(out)]
    code, _, err = run_cli(args, capsys)
    assert code == 2
    assert f"field '{field}'" in err and "Traceback" not in err
    assert not out.exists()


def test_verify_all_smoke(capsys):
    code, out, _ = run_cli(
        ["verify", "--suite", "all", "--seed", "2", "--samples", "20000"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "49/49 checks passed"
    names = [line.split("] ", 1)[1].split(" -- ", 1)[0] for line in lines[:-1]]
    assert len(set(names)) == len(names) == 49


@pytest.mark.parametrize("kind", ["diagonal", "dense"])
def test_sample_with_covariance_file_writes_the_factor_product(tmp_path, capsys, kind):
    rng = np.random.default_rng(44)
    g = rng.standard_normal((4, 4))
    a = np.diag(rng.uniform(0.1, 10.0, 4)) if kind == "diagonal" else g @ g.T / 4 + np.eye(4)
    cov_path = tmp_path / "cov.json"
    serialize.save_document(cov_path, {"A": a.tolist()})
    out = tmp_path / "s.csv"
    args = ["sample", "--seed", "9", "--samples", "50", "--dim-h", "3", "--dim-seq", "4"]
    assert cli.main(args + ["--cov", str(cov_path), "--out", str(out)]) == 0
    capsys.readouterr()
    sym = 0.5 * (a + a.T)
    chol = np.diag(np.sqrt(np.diagonal(a))) if kind == "diagonal" else np.linalg.cholesky(sym)
    z = np.random.default_rng(9).standard_normal((50 * 3, 4))
    rows = (z @ chol.T).reshape(50, -1).tolist()
    header = [f"w_{i}_{k}" for i in range(3) for k in range(4)]
    assert out.read_bytes() == stdlib_csv_bytes(tmp_path, header, rows)


@pytest.mark.parametrize(
    "sizes",
    [
        ["--dim-seq", "1000000000", "--samples", "1"],
        ["--samples", "10000000", "--dim-h", "1", "--dim-seq", "1"],
        ["--samples", "2048", "--dim-h", "2048", "--dim-seq", "2", "--cov", "missing.json"],
    ],
)
def test_oversized_sample_exits_2_before_allocating(tmp_path, capsys, sizes):
    out = tmp_path / "s.csv"
    start = time.perf_counter()
    code, _, err = run_cli(["sample", *sizes, "--out", str(out)], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "config error: field 'samples/dim-h/dim-seq'" in err and "Traceback" not in err
    assert str(cli.MAX_SAMPLE_VALUES) in err
    assert not out.exists()


@pytest.mark.parametrize(
    "samples", [str(cli.MAX_SAMPLE_VALUES // 6 + 1), "1000000000000"]
)
def test_oversized_verify_batch_exits_2_before_allocating(capsys, samples):
    # each Monte Carlo batch of verify holds samples x 2 x 3 values
    start = time.perf_counter()
    code, out, err = run_cli(["verify", "--suite", "measure", "--samples", samples], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "config error: field 'samples'" in err and "Traceback" not in err
    assert str(cli.MAX_SAMPLE_VALUES) in err


@pytest.mark.parametrize(
    "sizes",
    [
        ["--max-n", "1000000000", "--points", "1"],
        ["--max-n", "0", "--points", "100000000"],
        ["--max-n", "2047", "--points", "2049"],
    ],
)
def test_oversized_hermite_table_exits_2_before_allocating(tmp_path, capsys, sizes):
    out = tmp_path / "h.csv"
    start = time.perf_counter()
    code, _, err = run_cli(["hermite", *sizes, "--out", str(out)], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "config error: field 'points/max-n'" in err and "Traceback" not in err
    assert str(cli.MAX_HERMITE_CELLS) in err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, error",
    [
        # wrote 294 nan and 5 inf cells after three RuntimeWarnings, and exited 0
        (["--max-n", "400", "--points", "3"],
         "field 'max-n/x-min/x-max': degree 301 overflows at x = -3.0"),
        # wrote inf from n = 2 on
        (["--max-n", "5", "--x-min", "1e300", "--x-max", "1e300"],
         "field 'max-n/x-min/x-max': degree 2 overflows at x = 1e+300"),
        # wrote nan and inf x values
        (["--max-n", "0", "--x-min=-1e308", "--x-max", "1e308"],
         "field 'x-min/x-max': the grid spacing overflows"),
    ],
)
def test_hermite_overflow_exits_2_without_writing(tmp_path, capsys, args, error):
    out = tmp_path / "h.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(["hermite", *args, "--out", str(out)], capsys)
    assert code == 2
    assert f"config error: {error}" in err and "Traceback" not in err
    assert not out.exists()


# the CSV commands, each with the bytes csv.writer writes for its rows;
# a row count that is odd or puts the writer's half-way cut inside a block
def _closure_case(tmp_path, monkeypatch):
    cfg = tmp_path / "run.json"
    serialize.save_document(cfg, base_closure_doc())  # 5 snapshots of 40 cells
    loaded = serialize.load_closure_config(serialize.load_document(cfg))
    x = loaded["params"].x_centers
    rows = np.vstack([np.column_stack([np.full(len(x), snap.t), x, snap.values])
                      for snap in solve_closure(**loaded)])
    header = ["t", "x", "I_0", "I_1", "I_2", "I_3"]
    return ["closure", "--config", str(cfg)], stdlib_csv_bytes(tmp_path, header, rows.tolist())


def _sample_case(samples):
    def case(tmp_path, monkeypatch):
        # rows of 10 cells written in pieces of at most 4
        monkeypatch.setattr(cli, "_CHUNK_CELLS", 4)
        batch = sample_mu_a(Covariance.identity(5), TruncationDims(2, 5), samples, 5)
        header = [f"w_{i}_{k}" for i in range(2) for k in range(5)]
        rows = batch.samples.reshape(samples, -1).tolist()
        argv = ["sample", "--samples", str(samples), "--dim-h", "2", "--dim-seq", "5", "--seed", "5"]
        return argv, stdlib_csv_bytes(tmp_path, header, rows)
    return case


def _hermite_case(tmp_path, monkeypatch):
    xs = np.linspace(-2.0, 1.5, 7)
    rows = [[n, x, hermite_prob(n, x)] for n in range(5) for x in xs.tolist()]
    argv = ["hermite", "--max-n", "4", "--x-min", "-2", "--x-max", "1.5", "--points", "7"]
    return argv, stdlib_csv_bytes(tmp_path, ["n", "x", "value"], rows)


CSV_CASES = pytest.mark.parametrize(
    "case", [_closure_case, _sample_case(5), _sample_case(1), _hermite_case],
    ids=["closure", "sample", "sample-one-row", "hermite"],
)


def _no_file_once_forked(patch, forks):
    """Temporary files as usual until a fork has been attempted, then none."""
    make = tempfile.TemporaryFile
    patch.setattr(tempfile, "TemporaryFile",
                  lambda *args, **kwargs: (no_temporary_file if forks else make)(*args, **kwargs))


@CSV_CASES
def test_csv_bytes_are_the_same_on_every_path(tmp_path, capsys, monkeypatch, case):
    argv, expected = case(tmp_path, monkeypatch)
    # two CPUs: one worker; one CPU: no fork; no process to spare: one failed fork;
    # two CPUs, but no file left for this process's own rows once the worker is forked
    for cpus, fork, forks, files in (({0, 1}, None, 1, None), ({0}, refuse_fork, 0, None),
                                     ({0, 1}, fork_fails, 1, None),
                                     ({0, 1}, None, 1, _no_file_once_forked)):
        out = tmp_path / "out.csv"
        with monkeypatch.context() as patch:
            count = count_forks(patch, cpus, fork)
            if files is not None:
                files(patch, count)
            assert cli.main(argv + ["--out", str(out)]) == 0
        assert len(count) == forks
        assert out.read_bytes() == expected
        out.unlink()
    capsys.readouterr()


@CSV_CASES
def test_a_failed_writer_worker_still_leaves_the_whole_file(tmp_path, capsys, monkeypatch, forks,
                                                             case):
    argv, expected = case(tmp_path, monkeypatch)
    parent, cells, wait = os.getpid(), cli._cells, _fork.Worker.wait
    statuses = []

    def recorded(worker):
        statuses.append(wait(worker))
        return statuses[-1]

    monkeypatch.setattr(_fork.Worker, "wait", recorded)
    # the worker exits with status 3 at its first cell, or midway, at its third
    for before_exit in (0, 2):
        formatted = []

        def dying(row):
            if os.getpid() != parent:
                if len(formatted) == before_exit:
                    os._exit(3)
                formatted.append(row)
            return cells(row)

        out = tmp_path / "out.csv"
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_cells", dying)
            assert cli.main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == expected
    assert len(forks) == 2 and statuses == [3, 3]
    capsys.readouterr()


def test_a_writer_worker_that_fails_midway_still_leaves_the_whole_file(tmp_path, monkeypatch,
                                                                       forks):
    # rows of 2048 cells, each longer than the temporary file's buffer, so
    # the worker's first two rows reach its file before it exits with status 3;
    # a table ready at once gives the worker its leading half, rows 0 to 2
    rows = np.random.default_rng(7).standard_normal((6, 2048)).tolist()
    parent, wait, written = os.getpid(), _fork.Worker.wait, []

    def lines(a, b):
        for k in range(a, b):
            if os.getpid() != parent and k == a + 2:
                os._exit(3)
            yield cli._cells(rows[k]) + "\r\n"

    def recorded(worker):
        status = wait(worker)
        written.append((status, len(worker.spool.read())))
        worker.spool.seek(0)
        return status

    monkeypatch.setattr(_fork.Worker, "wait", recorded)
    out = tmp_path / "out.csv"
    cli._write_csv(out, ["h\r\n"], lines, len(rows))
    [(status, size)] = written
    assert len(forks) == 1 and status == 3
    assert size == sum(len(cli._cells(row)) + 2 for row in rows[0:2])
    assert out.read_bytes() == stdlib_csv_bytes(tmp_path, ["h"], rows)


@CSV_CASES
def test_without_a_temporary_file_nothing_is_forked(tmp_path, capsys, monkeypatch, case):
    argv, expected = case(tmp_path, monkeypatch)
    count_forks(monkeypatch, {0, 1}, refuse_fork)
    monkeypatch.setattr(tempfile, "TemporaryFile", no_temporary_file)
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == expected
    capsys.readouterr()


def test_the_writer_worker_is_killed_and_reaped_when_the_caller_raises(tmp_path, monkeypatch,
                                                                        forks):
    argv, _ = _closure_case(tmp_path, monkeypatch)
    parent = os.getpid()

    def cells(row):
        if os.getpid() != parent:
            time.sleep(60)
        raise ValueError("boom")

    monkeypatch.setattr(cli, "_cells", cells)
    start = time.monotonic()
    with pytest.raises(ValueError, match="boom"):
        cli.main(argv + ["--out", str(tmp_path / "out.csv")])
    assert time.monotonic() - start < 30
    assert len(forks) == 1


def test_the_writer_worker_holds_no_more_than_a_piece_at_once(tmp_path, monkeypatch, forks):
    # the worker's half is 8 MiB in 64 KiB pieces; holding it whole, as an
    # in-memory buffer did, put the worker's traced peak 8 MiB above its
    # memory at the fork
    parent, exit_, report = os.getpid(), os._exit, tmp_path / "worker-peak"
    at_fork = []

    def lines(a, b):
        if os.getpid() != parent:
            tracemalloc.reset_peak()
            at_fork.append(tracemalloc.get_traced_memory()[0])
        for _ in range(a, b):
            yield from ("0" * 2**16 + "\r\n" for _ in range(128))

    def exiting(status):
        if os.getpid() != parent:
            report.write_text(f"{status} {tracemalloc.get_traced_memory()[1] - at_fork[0]}")
        exit_(status)

    monkeypatch.setattr(os, "_exit", exiting)
    out = tmp_path / "out.csv"
    tracemalloc.start()
    try:
        cli._write_csv(out, ["h\r\n"], lines, 2)
    finally:
        tracemalloc.stop()
    status, peak = map(int, report.read_text().split())
    assert len(forks) == 1 and status == 0
    assert peak < 2**20
    assert out.stat().st_size == 3 + 2 * 128 * (2**16 + 2)


def test_the_writer_worker_is_handed_each_snapshot_while_the_run_marches(tmp_path, capsys,
                                                                          monkeypatch, forks):
    argv, expected = _closure_case(tmp_path, monkeypatch)  # 5 snapshots of 40 cells
    march, hand, marched, handed = cli.march, cli._handed, [], []

    def paused(*args, **kwargs):  # a march slow enough for the worker to keep up
        for snapshot in march(*args, **kwargs):
            marched.append(snapshot)
            yield snapshot
            time.sleep(0.05)

    def recorded(worker, done, bound):
        handed.append((len(marched), bound))
        return hand(worker, done, bound)

    monkeypatch.setattr(cli, "march", paused)
    monkeypatch.setattr(cli, "_handed", recorded)
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == expected
    # each snapshot is handed over as it is stored, before the next is
    # marched: a worker that keeps up formats every row
    assert handed[:5] == [(1, 40), (2, 80), (3, 120), (4, 160), (5, 200)]
    assert len(forks) == 1
    capsys.readouterr()


def test_closure_refused_input_exits_2_before_anything_is_forked(tmp_path, capsys, monkeypatch):
    count_forks(monkeypatch, {0, 1}, refuse_fork)
    cfg, out = tmp_path / "run.json", tmp_path / "run.csv"
    serialize.save_document(cfg, {**base_closure_doc(), "dt": 1.0})  # above the CFL bound
    code, _, err = run_cli(["closure", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("config error: field 'dt': CFL violation")
    assert not out.exists()


def _blow_up_doc():
    # dt * kappa = 5e147: the second step reaches 1e295 and the third
    # overflows, after three snapshots are stored
    return {**base_closure_doc(), "kappa": 1e150, "output_stride": 1}


def test_closure_blow_up_after_the_fork_exits_2_and_leaves_the_output_alone(tmp_path, capsys,
                                                                           monkeypatch, forks):
    hand, handed = cli._handed, []

    def recorded(worker, done, bound):
        handed.append(bound)
        return hand(worker, done, bound)

    monkeypatch.setattr(cli, "_handed", recorded)
    cfg, out = tmp_path / "run.json", tmp_path / "run.csv"
    serialize.save_document(cfg, _blow_up_doc())
    for existing in (None, b"an earlier run\r\n"):
        if existing is not None:
            out.write_bytes(existing)
        handed.clear()
        code, _, err = run_cli(["closure", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 2
        assert err == ("config error: field 'closure run': solution blew up at t = 0.015: "
                       "non-finite moment 0 in cell 0\n")
        assert out.read_bytes() == existing if existing is not None else not out.exists()
        # the worker was handed the first stored snapshots before the blow-up
        assert handed[:2] == [40, 80]
    assert len(forks) == 2


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_the_closure_command_leaves_no_descriptor_open(tmp_path, capsys, monkeypatch, forks):
    cfg, blow_up, out = tmp_path / "run.json", tmp_path / "blow-up.json", tmp_path / "run.csv"
    serialize.save_document(cfg, base_closure_doc())
    serialize.save_document(blow_up, _blow_up_doc())
    parent, cells, formatted = os.getpid(), cli._cells, []

    def dying(row):  # the worker exits with status 3 past its first snapshot's rows
        if os.getpid() != parent:
            if len(formatted) == 60:
                os._exit(3)
            formatted.append(row)
        return cells(row)

    def run(config, code, patch=None):
        with monkeypatch.context() as patched:
            if patch is not None:
                patched.setattr(cli, "_cells", patch)
            assert cli.main(["closure", "--config", str(config), "--out", str(out)]) == code

    run(cfg, 0)  # anything opened once and kept is opened now
    expected = out.read_bytes()
    for config, code, patch in ((cfg, 0, None), (blow_up, 2, None), (cfg, 0, dying)):
        before = os.listdir("/proc/self/fd")
        run(config, code, patch)
        assert os.listdir("/proc/self/fd") == before
        assert out.read_bytes() == expected
    assert len(forks) == 4
    capsys.readouterr()
