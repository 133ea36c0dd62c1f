import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqgauss import cli, serialize
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


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2


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
    assert np.allclose(kernel, expected, atol=1e-12)


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
    assert np.allclose(a, b, atol=1e-12)
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
        # rejected by the solver: singular leading correlation block, dt above the CFL bound
        ("closure", {"kind": "optimal_prediction", "A": np.ones((5, 5)).tolist()}, "closure.A"),
        ("dt", 0.05, "dt"),
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
    assert how == "wrong length"
    return value[:-1] if isinstance(value, list) and value else [value, value]


@st.composite
def mutated_closure_docs(draw):
    """A valid closure config with one entry (possibly nested) mutated or dropped."""
    doc = base_closure_doc()
    doc["sigma"] = [0.1] * 40
    doc["closure"] = {"kind": "optimal_prediction", "A": (np.eye(5) + 0.1).tolist()}
    parent, key = doc, draw(st.sampled_from(sorted(doc)))
    while isinstance(parent[key], (list, dict)) and draw(st.booleans()):
        parent = parent[key]
        key = draw(st.sampled_from(sorted(parent) if isinstance(parent, dict)
                                   else range(len(parent))))
    how = draw(st.sampled_from(["string", "nan", "negative", "bool", "wrong length", "drop"]))
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


def test_closure_csv_cells_are_exact_round_trip_values(tmp_path, capsys):
    doc = base_closure_doc()
    doc["closure"] = {"kind": "optimal_prediction", "A": (np.eye(5) + 0.1).tolist()}
    cfg = tmp_path / "run.json"
    serialize.save_document(cfg, doc)
    out = tmp_path / "run.csv"
    assert cli.main(["closure", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    loaded = serialize.load_closure_config(serialize.load_document(cfg))
    snapshots = solve_closure(
        loaded["initial"], loaded["params"], loaded["spec"], t_final=loaded["t_final"],
        dt=loaded["dt"], output_stride=loaded["output_stride"], cfl=loaded["cfl"],
    )
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


def test_verify_all_smoke(capsys):
    code, out, _ = run_cli(
        ["verify", "--suite", "all", "--seed", "2", "--samples", "20000"], capsys
    )
    assert code == 0
    assert out.strip().splitlines()[-1].endswith("checks passed")
