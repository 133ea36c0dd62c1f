import inspect
import json

import numpy as np
import pytest

from seqgauss import chaos, cli, serialize, wick
from seqgauss.core import InputError, _as_array
from seqgauss.closure import MAX_ORDER, solve_closure


# a config's matrices, vectors and numbers are read through core._as_array

def test_matrix_round_trip(tmp_path):
    arr = np.array([[1.0, 2.5], [-3.0, 0.0]])
    path = tmp_path / "mat.json"
    serialize.save_document(path, {"A": serialize.matrix_to_lists(arr)})
    doc = serialize.load_document(path)
    back = _as_array(doc["A"], 2, "A")
    assert np.array_equal(back, arr)


def test_matrix_from_lists_validation():
    for data, pattern in [
        ("not a matrix", "^A is not a numeric array"),
        ([1.0, 2.0], r"^A must be a 2-D array"),
        ([[np.inf]], "non-finite"),
    ]:
        with pytest.raises(InputError, match=pattern) as exc:
            serialize.load_condexp_config({"A": data, "f": [[1.0]], "conditioning": [[1.0]]})
        assert exc.value.argument == "A"


@pytest.mark.parametrize(
    "data, ndim",
    [
        (True, 0),
        ("1.5", 0),
        (["1", 2.0], 1),
        ([1.0, True], 1),
        ([[1.0, 0.0], [0.0, True]], 2),
        ([[1.0, 0.0], ["0", 1.0]], 2),
        (np.array([True, False]), 1),
    ],
)
def test_matrix_from_lists_rejects_booleans_and_strings(data, ndim):
    # np.asarray(..., dtype=float) would read each of these as numbers
    with pytest.raises(InputError, match="^A is not a numeric array: booleans, strings") as exc:
        _as_array(data, ndim, "A")
    assert exc.value.argument == "A"


def test_matrix_from_lists_accepts_ints_and_numpy_numbers():
    assert _as_array([[1, 2.5]], 2, "A").tolist() == [[1.0, 2.5]]
    assert _as_array(np.eye(2), 2, "A").tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert _as_array([np.float64(0.5), np.int64(3)], 1, "v").tolist() == [0.5, 3.0]


def test_load_document_errors(tmp_path):
    with pytest.raises(InputError, match="not found") as exc:
        serialize.load_document(tmp_path / "missing.json")
    assert exc.value.argument == "config"
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    with pytest.raises(InputError, match="invalid JSON") as exc:
        serialize.load_document(bad)
    assert exc.value.argument == "config"


def test_expansion_round_trip():
    rng = np.random.default_rng(0)
    kernels = {
        0: wick.SymKernel.constant(1.5, 2, 3),
        2: wick.polarize(list(rng.standard_normal((2, 2, 3)))),
    }
    expansion = chaos.ChaosExpansion(kernels=kernels)
    # the document survives a JSON round trip with every number intact
    data = json.loads(json.dumps(serialize.expansion_to_jsonable(expansion)))
    assert [entry["degree"] for entry in data] == expansion.degrees
    for entry in data:
        terms = expansion.kernels[entry["degree"]].terms
        assert len(entry["terms"]) == len(terms)
        for written, term in zip(entry["terms"], terms):
            assert written["coeff"] == term.coeff
            assert np.array_equal(np.array(written["base"]), term.base)


def condexp_doc():
    return {
        "A": [[1.0, 0.5, 0.0, 0.0], [0.5, 1.0, 0.0, 0.0],
              [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
        "f": [[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]],
        "conditioning": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]],
    }


def test_condexp_config_load():
    cov, f, conditioning = serialize.load_condexp_config(condexp_doc())
    assert cov.dim == 4
    assert f.shape == (2, 4)
    assert len(conditioning) == 2


def test_condexp_config_field_errors():
    doc = condexp_doc()
    del doc["f"]
    with pytest.raises(InputError, match="missing") as exc:
        serialize.load_condexp_config(doc)
    assert exc.value.argument == "f"
    doc = condexp_doc()
    doc["A"] = [[1.0, 2.0, 0.0, 0.0], [2.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]  # indefinite
    # refused by ``Covariance`` as its ``matrix``, which the CLI reports as A
    with pytest.raises(InputError, match="not positive definite") as exc:
        serialize.load_condexp_config(doc)
    assert cli._FIELDS["condexp"][exc.value.argument] == "A"
    doc = condexp_doc()
    doc["conditioning"] = [[1.0, 0.0]]  # wrong length
    with pytest.raises(InputError, match="length 4") as exc:
        serialize.load_condexp_config(doc)
    assert exc.value.argument == "conditioning[0]"


def closure_doc():
    return {
        "a": 0.0,
        "b": 1.0,
        "J": 10,
        "N": 2,
        "T": 0.05,
        "dt": 0.005,
        "closure": {"kind": "pn"},
        "sigma": 0.0,
        "kappa": 0.1,
        "q": 0.0,
        "initial": [1.0, 0.0, 0.0],
    }


def test_closure_config_load():
    cfg = serialize.load_closure_config(closure_doc())
    assert list(cfg) == list(inspect.signature(solve_closure).parameters)
    assert cfg["params"].cells == 10
    assert cfg["initial"].order == 2
    assert cfg["initial"].values.shape == (10, 3)
    assert cfg["dt"] == 0.005
    assert cfg["cfl"] == 0.9


def test_closure_config_per_cell_arrays_and_optional_dt():
    doc = closure_doc()
    del doc["dt"]
    doc["sigma"] = [0.1] * 10
    doc["initial"] = [list(np.linspace(0, 1, 10)), 0.0, 0.0]
    cfg = serialize.load_closure_config(doc)
    assert cfg["dt"] is None
    assert np.allclose(cfg["params"].sigma, 0.1)
    assert np.allclose(cfg["initial"].values[:, 0], np.linspace(0, 1, 10))


def test_closure_config_optimal_prediction():
    doc = closure_doc()
    doc["closure"] = {"kind": "optimal_prediction", "A": np.eye(4).tolist()}
    cfg = serialize.load_closure_config(doc)
    assert np.array_equal(cfg["correlation"], np.eye(4))


def test_closure_config_kind_selects_the_correlation():
    # the config's closure kind exists only here: truncation is no correlation
    doc = closure_doc()
    assert serialize.load_closure_config(doc)["correlation"] is None
    for closure, field, pattern in [
        ({"kind": "bogus"}, "closure", "unknown closure kind 'bogus'"),
        ({"kind": "optimal_prediction"}, "closure.A", "missing"),
    ]:
        doc["closure"] = closure
        with pytest.raises(InputError, match=pattern) as exc:
            serialize.load_closure_config(doc)
        assert exc.value.argument == field


def test_closure_config_field_errors():
    for field, value in [
        ("J", 0),
        ("N", -1),
        ("N", MAX_ORDER + 1),
        ("closure", {"kind": "bogus"}),
        ("sigma", [1.0, 2.0]),
        ("initial", [1.0]),
    ]:
        doc = closure_doc()
        doc[field] = value
        with pytest.raises(InputError) as exc:
            serialize.load_closure_config(doc)
        assert exc.value.argument == field
    doc = closure_doc()
    del doc["kappa"]
    with pytest.raises(InputError, match="missing") as exc:
        serialize.load_closure_config(doc)
    assert exc.value.argument == "kappa"
