import inspect
import json

import numpy as np
import pytest

from seqgauss import cli, closure, serialize
from seqgauss.core import InputError, _as_array
from seqgauss.closure import MAX_ORDER, solve_closure


# a config's matrices, vectors and numbers are read through core._as_array

def test_matrix_round_trip(tmp_path):
    arr = np.array([[1.0, 2.5], [-3.0, 0.0]])
    path = tmp_path / "mat.json"
    path.write_text(json.dumps({"A": arr.tolist()}))
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


def test_a_deeply_nested_list_is_refused_naming_its_argument():
    # the leaf-type walk recursed once per level and raised RecursionError
    deep = [1.0]
    for _ in range(5000):
        deep = [deep]
    with pytest.raises(InputError, match="^A is not a numeric array") as exc:
        _as_array(deep, 2, "A")
    assert exc.value.argument == "A"


def test_load_document_errors(tmp_path):
    with pytest.raises(InputError, match="not found") as exc:
        serialize.load_document(tmp_path / "missing.json")
    assert exc.value.argument == "config"
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    with pytest.raises(InputError, match="invalid JSON") as exc:
        serialize.load_document(bad)
    assert exc.value.argument == "config"


def test_unreadable_document_is_refused_as_the_config(tmp_path):
    # a directory, and a file that is not UTF-8, raised IsADirectoryError
    # and UnicodeDecodeError, which the CLI showed as a traceback
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe" + '{"A": [[1.0]]}'.encode("utf-16-le"))
    for path in (tmp_path, utf16):
        with pytest.raises(InputError, match=f"^cannot read {path}: ") as exc:
            serialize.load_document(path)
        assert exc.value.argument == "config"


def condexp_doc():
    return {
        "A": [[1.0, 0.5, 0.0, 0.0], [0.5, 1.0, 0.0, 0.0],
              [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
        "f": [[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]],
        "conditioning": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]],
    }


def test_covariance_config_is_read_square_and_unfactored():
    # an indefinite A is not factored here, so it is returned as read
    indefinite = [[1.0, 2.0], [2.0, 1.0]]
    assert serialize.load_covariance_config({"A": indefinite}).tolist() == indefinite
    for doc, pattern in [({}, "^missing$"),
                         ({"A": [[1.0, 0.0]]}, r"^must be square, got shape \(1, 2\)$")]:
        with pytest.raises(InputError, match=pattern) as exc:
            serialize.load_covariance_config(doc)
        assert exc.value.argument == "A"


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


@pytest.mark.parametrize("value", [[1.0] * 9, [[1.0] * 10], [[1.0]] * 10, []],
                         ids=["short", "nested row", "nested column", "empty"])
@pytest.mark.parametrize("field", ["sigma", "kappa", "q", "initial[1]"])
def test_closure_config_per_cell_refusal_is_the_library_s(field, value):
    # the config's per-cell fields are read by the library's one per-cell
    # rule, so a config refusal says what MaterialParams or _per_cell says
    doc = closure_doc()
    if field == "initial[1]":
        doc["initial"][1] = value
        with pytest.raises(InputError) as direct:
            closure._per_cell(value, 10, field)
    else:
        materials = {"sigma": 0.0, "kappa": 0.1, "source": 0.0}
        doc[field] = materials["source" if field == "q" else field] = value
        with pytest.raises(InputError) as direct:
            closure.MaterialParams(a=0.0, b=1.0, cells=10, **materials)
    with pytest.raises(InputError) as exc:
        serialize.load_closure_config(doc)
    assert (exc.value.argument, str(exc.value)) == (direct.value.argument, str(direct.value))
    assert cli._FIELDS["closure"].get(exc.value.argument, exc.value.argument) == field
