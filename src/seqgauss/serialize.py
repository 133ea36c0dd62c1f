"""JSON for matrices, chaos expansions (written only), and CLI configs.

Matrices and vectors travel as nested lists of numbers in row-major
order.  A chaos expansion becomes a list of ``{"degree": n, "terms":
[{"coeff": c, "base": [[...]]}, ...]}`` entries.  Config loading reports
missing or malformed entries by field name via :class:`ConfigError`.
"""

from __future__ import annotations

import json

import numpy as np

from .chaos import ChaosExpansion
from .closure import DEFAULT_CFL, MAX_ORDER, MAX_SNAPSHOT_VALUES, MaterialParams, MomentGrid
from .core import Covariance, apply_extended

__all__ = [
    "ConfigError",
    "load_document",
    "save_document",
    "matrix_to_lists",
    "matrix_from_lists",
    "expansion_to_jsonable",
    "load_condexp_config",
    "load_closure_config",
]


class ConfigError(Exception):
    """Config problem attributable to one named field."""

    def __init__(self, field: str, message: str) -> None:
        self.field = field
        super().__init__(f"field '{field}': {message}")


def load_document(path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("config", f"file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON in {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config", "top-level document must be an object")
    return doc


def save_document(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def matrix_to_lists(arr) -> list:
    return np.asarray(arr, dtype=float).tolist()


_PLAIN_NUMBERS = {int, float}


def _is_numeric(data) -> bool:
    """True for a number or a (nested) list of numbers.  Booleans and
    strings are not numbers, even though ``np.asarray`` converts them."""
    if isinstance(data, (list, tuple)):
        # the set of leaf types keeps long per-cell lists cheap to check
        return set(map(type, data)) <= _PLAIN_NUMBERS or all(map(_is_numeric, data))
    if isinstance(data, np.ndarray):
        return data.dtype.kind in "iuf"
    return isinstance(data, (int, float, np.integer, np.floating)) and not isinstance(data, bool)


def matrix_from_lists(data, field: str, ndim: int = 2) -> np.ndarray:
    if not _is_numeric(data):
        raise ConfigError(field, "must be a (nested) array of numbers")
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(field, "must be a (nested) array of numbers") from None
    if arr.ndim != ndim:
        raise ConfigError(field, f"must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(field, "contains non-finite values")
    return arr


def expansion_to_jsonable(expansion: ChaosExpansion) -> list:
    out = []
    for n in expansion.degrees:
        kernel = expansion.kernels[n]
        out.append(
            {
                "degree": n,
                "terms": [
                    {"coeff": t.coeff, "base": matrix_to_lists(t.base)}
                    for t in kernel.terms
                ],
            }
        )
    return out


def _require(doc: dict, field: str, name: str | None = None):
    if field not in doc:
        raise ConfigError(name or field, "missing")
    return doc[field]


def _number(doc: dict, field: str, default=None) -> float:
    if field not in doc:
        if default is None:
            raise ConfigError(field, "missing")
        return default
    value = doc[field]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(field, f"must be a number, got {value!r}")
    return float(matrix_from_lists(value, field, ndim=0))


def _cell_values(value, field: str, cells: int) -> np.ndarray:
    """A per-cell field: one number for every cell or a length-``cells`` array."""
    arr = matrix_from_lists(value if isinstance(value, list) else [value] * cells, field, 1)
    if arr.shape != (cells,):
        raise ConfigError(field, f"must be a number or a length-{cells} array")
    return arr


def _integer(doc: dict, field: str, default=None) -> int:
    if field not in doc:
        if default is None:
            raise ConfigError(field, "missing")
        return default
    value = doc[field]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(field, f"must be an integer, got {value!r}")
    return value


def load_condexp_config(doc: dict) -> tuple[Covariance, np.ndarray, list[np.ndarray]]:
    """Read {A, f, conditioning} for the conditional-expectation command;
    an f whose weighted image F A is not finite is refused as field f.
    Every shape is compared with A's before A is factored."""
    a = matrix_from_lists(_require(doc, "A"), "A")
    if a.shape[0] != a.shape[1]:
        raise ConfigError("A", f"must be square, got shape {a.shape}")
    dim = len(a)
    f = matrix_from_lists(_require(doc, "f"), "f")
    if f.shape[1] != dim:
        raise ConfigError("f", f"must have {dim} columns to match A, got {f.shape[1]}")
    cond_raw = _require(doc, "conditioning")
    if not isinstance(cond_raw, list) or not cond_raw:
        raise ConfigError("conditioning", "must be a non-empty list of vectors")
    conditioning = []
    for i, vec in enumerate(cond_raw):
        v = matrix_from_lists(vec, f"conditioning[{i}]", ndim=1)
        if v.shape[0] != dim:
            raise ConfigError(f"conditioning[{i}]", f"must have length {dim} to match A")
        conditioning.append(v)
    try:
        cov = Covariance(a)
    except ValueError as exc:
        raise ConfigError("A", str(exc)) from None
    with np.errstate(over="ignore", invalid="ignore"):
        weighted = apply_extended(cov, f)
    if not np.isfinite(weighted).all():
        raise ConfigError("f", "F A overflows: f is too large for the weight A")
    return cov, f, conditioning


def load_closure_config(doc: dict) -> dict:
    """Read the moment-solver config document into the keyword arguments
    of :func:`~seqgauss.closure.solve_closure`: initial, params,
    correlation (None for ``{"kind": "pn"}``), t_final, dt (None for the
    CFL-stable default), output_stride and cfl.

    Only the JSON is checked here (types, shapes, finite numbers and the
    closure kind), with the bounds on N and J that the lists built here
    need.  Every other value is checked by the library: ``MaterialParams``
    (built here) and the run raise
    :class:`~seqgauss.closure.ClosureInputError` naming the argument.
    """
    a = _number(doc, "a")
    b = _number(doc, "b")
    cells = _integer(doc, "J")
    order = _integer(doc, "N")
    # N and J size the lists built below.  Every run keeps the initial and
    # the final snapshot, so a grid above the snapshot bound could never run.
    if not 0 <= order <= MAX_ORDER:
        raise ConfigError("N", f"must be an integer in 0..{MAX_ORDER}, got {order}")
    if cells < 1:
        raise ConfigError("J", f"must be positive, got {cells}")
    if 2 * cells * (order + 1) > MAX_SNAPSHOT_VALUES:
        raise ConfigError("J", f"{cells} cells of {order + 1} moments exceed "
                          f"{MAX_SNAPSHOT_VALUES} values in the initial and final snapshots")
    t_final = _number(doc, "T")
    dt = None if doc.get("dt") is None else _number(doc, "dt")
    cfl = _number(doc, "cfl", default=DEFAULT_CFL)
    output_stride = _integer(doc, "output_stride", default=1)

    closure_doc = _require(doc, "closure")
    if not isinstance(closure_doc, dict) or "kind" not in closure_doc:
        raise ConfigError("closure", "must be an object with a 'kind' entry")
    kind = closure_doc["kind"]
    if kind == "pn":
        correlation = None
    elif kind == "optimal_prediction":
        correlation = matrix_from_lists(_require(closure_doc, "A", "closure.A"), "closure.A")
    else:
        raise ConfigError("closure", f"unknown closure kind {kind!r}")

    sigma, kappa, source = (
        _cell_values(_require(doc, name), name, cells) for name in ("sigma", "kappa", "q")
    )
    params = MaterialParams(a=a, b=b, cells=cells, sigma=sigma, kappa=kappa, source=source)

    init_raw = _require(doc, "initial")
    if not isinstance(init_raw, list) or len(init_raw) != order + 1:
        raise ConfigError("initial", f"must be a list of {order + 1} moment entries")
    columns = [_cell_values(entry, f"initial[{k}]", cells) for k, entry in enumerate(init_raw)]
    initial = MomentGrid(t=0.0, values=np.stack(columns, axis=1))

    return {
        "initial": initial,
        "params": params,
        "correlation": correlation,
        "t_final": t_final,
        "dt": dt,
        "output_stride": output_stride,
        "cfl": cfl,
    }
