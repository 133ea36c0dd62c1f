"""JSON for matrices, chaos expansions (written only), and CLI configs.

Matrices and vectors travel as nested lists of numbers in row-major
order.  A chaos expansion becomes a list of ``{"degree": n, "terms":
[{"coeff": c, "base": [[...]]}, ...]}`` entries.  Config loading refuses
a missing or malformed entry with :class:`~seqgauss.core.InputError`
whose ``argument`` is the config field, the name as the document spells
it.  A value that only the library can judge is refused by the library,
named as its parameter; the CLI maps that name to the config field.
"""

from __future__ import annotations

import json

import numpy as np

from .chaos import ChaosExpansion
from .closure import DEFAULT_CFL, MAX_ORDER, MAX_SNAPSHOT_VALUES, MaterialParams, MomentGrid
from .core import Covariance, InputError, _as_array, _check_count, apply_extended

__all__ = [
    "load_document",
    "save_document",
    "matrix_to_lists",
    "expansion_to_jsonable",
    "load_condexp_config",
    "load_closure_config",
]


def load_document(path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise InputError("config", f"file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise InputError("config", f"invalid JSON in {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError("config", "top-level document must be an object")
    return doc


def save_document(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def matrix_to_lists(arr) -> list:
    return np.asarray(arr, dtype=float).tolist()


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
        raise InputError(name or field, "missing")
    return doc[field]


def _number(doc: dict, field: str, default=None) -> float:
    value = _require(doc, field) if default is None else doc.get(field, default)
    return float(_as_array(value, 0, field))


def _cell_values(value, field: str, cells: int) -> np.ndarray:
    """A per-cell field: one number for every cell or a length-``cells`` array."""
    arr = _as_array(value if isinstance(value, list) else [value] * cells, 1, field)
    if arr.shape != (cells,):
        raise InputError(field, f"must be a number or a length-{cells} array")
    return arr


def _integer(doc: dict, field: str, least: int, default=None) -> int:
    value = _require(doc, field) if default is None else doc.get(field, default)
    _check_count(value, least, field)
    return value


def load_condexp_config(doc: dict) -> tuple[Covariance, np.ndarray, list[np.ndarray]]:
    """Read {A, f, conditioning} for the conditional-expectation command;
    an f whose weighted image F A is not finite is refused as field f, and
    an A that is not a covariance as ``Covariance``'s ``matrix``.  Every
    shape is compared with A's before A is factored."""
    a = _as_array(_require(doc, "A"), 2, "A")
    if a.shape[0] != a.shape[1]:
        raise InputError("A", f"must be square, got shape {a.shape}")
    dim = len(a)
    f = _as_array(_require(doc, "f"), 2, "f")
    if f.shape[1] != dim:
        raise InputError("f", f"must have {dim} columns to match A, got {f.shape[1]}")
    cond_raw = _require(doc, "conditioning")
    if not isinstance(cond_raw, list) or not cond_raw:
        raise InputError("conditioning", "must be a non-empty list of vectors")
    conditioning = []
    for i, vec in enumerate(cond_raw):
        v = _as_array(vec, 1, f"conditioning[{i}]")
        if v.shape[0] != dim:
            raise InputError(f"conditioning[{i}]", f"must have length {dim} to match A")
        conditioning.append(v)
    cov = Covariance(a)
    with np.errstate(over="ignore", invalid="ignore"):
        weighted = apply_extended(cov, f)
    if not np.isfinite(weighted).all():
        raise InputError("f", "F A overflows: f is too large for the weight A")
    return cov, f, conditioning


def load_closure_config(doc: dict) -> dict:
    """Read the moment-solver config document into the keyword arguments
    of :func:`~seqgauss.closure.solve_closure`: initial, params,
    correlation (None for ``{"kind": "pn"}``), t_final, dt (None for the
    CFL-stable default), output_stride and cfl.

    Only the JSON is checked here (types, shapes, finite numbers and the
    closure kind), with the bounds on N and J that the lists built here
    need.  Every other value is checked by the library: ``MaterialParams``
    (built here) and the run raise :class:`~seqgauss.core.InputError`
    naming the parameter.
    """
    a = _number(doc, "a")
    b = _number(doc, "b")
    cells = _integer(doc, "J", 1)
    order = _integer(doc, "N", 0)
    # N and J size the lists built below.  Every run keeps the initial and
    # the final snapshot, so a grid above the snapshot bound could never run.
    if order > MAX_ORDER:
        raise InputError("N", f"must be an integer in 0..{MAX_ORDER}, got {order}")
    if 2 * cells * (order + 1) > MAX_SNAPSHOT_VALUES:
        raise InputError("J", f"{cells} cells of {order + 1} moments exceed "
                         f"{MAX_SNAPSHOT_VALUES} values in the initial and final snapshots")
    t_final = _number(doc, "T")
    dt = None if doc.get("dt") is None else _number(doc, "dt")
    cfl = _number(doc, "cfl", default=DEFAULT_CFL)
    output_stride = _integer(doc, "output_stride", 1, default=1)

    closure_doc = _require(doc, "closure")
    if not isinstance(closure_doc, dict) or "kind" not in closure_doc:
        raise InputError("closure", "must be an object with a 'kind' entry")
    kind = closure_doc["kind"]
    if kind == "pn":
        correlation = None
    elif kind == "optimal_prediction":
        correlation = _as_array(_require(closure_doc, "A", "closure.A"), 2, "closure.A")
    else:
        raise InputError("closure", f"unknown closure kind {kind!r}")

    sigma, kappa, source = (
        _cell_values(_require(doc, name), name, cells) for name in ("sigma", "kappa", "q")
    )
    params = MaterialParams(a=a, b=b, cells=cells, sigma=sigma, kappa=kappa, source=source)

    init_raw = _require(doc, "initial")
    if not isinstance(init_raw, list) or len(init_raw) != order + 1:
        raise InputError("initial", f"must be a list of {order + 1} moment entries")
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
