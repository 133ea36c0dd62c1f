"""JSON configs, read for the CLI.

Every input document is read here: a config's structure is checked, and
a missing field, a count that sizes what is built here, or a malformed
entry is refused with :class:`~seqgauss.core.InputError` whose
``argument`` is the config field, the name as the document spells it.
Every other value is handed to the library unchanged and refused there,
named as its parameter; the CLI maps that name to the config field.
Nothing is written here: the CLI writes every output.
"""

from __future__ import annotations

import json

import numpy as np

from .closure import (DEFAULT_CFL, MAX_ORDER, MAX_SNAPSHOT_VALUES, MaterialParams, MomentGrid,
                      _per_cell)
from .core import Covariance, InputError, _as_array, _check_count

__all__ = [
    "load_document",
    "load_covariance_config",
    "load_condexp_config",
    "load_closure_config",
]


def load_document(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise InputError("config", f"file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:  # a directory, say, or not UTF-8
        raise InputError("config", f"cannot read {path}: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:  # nested too deep to decode
        raise InputError("config", f"invalid JSON in {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError("config", "top-level document must be an object")
    return doc


def _require(doc: dict, field: str, name: str | None = None):
    if field not in doc:
        raise InputError(name or field, "missing")
    return doc[field]


def _integer(doc: dict, field: str, least: int) -> int:
    value = _require(doc, field)
    _check_count(value, least, field)
    return value


def load_covariance_config(doc: dict) -> np.ndarray:
    """Read the matrix ``A`` of a covariance document: present, 2-D, finite
    and square.  It is not factored here, so that a caller can compare its
    shape with others' first."""
    a = _as_array(_require(doc, "A"), 2, "A")
    if a.shape[0] != a.shape[1]:
        raise InputError("A", f"must be square, got shape {a.shape}")
    return a


def load_condexp_config(doc: dict) -> tuple[Covariance, np.ndarray, list[np.ndarray]]:
    """Read {A, f, conditioning} for the conditional-expectation command;
    an A that is not a covariance is refused as ``Covariance``'s
    ``matrix``.  Every shape is compared with A's before A is factored."""
    a = load_covariance_config(doc)
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
    return Covariance(a), f, conditioning


def load_closure_config(doc: dict) -> dict:
    """Read the moment-solver config document into the keyword arguments
    of :func:`~seqgauss.closure.solve_closure`: initial, params,
    correlation (None for ``{"kind": "pn"}``), t_final, dt (None for the
    CFL-stable default), output_stride and cfl.

    Only what the output is built from is checked here: that every
    required field is present, ``J`` and ``N`` (which size the lists built
    here), the closure kind and the ``initial`` list, each entry read as
    :class:`~seqgauss.closure.MaterialParams` reads a per-cell field.
    Every other value is passed on unchanged and checked by the library:
    ``MaterialParams`` (built here) and the run raise
    :class:`~seqgauss.core.InputError` naming the parameter.
    """
    cells = _integer(doc, "J", 1)
    order = _integer(doc, "N", 0)
    # N and J size the lists built below.  Every run keeps the initial and
    # the final snapshot, so a grid above the snapshot bound could never run.
    if order > MAX_ORDER:
        raise InputError("N", f"must be an integer in 0..{MAX_ORDER}, got {order}")
    if 2 * cells * (order + 1) > MAX_SNAPSHOT_VALUES:
        raise InputError("J", f"{cells} cells of {order + 1} moments exceed "
                         f"{MAX_SNAPSHOT_VALUES} values in the initial and final snapshots")

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

    a, b, sigma, kappa, source = (_require(doc, name) for name in ("a", "b", "sigma", "kappa", "q"))
    params = MaterialParams(a=a, b=b, cells=cells, sigma=sigma, kappa=kappa, source=source)

    init_raw = _require(doc, "initial")
    if not isinstance(init_raw, list) or len(init_raw) != order + 1:
        raise InputError("initial", f"must be a list of {order + 1} moment entries")
    columns = [_per_cell(entry, cells, f"initial[{k}]") for k, entry in enumerate(init_raw)]
    initial = MomentGrid(t=0.0, values=np.stack(columns, axis=1))

    return {
        "initial": initial,
        "params": params,
        "correlation": correlation,
        "t_final": _require(doc, "T"),
        "dt": doc.get("dt"),
        "output_stride": doc.get("output_stride", 1),
        "cfl": doc.get("cfl", DEFAULT_CFL),
    }
