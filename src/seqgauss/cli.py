"""Command-line interface.

Subcommands:

* ``verify``  -- run a module's invariant suite; exit 0 iff all checks pass.
* ``sample``  -- draw a seeded batch of the weighted Gaussian measure to CSV.
* ``condexp`` -- conditional expectation of a linear functional from a config.
* ``closure`` -- run the moment-closure solver from a config to CSV.
* ``hermite`` -- tabulate Hermite polynomial values to CSV.

Exit codes: 0 success, 1 verification failure, 2 usage or config error.
The default seed is 0, overridable with the SEQGAUSS_SEED environment
variable; identical arguments and seed produce byte-identical outputs
within a build.  CSV values are written in shortest round-trip form, so
full double precision is preserved.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .chaos import ChaosExpansion, cond_exp_monomial
from .closure import ClosureInputError, solve_closure
from .core import Covariance, TruncationDims
from .hermite import hermite_phys, hermite_prob
from .measure import sample_mu_a
from .serialize import (
    ConfigError,
    expansion_to_jsonable,
    load_closure_config,
    load_condexp_config,
    load_document,
    matrix_from_lists,
)
from .verify import DEFAULT_SAMPLES, SUITE_NAMES, run_suite
from .wick import SymKernel

SEED_ENV_VAR = "SEQGAUSS_SEED"
# config field behind each input a closure run can be rejected for
_CLOSURE_FIELDS = {"correlation": "closure.A", "dt": "dt"}


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(SEED_ENV_VAR, f"must be an integer, got {raw!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqgauss",
        description="Weighted Gaussian analysis on truncated sequence spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run invariant suites")
    p_verify.add_argument(
        "--suite", required=True, choices=SUITE_NAMES + ("all",),
        help="module suite to run",
    )
    p_verify.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    p_verify.add_argument(
        "--samples", type=int, default=DEFAULT_SAMPLES,
        help="Monte Carlo sample count for the stochastic suites",
    )
    p_verify.add_argument(
        "--tol-scale", type=float, default=1.0,
        help="multiply every stated tolerance by this factor",
    )

    p_sample = sub.add_parser("sample", help="draw a sample batch to CSV")
    p_sample.add_argument("--out", required=True, help="output CSV path")
    p_sample.add_argument("--seed", type=int, default=None)
    p_sample.add_argument("--samples", type=int, default=1000, help="batch size")
    p_sample.add_argument("--dim-h", type=int, default=2, help="rows per sample")
    p_sample.add_argument("--dim-seq", type=int, default=4, help="columns per sample")
    p_sample.add_argument(
        "--cov", default=None,
        help="JSON file with the covariance matrix (default: identity)",
    )

    p_cond = sub.add_parser("condexp", help="conditional expectation of a linear functional")
    p_cond.add_argument("--config", required=True, help="JSON config with A, f, conditioning")

    p_closure = sub.add_parser("closure", help="run the moment-closure solver")
    p_closure.add_argument("--config", required=True, help="JSON config path")
    p_closure.add_argument("--out", required=True, help="output CSV path")

    p_herm = sub.add_parser("hermite", help="tabulate Hermite polynomials to CSV")
    p_herm.add_argument("--max-n", type=int, required=True, help="highest degree")
    p_herm.add_argument(
        "--kind", choices=("prob", "phys"), default="prob",
        help="probabilists' or physicists' normalization",
    )
    p_herm.add_argument("--x-min", type=float, default=-3.0)
    p_herm.add_argument("--x-max", type=float, default=3.0)
    p_herm.add_argument("--points", type=int, default=61)
    p_herm.add_argument("--out", required=True, help="output CSV path")
    return parser


def _write_csv(path, header, rows) -> None:
    """Write ``header`` and then ``rows`` to ``path`` as CSV.

    ``rows`` is consumed lazily and holds Python ints and floats (build
    it with ``.tolist()``, not from numpy scalars).  Each cell is written
    as its ``repr``: for a float the shortest string that reads back to
    the same double, for an int plain digits.  Lines end in CRLF.  No
    cell needs quoting, so the ``csv`` module is not used; the bytes are
    the same as ``csv.writer`` would write.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)


def _cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    results = run_suite(
        args.suite, seed=seed, tol_scale=args.tol_scale, samples=args.samples
    )
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"[{status}] {r.name}"
        if r.detail:
            line += f" -- {r.detail}"
        print(line)
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def _cmd_sample(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    if args.samples <= 0:
        raise ConfigError("samples", "must be positive")
    if args.dim_h <= 0 or args.dim_seq <= 0:
        raise ConfigError("dim-h/dim-seq", "must be positive")
    if args.cov is not None:
        doc = load_document(args.cov)
        matrix = matrix_from_lists(doc.get("A", doc.get("matrix")), "A")
        try:
            cov = Covariance(matrix)
        except ValueError as exc:
            raise ConfigError("A", str(exc)) from None
        if cov.dim != args.dim_seq:
            raise ConfigError(
                "A", f"covariance dim {cov.dim} does not match --dim-seq {args.dim_seq}"
            )
    else:
        cov = Covariance.identity(args.dim_seq)
    dims = TruncationDims(args.dim_h, args.dim_seq)
    batch = sample_mu_a(cov, dims, args.samples, seed)
    header = [
        f"w_{i}_{k}" for i in range(args.dim_h) for k in range(args.dim_seq)
    ]
    rows = (row.tolist() for row in batch.samples.reshape(args.samples, -1))
    _write_csv(args.out, header, rows)
    print(f"wrote {args.samples} samples to {args.out}")
    return 0


def _cmd_condexp(args) -> int:
    doc = load_document(args.config)
    cov, f, conditioning = load_condexp_config(doc)
    try:
        projected = cond_exp_monomial(f, conditioning, cov)
    except ValueError as exc:
        raise ConfigError("conditioning", str(exc)) from None
    print("projected kernel (rows are inner components, columns sequence positions):")
    for row in projected:
        print("  " + "  ".join(f"{v: .12g}" for v in row))
    expansion = ChaosExpansion(kernels={1: SymKernel.rank_one(projected, 1)})
    print("serialized expansion:")
    print(json.dumps(expansion_to_jsonable(expansion), indent=2))
    return 0


def _cmd_closure(args) -> int:
    doc = load_document(args.config)
    cfg = load_closure_config(doc)
    try:
        snapshots = solve_closure(
            cfg["initial"],
            cfg["params"],
            cfg["spec"],
            t_final=cfg["t_final"],
            dt=cfg["dt"],
            output_stride=cfg["output_stride"],
            cfl=cfg["cfl"],
        )
    except ClosureInputError as exc:
        raise ConfigError(_CLOSURE_FIELDS[exc.argument], str(exc)) from None
    except ValueError as exc:
        raise ConfigError("closure run", str(exc)) from None
    header = ["t", "x"] + [f"I_{k}" for k in range(cfg["initial"].order + 1)]
    x = cfg["params"].x_centers.tolist()
    rows = (
        [float(snap.t), x_j, *values]
        for snap in snapshots
        for x_j, values in zip(x, snap.values.tolist())
    )
    _write_csv(args.out, header, rows)
    print(f"wrote {len(snapshots)} snapshots to {args.out}")
    return 0


def _cmd_hermite(args) -> int:
    if args.max_n < 0:
        raise ConfigError("max-n", "must be non-negative")
    if args.points < 1:
        raise ConfigError("points", "must be positive")
    eval_fn = hermite_prob if args.kind == "prob" else hermite_phys
    xs = np.linspace(args.x_min, args.x_max, args.points)
    rows = (
        [n, x, value]
        for n in range(args.max_n + 1)
        for x, value in zip(xs.tolist(), np.atleast_1d(eval_fn(n, xs)).tolist())
    )
    _write_csv(args.out, ["n", "x", "value"], rows)
    print(f"wrote degrees 0..{args.max_n} to {args.out}")
    return 0


_COMMANDS = {
    "verify": _cmd_verify,
    "sample": _cmd_sample,
    "condexp": _cmd_condexp,
    "closure": _cmd_closure,
    "hermite": _cmd_hermite,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
