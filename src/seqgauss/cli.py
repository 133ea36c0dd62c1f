"""Command-line interface.

Subcommands:

* ``verify``  -- run a module's invariant suite; exit 0 iff all checks pass.
* ``sample``  -- draw a seeded batch of the weighted Gaussian measure to CSV.
* ``condexp`` -- conditional expectation of a linear functional from a config.
* ``closure`` -- run the moment-closure solver from a config to CSV.
* ``hermite`` -- tabulate Hermite polynomial values to CSV.

Exit codes: 0 success, 1 verification failure, 2 usage or config error.
``serialize`` reads every input document, ``sample --cov`` included; this
module writes every output, ``condexp``'s expansion JSON too.  A config
error is a :class:`~seqgauss.core.InputError`, printed as ``config error:
field '<field>': <message>``: its ``argument`` is the config field or
option where ``serialize`` or this module refuses it, and a library
parameter, mapped to its field by ``_FIELDS``, where the library does.
``sample`` and ``verify`` refuse a batch of more than ``MAX_SAMPLE_VALUES``
values, and ``hermite`` a table of more than ``MAX_HERMITE_CELLS`` values,
before they allocate anything; ``hermite`` writes no table, and
``condexp`` prints no kernel (refused as ``f``), holding a non-finite value.
The default seed is 0, overridable with the SEQGAUSS_SEED environment
variable; identical arguments and seed produce byte-identical outputs
within a build at one BLAS thread count (with a dense ``--cov``, the
whitening GEMM of ``sample`` may round otherwise on another).  CSV values
are written in shortest round-trip form, so full double precision is
preserved.  CSVs are formatted on two CPUs where there are two, in the
same bytes, with no option (``_write_csv`` steers its worker through a
pipe and a shared page; ``_fork`` makes only its spool); ``closure`` rows
are formatted as the run marches, and ``--out`` is opened once it succeeds.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import json
import mmap
import os
import shutil
import struct
import sys
import tempfile

import numpy as np

from . import _fork
from .chaos import cond_exp_monomial
from .closure import march
from .core import Covariance, InputError, TruncationDims, _as_array, _check_count
from .hermite import _degrees
from .measure import sample_mu_a
from .serialize import (load_closure_config, load_condexp_config, load_covariance_config,
                        load_document)
from .verify import _DIMS, DEFAULT_SAMPLES, SUITE_NAMES, run_suite

SEED_ENV_VAR = "SEQGAUSS_SEED"
# ``sample`` holds the whole batch (2**22 doubles is 32 MiB); both processes of
# ``_write_csv`` format its CSV in pieces of at most _CHUNK_CELLS cells.
MAX_SAMPLE_VALUES = 2**22
# ``hermite`` holds and checks its whole table before it writes it
MAX_HERMITE_CELLS = 2**22
# cells per piece of a ``sample`` CSV line; formatting one piece holds
# about 10 MB of Python objects
_CHUNK_CELLS = 65_536
# a row bound handed to the CSV writer's worker, and the count of rows it
# publishes as formatted
_BOUND = struct.Struct("=q")
# per command, the config field or option of each refused name that is not
# one already: a library parameter, or ``config`` for a document serialize reads
_FIELDS = {
    "verify": {}, "hermite": {}, "condexp": {"matrix": "A", "xs": "conditioning"},
    "sample": {"matrix": "A", "config": "cov", "m": "dim-h", "d": "dim-seq", "count": "samples"},
    "closure": {"cells": "J", "source": "q", "correlation": "closure.A", "order": "N",
                "t_final": "T"},
}


def _seed(flag: int | None) -> int:
    """The ``--seed`` flag, else the SEQGAUSS_SEED environment variable,
    else 0; a negative seed is a config error naming where it came from."""
    field, seed = "seed", flag
    if flag is None:
        field, raw = SEED_ENV_VAR, os.environ.get(SEED_ENV_VAR, "0")
        try:
            seed = int(raw)
        except ValueError:
            raise InputError(field, f"must be an integer, got {raw!r}") from None
    _check_count(seed, 0, field)
    return seed


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


def _write_csv(path, header, lines, rows) -> None:
    """Write the text pieces ``header`` and then the rows to ``path``,
    ``lines(a, b)`` yielding the text of rows a to b-1 ending in CRLF.
    ``rows`` is the row count of a table that is ready at once, or an
    iterator yielding how many leading rows are ready each time more are,
    the total last; ``path`` is opened only once it has run out.

    This process makes a temporary file for its own rows and a pipe, then
    ``_fork`` may fork a worker that formats the leading rows into its
    spool: each range of rows, as it becomes ready, is handed to it through
    the pipe as an 8-byte row bound, unless it has two ranges unfinished by
    the count it publishes in a shared page.  Once every row is ready, those
    not handed out are split so that both processes have about as many
    left.  The output is the header, the worker's rows (formatted here if
    no worker did, or it failed) and this process's own.  No process holds
    the whole text.  No cell needs quoting: the bytes are those
    ``csv.writer`` would write, on every path."""
    count, ready = (rows, ()) if isinstance(rows, int) else (0, rows)
    with mmap.mmap(-1, _BOUND.size) as formatted, contextlib.ExitStack() as stack:

        def serve(spool):
            orders.close()  # so that this process's close is an end of file in the worker
            done = 0
            while bound := inbox.read(_BOUND.size):
                (end,) = _BOUND.unpack(bound)
                spool.writelines(lines(done, end))
                _BOUND.pack_into(formatted, 0, done := end)

        worker = None
        with contextlib.suppress(OSError):  # no file or pipe to spare: nothing is forked
            own = stack.enter_context(tempfile.TemporaryFile("w+", newline=""))
            read_end, write_end = os.pipe()
            inbox = stack.enter_context(open(read_end, "rb"))
            orders = stack.enter_context(open(write_end, "wb", buffering=0))
            worker = stack.enter_context(_fork.forked(serve))
            inbox.close()
        # the count the worker publishes steers only how rows are split, never
        # which bytes are written
        handed = before = 0  # rows handed to the worker, and the bound before the last
        waiting = collections.deque()  # the counts ready, each the end of a range not handed
        for count in ready:
            waiting.append(count)
            while worker and waiting and before <= _BOUND.unpack_from(formatted)[0]:
                before, handed = handed, _handed(orders, handed, waiting.popleft())
        cut, status = count, None
        if worker:
            queued = handed - _BOUND.unpack_from(formatted)[0]
            cut = _handed(orders, handed, handed + max(0, (count - handed - queued + 1) // 2))
            orders.close()
            own.writelines(lines(cut, count))
            status = worker.wait()
        with open(path, "w", newline="") as fh:
            fh.writelines(header)
            if status == 0:
                fh.flush()
                shutil.copyfileobj(worker.spool.buffer, fh.buffer)
            else:
                fh.writelines(lines(0, cut))
            if worker:
                fh.flush()
                own.seek(0)
                shutil.copyfileobj(own.buffer, fh.buffer)


def _handed(orders, handed: int, bound: int) -> int:
    """Hand the worker rows ``handed`` to ``bound`` through ``orders``; the
    rows handed to it after that, which are ``handed`` if it has gone."""
    if bound > handed:
        try:
            orders.write(_BOUND.pack(bound))
        except BrokenPipeError:
            return handed
    return bound


def _blocks(a, b, size):
    """``(k, lo, hi)``: rows a to b-1 take rows lo to hi-1 of block k of ``size`` rows."""
    for k in range(a // size, -(-b // size)):
        yield k, max(a - k * size, 0), min(b - k * size, size)


def _cells(row) -> str:
    """One CSV row of Python ints and floats (build it with ``.tolist()``,
    not from numpy scalars), each cell written as its ``repr``: for a
    float the shortest string that reads back to the same double, for an
    int plain digits."""
    return ",".join(map(repr, row))


def _cmd_verify(args) -> int:
    seed = _seed(args.seed)
    if args.samples * _DIMS.m * _DIMS.d > MAX_SAMPLE_VALUES:
        raise InputError("samples", f"{args.samples} samples of {_DIMS.m} x {_DIMS.d} values "
                         f"exceed {MAX_SAMPLE_VALUES} values")
    results = run_suite(args.suite, seed=seed, samples=args.samples)
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
    seed = _seed(args.seed)
    dims = TruncationDims(args.dim_h, args.dim_seq)
    # ``sample_mu_a`` checks the count, once the covariance is built; a batch
    # of at least one sample must fit before that
    count = max(args.samples, 1)
    if count * dims.m * dims.d > MAX_SAMPLE_VALUES:
        raise InputError("samples/dim-h/dim-seq", f"{count} samples of {dims.m} x {dims.d} "
                         f"values exceed {MAX_SAMPLE_VALUES} values")
    if args.cov is not None:
        matrix = load_covariance_config(load_document(args.cov))
        # shapes before the factorization: a mismatch costs no Cholesky
        if len(matrix) != dims.d:
            raise InputError("A", f"covariance dim {len(matrix)} does not match --dim-seq {dims.d}")
        cov = Covariance(matrix)
    else:
        cov = Covariance.identity(dims.d)
    batch = sample_mu_a(cov, dims, args.samples, seed)
    header, lines = _sample_csv(batch.samples.reshape(args.samples, -1), args.dim_seq)
    _write_csv(args.out, header, lines, args.samples)
    print(f"wrote {args.samples} samples to {args.out}")
    return 0


def _sample_csv(rows, dim_seq: int):
    """The header and ``lines`` of a flattened sample batch's CSV: the
    header ``w_i_k`` (entry i, sequence position k) and then one line per
    row of ``rows``, each cell as in ``_cells``.  Every line is made in
    pieces of at most ``_CHUNK_CELLS`` cells, each ending in the comma or
    the CRLF that follows it, so no string or list of a whole wide row is
    built."""
    width = rows.shape[1]
    spans = [(a, min(a + _CHUNK_CELLS, width)) for a in range(0, width, _CHUNK_CELLS)]
    ends = [","] * (len(spans) - 1) + ["\r\n"]
    header = [",".join(f"w_{j // dim_seq}_{j % dim_seq}" for j in range(a, b)) + end
              for (a, b), end in zip(spans, ends)]
    return header, lambda a, b: (
        _cells(row[lo:hi].tolist()) + end for row in rows[a:b] for (lo, hi), end in zip(spans, ends)
    )


def _cmd_condexp(args) -> int:
    cov, f, conditioning = load_condexp_config(load_document(args.config))
    with np.errstate(over="ignore", invalid="ignore"):
        projected = cond_exp_monomial(f, conditioning, cov)
    if not np.isfinite(projected).all():  # refused before anything is printed
        raise InputError("f", "the projected kernel F A X^T X overflows: f is too large "
                              "for the weight A and the conditioning")
    print("projected kernel (rows are inner components, columns sequence positions):")
    for row in projected:
        print("  " + "  ".join(f"{v: .12g}" for v in row))
    print("serialized expansion:")  # the kernel as one term of degree 1
    print(json.dumps([{"degree": 1, "terms": [{"coeff": 1.0, "base": projected.tolist()}]}],
                     indent=2))
    return 0


def _cmd_closure(args) -> int:
    cfg = load_closure_config(load_document(args.config))
    run = march(**cfg)  # every input is refused here, before anything is forked
    header = ",".join(["t", "x"] + [f"I_{k}" for k in range(cfg["initial"].order + 1)])
    xs = [x + "," for x in map(repr, cfg["params"].x_centers.tolist())]
    with _Snapshots(cfg["initial"].values.shape) as snapshots:

        def stored():  # the rows ready as each snapshot is stored
            try:
                for snapshot in run:
                    snapshots.append(snapshot)
                    yield len(snapshots) * len(xs)
            except InputError:
                raise
            except ValueError as exc:  # the one plain ValueError of a run: a blow-up
                raise InputError("closure run", str(exc)) from None

        def lines(a, b):  # one row per cell of each snapshot; each t formatted once per block
            for k, lo, hi in _blocks(a, b, len(xs)):
                t, values = snapshots[k]
                stamp = repr(t) + ","
                for x, row in zip(xs[lo:hi], values[lo:hi].tolist()):
                    yield stamp + x + _cells(row) + "\r\n"
        _write_csv(args.out, [header + "\r\n"], lines, stored())
    print(f"wrote {len(snapshots)} snapshots to {args.out}")
    return 0


class _Snapshots:
    """A closure run's snapshots of ``shape``, stored as the march makes
    them and read back by index, as ``(t, values)`` with ``t`` a float, in
    either process of ``_write_csv``: as doubles in an unlinked temporary
    file, which a worker forked after it was made reads too, or, where no
    file can be made, in a list in this process.  A worker sees that list
    empty, fails and exits 1, and this process then writes its rows."""

    def __init__(self, shape) -> None:
        self.shape, self._size = shape, 8 * (1 + shape[0] * shape[1])  # t, then the values
        self._kept, self._count = [], 0
        try:
            self._file = tempfile.TemporaryFile()
        except OSError:
            self._file = None

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        if self._file is not None:
            self._file.close()

    def __len__(self) -> int:
        return self._count

    def append(self, snapshot) -> None:
        self._count += 1
        if self._file is None:
            self._kept.append((snapshot.t, snapshot.values))
            return
        self._file.write(np.float64(snapshot.t).tobytes())
        self._file.write(snapshot.values)
        self._file.flush()  # where a worker's os.pread finds it

    def __getitem__(self, k: int):
        if self._file is None:
            return self._kept[k]
        raw = np.frombuffer(os.pread(self._file.fileno(), self._size, k * self._size))
        return float(raw[0]), raw[1:].reshape(self.shape)


def _cmd_hermite(args) -> int:
    _check_count(args.max_n, 0, "max-n")
    _check_count(args.points, 1, "points")
    if args.points * (args.max_n + 1) > MAX_HERMITE_CELLS:
        raise InputError("points/max-n", f"{args.points} points of degrees 0..{args.max_n} "
                         f"exceed {MAX_HERMITE_CELLS} values")
    _as_array(args.x_min, 0, "x-min")
    _as_array(args.x_max, 0, "x-max")
    # the whole table is checked before the file is opened
    table = []
    with np.errstate(over="ignore", invalid="ignore"):
        xs = np.linspace(args.x_min, args.x_max, args.points)
        if not np.isfinite(xs).all():
            raise InputError("x-min/x-max", "the grid spacing overflows")
        degrees = _degrees(xs, 1 if args.kind == "prob" else 2)
        for n, values in zip(range(args.max_n + 1), degrees):
            bad = ~np.isfinite(values)
            if bad.any():
                raise InputError("max-n/x-min/x-max", f"degree {n} overflows at x = "
                                 f"{xs[bad.argmax()].item()!r}")
            table.append(values)
    x_list = xs.tolist()

    def lines(a, b):
        for n, lo, hi in _blocks(a, b, args.points):
            for x, value in zip(x_list[lo:hi], table[n][lo:hi].tolist()):
                yield _cells([n, x, value]) + "\r\n"
    _write_csv(args.out, ["n,x,value\r\n"], lines, len(table) * args.points)
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
    except InputError as exc:
        field = _FIELDS[args.command].get(exc.argument, exc.argument)
        print(f"config error: field '{field}': {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
