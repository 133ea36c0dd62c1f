"""The three benchmark workloads: seeded inputs, one pass, and its gate.

Each workload is a class with the same four steps:

* ``__init__(seed, smoke, workdir)`` builds the inputs from the seed (this
  is what ``setup_s`` times, together with ``import seqgauss``);
* ``prepare()`` computes the benchmark's own references, untimed;
* ``run_pass()`` runs the program once and returns its raw output;
* ``check(output)`` raises ``GateError`` if the output is wrong.

The references here are written against numpy alone (plus seqgauss's
closed-sum Hermite form ``hermite_prob_sum``, which the program's fast
path does not use), so they stay independent of the code paths timed.  Only ``run_pass`` calls
into seqgauss during the timed loop, and it always looks functions up
through their module (``cli.main``, ``chaos.eval_expansion``) so that the
tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

from seqgauss import chaos, cli, core, hermite, measure, wick

WORKLOAD_NAMES = ("closure-op", "chaos-project", "verify-all")

# Relative tolerances of the gates, fixed when the benchmark was designed;
# none is looser than the repo's own checks.
CLOSURE_RTOL = 1e-10
PROJECTION_RTOL = 1e-10
EVAL_RTOL = 1e-10
# verify --suite all had 49 checks when the benchmark was written; fewer
# means a check was dropped, which the gate treats as a failure.
VERIFY_MIN_CHECKS = 49


class GateError(Exception):
    """A pass produced output that fails the workload's correctness gate."""


def _rel_err(value, reference) -> float:
    value = np.asarray(value, dtype=float)
    reference = np.asarray(reference, dtype=float)
    scale = max(float(np.abs(reference).max()), 1e-300)
    return float(np.abs(value - reference).max()) / scale


# ---------------------------------------------------------------------------
# closure-op


def lax_friedrichs_reference(doc: dict) -> tuple[int, np.ndarray]:
    """Plain-numpy re-implementation of the moment solver for ``doc``.

    Builds the tridiagonal advection weights, the optimal-prediction row
    ``A_fc A_cc^-1`` and the CFL step from the config, then marches the
    periodic Lax-Friedrichs scheme in flux form.  Returns the step count
    and the final moments, shape (J, N+1).
    """
    order, cells = doc["N"], doc["J"]
    dx = (doc["b"] - doc["a"]) / cells
    corr = np.asarray(doc["closure"]["A"], dtype=float)
    adv = np.zeros((order + 1, order + 1))
    for k in range(order + 1):
        if k + 1 <= order:
            adv[k, k + 1] = (k + 1) / (2 * k + 1)
        if k >= 1:
            adv[k, k - 1] = k / (2 * k + 1)
    predictor = np.linalg.solve(corr[: order + 1, : order + 1], corr[: order + 1, order + 1])
    adv[order, :] += (order + 1) / (2 * order + 1) * predictor
    rho = float(np.abs(np.linalg.eigvals(adv)).max())
    dt = doc.get("cfl", 0.9) * dx / rho
    steps = max(1, round(doc["T"] / dt))
    u = np.array(doc["initial"], dtype=float).T
    decay = np.full(order + 1, doc["kappa"] + doc["sigma"])
    decay[0] = doc["kappa"]
    gain = np.zeros(order + 1)
    gain[0] = 2.0 * doc["kappa"] * doc["q"]
    for _ in range(steps):
        flux = u @ adv.T
        up, down = np.roll(u, -1, axis=0), np.roll(u, 1, axis=0)
        u = (
            0.5 * (up + down)
            - dt / (2.0 * dx) * (np.roll(flux, -1, axis=0) - np.roll(flux, 1, axis=0))
            - dt * decay * u
            + dt * gain
        )
    return steps, u


class ClosureOp:
    """``seqgauss closure`` in-process on a seeded optimal-prediction run."""

    name = "closure-op"

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        rng = np.random.default_rng(seed)
        order = 7
        cells, t_final = (200, 0.05) if smoke else (2000, 0.5)
        x = (np.arange(cells) + 0.5) / cells
        initial = []
        for k in range(order + 1):
            amp = rng.uniform(-0.2, 0.2, size=3) * 0.5**k
            phase = rng.uniform(0.0, 2.0 * np.pi, size=3)
            field = np.full(cells, 1.0 if k == 0 else 0.0)
            for mode in range(3):
                field += amp[mode] * np.sin(2.0 * np.pi * (mode + 1) * x + phase[mode])
            initial.append(field.tolist())
        corr = [[0.3 ** abs(i - j) for j in range(order + 2)] for i in range(order + 2)]
        self.doc = {
            "a": 0.0, "b": 1.0, "J": cells, "N": order, "T": t_final,
            "output_stride": 100,
            "closure": {"kind": "optimal_prediction", "A": corr},
            "sigma": 0.5, "kappa": 0.1, "q": 0.2,
            "initial": initial,
        }
        self.config_path = os.path.join(workdir, "closure.json")
        self.out_path = os.path.join(workdir, "closure.csv")
        with open(self.config_path, "w") as fh:
            json.dump(self.doc, fh)
        self.argv = ["closure", "--config", self.config_path, "--out", self.out_path]
        self.expected_csv: bytes | None = None
        self.sizes = {"J": cells, "N": order, "T": t_final, "output_stride": 100}

    def prepare(self) -> None:
        steps, self.reference = lax_friedrichs_reference(self.doc)
        self.sizes["steps"] = steps

    def run_pass(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argv)

    def check(self, output) -> None:
        if output != 0:
            raise GateError(f"closure exited {output}")
        with open(self.out_path, "rb") as fh:
            csv_bytes = fh.read()
        if self.expected_csv is not None:
            if csv_bytes != self.expected_csv:
                raise GateError("CSV differs from the first pass (determinism contract)")
            return
        cells, order = self.doc["J"], self.doc["N"]
        rows = csv_bytes.decode().splitlines()[-cells:]
        final = np.array([[float(v) for v in row.split(",")[2:]] for row in rows])
        if final.shape != (cells, order + 1):
            raise GateError(f"final snapshot has shape {final.shape}")
        err = _rel_err(final, self.reference)
        if not err <= CLOSURE_RTOL:
            raise GateError(f"final snapshot off the reference by {err:.3e} (rel)")
        self.expected_csv = csv_bytes


# ---------------------------------------------------------------------------
# chaos-project


def eval_reference(expansion, a: np.ndarray, samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-term value of a chaos expansion at a few samples, built on the
    closed-sum Hermite form instead of the recurrence.

    Returns the values and the sum of absolute term contributions, which
    is the scale the comparison is made against.
    """
    values = np.zeros(len(samples))
    scale = np.zeros(len(samples))
    for n, kernel in expansion.kernels.items():
        for term in kernel.terms:
            base = np.asarray(term.base)
            norm = float(np.sqrt(np.einsum("mk,kl,ml->", base, a, base)))
            for s, w in enumerate(samples):
                if n == 0:
                    part = term.coeff
                elif norm == 0.0:
                    part = 0.0
                else:
                    pair = float(np.sum(base * w))
                    part = term.coeff * norm**n * hermite.hermite_prob_sum(n, pair / norm)
                values[s] += part
                scale[s] += abs(part)
    return values, scale


class ChaosProject:
    """Library pipeline: conditioning set, projection, norms, sampling and
    evaluation of a degree-1..6 chaos expansion."""

    name = "chaos-project"
    CHECKED_SAMPLES = 4

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        rng = np.random.default_rng(seed)
        if smoke:
            m, d, degrees, terms, conds, count = 2, 6, 3, 4, 3, 500
        else:
            m, d, degrees, terms, conds, count = 4, 16, 6, 32, 8, 20_000
        g = rng.standard_normal((d, d))
        self.a = g @ g.T / d + np.eye(d)
        self.cov = core.Covariance(self.a)
        kernels = {}
        for n in range(1, degrees + 1):
            raw = rng.standard_normal((terms, m, d))
            norms = np.sqrt(np.einsum("imk,kl,iml->i", raw, self.a, raw))
            bases = raw * (rng.uniform(0.5, 1.0, size=terms) / norms)[:, None, None]
            coeffs = rng.standard_normal(terms) / terms
            kernels[n] = wick.SymKernel(
                degree=n,
                terms=tuple(wick.RankOnePower(c, b, n) for c, b in zip(coeffs, bases)),
            )
        self.expansion = chaos.ChaosExpansion(kernels=kernels)
        self.vectors = list(rng.standard_normal((conds, m, d)))
        self.dims = core.TruncationDims(m, d)
        self.count = count
        self.sample_seed = int(rng.integers(2**31))
        self.sizes = {
            "m": m, "d": d, "degrees": f"1..{degrees}", "terms_per_degree": terms,
            "conditioning_vectors": conds, "samples": count,
        }

    def prepare(self) -> None:
        pass

    def run_pass(self):
        cs = chaos.ConditioningSet.from_vectors(self.vectors, self.cov)
        projected = chaos.cond_exp_chaos(self.expansion, cs, self.cov)
        inner = chaos.chaos_inner(self.expansion, projected, self.cov)
        norm_p = chaos.chaos_norm(projected, self.cov)
        norm_f = chaos.chaos_norm(self.expansion, self.cov)
        batch = measure.sample_mu_a(self.cov, self.dims, self.count, self.sample_seed)
        values_f = chaos.eval_expansion(self.expansion, self.cov, batch.samples)
        values_p = chaos.eval_expansion(projected, self.cov, batch.samples)
        return projected, inner, norm_p, norm_f, batch, values_f, values_p

    def check(self, output) -> None:
        projected, inner, norm_p, norm_f, batch, values_f, values_p = output
        err = abs(inner - norm_p**2) / max(abs(inner), norm_p**2, 1e-300)
        if not err <= PROJECTION_RTOL:
            raise GateError(f"(F, P) - ||P||^2 off by {err:.3e} (rel)")
        if not norm_p <= norm_f:
            raise GateError(f"projection is not contractive: {norm_p} > {norm_f}")
        picked = batch.samples[: self.CHECKED_SAMPLES]
        for label, exp, got in (("F", self.expansion, values_f), ("P", projected, values_p)):
            if got.shape != (self.count,) or not np.all(np.isfinite(got)):
                raise GateError(f"eval_expansion({label}) returned a bad array")
            ref, scale = eval_reference(exp, self.a, picked)
            err = float(np.max(np.abs(got[: self.CHECKED_SAMPLES] - ref) / scale))
            if not err <= EVAL_RTOL:
                raise GateError(f"eval_expansion({label}) off the closed-sum reference by {err:.3e}")


# ---------------------------------------------------------------------------
# verify-all


class VerifyAll:
    """``seqgauss verify --suite all`` in-process with the workload seed."""

    name = "verify-all"

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        self.argv = ["verify", "--suite", "all", "--seed", str(seed)]
        if smoke:
            self.argv += ["--samples", "20000"]
        self.sizes = {"suite": "all", "samples": 20000 if smoke else 100_000}

    def prepare(self) -> None:
        pass

    def run_pass(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(self.argv)
        return code, out.getvalue()

    def check(self, output) -> None:
        code, text = output
        lines = text.strip().splitlines()
        last = lines[-1] if lines else ""
        passed, _, total = last.partition(" checks passed")[0].partition("/")
        failed = [line for line in lines if line.startswith("[FAIL]")]
        if code != 0 or failed:
            raise GateError(f"verify exited {code}: " + "; ".join(failed))
        if not (passed == total and total.isdigit() and int(total) >= VERIFY_MIN_CHECKS):
            raise GateError(f"unexpected verify summary {last!r}")


WORKLOADS = {cls.name: cls for cls in (ClosureOp, ChaosProject, VerifyAll)}

