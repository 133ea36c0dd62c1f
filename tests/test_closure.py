import numpy as np
import pytest

from seqgauss import closure, core, measure
from seqgauss.verify import random_cov


def make_params(cells=64, sigma=0.0, kappa=0.0, source=0.0):
    return closure.MaterialParams(
        a=0.0, b=1.0, cells=cells, sigma=sigma, kappa=kappa, source=source
    )


def gaussian_bump(params, order):
    x = params.x_centers
    values = np.zeros((params.cells, order + 1))
    values[:, 0] = np.exp(-0.5 * ((x - 0.5) / 0.08) ** 2)
    return closure.MomentGrid(t=0.0, values=values)


def test_advection_coefficients_exact():
    coeffs = closure.build_moment_system(3)
    assert coeffs.b[0, 1] == 1.0
    assert coeffs.b[1, 0] == 1.0 / 3.0
    assert coeffs.b[1, 2] == 2.0 / 3.0
    assert coeffs.b[2, 1] == 2.0 / 5.0
    assert coeffs.b[3, 4] == 4.0 / 7.0
    for k in range(4):
        for l in range(5):
            if l not in (k - 1, k + 1):
                assert coeffs.b[k, l] == 0.0


def test_absorption_and_source_structure():
    params = make_params(cells=4, sigma=2.0, kappa=3.0, source=5.0)
    c = closure._absorption(params, 2)
    assert np.all(c[:, 0] == 3.0)
    assert np.all(c[:, 1:] == 5.0)
    q = closure._source_term(params, 2, 0.0)
    assert np.all(q[:, 0] == 30.0)
    assert not q[:, 1:].any()


def test_time_dependent_source_evaluated_at_step_start():
    params = closure.MaterialParams(
        a=0.0, b=1.0, cells=4, sigma=0.0, kappa=1.0,
        source=lambda x, t: np.full_like(x, t),
    )
    state = closure.MomentGrid(t=2.0, values=np.zeros((4, 1)))
    coeffs = closure.build_moment_system(0)
    out = closure.step(state, coeffs, params, closure.ClosureSpec(kind="pn"), dt=0.1)
    # q_0 = 2 * kappa * q(x, t_start) = 2 * 1 * 2, applied over dt
    assert np.allclose(out.values[:, 0], 0.1 * 4.0, atol=1e-15)


def test_closure_row_truncation_is_zero():
    assert not closure.closure_row(closure.ClosureSpec(kind="pn"), 3).any()


def test_closure_row_identity_correlation_is_zero():
    spec = closure.ClosureSpec(kind="optimal_prediction", correlation=np.eye(5))
    assert not closure.closure_row(spec, 3).any()


def test_closure_row_one_dimensional_block():
    spec = closure.ClosureSpec(
        kind="optimal_prediction", correlation=np.array([[1.0, 0.5], [0.5, 1.0]])
    )
    assert np.allclose(closure.closure_row(spec, 0), [0.5], atol=1e-15)


def test_closure_row_matches_block_projection_adjoint():
    # moments 0..N correspond to leading cut = N + 1 coordinates; the
    # prediction row is the coupling block of the weighted adjoint
    rng = np.random.default_rng(3)
    for order in (0, 1, 3):
        g = rng.standard_normal((order + 2, order + 2))
        corr = g @ g.T + (order + 2) * np.eye(order + 2)
        spec = closure.ClosureSpec(kind="optimal_prediction", correlation=corr)
        row = closure.closure_row(spec, order)
        blocks = core.block_projection(core.Covariance(corr), order + 1)
        assert np.allclose(row, blocks.pt[order + 1, : order + 1], atol=1e-12)


def test_closure_row_scale_invariance():
    rng = np.random.default_rng(0)
    g = rng.standard_normal((5, 5))
    corr = g @ g.T + 5 * np.eye(5)
    r1 = closure.closure_row(
        closure.ClosureSpec(kind="optimal_prediction", correlation=corr), 3
    )
    r2 = closure.closure_row(
        closure.ClosureSpec(kind="optimal_prediction", correlation=2.5 * corr), 3
    )
    assert np.allclose(r1, r2, atol=1e-12 * max(1.0, np.abs(r1).max()))


def test_closure_row_errors():
    with pytest.raises(ValueError, match="too small") as exc:
        closure.closure_row(
            closure.ClosureSpec(kind="optimal_prediction", correlation=np.eye(3)), 3
        )
    assert exc.value.argument == "correlation"
    singular = np.zeros((4, 4))
    with pytest.raises(ValueError, match="singular") as exc:
        closure.closure_row(
            closure.ClosureSpec(kind="optimal_prediction", correlation=singular), 2
        )
    assert exc.value.argument == "correlation"


def test_closure_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        closure.ClosureSpec(kind="bogus")
    with pytest.raises(ValueError, match="correlation"):
        closure.ClosureSpec(kind="optimal_prediction")


def test_step_constant_free_state_is_stationary():
    params = make_params(cells=16)
    coeffs = closure.build_moment_system(2)
    state = closure.MomentGrid(t=0.0, values=np.tile([2.0, -1.0, 0.5], (16, 1)))
    out = closure.step(state, coeffs, params, closure.ClosureSpec(kind="pn"), dt=0.01)
    assert np.array_equal(out.values, state.values)
    assert out.t == pytest.approx(0.01)


def test_step_pure_absorption_factor():
    kappa = 0.7
    params = make_params(cells=16, kappa=kappa)
    coeffs = closure.build_moment_system(2)
    state = closure.MomentGrid(t=0.0, values=np.tile([2.0, -1.0, 0.5], (16, 1)))
    out = closure.step(state, coeffs, params, closure.ClosureSpec(kind="pn"), dt=0.01)
    assert np.allclose(out.values[:, 0], state.values[:, 0] * (1 - kappa * 0.01), atol=1e-15)
    # higher moments decay with kappa + sigma = kappa here
    assert np.allclose(out.values[:, 1], state.values[:, 1] * (1 - kappa * 0.01), atol=1e-15)


def test_step_source_feeds_only_moment_zero():
    params = make_params(cells=16, kappa=0.5, source=1.5)
    coeffs = closure.build_moment_system(3)
    state = closure.MomentGrid(t=0.0, values=np.zeros((16, 4)))
    out = closure.step(state, coeffs, params, closure.ClosureSpec(kind="pn"), dt=0.01)
    assert (out.values[:, 0] > 0).all()
    assert not out.values[:, 1:].any()


def test_step_conserves_spatial_sums_without_sources():
    rng = np.random.default_rng(1)
    params = make_params(cells=64)
    coeffs = closure.build_moment_system(3)
    state = closure.MomentGrid(t=0.0, values=rng.standard_normal((64, 4)))
    sums = state.values.sum(axis=0)
    spec = closure.ClosureSpec(kind="pn")
    for _ in range(25):
        state = closure.step(state, coeffs, params, spec, dt=0.005)
        assert np.allclose(state.values.sum(axis=0), sums, atol=1e-12)


def test_step_cfl_violation_raises():
    params = make_params(cells=16)
    coeffs = closure.build_moment_system(2)
    state = closure.MomentGrid(t=0.0, values=np.ones((16, 3)))
    with pytest.raises(ValueError, match="CFL") as exc:
        closure.step(state, coeffs, params, closure.ClosureSpec(kind="pn"), dt=1.0)
    assert exc.value.argument == "dt"


def test_step_reports_blowup_location():
    # absorption coefficient large enough to overflow the explicit update
    params = make_params(cells=8, kappa=1e308)
    coeffs = closure.build_moment_system(0)
    state = closure.MomentGrid(t=0.0, values=np.full((8, 1), 1e308))
    with pytest.raises(ValueError, match="non-finite"):
        closure.step(state, coeffs, params, closure.ClosureSpec(kind="pn"), dt=0.01)


def test_moment_grid_rejects_non_finite_values():
    values = np.zeros((4, 2))
    values[1, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        closure.MomentGrid(t=0.0, values=values)


def test_material_params_validation():
    with pytest.raises(ValueError, match="cells"):
        make_params(cells=1)
    with pytest.raises(ValueError, match="non-negative"):
        make_params(sigma=-1.0)
    with pytest.raises(ValueError, match="non-negative"):
        make_params(kappa=-0.1)


def test_truncation_equals_identity_prediction_trajectories():
    params = make_params(cells=100, sigma=0.3, kappa=0.2, source=0.1)
    order = 3
    initial = gaussian_bump(params, order)
    dt = 0.004
    pn = closure.solve_closure(
        initial, params, closure.ClosureSpec(kind="pn"), t_final=200 * dt, dt=dt
    )
    op = closure.solve_closure(
        initial,
        params,
        closure.ClosureSpec(kind="optimal_prediction", correlation=np.eye(order + 2)),
        t_final=200 * dt,
        dt=dt,
    )
    assert len(pn) == len(op) == 201
    for g1, g2 in zip(pn, op):
        assert np.array_equal(g1.values, g2.values)


def test_block_diagonal_correlation_equals_truncation_bitwise():
    params = make_params(cells=50, sigma=0.1, kappa=0.1, source=0.0)
    order = 2
    initial = gaussian_bump(params, order)
    corr = np.eye(order + 2)
    corr[: order + 1, : order + 1] += 0.3  # coupled resolved block, zero coupling row
    dt = 0.005
    pn = closure.solve_closure(
        initial, params, closure.ClosureSpec(kind="pn"), t_final=50 * dt, dt=dt
    )
    op = closure.solve_closure(
        initial,
        params,
        closure.ClosureSpec(kind="optimal_prediction", correlation=corr),
        t_final=50 * dt,
        dt=dt,
    )
    for g1, g2 in zip(pn, op):
        assert np.array_equal(g1.values, g2.values)


def test_nontrivial_closure_row_changes_trajectory():
    params = make_params(cells=50)
    order = 2
    initial = gaussian_bump(params, order)
    corr = np.eye(order + 2)
    corr[order + 1, order] = corr[order, order + 1] = 0.4
    dt = 0.005
    pn = closure.solve_closure(
        initial, params, closure.ClosureSpec(kind="pn"), t_final=50 * dt, dt=dt
    )
    op = closure.solve_closure(
        initial,
        params,
        closure.ClosureSpec(kind="optimal_prediction", correlation=corr),
        t_final=50 * dt,
        dt=dt,
    )
    assert not np.allclose(pn[-1].values, op[-1].values, atol=1e-8)


def test_refinement_study_is_monotone():
    params = make_params(cells=100)
    finals = {}
    for order in (3, 5, 7):
        initial = gaussian_bump(params, order)
        run = closure.solve_closure(
            initial, params, closure.ClosureSpec(kind="pn"),
            t_final=0.4, dt=0.004, output_stride=1_000_000,
        )
        finals[order] = run[-1].values
    d_35 = np.linalg.norm(finals[3][:, :4] - finals[5][:, :4])
    d_57 = np.linalg.norm(finals[5][:, :4] - finals[7][:, :4])
    assert d_57 < d_35


def test_solve_closure_snapshot_stride():
    params = make_params(cells=16)
    initial = closure.MomentGrid(t=0.0, values=np.ones((16, 2)))
    run = closure.solve_closure(
        initial, params, closure.ClosureSpec(kind="pn"),
        t_final=0.05, dt=0.005, output_stride=3,
    )
    # initial + steps 3, 6, 9 + final step 10
    assert [round(s.t / 0.005) for s in run] == [0, 3, 6, 9, 10]


def test_solve_closure_default_dt_respects_cfl():
    params = make_params(cells=32)
    initial = gaussian_bump(params, 2)
    run = closure.solve_closure(
        initial, params, closure.ClosureSpec(kind="pn"), t_final=0.1
    )
    assert run[-1].t == pytest.approx(0.1, rel=0.2)


def test_weak_form_projection_identity():
    rng = np.random.default_rng(2)
    for _ in range(10):
        d = int(rng.integers(3, 9))
        m = int(rng.integers(1, 4))
        cov = random_cov(rng, d)
        cut = int(rng.integers(1, d))
        blocks = core.block_projection(cov, cut)
        phi = rng.standard_normal((m, d))
        omega = rng.standard_normal((m, d))
        lhs = measure.pairing(core.apply_matrix(blocks.p, phi), omega)
        rhs = measure.pairing(phi, core.apply_matrix(blocks.pt, omega))
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lhs)))


# N = 1 with this correlation gives the closed matrix [[0, 1], [1/3 - 0.6, 0]],
# whose eigenvalues are +-0.516i: the closure is not hyperbolic.
ILL_POSED_CORRELATION = [[1.0, 0.0, -0.9], [0.0, 1.0, 0.0], [-0.9, 0.0, 1.0]]


def test_non_hyperbolic_closure_is_rejected_by_both_entry_points():
    params = make_params(cells=16)
    spec = closure.ClosureSpec(
        kind="optimal_prediction", correlation=np.array(ILL_POSED_CORRELATION)
    )
    initial = gaussian_bump(params, 1)
    pattern = r"not hyperbolic: eigenvalue .*0\.516398j"
    with pytest.raises(ValueError, match=pattern):
        closure.solve_closure(initial, params, spec, t_final=0.1)
    with pytest.raises(ValueError, match=pattern):
        closure.solve_closure(initial, params, spec, t_final=0.1, dt=0.01)
    with pytest.raises(ValueError, match=pattern):
        closure.step(initial, closure.build_moment_system(1), params, spec, dt=0.01)


def _step_loop(initial, params, spec, dt, t_final, output_stride):
    """What solve_closure documents, written as a loop of public steps."""
    coeffs = closure.build_moment_system(initial.order)
    n_steps = max(1, round(t_final / dt))
    state, snapshots = initial, [initial]
    for i in range(1, n_steps + 1):
        state = closure.step(state, coeffs, params, spec, dt)
        if i % output_stride == 0 or i == n_steps:
            snapshots.append(state)
    return snapshots


@pytest.mark.parametrize("dt, output_stride", [(None, 1), (0.004, 1), (0.004, 7)])
def test_step_loop_reproduces_solve_closure_bitwise(monkeypatch, dt, output_stride):
    builds = []
    build = closure.closed_advection_matrix

    def counted_build(coeffs, spec):
        builds.append(coeffs.order)
        return build(coeffs, spec)

    monkeypatch.setattr(closure, "closed_advection_matrix", counted_build)
    order = 3
    params = closure.MaterialParams(
        a=0.0, b=1.0, cells=40, sigma=0.3, kappa=0.5,
        source=lambda x, t: np.cos(2.0 * np.pi * x) * (1.0 + 10.0 * t),
    )
    corr = 0.3 ** np.abs(np.subtract.outer(np.arange(order + 2), np.arange(order + 2)))
    spec = closure.ClosureSpec(kind="optimal_prediction", correlation=corr)
    initial = gaussian_bump(params, order)
    t_final = 0.1
    run = closure.solve_closure(
        initial, params, spec, t_final=t_final, dt=dt, output_stride=output_stride
    )
    assert len(builds) == 1
    step_dt = run[1].t if dt is None else dt
    looped = _step_loop(initial, params, spec, step_dt, t_final, output_stride)
    n_steps = max(1, round(t_final / step_dt))
    assert len(builds) == 1 + n_steps
    assert len(run) == len(looped) > 3
    for a, b in zip(run, looped):
        assert a.t == b.t
        assert np.array_equal(a.values, b.values)


def _roll_reference(initial, params, spec, dt, t_final, output_stride):
    """Lax-Friedrichs with two ``np.roll`` copies per step, in the
    expression order the marching loop must keep."""
    coeffs = closure.build_moment_system(initial.order)
    b_closed = closure.closed_advection_matrix(coeffs, spec)
    n_steps = max(1, round(t_final / dt))
    courant = dt / (2.0 * params.dx)
    damping = dt * closure._absorption(params, initial.order)
    t, u = initial.t, initial.values
    snapshots = [(t, u)]
    for i in range(1, n_steps + 1):
        left = np.roll(u, 1, axis=0)
        right = np.roll(u, -1, axis=0)
        advected = 0.5 * (left + right) - courant * (right - left) @ b_closed.T
        new = advected - damping * u
        u = new + dt * closure._source_term(params, initial.order, t)
        t = t + dt
        if i % output_stride == 0 or i == n_steps:
            snapshots.append((t, u))
    return snapshots


@pytest.mark.parametrize("kind", ["pn", "optimal_prediction"])
@pytest.mark.parametrize(
    "source", [np.linspace(0.0, 2.0, 24), lambda x, t: np.sin(2.0 * np.pi * x) + 5.0 * t],
    ids=["array", "callable"],
)
def test_march_buffers_never_leak_into_results(kind, source):
    order = 3
    params = closure.MaterialParams(
        a=0.0, b=1.0, cells=24, sigma=0.4, kappa=0.6, source=source
    )
    corr = 0.3 ** np.abs(np.subtract.outer(np.arange(order + 2), np.arange(order + 2)))
    spec = closure.ClosureSpec(kind=kind, correlation=corr if kind != "pn" else None)
    initial = gaussian_bump(params, order)
    before = initial.values.copy()
    run = closure.solve_closure(initial, params, spec, t_final=0.2, dt=0.01, output_stride=3)
    assert np.array_equal(initial.values, before)
    assert all(not snap.values.flags.writeable for snap in run)
    for i, a in enumerate(run):
        for b in run[i + 1 :]:
            assert not np.shares_memory(a.values, b.values)
    reference = _roll_reference(initial, params, spec, 0.01, 0.2, 3)
    assert len(run) == len(reference) == 8
    for snap, (t, values) in zip(run, reference):
        assert snap.t == t
        assert np.array_equal(snap.values, values)
