import numpy as np
import pytest

from seqgauss import cli, closure, core
from seqgauss.verify import _bump_initial as gaussian_bump
from seqgauss.verify import _params as make_params
from seqgauss.verify import (
    check_absorption_and_source,
    check_advection_coefficients,
    check_cfl_guard,
    check_closure_rows,
    check_conservation,
    check_identity_correlation_truncation,
    check_refinement_monotone,
    check_weak_form_projection,
)


def test_advection_coefficients_exact():
    check_advection_coefficients()


def test_absorption_and_source_structure():
    check_absorption_and_source()


@pytest.mark.parametrize("name", ["sigma", "kappa", "source"])
def test_material_params_refuse_a_callable(name):
    fields = dict(a=0.0, b=1.0, cells=4, sigma=0.0, kappa=1.0, source=0.0)
    fields[name] = lambda x, t: np.full_like(x, t)
    with pytest.raises(core.InputError, match=f"^{name} is not a numeric array") as exc:
        closure.MaterialParams(**fields)
    assert exc.value.argument == name


# Every input the library refuses at nan, +-inf and, where one is refused,
# a negative value; each refusal must name the input it refuses.
REFUSED_INPUTS = [
    (name, value)
    for name, negative_refused in (
        ("a", False), ("b", True), ("cells", True), ("sigma", True), ("kappa", True),
        ("source", False), ("correlation", False), ("t_final", True), ("dt", True),
        ("cfl", True), ("output_stride", True),
    )
    for value in (np.nan, np.inf, -np.inf) + ((-1,) if negative_refused else ())
]


def _run_with(name, value):
    """An N = 2 optimal-prediction run on 8 cells, valid but for ``name``."""
    material = dict(a=0.0, b=1.0, cells=8, sigma=0.1, kappa=0.2, source=0.3)
    run = dict(correlation=np.eye(4), t_final=0.1, dt=0.01, cfl=0.9, output_stride=1)
    if name == "correlation":
        run[name][0, 3] = run[name][3, 0] = value
    else:
        (material if name in material else run)[name] = value
    initial = closure.MomentGrid(t=0.0, values=np.ones((8, 3)))
    return closure.solve_closure(initial, closure.MaterialParams(**material), **run)


def test_run_with_no_bad_input_succeeds():
    assert len(_run_with("a", -1)) == 11


@pytest.mark.parametrize("name, value", REFUSED_INPUTS)
def test_each_refused_input_is_named(name, value):
    with pytest.raises(core.InputError) as exc:
        _run_with(name, value)
    assert exc.value.argument == name


# the fields of a ``seqgauss closure`` config document
CLOSURE_DOCUMENT_FIELDS = {
    "a", "b", "J", "N", "T", "dt", "cfl", "output_stride", "closure", "closure.A", "sigma",
    "kappa", "q", "initial",
}


def test_every_refused_input_has_a_config_field():
    # the CLI reports each refused argument under its entry in this table,
    # or under its own name when it has none; either must be a field of
    # the document, and the table holds no entry nothing is refused as
    arguments = set()
    for name, value in REFUSED_INPUTS:
        with pytest.raises(core.InputError) as exc:
            _run_with(name, value)
        arguments.add(exc.value.argument)
    for cells, moments in ((4, 3), (8, closure.MAX_ORDER + 2)):  # initial, order
        grid = closure.MomentGrid(t=0.0, values=np.ones((cells, moments)))
        with pytest.raises(core.InputError) as exc:
            closure.solve_closure(grid, make_params(8), None, 0.1)
        arguments.add(exc.value.argument)
    assert set(cli._FIELDS["closure"]) <= arguments
    fields = {cli._FIELDS["closure"].get(name, name) for name in arguments}
    assert fields <= CLOSURE_DOCUMENT_FIELDS


def test_closure_row_truncation_is_zero():
    assert not closure.closure_row(None, 3).any()


def test_closure_row_identity_correlation_is_zero():
    assert not closure.closure_row(np.eye(5), 3).any()


def test_closure_row_one_dimensional_block():
    row = closure.closure_row(np.array([[1.0, 0.5], [0.5, 1.0]]), 0)
    assert np.allclose(row, [0.5], atol=1e-15, rtol=0)


def test_closure_row_matches_block_projection_adjoint():
    # moments 0..N correspond to leading cut = N + 1 coordinates; the
    # prediction row is the coupling block of the weighted adjoint
    rng = np.random.default_rng(3)
    for order in (0, 1, 3):
        g = rng.standard_normal((order + 2, order + 2))
        corr = g @ g.T + (order + 2) * np.eye(order + 2)
        row = closure.closure_row(corr, order)
        blocks = core.block_projection(core.Covariance(corr), order + 1)
        assert np.allclose(row, blocks.pt[order + 1, : order + 1], atol=1e-12, rtol=0)


def test_closure_row_scale_invariance():
    check_closure_rows(np.random.default_rng(0))


def test_closure_row_errors():
    with pytest.raises(ValueError, match="too small") as exc:
        closure.closure_row(np.eye(3), 3)
    assert exc.value.argument == "correlation"
    singular = np.zeros((4, 4))
    with pytest.raises(ValueError, match="singular") as exc:
        closure.closure_row(singular, 2)
    assert exc.value.argument == "correlation"


def test_step_constant_free_state_is_stationary():
    params = make_params(cells=16)
    state = closure.MomentGrid(t=0.0, values=np.tile([2.0, -1.0, 0.5], (16, 1)))
    out = closure.step(state, params, None, dt=0.01)
    assert np.array_equal(out.values, state.values)
    assert out.t == pytest.approx(0.01)


def test_step_pure_absorption_factor():
    kappa = 0.7
    params = make_params(cells=16, kappa=kappa)
    state = closure.MomentGrid(t=0.0, values=np.tile([2.0, -1.0, 0.5], (16, 1)))
    out = closure.step(state, params, None, dt=0.01)
    assert np.allclose(
        out.values[:, 0], state.values[:, 0] * (1 - kappa * 0.01), atol=1e-15, rtol=0
    )
    # higher moments decay with kappa + sigma = kappa here
    assert np.allclose(
        out.values[:, 1], state.values[:, 1] * (1 - kappa * 0.01), atol=1e-15, rtol=0
    )


def test_step_source_feeds_only_moment_zero():
    params = make_params(cells=16, kappa=0.5, source=1.5)
    state = closure.MomentGrid(t=0.0, values=np.zeros((16, 4)))
    out = closure.step(state, params, None, dt=0.01)
    assert (out.values[:, 0] > 0).all()
    assert not out.values[:, 1:].any()


def test_step_conserves_spatial_sums_without_sources():
    rng = np.random.default_rng(1)
    # 40 steps from two random states
    check_conservation(rng)
    check_conservation(rng)


def test_step_cfl_violation_raises():
    check_cfl_guard()


@pytest.mark.parametrize("cfl", [0.0, -0.5, np.nan, np.inf])
def test_cfl_must_be_positive_and_finite(cfl):
    params = make_params(cells=16)
    state = closure.MomentGrid(t=0.0, values=np.ones((16, 3)))
    with pytest.raises(core.InputError, match="cfl") as exc:
        closure.solve_closure(state, params, None, t_final=0.1, cfl=cfl)
    assert exc.value.argument == "cfl"


def test_step_takes_no_cfl():
    params = make_params(cells=16)
    state = closure.MomentGrid(t=0.0, values=np.ones((16, 3)))
    with pytest.raises(TypeError, match="cfl"):
        closure.step(state, params, None, dt=0.01, cfl=0.5)


@pytest.mark.parametrize(
    "t_final, dt, cfl, output_stride, message",
    [
        (1e9, 0.005, closure.DEFAULT_CFL, 1000, "steps"),
        (np.nan, 0.005, closure.DEFAULT_CFL, 1, "t_final"),
        (np.inf, None, closure.DEFAULT_CFL, 1, "t_final"),
        (0.1, None, 1e-300, 1, "steps"),  # the default dt is 1e-300 * dx / rho
        (0.1, None, 5e-324, 1, "steps"),  # the default dt underflows to 0
        # 400 001 snapshots of 16 x 3 values, above MAX_SNAPSHOT_VALUES
        (2000.0, 0.005, closure.DEFAULT_CFL, 1, "snapshots"),
    ],
)
def test_overlong_run_is_refused_before_any_step(t_final, dt, cfl, output_stride, message):
    params = make_params(cells=16)
    state = closure.MomentGrid(t=0.0, values=np.ones((16, 3)))
    with pytest.raises(core.InputError, match=message) as exc:
        closure.solve_closure(
            state, params, None,
            t_final=t_final, dt=dt, cfl=cfl, output_stride=output_stride,
        )
    assert exc.value.argument == "t_final"


def test_order_above_max_order_is_refused():
    assert closure.build_moment_system(closure.MAX_ORDER).shape == (
        closure.MAX_ORDER + 1, closure.MAX_ORDER + 2
    )
    with pytest.raises(core.InputError, match="MAX_ORDER") as exc:
        closure.build_moment_system(closure.MAX_ORDER + 1)
    assert exc.value.argument == "order"
    state = closure.MomentGrid(t=0.0, values=np.ones((4, closure.MAX_ORDER + 2)))
    with pytest.raises(core.InputError, match="MAX_ORDER") as exc:
        closure.solve_closure(state, make_params(cells=4), None, 0.1)
    assert exc.value.argument == "order"


@pytest.mark.parametrize("dt", [1e308, np.inf])
def test_dt_with_non_finite_courant_number_is_refused(dt):
    # N = 0 truncation has no advection (rho = 0), so no CFL bound applies,
    # but dt / (2 dx) overflows on this 4-cell grid
    params = make_params(cells=4)
    state = closure.MomentGrid(t=0.0, values=np.ones((4, 1)))
    # an infinite dt is refused by the intake, before the Courant number
    message = "Courant" if np.isfinite(dt) else "^dt contains non-finite entries"
    with pytest.raises(core.InputError, match=message) as exc:
        closure.solve_closure(state, params, None, t_final=0.1, dt=dt)
    assert exc.value.argument == "dt"
    with pytest.raises(core.InputError, match=message) as exc:
        closure.step(state, params, None, dt=dt)
    assert exc.value.argument == "dt"


def test_step_reports_blowup_location():
    # absorption coefficient large enough to overflow the explicit update
    params = make_params(cells=8, kappa=1e308)
    state = closure.MomentGrid(t=0.0, values=np.full((8, 1), 1e308))
    with pytest.raises(ValueError, match="non-finite"):
        closure.step(state, params, None, dt=0.01)


def test_moment_grid_rejects_non_finite_values():
    values = np.zeros((4, 2))
    values[1, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        closure.MomentGrid(t=0.0, values=values)
    for t in (np.nan, np.inf, -np.inf):
        with pytest.raises(core.InputError, match="^t contains non-finite entries") as exc:
            closure.MomentGrid(t=t, values=np.zeros((4, 2)))
        assert exc.value.argument == "t"


def test_material_params_validation():
    with pytest.raises(ValueError, match="cells"):
        make_params(cells=1)
    with pytest.raises(ValueError, match="non-negative"):
        make_params(64, sigma=-1.0)
    with pytest.raises(ValueError, match="non-negative"):
        make_params(64, kappa=-0.1)


def test_truncation_equals_identity_prediction_trajectories():
    check_identity_correlation_truncation()


def test_block_diagonal_correlation_equals_truncation_bitwise():
    params = make_params(cells=50, sigma=0.1, kappa=0.1, source=0.0)
    order = 2
    initial = gaussian_bump(params, order)
    corr = np.eye(order + 2)
    corr[: order + 1, : order + 1] += 0.3  # coupled resolved block, zero coupling row
    dt = 0.005
    pn = closure.solve_closure(initial, params, None, t_final=50 * dt, dt=dt)
    op = closure.solve_closure(initial, params, corr, t_final=50 * dt, dt=dt)
    for g1, g2 in zip(pn, op):
        assert np.array_equal(g1.values, g2.values)


def test_nontrivial_closure_row_changes_trajectory():
    params = make_params(cells=50)
    order = 2
    initial = gaussian_bump(params, order)
    corr = np.eye(order + 2)
    corr[order + 1, order] = corr[order, order + 1] = 0.4
    dt = 0.005
    pn = closure.solve_closure(initial, params, None, t_final=50 * dt, dt=dt)
    op = closure.solve_closure(initial, params, corr, t_final=50 * dt, dt=dt)
    assert not np.allclose(pn[-1].values, op[-1].values, atol=1e-8, rtol=0)


def test_refinement_study_is_monotone():
    check_refinement_monotone()


def test_solve_closure_snapshot_stride():
    params = make_params(cells=16)
    initial = closure.MomentGrid(t=0.0, values=np.ones((16, 2)))
    run = closure.solve_closure(initial, params, None, t_final=0.05, dt=0.005, output_stride=3)
    # initial + steps 3, 6, 9 + final step 10
    assert [round(s.t / 0.005) for s in run] == [0, 3, 6, 9, 10]


def test_solve_closure_default_dt_respects_cfl():
    params = make_params(cells=32)
    initial = gaussian_bump(params, 2)
    run = closure.solve_closure(initial, params, None, t_final=0.1)
    assert run[-1].t == pytest.approx(0.1, rel=0.2)


def test_weak_form_projection_identity():
    check_weak_form_projection(np.random.default_rng(2))


# N = 1 with this correlation gives the closed matrix [[0, 1], [1/3 - 0.6, 0]],
# whose eigenvalues are +-0.516i: the closure is not hyperbolic.
ILL_POSED_CORRELATION = [[1.0, 0.0, -0.9], [0.0, 1.0, 0.0], [-0.9, 0.0, 1.0]]


def test_non_hyperbolic_closure_is_rejected_by_both_entry_points():
    params = make_params(cells=16)
    corr = np.array(ILL_POSED_CORRELATION)
    initial = gaussian_bump(params, 1)
    pattern = r"not hyperbolic: eigenvalue .*0\.516398j"
    with pytest.raises(ValueError, match=pattern):
        closure.solve_closure(initial, params, corr, t_final=0.1)
    with pytest.raises(ValueError, match=pattern):
        closure.solve_closure(initial, params, corr, t_final=0.1, dt=0.01)
    with pytest.raises(ValueError, match=pattern):
        closure.step(initial, params, corr, dt=0.01)


def _step_loop(initial, params, correlation, dt, t_final, output_stride):
    """What solve_closure documents, written as a loop of public steps."""
    n_steps = max(1, round(t_final / dt))
    state, snapshots = initial, [initial]
    for i in range(1, n_steps + 1):
        state = closure.step(state, params, correlation, dt)
        if i % output_stride == 0 or i == n_steps:
            snapshots.append(state)
    return snapshots


@pytest.mark.parametrize("dt, output_stride", [(None, 1), (0.004, 1), (0.004, 7)])
def test_step_loop_reproduces_solve_closure_bitwise(monkeypatch, dt, output_stride):
    builds = []
    build = closure.closed_advection_matrix

    def counted_build(order, correlation):
        builds.append(order)
        return build(order, correlation)

    monkeypatch.setattr(closure, "closed_advection_matrix", counted_build)
    order = 3
    params = closure.MaterialParams(
        a=0.0, b=1.0, cells=40, sigma=0.3, kappa=0.5,
        source=np.cos(2.0 * np.pi * np.linspace(0.0, 1.0, 40)),
    )
    corr = 0.3 ** np.abs(np.subtract.outer(np.arange(order + 2), np.arange(order + 2)))
    initial = gaussian_bump(params, order)
    t_final = 0.1
    run = closure.solve_closure(
        initial, params, corr, t_final=t_final, dt=dt, output_stride=output_stride
    )
    assert len(builds) == 1
    step_dt = run[1].t if dt is None else dt
    looped = _step_loop(initial, params, corr, step_dt, t_final, output_stride)
    n_steps = max(1, round(t_final / step_dt))
    assert len(builds) == 1 + n_steps
    assert len(run) == len(looped) > 3
    for a, b in zip(run, looped):
        assert a.t == b.t
        assert np.array_equal(a.values, b.values)


def _roll_reference(initial, params, correlation, dt, t_final, output_stride):
    """Lax-Friedrichs with two ``np.roll`` copies per step, in the
    expression order the marching loop must keep."""
    b_closed = closure.closed_advection_matrix(initial.order, correlation)
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
        u = new + dt * closure._source_term(params, initial.order)
        t = t + dt
        if i % output_stride == 0 or i == n_steps:
            snapshots.append((t, u))
    return snapshots


@pytest.mark.parametrize("kind", ["pn", "optimal_prediction"])
@pytest.mark.parametrize("source", [np.linspace(0.0, 2.0, 24)], ids=["array"])
def test_march_buffers_never_leak_into_results(kind, source):
    order = 3
    params = closure.MaterialParams(
        a=0.0, b=1.0, cells=24, sigma=0.4, kappa=0.6, source=source
    )
    corr = 0.3 ** np.abs(np.subtract.outer(np.arange(order + 2), np.arange(order + 2)))
    correlation = corr if kind != "pn" else None
    initial = gaussian_bump(params, order)
    before = initial.values.copy()
    run = closure.solve_closure(
        initial, params, correlation, t_final=0.2, dt=0.01, output_stride=3
    )
    assert np.array_equal(initial.values, before)
    assert all(not snap.values.flags.writeable for snap in run)
    for i, a in enumerate(run):
        for b in run[i + 1 :]:
            assert not np.shares_memory(a.values, b.values)
    reference = _roll_reference(initial, params, correlation, 0.01, 0.2, 3)
    assert len(run) == len(reference) == 8
    for snap, (t, values) in zip(run, reference):
        assert snap.t == t
        assert np.array_equal(snap.values, values)
