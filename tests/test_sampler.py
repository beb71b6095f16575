"""Schedule and solver contracts: exact identities, convergence orders
measured against closed-form solutions, and the evaluation-count budget
of each method. The dedicated Euler and midpoint loops below are oracles
for the generic Runge-Kutta driver, which must reproduce them bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowdit import sampler


class CountingField:
    """Wraps a velocity field and counts evaluations."""

    def __init__(self, v):
        self.v = v
        self.calls = 0

    def __call__(self, x, t):
        self.calls += 1
        return self.v(x, t)


def decay(x, t):
    return -x


def euler_sample(v, x0, ts):
    """N forward-Euler steps across the grid; N velocity evaluations."""
    x = np.asarray(x0, dtype=float)
    for i in range(len(ts) - 1):
        h = ts[i + 1] - ts[i]
        x = x + h * v(x, ts[i])
    return x


def midpoint_sample(v, x0, ts):
    """Explicit midpoint: half step to probe, full step with the probe slope.

    2N velocity evaluations for N intervals.
    """
    x = np.asarray(x0, dtype=float)
    for i in range(len(ts) - 1):
        h = ts[i + 1] - ts[i]
        k1 = v(x, ts[i])
        xm = x + (h * 0.5) * k1
        k2 = v(xm, ts[i] + 0.5 * h)
        x = x + h * k2
    return x


def test_schedule_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        sampler.ScheduleSpec(kind="cosine")
    with pytest.raises(ValueError, match="form"):
        sampler.schedule_points(sampler.ScheduleSpec(), form="other")
    with pytest.raises(ValueError, match="step"):
        sampler.ScheduleSpec(n_steps=0)
    with pytest.raises(ValueError, match="sigma > 0.5"):
        sampler.schedule_points(sampler.ScheduleSpec(kind="rational", sigma=0.4), form="paper_literal")
    with pytest.raises(ValueError, match="sigma > 0"):
        sampler.ScheduleSpec(kind="rational", sigma=-1.0)
    with pytest.raises(ValueError, match="mu"):
        sampler.ScheduleSpec(kind="sigmoid", mu=1.5)
    with pytest.raises(ValueError, match="alpha, beta"):
        sampler.ScheduleSpec(kind="sigmoid", beta=0.0)
    # NaN and inf are named as such, not left to fail the grid's increase check
    for warp in ({"sigma": np.nan}, {"sigma": np.inf}):
        with pytest.raises(ValueError, match="finite sigma > 0"):
            sampler.ScheduleSpec(kind="rational", **warp)
    for warp in ({"alpha": np.nan}, {"beta": np.inf}):
        with pytest.raises(ValueError, match="alpha, beta must be finite"):
            sampler.ScheduleSpec(kind="sigmoid", **warp)
    # sigma in (0.5, 1) is legal in the normalized form down to 0
    sampler.ScheduleSpec(kind="rational", sigma=0.3)


@pytest.mark.parametrize(
    "kind,n_steps",
    [("uniform", 2.5), ("sigmoid", 2.5), ("uniform", 3.0), ("uniform", True), ("uniform", np.True_)],
    ids=["fractional", "fractional_sigmoid", "integral_float", "bool", "numpy_bool"],
)
def test_schedule_spec_refuses_a_non_integer_step_count(kind, n_steps):
    # 2.5 steps made the grid [0, 0.4, 0.8, 1.2], and sample_flow ran to t = 1.2
    with pytest.raises(ValueError, match=f"n_steps must be a positive integer, got {n_steps!r}"):
        sampler.ScheduleSpec(kind=kind, n_steps=n_steps)
    ts = sampler.schedule_points(sampler.ScheduleSpec(kind=kind, n_steps=np.int64(3)))
    assert len(ts) == 4 and ts[0] == 0.0 and ts[-1] == 1.0


def test_rational_sigma_one_is_uniform_bitwise():
    grid = np.arange(11) / 10
    spec = sampler.ScheduleSpec(kind="rational", sigma=1.0, n_steps=10)
    for form in sampler.SCHEDULE_FORMS:
        assert np.array_equal(sampler.schedule_points(spec, form), grid)


def test_rational_forms_match_closed_expressions():
    t = np.linspace(0.0, 1.0, 64)
    sigma = 2.5
    assert np.allclose(
        sampler.rational_warp(t, sigma, "paper_literal"),
        t / (sigma + t * (sigma - 1.0)),
        atol=1e-15,
    )
    assert np.allclose(
        sampler.rational_warp(t, sigma, "endpoint_normalized"),
        sigma * t / (1.0 + (sigma - 1.0) * t),
        atol=1e-15,
    )


def test_rational_endpoints():
    for sigma in (0.1, 0.3, 0.7, 1.0, 3.0):
        ts = sampler.schedule_points(
            sampler.ScheduleSpec(kind="rational", sigma=sigma, n_steps=7)
        )
        assert ts[0] == 0.0 and ts[-1] == 1.0
    # the literal form ends at 1/(2*sigma - 1), not 1, unless sigma = 1
    for sigma in (0.8, 1.0, 3.0):
        ts = sampler.schedule_points(
            sampler.ScheduleSpec(kind="rational", sigma=sigma, n_steps=7), "paper_literal"
        )
        assert ts[0] == 0.0
        assert np.isclose(ts[-1], 1.0 / (2.0 * sigma - 1.0), rtol=1e-15)


def test_sigmoid_branches_meet_at_half():
    rng = np.random.default_rng(0)
    for _ in range(100):
        mu = rng.uniform(0.05, 0.95)
        alpha = rng.uniform(0.5, 30.0)
        beta = rng.uniform(0.5, 30.0)
        left = 1.0 / (1.0 + np.exp(-alpha * (mu - mu)))
        right = 1.0 - 1.0 / (1.0 + np.exp(beta * (mu - mu)))
        assert left == 0.5 and right == 0.5
        assert sampler.sigmoid_warp(mu, mu, alpha, beta) == 0.5


def test_sigmoid_normalized_endpoints_exact():
    spec = sampler.ScheduleSpec(kind="sigmoid", n_steps=20)
    ts = sampler.schedule_points(spec)
    assert ts.shape == (21,)
    assert ts[0] == 0.0 and ts[-1] == 1.0
    assert np.all(np.diff(ts) > 0.0)


def test_sigmoid_low_mu_spends_steps_early():
    early = sampler.schedule_points(
        sampler.ScheduleSpec(kind="sigmoid", n_steps=10, mu=0.2, alpha=10.0, beta=2.0)
    )
    # more than half the interior nodes land after the crossover
    assert np.sum(early[1:-1] > 0.2) > 5


def test_tableau_validation():
    for tableau in sampler.TABLEAUS.values():  # the built-in ones pass
        sampler.ButcherTableau(tableau.a, tableau.b, tableau.c)
    with pytest.raises(ValueError, match="explicit"):
        sampler.ButcherTableau(a=np.array([[0.5]]), b=np.array([1.0]), c=np.array([0.5]))
    with pytest.raises(ValueError, match="sum"):
        sampler.ButcherTableau(a=np.zeros((1, 1)), b=np.array([0.9]), c=np.array([0.0]))
    with pytest.raises(ValueError, match="row sums"):
        sampler.ButcherTableau(
            a=np.array([[0.0, 0.0], [0.5, 0.0]]),
            b=np.array([0.0, 1.0]),
            c=np.array([0.0, 0.25]),
        )
    with pytest.raises(ValueError, match="shapes"):
        sampler.ButcherTableau(a=np.zeros((2, 1)), b=np.array([1.0, 0.0]), c=np.zeros(2))


def measured_order(solver_name, n_coarse=20):
    """log2 error ratio between N and 2N grids on dx/dt = -x, x(0)=1."""
    x0 = np.array([1.0])
    exact = np.exp(-1.0)

    def err(n):
        ts = np.arange(n + 1) / n
        spec = sampler.ScheduleSpec(n_steps=n)
        out = sampler.sample_flow(decay, x0, spec, solver_name)
        return abs(float(out[0]) - exact)

    return np.log2(err(n_coarse) / err(2 * n_coarse))


@pytest.mark.parametrize("solver,nominal", [("euler", 1), ("midpoint", 2), ("rk4", 4)])
def test_empirical_convergence_order(solver, nominal):
    assert abs(measured_order(solver) - nominal) < 0.5


def nonlinear(x, t):
    return np.sin(x) + t * x * x * 0.1


def test_dedicated_loops_match_generic_driver_bitwise():
    rng = np.random.default_rng(1)
    x0 = rng.standard_normal((5, 2))
    ts = sampler.schedule_points(sampler.ScheduleSpec(kind="sigmoid", n_steps=9))
    assert np.array_equal(
        midpoint_sample(nonlinear, x0, ts),
        sampler.rk_sample(sampler.MIDPOINT, nonlinear, x0, ts),
    )
    assert np.array_equal(
        euler_sample(nonlinear, x0, ts),
        sampler.rk_sample(sampler.EULER, nonlinear, x0, ts),
    )


@pytest.mark.parametrize("solver,per_step", [("euler", 1), ("midpoint", 2), ("rk4", 4)])
def test_evaluation_budget(solver, per_step):
    n = 13
    counter = CountingField(decay)
    sampler.sample_flow(counter, np.ones(2), sampler.ScheduleSpec(n_steps=n), solver)
    assert counter.calls == per_step * n


def test_sample_flow_names_the_step_and_time_of_a_non_finite_velocity():
    times = []

    def field(x, t):
        times.append(t)
        return np.full_like(x, np.nan) if len(times) == 3 else -x

    # midpoint on a 5-step uniform grid: the third evaluation opens step 1, at t = 0.2
    with pytest.raises(FloatingPointError, match=r"step 1, t=0\.2$"):
        sampler.sample_flow(field, np.ones(2), sampler.ScheduleSpec(n_steps=5), "midpoint")
    assert len(times) == 3


def test_sample_flow_rejects_unknown_solver():
    with pytest.raises(ValueError, match="solver"):
        sampler.sample_flow(decay, np.ones(1), sampler.ScheduleSpec(), "heun")


def test_cfg_velocity_mixes_linearly():
    vc = lambda x, t: np.full_like(x, 3.0)
    vu = lambda x, t: np.full_like(x, 1.0)
    x = np.zeros(4)
    assert np.allclose(sampler.cfg_velocity(vc, vu, 0.0)(x, 0.5), 1.0, atol=1e-15)
    assert np.allclose(sampler.cfg_velocity(vc, vu, 1.0)(x, 0.5), 3.0, atol=1e-15)
    assert np.allclose(sampler.cfg_velocity(vc, vu, 2.5)(x, 0.5), 6.0, atol=1e-15)


def test_dense_trajectory_nodes_and_validation():
    c = np.array([2.0, -3.0])
    const = lambda x, t: c
    ts = np.arange(5) / 4
    nodes = sampler.dense_trajectory(const, np.zeros((3, 2)), ts, substeps=4)
    assert len(nodes) == 5
    # constant field on a dyadic grid integrates exactly
    for t, node in zip(ts, nodes):
        assert np.array_equal(node, np.broadcast_to(t * c, (3, 2)))
    with pytest.raises(ValueError, match="substep"):
        sampler.dense_trajectory(const, np.zeros(2), ts, substeps=0)


@pytest.mark.parametrize("substeps", [1, 0])
def test_error_profiles_refuse_fewer_than_two_substeps(substeps):
    # with one substep the dense path is the Euler probe, so every tau is 0
    field = lambda x, t: x * t
    with pytest.raises(ValueError, match=f"need at least 2 substeps per anchor, got {substeps}"):
        sampler.error_profiles(field, np.ones((3, 2)), n_anchor=4, substeps=substeps)
    assert len(sampler.dense_trajectory(field, np.ones((3, 2)), np.arange(5) / 4, substeps=1)) == 5


def test_truncation_error_zero_for_constant_field():
    const = lambda x, t: np.full_like(x, 1.5)
    taus, _ = sampler.error_profiles(const, np.zeros((4, 2)), n_anchor=8, substeps=16)
    assert np.array_equal(taus, np.zeros(8))


def test_curvature_zero_for_constant_field_bitwise():
    # dyadic start points and step counts: every operation is exact binary
    rng = np.random.default_rng(2)
    x0 = rng.integers(-512, 512, (16, 2)) / 256.0
    const = lambda x, t: np.broadcast_to(np.array([2.0, -3.0]), x.shape)
    _, kappas = sampler.error_profiles(const, x0, n_anchor=4, substeps=64)
    assert np.array_equal(kappas, np.zeros(3))


def test_curvature_profile_validation():
    with pytest.raises(ValueError, match="anchor"):
        sampler.error_profiles(decay, np.ones(2), n_anchor=2)
    with pytest.raises(ValueError, match="anchor"):
        sampler.error_profiles(decay, np.ones(2), n_anchor=0)


def test_error_profiles_integrate_the_reference_path_once():
    # 4 anchors x 8 dense substeps, then one Euler probe per anchor
    counter = CountingField(decay)
    taus, kappas = sampler.error_profiles(counter, np.ones((3, 2)), n_anchor=4, substeps=8)
    assert counter.calls == 4 * 8 + 4
    assert taus.shape == (4,) and kappas.shape == (3,)


def test_error_profiles_name_the_step_and_time_of_a_non_finite_velocity():
    calls = 0

    def field(x, t):
        nonlocal calls
        calls += 1
        return np.full_like(x, np.nan) if calls == 5 else -x

    # the fifth evaluation is dense substep 4 of the first anchor interval, at t = 4/32
    with pytest.raises(FloatingPointError, match=r"step 4, t=0\.125$"):
        sampler.error_profiles(field, np.ones((3, 2)), n_anchor=4, substeps=8)
    assert calls == 5


def test_diagnostics_scale_quadratically_on_linear_field():
    x0 = np.full((8, 2), 1.0)
    tau_c, _ = sampler.error_profiles(decay, x0, n_anchor=10, substeps=50)
    tau_f, _ = sampler.error_profiles(decay, x0, n_anchor=20, substeps=50)
    # error per step ~ h^2: halving h quarters the profile peak
    ratio = tau_c.max() / tau_f.max()
    assert 3.0 < ratio < 5.0


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from(["uniform", "rational", "sigmoid"]),
    st.integers(1, 10**4),
    st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(1e-3, 3e3),
    st.floats(1e-3, 3e3),
)
def test_schedule_grid_properties(kind, n_steps, sigma, mu, alpha, beta):
    # sample_flow integrates this grid without checking its ends, so every grid
    # schedule_points returns must run from exactly 0.0 to exactly 1.0
    spec = sampler.ScheduleSpec(kind=kind, n_steps=n_steps, sigma=sigma, mu=mu, alpha=alpha, beta=beta)
    try:
        # a sharp sigmoid overflows exp on its way to 0 or 1
        with np.errstate(over="ignore"):
            ts = sampler.schedule_points(spec)
    except ValueError as err:
        assert "not strictly increasing" in str(err)
        return
    assert ts.shape == (n_steps + 1,)
    assert ts[0] == 0.0 and ts[-1] == 1.0
    assert np.all(np.diff(ts) > 0.0)


@settings(deadline=None, max_examples=30)
@given(st.floats(0.55, 4.0), st.floats(0.0, 1.0))
def test_rational_warp_range_property(sigma, t):
    # only the normalized form is guaranteed to stay inside [0, 1]
    w = float(sampler.rational_warp(t, sigma))
    assert -1e-12 <= w <= 1.0 + 1e-12
