import gc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
import strategies as sts
from mdelab import (
    BaseOffGridError,
    ConfigError,
    ConstantFiberPvf,
    CustomPvf,
    GraphPvf,
    GridSpec,
    LAGRANGIAN,
    LAS,
    MEAN_VELOCITY,
    MeasurePath,
    OutOfRangeError,
    Scenario,
    SCHEMES,
    SchemeConfig,
    SplittingParticlePvf,
    SupportBlowupError,
    base_of,
    dirac,
    eval_pvf,
    interpolate_at,
    make_lifted,
    make_measure,
    quantile_uniform,
    run_scenario,
    run_scheme,
    sublinearity_bound,
    support_bound_check,
    support_radius,
    w1_distance,
)
from mdelab import measures, pvf, schemes
from mdelab.pvf import GRAPH_FIELDS, _median
from mdelab.schemes import snap_space
from mdelab.tolerances import MERGE_TOL, WEIGHT_FLOOR

SPLIT = SplittingParticlePvf()
PM1 = make_measure([[-1.0], [1.0]], [0.5, 0.5])
BINOMIAL = ConstantFiberPvf(PM1)
PEANO = GraphPvf(GRAPH_FIELDS["peano"], name="graph:peano")


def cfg(scheme, T=1.0, N=4, dv=None, **kw):
    return SchemeConfig(scheme=scheme, grid=GridSpec(T=T, N=N, dv=dv), **kw)


def m1(xs, ws):
    return make_measure([[x] for x in xs], ws)


# ---------------------------------------------------------------------------
# grids and snapping
# ---------------------------------------------------------------------------

def test_grid_spec_defaults_and_validation():
    g = GridSpec(T=1.0, N=4)
    assert (g.dt, g.dv, g.dx) == (0.25, 0.25, 0.0625)
    g2 = GridSpec(T=3.0, N=3, dv=1.0)
    assert (g2.dt, g2.dv, g2.dx) == (1.0, 1.0, 1.0)
    for bad in (
        dict(T=0.0, N=4),
        dict(T=1.0, N=0),
        dict(T=1.0, N=4, dv=-1.0),
        dict(T=float("inf"), N=2),
        dict(T=1.0, N=2, dv=float("inf")),
        dict(T=1.0, N=True),
    ):
        with pytest.raises(ValueError):
            GridSpec(**bad)
    # a bool (numpy's too) is refused as a time or a step, as a Scenario
    # refuses it, though Python would read it as 0 or 1, and so is a string
    for bad, message in [
        (dict(T=True, N=2), "T must be positive and finite"),
        (dict(T=np.bool_(True), N=2), "T must be positive and finite"),
        (dict(T="1", N=2), "T must be positive and finite"),
        (dict(T=1.0, N=2, dv=True), "dv must be positive and finite"),
        (dict(T=1.0, N=2, dv=False), "dv must be positive and finite"),
        (dict(T=1.0, N=2, dv=np.bool_(True)), "dv must be positive and finite"),
        (dict(T=1.0, N=2, dv="0.5"), "dv must be positive and finite"),
        # an integer beyond the float range has no float: float() overflowed
        (dict(T=10**400, N=2), "T must be positive and finite"),
        (dict(T=1.0, N=2, dv=10**400), "dv must be positive and finite"),
        (dict(T=1.0, N=10**400), "N must be a positive integer"),
        # N dt overflows, so it cannot come back to T
        (dict(T=1.7976931348623157e308, N=3), "N * dt must reproduce T"),
        (dict(T=1.7976931348623157e308, N=7), "N * dt must reproduce T"),
    ]:
        with pytest.raises(ValueError) as info:
            GridSpec(**bad)
        assert str(info.value) == message
    g = GridSpec(np.float32(1.0), 2, np.float32(0.5))
    assert (type(g.T), type(g.dv), g.dv) == (float, float, 0.5)


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(scheme="rk4", grid=GridSpec(T=1.0, N=4))
    with pytest.raises(ValueError):
        SchemeConfig(scheme=LAS, grid=GridSpec(T=1.0, N=4), prune_floor=1e-3)
    with pytest.raises(ValueError):
        SchemeConfig(scheme=LAS, grid=GridSpec(T=1.0, N=4), coalesce_tol=-1.0)
    with pytest.raises(ValueError):
        SchemeConfig(scheme=LAS, grid=GridSpec(T=1.0, N=4), coalesce_tol=float("nan"))
    # a cap that no count exceeds (NaN), a bool and a non-integer are refused
    for cap in (0, float("nan"), True, 2.5, 100.0, "100"):
        with pytest.raises(ValueError) as info:
            SchemeConfig(scheme=LAS, grid=GridSpec(T=1.0, N=4), max_atoms=cap)
        assert str(info.value) == "max_atoms must be a positive integer"
    assert SchemeConfig(scheme=LAS, grid=GridSpec(T=1.0, N=4), max_atoms=np.int64(5)).max_atoms == 5
    # and so is a bool (numpy's too) or a non-number for either
    # housekeeping parameter, and a grid that is not a GridSpec
    for bad, message in [
        (dict(coalesce_tol=True), "coalesce_tol must be >= 0"),
        (dict(coalesce_tol=False), "coalesce_tol must be >= 0"),
        (dict(coalesce_tol=np.bool_(True)), "coalesce_tol must be >= 0"),
        (dict(coalesce_tol="0.1"), "coalesce_tol must be >= 0"),
        (dict(coalesce_tol=10**400), "coalesce_tol must be >= 0"),
        (dict(prune_floor=False), "prune_floor must lie in [0, 1e-06]"),
        (dict(prune_floor=np.bool_(False)), "prune_floor must lie in [0, 1e-06]"),
        (dict(prune_floor=None), "prune_floor must lie in [0, 1e-06]"),
        (dict(grid=None), "grid must be a GridSpec, got None"),
    ]:
        with pytest.raises(ValueError) as info:
            SchemeConfig(**{"scheme": LAS, "grid": GridSpec(T=1.0, N=4), **bad})
        assert str(info.value) == message


def test_snap_space_examples():
    g = GridSpec(T=1.0, N=4)  # dx = 0.0625
    assert snap_space(dirac(0.0), g) == dirac(0.0)
    assert snap_space(dirac(0.3 * g.dx), g) == dirac(0.0)
    two = m1([0.1 * g.dx, 1.6 * g.dx], [0.5, 0.5])
    assert snap_space(two, g) == m1([0.0, g.dx], [0.5, 0.5])


def test_snap_space_w1_bound():
    rng = np.random.default_rng(3)
    g = GridSpec(T=1.0, N=8)
    for _ in range(20):
        pts, w = oracles.random_support(rng, dim=2, max_atoms=8)
        mu = make_measure(pts, w)
        assert w1_distance(mu, snap_space(mu, g)) <= np.sqrt(2) * g.dx + 1e-12


def las_lift(v, **grid):
    """The first lift of a ``las`` run from delta_0 under the constant velocity v."""
    return run_scheme(ConstantFiberPvf(dirac(v)), dirac(0.0), cfg(LAS, **grid)).interp[0]


def test_las_bins_velocities_examples():
    g = dict(T=3.0, N=3, dv=1.0)
    assert np.array_equal(las_lift(0.0, **g).velocities, [[0.0]])
    assert las_lift(2.0 * np.sqrt(3.0), **g).velocities[0, 0] == 3.0
    assert las_lift(-0.4, **g).velocities[0, 0] == -1.0


def test_las_velocity_boundary_dust_bins_upward():
    # velocity exactly on a bin edge up to float error stays in that bin
    # (N = 5: dv = 0.2, and 1/0.2 rounds below 5)
    assert las_lift(1.0, T=1.0, N=5).velocities[0, 0] == 1.0


def test_las_applies_the_weight_floor_to_binned_rows():
    # each row 0.5 * 1.2e-15 lies below WEIGHT_FLOOR, but the two rows of
    # one atom share the velocity bin 0, and the binned atom does not
    omega = m1([0.1, 0.12, 1.0], [1.2e-15, 1.2e-15, 1.0])
    lifted = run_scheme(ConstantFiberPvf(omega), m1([0.0, 0.25], [0.5, 0.5]), cfg(LAS)).interp[0]
    assert lifted.velocities[:, 0].tolist() == [0.0, 1.0, 0.0, 1.0]
    assert lifted.weights[0] == lifted.weights[2] >= WEIGHT_FLOOR


def test_las_rejects_off_grid_base():
    # run_scheme snaps mu0 onto the grid first, so step from an off-grid node
    config = cfg(LAS, N=4)
    off = dirac(config.grid.dx * 0.5)
    with pytest.raises(BaseOffGridError):
        schemes._las_step(ConstantFiberPvf(dirac(1.0)), off, config)


# ---------------------------------------------------------------------------
# the three runs on the worked examples
# ---------------------------------------------------------------------------

def test_las_splitting_pair_of_rays():
    path = run_scheme(SPLIT, dirac(0.0), cfg(LAS, N=4))
    for k, t in enumerate(path.times):
        ref_x, ref_w = oracles.splitting_dirac_atoms(0.0, t)
        assert path.measures[k] == m1(ref_x, ref_w)


def test_las_peano_unit_grid_enumeration():
    path = run_scheme(PEANO, dirac(-1.0), cfg(LAS, T=3.0, N=3, dv=1.0))
    got = [mu.atoms[0, 0] for mu in path.measures]
    assert got == [-1.0, 1.0, 3.0, 6.0]
    assert all(mu.natoms == 1 for mu in path.measures)


def test_las_binomial_lattice_exact():
    N = 4
    path = run_scheme(BINOMIAL, dirac(0.0), cfg(LAS, N=N))
    for k, mu in enumerate(path.measures):
        ref = oracles.binomial_law(k, N)
        assert mu.natoms == len(ref)
        for (x, w), ax, aw in zip(ref, mu.atoms[:, 0], mu.weights):
            assert ax == x
            assert aw == w


def test_lagrangian_splitting_exact_rays():
    path = run_scheme(SPLIT, dirac(2.0), cfg(LAGRANGIAN, N=4))
    for k, t in enumerate(path.times):
        ref_x, ref_w = oracles.splitting_dirac_atoms(2.0, t)
        assert path.measures[k] == m1(ref_x, ref_w)


def test_lagrangian_binomial_single_step():
    path = run_scheme(BINOMIAL, dirac(0.0), cfg(LAGRANGIAN, N=4))
    assert path.measures[1] == m1([-0.25, 0.25], [0.5, 0.5])


def test_lagrangian_graph_is_explicit_euler():
    field = GRAPH_FIELDS["linear"]
    mu0 = m1([0.5, -1.0], [0.5, 0.5])
    path = run_scheme(GraphPvf(field), mu0, cfg(LAGRANGIAN, N=8))
    # Euler by hand on each atom
    pts = mu0.atoms.copy()
    dt = 1.0 / 8.0
    for k in range(1, 9):
        pts = pts + dt * field(pts)
        assert np.allclose(np.sort(path.measures[k].atoms[:, 0]), np.sort(pts[:, 0]))


def test_mean_velocity_stationary_cases():
    for spec, mu0 in ((SPLIT, dirac(1.5)), (BINOMIAL, dirac(0.0))):
        path = run_scheme(spec, mu0, cfg(MEAN_VELOCITY, N=6))
        for mu in path.measures:
            assert mu == mu0


def test_mean_velocity_equals_lagrangian_for_graph_pvf():
    spec = GraphPvf(GRAPH_FIELDS["linear"])
    mu0 = m1([0.5, -1.0], [0.25, 0.75])
    a = run_scheme(spec, mu0, cfg(LAGRANGIAN, N=8))
    b = run_scheme(spec, mu0, cfg(MEAN_VELOCITY, N=8))
    for x, y in zip(a.measures, b.measures):
        assert x == y


def test_graph_pvf_collapse_las_within_grid_error():
    spec = GraphPvf(GRAPH_FIELDS["linear"])
    mu0 = dirac(0.5)
    g = GridSpec(T=1.0, N=16)
    a = run_scheme(spec, mu0, SchemeConfig(scheme=LAS, grid=g))
    b = run_scheme(spec, mu0, SchemeConfig(scheme=LAGRANGIAN, grid=g))
    gaps = [w1_distance(x, y) for x, y in zip(a.measures, b.measures)]
    assert max(gaps) <= g.dx + g.dv * 1.0


def test_run_scheme_dispatch_and_mismatch():
    path = run_scheme(SPLIT, dirac(0.0), cfg(LAS, N=2))
    assert isinstance(path, MeasurePath)


def test_node_times_end_exactly_at_T():
    # 49 * (1 / 49) is 0.9999999999999999
    for scheme in (LAS, LAGRANGIAN, MEAN_VELOCITY):
        path = run_scheme(SPLIT, dirac(0.0), cfg(scheme, N=49))
        assert path.T == 1.0
        assert np.array_equal(path.times[:-1], (1.0 / 49) * np.arange(49))


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------

def test_interpolate_at_nodes_returns_node_measures():
    path = run_scheme(SPLIT, dirac(0.0), cfg(LAS, N=4))
    for k, t in enumerate(path.times):
        assert interpolate_at(path, float(t)) == path.measures[k]


def test_interpolate_las_splitting_midpoint():
    path = run_scheme(SPLIT, dirac(0.0), cfg(LAS, N=4))
    mid = interpolate_at(path, 0.125)
    assert mid == m1([-0.125, 0.125], [0.5, 0.5])


def test_interpolate_mean_velocity_stationary_any_t():
    path = run_scheme(SPLIT, dirac(1.5), cfg(MEAN_VELOCITY, N=4))
    for t in (0.0, 0.1, 0.37, 0.98, 1.0):
        assert interpolate_at(path, t) == dirac(1.5)


def test_interpolate_out_of_range():
    path = run_scheme(SPLIT, dirac(0.0), cfg(LAS, N=4))
    with pytest.raises(OutOfRangeError):
        interpolate_at(path, -0.01)
    with pytest.raises(OutOfRangeError):
        interpolate_at(path, 1.01)


def test_nan_time_is_out_of_range_for_every_caller():
    from mdelab import build_representation, evaluate_pushforward, verify_fiber_barycenter

    path = run_scheme(SPLIT, dirac(0.0), cfg(LAS, N=4))
    ens = build_representation(path)
    for call in (
        lambda: interpolate_at(path, np.nan),
        lambda: evaluate_pushforward(ens, np.nan),
        lambda: verify_fiber_barycenter(ens, SPLIT, np.nan),
    ):
        with pytest.raises(OutOfRangeError) as info:
            call()
        assert str(info.value) == "t=nan outside [0, 1]"


# ---------------------------------------------------------------------------
# support control
# ---------------------------------------------------------------------------

def test_support_bound_check_examples():
    stationary = run_scheme(SPLIT, dirac(1.0), cfg(MEAN_VELOCITY, N=4))
    assert support_bound_check(stationary, C=1.0, R=1.0)

    split = run_scheme(SPLIT, dirac(0.0), cfg(LAS, N=4))
    assert support_bound_check(split, C=1.0, R=0.0)

    lift = eval_pvf(SPLIT, dirac(0.0))
    runaway = MeasurePath(
        times=[0.0, 1.0],
        measures=(dirac(0.0), dirac(100.0)),
        interp=(lift,),
    )
    assert not support_bound_check(runaway, C=1.0, R=0.0)


def test_equi_lipschitz_in_time():
    for scheme in (LAS, LAGRANGIAN, MEAN_VELOCITY):
        path = run_scheme(SPLIT, dirac(0.0), cfg(scheme, N=8))
        C = sublinearity_bound(SPLIT, path.measures)
        K = max(support_radius(mu) for mu in path.measures)
        dt = 1.0 / 8.0
        for a, b in zip(path.measures[:-1], path.measures[1:]):
            assert w1_distance(a, b) <= dt * C * (1.0 + K) + 1e-12


def test_mass_conservation_all_schemes():
    mu0 = quantile_uniform(0.0, 1.0, 16)
    for scheme in (LAS, LAGRANGIAN, MEAN_VELOCITY):
        path = run_scheme(SPLIT, mu0, cfg(scheme, N=8))
        for mu in path.measures:
            assert abs(mu.weights.sum() - 1.0) <= 1e-9


def test_lagrangian_support_blowup_guard():
    # two incommensurable velocities grow the support by one atom per step
    offgrid = ConstantFiberPvf(m1([-1.0, np.sqrt(2.0)], [0.5, 0.5]))
    with pytest.raises(SupportBlowupError):
        run_scheme(offgrid, dirac(0.0), cfg(LAGRANGIAN, N=10, max_atoms=5))
    # the cap applies to raw children before merging: 10 parents spawn 20
    ok = run_scheme(offgrid, dirac(0.0), cfg(LAGRANGIAN, N=10, max_atoms=20))
    assert ok.measures[-1].natoms == 11


@pytest.mark.parametrize(
    "scheme, spec, mu0, cap",
    [
        (LAS, BINOMIAL, m1([0.0, 0.25, 0.5], [0.2, 0.3, 0.5]), 5),  # 3 x 2 = 6
        (LAGRANGIAN, BINOMIAL, m1([0.0, 0.25, 0.5], [0.2, 0.3, 0.5]), 5),
        (LAGRANGIAN, SPLIT, m1([0.0, 0.25, 0.5], [0.2, 0.3, 0.5]), 3),  # 3 + 1
        (LAGRANGIAN, GraphPvf(GRAPH_FIELDS["linear"]), m1([0.0, 0.5], [0.5, 0.5]), 1),
        (MEAN_VELOCITY, BINOMIAL, m1([0.0, 0.25, 0.5], [0.2, 0.3, 0.5]), 5),
    ],
)
def test_atom_cap_trips_before_the_rule_is_evaluated(monkeypatch, scheme, spec, mu0, cap):
    calls = []
    monkeypatch.setattr(schemes, "eval_pvf", lambda *args: calls.append(args))
    # no rows are built either: the lattice scheme takes them from the rule's entry
    rows = pvf._kind(spec)._replace(rows=lambda *args: calls.append(args))
    monkeypatch.setitem(pvf._KINDS, type(spec), rows)
    with pytest.raises(SupportBlowupError):
        run_scheme(spec, mu0, cfg(scheme, max_atoms=cap))
    assert calls == []


def counted_kernel(monkeypatch) -> list:
    """Record the arguments of every call of the canonical kernel."""
    calls = []
    kernel = measures._canonical

    def counted(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(measures, "_canonical", counted)
    return calls


def counted_unit(monkeypatch) -> list:
    """Record the group masses of every call of the kernel's weight tests."""
    calls = []
    unit = measures._unit

    def counted(total, mass, *args):
        calls.append(mass)
        return unit(total, mass, *args)

    monkeypatch.setattr(measures, "_unit", counted)
    return calls


@pytest.mark.parametrize("scheme", [LAGRANGIAN, LAS])
@pytest.mark.parametrize("mu0, expected", [
    (dirac(0.0), [False] + [True] * 7),  # splits exactly, then moves whole
    (quantile_uniform(0.0, 1.0, 256), [True] * 8),  # a dyadic block, torn at every step
    (make_measure([[0.0], [0.25], [0.5]], [0.3, 0.3, 0.4]), [False] + [True] * 7),
    # B moves right whole, but lighter than its own weight by roundoff
    (make_measure([[0.0], [0.25], [0.5]], [0.5 + 3e-16, 0.25, 0.25 - 3e-16]), [False] * 8),
], ids=["dirac", "block", "three", "lighter"])
def test_a_splitting_step_tests_weights_only_where_its_median_splits(monkeypatch, scheme, mu0,
                                                                     expected):
    # A median atom that moves right whole with its own weight leaves the
    # node's weights as they are: the lift adopts the node's array and runs
    # no weight test, and nor does the node after it.  A split makes fresh
    # weights, tested once.
    config = cfg(scheme, N=8)
    step = schemes._STEPS[scheme]
    mu = snap_space(mu0, config.grid) if scheme == LAS else mu0
    calls = counted_unit(monkeypatch)
    seen = []
    for _ in range(config.grid.N):
        _, eta, mass, left = _median(mu)
        whole = left >= 0.5 and eta == mass
        calls.clear()
        lift, nxt, _ = step(SPLIT, mu, config)
        assert len(calls) == (0 if whole else 1)
        assert (lift.weights is mu.weights) == whole
        seen.append(whole)
        mu = nxt
    assert seen == expected


def test_a_torn_block_run_finds_its_median_once_and_keeps_nothing_alive(monkeypatch):
    # every node of a torn block holds the first node's weights array, so
    # the median and the velocity column are computed once per run, and
    # every lift shares that read-only column; the rule keeps them only by
    # weak reference, so they go with the path.  The steps after the first
    # are one running sum, so the run makes one kernel pass, for the first
    # step's node, not one per step
    calls = [0]
    median = pvf._median

    def counted(mu):
        calls[0] += 1
        return median(mu)

    monkeypatch.setattr(pvf, "_median", counted)
    mu0 = quantile_uniform(0.0, 1.0, 256)
    passes = counted_kernel(monkeypatch)
    path = run_scheme(SPLIT, mu0, cfg(LAGRANGIAN, N=256))
    assert calls == [1]
    assert len(passes) == 1
    passes.clear()  # the pass's arguments hold the weights
    vel = path.interp[0].velocities
    assert not vel.flags.writeable
    assert all(lift.velocities is vel for lift in path.interp)
    assert all(mu.weights is path.measures[0].weights for mu in path.measures)
    refs = [weakref.ref(path.measures[0].weights), weakref.ref(vel)]
    del path, vel, mu0
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


@pytest.mark.parametrize("scheme, found", [(LAGRANGIAN, True), (MEAN_VELOCITY, False)])
def test_only_a_lagrangian_step_after_the_route_stops_finds_the_splitting_memo(monkeypatch, scheme,
                                                                              found):
    # the "merge" run of differential_cases: the route stops before node 4,
    # where two atoms round together, and the step from node 3 lifts the
    # first node's weights array again.  Under lagrangian the lifts before
    # it hold the rule's velocity column, so the step finds it in
    # pvf._split_memo and runs no median search.  A mean-velocity lift
    # holds the fiber means instead (a las lift the binned column), so
    # nothing keeps the rule's column alive and the step searches
    calls = []
    median = pvf._median
    monkeypatch.setattr(pvf, "_median", lambda mu: calls.append(mu) or median(mu))
    begun = counted_steps(monkeypatch, scheme)
    u = float(np.spacing(8192.0))
    mu0 = m1([0.0, 16383.25 - u, 16383.25], [0.5, 0.25, 0.25])
    path = run_scheme(SPLIT, mu0, cfg(scheme, T=2.0, N=8))
    assert [path.measures.index(mu) for mu in begun] == [0, 3, 4]
    assert path.measures[3].weights is path.measures[0].weights
    assert len(calls) == len(begun) - found
    assert (path.interp[3].velocities is path.interp[0].velocities) == found


def reference_run(spec, mu, config, nodes: list):
    """``run_scheme`` as a plain loop over the step of ``config.scheme``
    (``schemes._STEPS``), from ``mu`` snapped under ``las``, recorded as
    ``run_scheme`` records: fills ``nodes`` (so that a failing run leaves
    the node its failing step started from last) and returns the lifts and
    the pruned mass."""
    step = schemes._STEPS[config.scheme]
    if config.scheme == LAS:
        mu = snap_space(mu, config.grid)
    nodes.append(mu)
    lifts, pruned = [], 0.0
    for _ in range(config.grid.N):
        lift, mu, lost = step(spec, mu, config)
        nodes[-1] = base_of(lift)
        lifts.append(lift)
        nodes.append(mu)
        pruned += lost
    return lifts, pruned


def node_bits(mu) -> list:
    return [(a.shape, a.tobytes()) for a in (mu.atoms, mu.weights)]


def outcome(run) -> tuple:
    """What ``run()`` returns, or the class and message of what it raises."""
    try:
        return "ok", run()
    except Exception as exc:  # every error is compared, whatever its class
        return type(exc), str(exc)


def counted_moves(monkeypatch) -> list:
    """Record the number of steps handed to ``schemes._moved_whole`` at each start."""
    starts = []
    moved = schemes._moved_whole

    def counted(mu, vel, grid, steps, lattice):
        starts.append(steps)
        return moved(mu, vel, grid, steps, lattice)

    monkeypatch.setattr(schemes, "_moved_whole", counted)
    return starts


def counted_steps(monkeypatch, scheme) -> list:
    """Record the node each step of ``scheme`` starts from (``schemes._STEPS``)."""
    begun = []
    step = schemes._STEPS[scheme]
    monkeypatch.setitem(schemes._STEPS, scheme,
                        lambda spec, mu, c: step(spec, begun.append(mu) or mu, c))
    return begun


def differential_cases():
    rng = np.random.default_rng(35)
    for n, N, starts in [(2, 1, [0]), (2, 64, [63]), (4, 3, [2]), (6, 100, [98]),
                         (10, 256, [254]), (64, 17, [16]), (256, 64, [63]), (256, 256, [255]),
                         (600, 128, [127]), (998, 9, []), (1000, 256, [255])]:
        a = float(rng.uniform(-1.0, 1.0))
        yield pytest.param(quantile_uniform(a, a + 1.0, n), cfg(LAGRANGIAN, N=N), starts,
                           id=f"block{n}-N{N}")
    for N in (64, 256):
        yield pytest.param(dirac(float(rng.uniform(-1.0, 1.0))), cfg(LAGRANGIAN, N=N), [N - 2],
                           id=f"dirac-N{N}")
    # two atoms one ulp apart round together when they cross 16384 at the
    # fourth step: the running sum stops, the step merges them, and the
    # two atoms left move whole again
    u = float(np.spacing(8192.0))
    yield pytest.param(m1([0.0, 16383.25 - u, 16383.25], [0.5, 0.25, 0.25]),
                       cfg(LAGRANGIAN, T=2.0, N=8), [7, 3], id="merge")
    cases = [
        ("lighter", m1([0.0, 0.25, 0.5], [0.5 + 3e-16, 0.25, 0.25 - 3e-16]), {}, []),
        ("coalesce", quantile_uniform(0.0, 1.0, 8), dict(coalesce_tol=0.5), []),
        ("floor-keeps", quantile_uniform(0.0, 1.0, 256), dict(prune_floor=1e-6), [31]),
        ("floor-drops", m1([0.0, 0.25, 0.5, 0.75], [5e-7, 0.5 - 5e-7, 0.25, 0.25]),
         dict(prune_floor=1e-6), [3]),
        ("cap-n", quantile_uniform(0.0, 1.0, 16), dict(max_atoms=16), []),
        ("cap-n+1", quantile_uniform(0.0, 1.0, 16), dict(max_atoms=17), [31]),
    ]
    for name, mu0, kw, starts in cases:
        yield pytest.param(mu0, cfg(LAGRANGIAN, N=32, **kw), starts, id=name)
    yield from lattice_and_mean_cases(rng)


def lattice_and_mean_cases(rng):
    """``las`` and ``mean-velocity`` runs on the same route: ``las`` by
    exact lattice offsets, ``mean-velocity`` by the running sum of its
    fiber means, which are a function of the weights array too."""
    x0 = float(rng.uniform(-1.0, 1.0))
    for N in (1, 2, 64, 256):
        # the first step splits the Dirac, the second takes the route
        yield pytest.param(dirac(x0), cfg(LAS, N=N), [N - 2] if N > 1 else [],
                           id=f"las-dirac-N{N}")
        # the split's fiber mean is 0: a fixed point, repeated instead
        yield pytest.param(dirac(x0), cfg(MEAN_VELOCITY, N=N), [], id=f"mv-dirac-N{N}")
    a = float(rng.uniform(-1.0, 1.0))
    for scheme in (LAS, MEAN_VELOCITY):
        # a torn block moves whole from the first step
        yield pytest.param(quantile_uniform(a, a + 1.0, 256), cfg(scheme, N=64), [63],
                           id=f"{scheme}-block256")
    for n, N in [(512, 200), (64, 600)]:
        # power-of-two blocks whose running sum spans several blocks of
        # _BLOCK_BYTES: 64 rows of 512 atoms, or 512 rows of 64 atoms, the
        # last block partial
        for scheme in SCHEMES:
            yield pytest.param(quantile_uniform(0.3, 1.3, n), cfg(scheme, N=N), [N - 1],
                               id=f"{scheme}-block{n}-N{N}")
    for scheme, starts in [(LAS, [14]), (LAGRANGIAN, [14]), (MEAN_VELOCITY, [15])]:
        # an odd block's median splits: its mean-velocity lift still holds
        # the node's weights, so that run takes the route at once, and the
        # others after their first split
        yield pytest.param(quantile_uniform(a, a + 1.0, 257), cfg(scheme, N=16), starts,
                           id=f"{scheme}-block257")
    for scheme, starts in [(LAS, []), (LAGRANGIAN, []), (MEAN_VELOCITY, [15])]:
        # 98 weights of 1/98 sum to 1 ulp below 1/2 left of the median, whose
        # sliver the floor drops at every step; the mean-velocity lift keeps
        # the node's weights all the same
        yield pytest.param(quantile_uniform(a, a + 1.0, 98), cfg(scheme, N=16), starts,
                           id=f"{scheme}-sliver98")
    # dv = 2 bins the velocities -1, +1 to -2, 0.  Six atoms of 1/6 snap to
    # six lattice points at dv = 1/3, where the median atom moves right
    # whole but 1 ulp lighter than its weight, so the route starts after
    # the first step; at dv = 2 they snap to five, and it starts at once
    for dv, starts in [(1.0 / 3.0, [7]), (2.0, [8])]:
        yield pytest.param(dirac(x0), cfg(LAS, N=9, dv=dv), [7], id=f"las-dirac-dv{dv:.3g}")
        yield pytest.param(quantile_uniform(a, a + 1.0, 6), cfg(LAS, N=9, dv=dv), starts,
                           id=f"las-block6-dv{dv:.3g}")
    # snapped onto the lattice first, then moved whole
    yield pytest.param(m1([0.3, 0.71, 1.05], [0.2, 0.3, 0.5]), cfg(LAS, N=8), [7],
                       id="las-off-grid")
    # two atoms one lattice step apart, a step just over MERGE_TOL: their
    # computed gap falls to MERGE_TOL as they move right, the route stops,
    # the step merges them, and the two atoms left move whole again
    dx = MERGE_TOL * (1.0 + 3e-5)
    yield pytest.param(m1([0.0, 5.0 * dx, 6.0 * dx], [0.5, 0.25, 0.25]),
                       cfg(LAS, N=8, dv=dx / 0.125), [7, 3], id="las-meet")
    # lattice indices past 2^50 = _EXACT_INDEX: the route stops at the
    # first step from such an index, and restarts at each later step, where
    # it gives none.  In the second run the index starts near
    # 4116127621142743 (about 1.83 * 2^51), where rint(n dx / dx) is not
    # always n, and a step's grid check refuses a node
    yield pytest.param(dirac((2.0 ** 50 - 3.0) / 9.0), cfg(LAS, N=8, dv=8.0 / 9.0),
                       [6, 3, 2, 1, 0], id="las-leaves-exact-range")
    dx = 0.8274412234991579
    yield pytest.param(dirac(4116127621142743.0 * dx), cfg(LAS, N=8, dv=dx / 0.125),
                       [6, 5, 4, 3], id="las-past-exact-range")
    # mean-velocity ignores the merge tolerance and the weight floor
    yield pytest.param(quantile_uniform(0.0, 1.0, 8),
                       cfg(MEAN_VELOCITY, N=32, coalesce_tol=0.5, prune_floor=1e-6), [31],
                       id="mv-coalesce-floor")


def assert_equals_step_loop(mu0, config):
    """``run_scheme`` under the splitting rule gives every node, lift and
    the pruned mass of the plain step loop (``reference_run``) bit for bit,
    each node the base of its lift, or the loop's error class and message."""
    nodes = []
    expected = outcome(lambda: reference_run(SPLIT, mu0, config, nodes))
    got = outcome(lambda: run_scheme(SPLIT, mu0, config))
    if expected[0] != "ok":
        assert got == expected
        return
    assert got[0] == "ok", got
    (lifts, pruned), path = expected[1], got[1]
    assert [node_bits(mu) for mu in path.measures] == [node_bits(mu) for mu in nodes]
    assert [lift_bits(lift) for lift in path.interp] == [lift_bits(lift) for lift in lifts]
    assert np.float64(path.pruned_mass).tobytes() == np.float64(pruned).tobytes()
    assert all(mu is base_of(lift) for mu, lift in zip(path.measures, path.interp))
    assert path.times.tobytes() == config.grid.times.tobytes() and not path.times.flags.writeable


@pytest.mark.parametrize("mu0, config, starts", differential_cases())
def test_a_splitting_run_equals_its_step_loop(monkeypatch, mu0, config, starts):
    # A splitting run whose lift holds its node's weights array finishes
    # on one route (``schemes._moved_whole``), under every scheme; every
    # node, lift and the pruned mass are the plain step loop's bit for bit,
    # and an error is the loop's error.  ``starts`` pins where the route
    # took over, by the steps it was handed.
    moved = counted_moves(monkeypatch)
    assert_equals_step_loop(mu0, config)
    assert moved == starts


@st.composite
def splitting_starts(draw):
    """1-D starts of 1-12 atoms: coordinates on a dyadic grid or anywhere
    in [-8, 8], weights whole numbers (ties, so medians that move whole)
    or anywhere in [0.01, 1]."""
    n = draw(st.integers(1, 12))
    coords = draw(st.sampled_from([sts.dyadic, sts.finite]))
    weights = draw(st.sampled_from([st.integers(1, 4).map(float), sts.positive_weight]))
    return make_measure([[draw(coords)] for _ in range(n)], [draw(weights) for _ in range(n)])


@given(mu0=splitting_starts(), N=st.integers(1, 64), dv=st.sampled_from([None, 1.0 / 3.0, 2.0]))
def test_every_scheme_of_a_splitting_run_equals_its_step_loop(mu0, N, dv):
    # dv None is 1/N
    for scheme in SCHEMES:
        assert_equals_step_loop(mu0, cfg(scheme, N=N, dv=dv))


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("mode", [{}, dict(all="raise"), dict(over="ignore", invalid="ignore")],
                         ids=["plain", "raise", "ignore"])
def test_an_overflowing_horizon_fails_where_the_step_loop_fails(monkeypatch, mode, scheme):
    # the right atom moves whole to about +1.6e308 + k dt (dx = dt under
    # las) and overflows at a step the route reaches: the route silences
    # the overflow and stops, and the scheme's step fails on the same node
    # with the loop's error, in every errstate mode (plain: the warning the
    # loop's arithmetic raises)
    mu0 = m1([-1.0, 1.6e308], [0.5, 0.5])
    config = cfg(scheme, T=1e308, N=64, dv=1.0)
    moved = counted_moves(monkeypatch)
    nodes = []
    with np.errstate(**mode):
        expected = outcome(lambda: reference_run(SPLIT, mu0, config, nodes))
        begun = counted_steps(monkeypatch, scheme)
        got = outcome(lambda: run_scheme(SPLIT, mu0, config))
    assert expected[0] != "ok" and got == expected
    assert moved == [63] and len(begun) == 2 and len(nodes) > 3
    assert node_bits(begun[-1]) == node_bits(nodes[-1])


def test_an_overflowing_splitting_scenario_names_its_horizon(monkeypatch, tmp_path):
    # the scenario runner's raise mode turns the loop's overflow, met after
    # the running sum stops, into the ConfigError naming T
    moved = counted_moves(monkeypatch)
    scn = Scenario(name="torn", pvf={"kind": "splitting"},
                   initial={"kind": "atoms", "atoms": [[-1.0], [1.6e308]], "weights": [0.5, 0.5]},
                   T=1e308, Ns=(64,), schemes=(LAGRANGIAN,), outputs=str(tmp_path / "out"))
    config = cfg(LAGRANGIAN, T=1e308, N=64)
    with np.errstate(over="raise", invalid="raise"):
        error = outcome(lambda: reference_run(SPLIT, scn.initial_measure(), config, []))
    assert error[0] is FloatingPointError
    with pytest.raises(ConfigError) as info:
        run_scenario(scn)
    assert str(info.value) == f"T: {1e308!r} overflows floating point ({error[1]})"
    assert moved == [63]


def fixed_point_cases():
    zero = GraphPvf(GRAPH_FIELDS["zero"], name="graph:zero")
    linear = GraphPvf(GRAPH_FIELDS["linear"], name="graph:linear")
    # 1e-13 per step at dt = 0.25: the nodes move by far less than
    # AGREE_TOL, but never repeat a bit
    drift = GraphPvf(lambda x: np.full_like(x, 4e-13), name="graph:drift")
    custom = CustomPvf(lambda mu: eval_pvf(SPLIT, mu))
    origin, spread = dirac(0.0), m1([-0.75, 0.25, 1.0], [0.25, 0.5, 0.25])
    # runs whose step returns its own node: the pinned count of steps
    # computed, the last of which returns the node it started from
    yield pytest.param(SPLIT, origin, cfg(MEAN_VELOCITY, N=64), 1, id="split-mv-origin")
    yield pytest.param(BINOMIAL, origin, cfg(MEAN_VELOCITY, N=16), 1, id="binomial-mv-origin")
    yield pytest.param(custom, origin, cfg(MEAN_VELOCITY, N=16), 1, id="custom-mv-origin")
    yield pytest.param(PEANO, dirac(-1.0), cfg(LAS, T=3.0, N=9, dv=1.0 / 3.0), 3,
                       id="peano-las-parks")
    for scheme in SCHEMES:
        yield pytest.param(zero, spread, cfg(scheme, N=8), 1, id=f"zero-{scheme}")
    # runs whose nodes never repeat compute every step
    for scheme in SCHEMES:
        yield pytest.param(linear, spread, cfg(scheme, N=8), 8, id=f"linear-{scheme}")
    for scheme in (LAGRANGIAN, MEAN_VELOCITY):
        yield pytest.param(drift, spread, cfg(scheme, N=8), 8, id=f"drift-{scheme}")


@pytest.mark.parametrize("spec, mu0, config, computed", fixed_point_cases())
def test_a_run_repeats_its_fixed_point_as_its_step_loop_would(monkeypatch, spec, mu0, config,
                                                              computed):
    # A step that returns the node it started from, bit for bit, is
    # repeated for the rest of the run, not run again: every node, lift and
    # the pruned mass are the plain step loop's bit for bit.  ``computed``
    # pins how many steps the run computes, so a route that never starts
    # fails too, and so does one that starts at a node that merely lies
    # within a tolerance of the one before.
    nodes = []
    lifts, pruned = reference_run(spec, mu0, config, nodes)
    begun = counted_steps(monkeypatch, config.scheme)
    path = run_scheme(spec, mu0, config)
    assert len(begun) == computed
    assert [node_bits(mu) for mu in path.measures] == [node_bits(mu) for mu in nodes]
    assert [lift_bits(lift) for lift in path.interp] == [lift_bits(lift) for lift in lifts]
    assert np.float64(path.pruned_mass).tobytes() == np.float64(pruned).tobytes()
    assert all(mu is base_of(lift) for mu, lift in zip(path.measures, path.interp))


def test_mean_velocity_builds_no_measure_per_fiber(monkeypatch):
    # the fiber means come from one grouping of the lift, so a step builds
    # a fixed handful of canonical measures, not one per base atom; every
    # one of them, checked or derived, goes through the kernel
    mu0 = quantile_uniform(0.0, 1.0, 256)
    calls = counted_kernel(monkeypatch)
    run_scheme(SPLIT, mu0, cfg(MEAN_VELOCITY, N=4))
    assert len(calls) <= 3 * 4


@pytest.mark.parametrize("n", [2, 6])
def test_mean_velocity_steps_from_the_lift_base_when_the_floor_drops_a_fiber(n):
    # the first atom weighs 1.5e-15, so its fiber has 7.5e-16 per velocity,
    # under the weight floor, and the lift has n - 1 fibers: the step goes
    # on from them, as lagrangian does, and their zero means keep them still
    mu0 = make_measure(np.arange(n, dtype=float)[:, None],
                       [1.5e-15 * (n - 1)] + [1.0] * (n - 1))
    assert mu0.natoms == n
    path = run_scheme(BINOMIAL, mu0, cfg(MEAN_VELOCITY, N=2))
    base = run_scheme(BINOMIAL, mu0, cfg(LAGRANGIAN, N=2)).measures[0]
    assert base.natoms == n - 1 and base.atoms[0, 0] == 1.0
    assert all(mu == base for mu in path.measures)


@pytest.mark.parametrize("scheme, extra", [(LAS, 1), (LAGRANGIAN, 0), (MEAN_VELOCITY, 0)])
@pytest.mark.parametrize("spec", [SPLIT, BINOMIAL, PEANO], ids=["split", "binomial", "peano"])
def test_a_step_runs_the_kernel_once_per_value(monkeypatch, scheme, extra, spec):
    # A rule's lift arrives in canonical order and takes no pass, except
    # under las, which bins it; the node takes one; the lattice scheme also
    # snaps mu0.  The base of a graph-field lift, and of a splitting lift
    # whose median atom moves right whole with its own weight (every step
    # here: on weights [0.2, 0.3, 0.5] it does not split), is the node the
    # step started from, and is not computed; nor is a mean-velocity
    # lift's.  A constant fiber's lift computes its base.  Under lagrangian
    # the splitting run's steps after the first are one running sum
    # (``schemes._moved_whole``), which runs no kernel, and so are the
    # splitting run's under las and mean-velocity, whose first lift holds
    # the node's weights too.  The ±1 fiber's mean is 0, so a
    # mean-velocity step returns the node it started from, and the steps
    # after the first repeat it and run no kernel either.
    mu0 = make_measure([[0.0], [0.25], [0.5]], [0.2, 0.3, 0.5])
    calls = counted_kernel(monkeypatch)
    path = run_scheme(spec, mu0, cfg(scheme, N=5))
    per_step = {LAS: 2, LAGRANGIAN: 1, MEAN_VELOCITY: 1}[scheme]
    attached = scheme == MEAN_VELOCITY or spec is not BINOMIAL
    per_step += not attached
    steps = 1 if spec is SPLIT or (scheme, spec) == (MEAN_VELOCITY, BINOMIAL) else 5
    assert len(calls) == per_step * steps + extra
    if attached:
        assert all(base_of(lift) is mu for lift, mu in zip(path.interp, path.measures))


def lift_bits(lift) -> list:
    return [(a.shape, a.tobytes()) for a in (lift.positions, lift.velocities, lift.weights)]


def seeded_measures() -> list:
    """1-D starting measures on every splitting route: a Dirac (its median
    splits), seeded clouds (splits exact and inexact) and a seeded torn
    block (its median atom moves right whole with its own weight, so its
    lifts adopt every column as given)."""
    rng = np.random.default_rng(33)
    out = [dirac(float(rng.uniform(-1.0, 1.0)))]
    for n in (2, 5, 9):
        out.append(m1(rng.uniform(-1.0, 1.0, n).tolist(), rng.uniform(0.1, 1.0, n).tolist()))
    a = float(rng.uniform(-1.0, 1.0))
    return out + [quantile_uniform(a, a + 1.0, 16)]


@pytest.mark.parametrize("scheme", [LAS, LAGRANGIAN, MEAN_VELOCITY])
@pytest.mark.parametrize("spec", [SPLIT, BINOMIAL, PEANO, CustomPvf(lambda mu: eval_pvf(SPLIT, mu))],
                         ids=["split", "binomial", "peano", "custom"])
def test_stored_lifts_are_canonical_and_read_only(monkeypatch, scheme, spec):
    # A step's bookkeeping (no flag set twice, a lift adopted as given, one
    # rule lookup) must leave what a path stores as the checked constructors
    # would build it.  Every stored lift is its own rows' canonical form bit
    # for bit; every array of every node and lift is read-only, a fresh one
    # adopted as given too (a mean-velocity lift's ``vbar + 0.0``, a node of
    # the whole-array route, which the torn block enters under every scheme),
    # so writing to it raises; a lift that eval_pvf built with the node the
    # step started from as its base is the rule's evaluation at that node;
    # that node is its base exactly where the rule's rows prove it.
    built = []
    evaluate = schemes.eval_pvf

    def recorded(spec, mu):
        lift = evaluate(spec, mu)
        built.append((lift, mu))  # kept alive, so that no id is reused
        return lift

    monkeypatch.setattr(schemes, "eval_pvf", recorded)
    moved = counted_moves(monkeypatch)
    for mu0 in seeded_measures():
        built.clear()
        path = run_scheme(spec, mu0, cfg(scheme, N=4))
        for value in path.measures + path.interp:
            for name in value._arrays:
                array = getattr(value, name)
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = array[0]
        for lift, node in zip(path.interp, path.measures):
            rows = (lift.positions, lift.velocities, lift.weights)
            assert lift_bits(make_lifted(*rows)) == lift_bits(lift)
            assert base_of(lift) is node
            origin = next((b for a, b in built if a is lift), None)  # the node eval_pvf lifted
            if origin is not None and not isinstance(spec, CustomPvf):
                # the step started from its lift's base exactly where the
                # rows name it their base and the lift keeps every one of them
                *_, w, base = pvf._kind(spec).rows(spec, origin)
                assert (origin is node) == (base is origin and lift.natoms == len(w))
            if origin is node:
                assert lift_bits(evaluate(spec, node)) == lift_bits(lift)
    assert bool(moved) == (spec is SPLIT)


@pytest.mark.parametrize("scheme", [LAS, LAGRANGIAN, MEAN_VELOCITY])
def test_every_rule_gives_finite_rows_that_name_their_true_base(monkeypatch, scheme):
    # eval_pvf adopts every rule's rows as ordered, so finite and free of
    # -0.0, with no check of its own, and takes the base they name: that
    # base is the node for a shipped rule, and the base pass over the rows
    # gives it bit for bit
    rows = []
    for cls, kind in pvf._KINDS.items():
        def recorded(spec, mu, rows_of=kind.rows):
            out = rows_of(spec, mu)
            rows.append((spec, mu, out))
            return out
        monkeypatch.setitem(pvf._KINDS, cls, kind._replace(rows=recorded))
    specs = [SPLIT, BINOMIAL, PEANO, GraphPvf(lambda x: np.full_like(x, -0.0)),
             CustomPvf(lambda mu: eval_pvf(BINOMIAL, mu))]
    assert {type(spec) for spec in specs} == set(pvf._KINDS)
    for spec in specs:
        for mu0 in seeded_measures():
            run_scheme(spec, mu0, cfg(scheme, N=4))
    assert {type(spec) for spec, _, _ in rows} == set(pvf._KINDS)
    for spec, mu, (pos, vel, w, base) in rows:
        for col in (pos, vel, w):
            assert np.isfinite(col).all() and not np.signbit(col[col == 0]).any()
        if base is None:
            continue
        assert (base is mu) == (not isinstance(spec, CustomPvf))
        kernel = measures._derive(pos.copy(), w.copy())
        assert [a.tobytes() for a in (kernel.atoms, kernel.weights)] == [
            a.tobytes() for a in (base.atoms, base.weights)]
    # every route is taken: a constant fiber names no base, and the
    # splitting rule names none where a split median's parts do not add
    # back to its weight
    assert {(type(spec), base is None) for spec, _, (*_, base) in rows} == {
        (SplittingParticlePvf, False), (SplittingParticlePvf, True), (GraphPvf, False),
        (ConstantFiberPvf, True), (CustomPvf, False)}


def test_coalescing_steps_run_the_kernel_once_more(monkeypatch):
    mu0 = make_measure([[0.0], [0.25], [0.5]], [0.2, 0.3, 0.5])
    calls = counted_kernel(monkeypatch)
    run_scheme(BINOMIAL, mu0, cfg(LAGRANGIAN, N=5, coalesce_tol=0.01))
    assert len(calls) == 3 * 5  # the node, its coalescing and the lift's base
    calls.clear()
    measures.coalesce(mu0, 0.3)
    assert len(calls) == 1


def test_atom_cap_checks_a_custom_rule_after_evaluation():
    calls = []

    def fan_out(mu):
        calls.append(mu)
        return eval_pvf(BINOMIAL, mu)

    with pytest.raises(SupportBlowupError):
        run_scheme(CustomPvf(fan_out), m1([0.0, 0.5], [0.5, 0.5]), cfg(LAGRANGIAN, max_atoms=3))
    assert len(calls) == 1


def test_splitting_roundoff_above_half_moves_no_mass_left_at_the_median():
    # with 100 equal atoms the mass left of the median atom sums to
    # 1/2 + 2e-16, which made the median's leftward part a negative weight
    path = run_scheme(SPLIT, quantile_uniform(0.0, 1.0, 100), cfg(LAGRANGIAN, N=16))
    atoms, weights = oracles.splitting_uniform_atoms(1.0, 100)
    assert w1_distance(path.measures[-1], m1(atoms, weights)) <= 1e-12


@pytest.mark.parametrize("natoms", [2, 28, 100, 218, 256, 600, 998, 1000])
def test_splitting_uniform_block_tears_exactly(natoms):
    # A float cumsum put the mass left of the median atom a few ulps off an
    # exact 1/2 (600 atoms: 2e-15 below), so a 1.9e-15 leftward sliver of the
    # median travelled as an atom of its own: 601 atoms from step 1.
    path = run_scheme(SPLIT, quantile_uniform(0.0, 1.0, natoms), cfg(LAGRANGIAN, N=16))
    for t, mu in zip(path.times, path.measures):
        atoms, weights = oracles.splitting_uniform_atoms(float(t), natoms)
        assert mu.natoms == natoms
        exact = (np.array(atoms), np.array(weights))
        assert oracles.w1_inverse_cdf(mu.atoms[:, 0], mu.weights, *exact) <= 1e-15


def test_lagrangian_prune_floor_accounting():
    lopsided = ConstantFiberPvf(m1([0.0, 1.0], [1.0 - 1e-7, 1e-7]))
    path = run_scheme(
        lopsided, dirac(0.0), cfg(LAGRANGIAN, N=8, prune_floor=1e-6)
    )
    assert 0.0 < path.pruned_mass < 1e-5
    for mu in path.measures:
        assert abs(mu.weights.sum() - 1.0) <= 1e-9
    # with pruning disabled the tiny branch survives
    full = run_scheme(lopsided, dirac(0.0), cfg(LAGRANGIAN, N=8))
    assert full.pruned_mass == 0.0
    assert full.measures[-1].natoms > path.measures[-1].natoms


def test_lagrangian_coalesce_tol_merges_children():
    path = run_scheme(SPLIT, dirac(0.0), cfg(LAGRANGIAN, N=4, coalesce_tol=0.6))
    assert path.measures[1].natoms == 1
    assert abs(path.measures[1].weights.sum() - 1.0) <= 1e-9


def test_las_atoms_stay_on_grid():
    g = GridSpec(T=1.0, N=8)
    path = run_scheme(BINOMIAL, dirac(0.0), SchemeConfig(scheme=LAS, grid=g))
    for mu in path.measures:
        idx = np.rint(mu.atoms / g.dx)
        assert np.max(np.abs(mu.atoms - idx * g.dx)) <= 1e-9 * g.dx


@pytest.mark.parametrize("times", [[np.nan, 1.0], [0.0, np.nan], [0.0, np.inf]])
def test_path_rejects_non_finite_times(times):
    lift = eval_pvf(SPLIT, dirac(0.0))
    with pytest.raises(ValueError) as info:
        MeasurePath(times=times, measures=(dirac(0.0), dirac(0.0)), interp=(lift,))
    assert str(info.value) == "node times must be finite"


def test_a_path_keeps_its_own_times():
    # the path copies the caller's times, so a later write to that array
    # cannot give it times its validation refuses
    t = np.array([0.0, 1.0])
    lift = eval_pvf(SPLIT, dirac(0.0))
    path = MeasurePath(times=t, measures=(dirac(0.0), dirac(0.0)), interp=(lift,))
    t[1] = -3.0
    assert path.times.tolist() == [0.0, 1.0]
    assert not path.times.flags.writeable and t.flags.writeable


@pytest.mark.parametrize(
    "spec, mu0, config",
    [
        # the next node x + dt v overflows
        (SPLIT, dirac([1.7e308]), cfg(LAGRANGIAN, T=1e308, N=2)),
        (ConstantFiberPvf(dirac(1.0)), dirac([1.7e308]), cfg(MEAN_VELOCITY, T=1e308, N=2)),
        (SPLIT, dirac([1.7e308]), cfg(LAS, T=1e308, N=2)),
        # a graph field returns NaN
        (GraphPvf(lambda x: np.array([np.nan])), dirac(0.0), cfg(LAGRANGIAN)),
        # the binned velocities v / dv overflow
        (SPLIT, dirac(0.0), cfg(LAS, N=1, dv=1e-310)),
    ],
)
def test_overflow_in_a_step_is_a_non_finite_atom(spec, mu0, config):
    # derived rows skip the weight checks but not the finiteness of atoms
    # that arithmetic produced
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError) as info:
            run_scheme(spec, mu0, config)
    assert type(info.value) is ValueError
    assert str(info.value) == "atom coordinates must be finite"


def test_path_validation_errors():
    lift = eval_pvf(SPLIT, dirac(0.0))
    two = (dirac(0.0), dirac(0.0))
    for times, nodes, interp, message in [
        ([0.0, 1.0, 1.0], two + (dirac(0.0),), (lift, lift), "node times must increase"),
        ([0.0, 0.5, 0.25], two + (dirac(0.0),), (lift, lift), "node times must increase"),
        ([0.0, 1.0], (dirac(0.0),), (lift,), "one measure per node time required"),
        ([0.0, 1.0], two, (), "one lifted measure per interval required"),
        ([0.0, 1.0], (dirac(0.0), dirac([0.0, 0.0])), (lift,),
         "node measures must share a dimension"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            MeasurePath(times=times, measures=nodes, interp=interp)
    with pytest.raises(ValueError):
        MeasurePath(times=[0.0], measures=(dirac(0.0),), interp=())
    with pytest.raises(ValueError):
        MeasurePath(times=[0.5, 1.0], measures=(dirac(0.0), dirac(0.0)), interp=(lift,))
    with pytest.raises(ValueError):
        MeasurePath(
            times=[0.0, 1.0],
            measures=(dirac(0.0), dirac(0.0)),
            interp=(eval_pvf(SPLIT, dirac(5.0)),),
        )


@pytest.mark.parametrize("lifted", [False, True])
def test_the_adopt_route_freezes_fresh_arrays_and_keeps_them(lifted):
    # given both proofs, the constructor keeps the very arrays it is handed,
    # and freezes those still writeable
    mu = quantile_uniform(0.0, 1.0, 4)
    rows, weights, vel = mu.atoms.copy(), mu.weights.copy(), np.zeros((4, 1))
    out = measures._derive(rows, weights, vel if lifted else None, ordered=True, tested=True,
                           base=mu if lifted else None)
    given = [rows, vel, weights] if lifted else [rows, weights]
    arrays = [getattr(out, name) for name in out._arrays]
    assert len(arrays) == len(given) and all(a is b for a, b in zip(arrays, given))
    assert not any(a.flags.writeable for a in arrays)
    if lifted:
        assert base_of(out) is mu
