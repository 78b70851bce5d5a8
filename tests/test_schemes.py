import gc
import weakref

import numpy as np
import pytest

import oracles
from mdelab import (
    BaseOffGridError,
    ConstantFiberPvf,
    CustomPvf,
    GraphPvf,
    GridSpec,
    LAGRANGIAN,
    LAS,
    MEAN_VELOCITY,
    MeasurePath,
    OutOfRangeError,
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
    run_scheme,
    sublinearity_bound,
    support_bound_check,
    support_radius,
    w1_distance,
)
from mdelab import measures, pvf, schemes
from mdelab.pvf import GRAPH_FIELDS, _median
from mdelab.schemes import snap_space
from mdelab.tolerances import WEIGHT_FLOOR

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
    # a bool is refused as a time or a step, as a Scenario refuses it,
    # though Python would read it as 0 or 1
    for bad, message in [
        (dict(T=True, N=2), "T must be positive and finite"),
        (dict(T=1.0, N=2, dv=True), "dv must be positive and finite"),
        (dict(T=1.0, N=2, dv=False), "dv must be positive and finite"),
    ]:
        with pytest.raises(ValueError) as info:
            GridSpec(**bad)
        assert str(info.value) == message


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
    # and so is a bool for either housekeeping parameter
    for bad, message in [
        (dict(coalesce_tol=True), "coalesce_tol must be >= 0"),
        (dict(coalesce_tol=False), "coalesce_tol must be >= 0"),
        (dict(prune_floor=False), "prune_floor must lie in [0, 1e-06]"),
    ]:
        with pytest.raises(ValueError) as info:
            SchemeConfig(scheme=LAS, grid=GridSpec(T=1.0, N=4), **bad)
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
    # weak reference, so they go with the path
    calls = [0]
    median = pvf._median

    def counted(mu):
        calls[0] += 1
        return median(mu)

    monkeypatch.setattr(pvf, "_median", counted)
    path = run_scheme(SPLIT, quantile_uniform(0.0, 1.0, 256), cfg(LAGRANGIAN, N=256))
    assert calls == [1]
    vel = path.interp[0].velocities
    assert not vel.flags.writeable
    assert all(lift.velocities is vel for lift in path.interp)
    assert all(mu.weights is path.measures[0].weights for mu in path.measures)
    refs = [weakref.ref(path.measures[0].weights), weakref.ref(vel)]
    del path, vel
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


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
    # whose median splits exactly (every step here), is the node the step
    # started from, and is not computed; nor is a mean-velocity lift's.
    # A constant fiber's lift computes its base.
    mu0 = make_measure([[0.0], [0.25], [0.5]], [0.2, 0.3, 0.5])
    calls = counted_kernel(monkeypatch)
    path = run_scheme(spec, mu0, cfg(scheme, N=5))
    per_step = {LAS: 2, LAGRANGIAN: 1, MEAN_VELOCITY: 1}[scheme]
    attached = scheme == MEAN_VELOCITY or spec is not BINOMIAL
    per_step += not attached
    assert len(calls) == per_step * 5 + extra
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
    # for bit; every array of every node and lift is read-only; a lift that
    # eval_pvf built with the node the step started from as its base is the
    # rule's evaluation at that node; that node is its base exactly where
    # the rule's rows prove it.
    built = []
    evaluate = schemes.eval_pvf

    def recorded(spec, mu):
        lift = evaluate(spec, mu)
        built.append((lift, mu))  # kept alive, so that no id is reused
        return lift

    monkeypatch.setattr(schemes, "eval_pvf", recorded)
    for mu0 in seeded_measures():
        built.clear()
        path = run_scheme(spec, mu0, cfg(scheme, N=4))
        for mu in path.measures:
            assert not (mu.atoms.flags.writeable or mu.weights.flags.writeable)
        for lift, node in zip(path.interp, path.measures):
            rows = (lift.positions, lift.velocities, lift.weights)
            assert not any(a.flags.writeable for a in rows)
            assert lift_bits(make_lifted(*rows)) == lift_bits(lift)
            assert base_of(lift) is node
            origin = next((b for a, b in built if a is lift), None)  # the node eval_pvf lifted
            if origin is not None and not isinstance(spec, CustomPvf):
                # the step started from its lift's base exactly where the
                # rows are exact and the lift keeps every one of them
                *_, w, exact = pvf._kind(spec).rows(spec, origin)
                assert (origin is node) == (exact and lift.natoms == len(w))
            if origin is node:
                assert lift_bits(evaluate(spec, node)) == lift_bits(lift)


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
