import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
import strategies as sts
from mdelab import (
    ConstantFiberPvf,
    CustomPvf,
    DimMismatchError,
    EmptyInputError,
    GraphPvf,
    GridSpec,
    LAGRANGIAN,
    LAS,
    MEAN_VELOCITY,
    MeasurePath,
    SCHEMES,
    SchemeConfig,
    SplittingParticlePvf,
    TestFunction,
    build_representation,
    convergence_study,
    default_test_family,
    dirac,
    eval_pvf,
    interpolate_at,
    make_lifted,
    make_measure,
    quantile_uniform,
    residual,
    run_scheme,
    scheme_compare,
    w1_distance,
)
from mdelab import analysis, superposition, transport
from mdelab.measures import _derive
from mdelab.pvf import GRAPH_FIELDS

SPLIT = SplittingParticlePvf()
BINOMIAL = ConstantFiberPvf(make_measure([[-1.0], [1.0]], [0.5, 0.5]))


def m1(xs, ws):
    return make_measure([[x] for x in xs], ws)


def cfg(scheme, T=1.0, N=8, **kw):
    return SchemeConfig(scheme=scheme, grid=GridSpec(T=T, N=N), **kw)


def runs(spec, mu0, scheme, Ns, T=1.0):
    return [run_scheme(spec, mu0, cfg(scheme, T=T, N=n)) for n in Ns]


def all_schemes(spec, mu0, N, T=1.0):
    return {tag: run_scheme(spec, mu0, cfg(tag, T=T, N=N)) for tag in SCHEMES}


def _double_speed(mu):
    lift = eval_pvf(SPLIT, mu)
    return make_lifted(lift.positions, 2.0 * lift.velocities, lift.weights)


WRONG_SPEED = CustomPvf(_double_speed, name="doubled-splitting")


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------

def test_bump_value_and_support():
    f = TestFunction(center=np.array([0.0]), radius=2.0)
    assert f.value(np.array([[0.0]]))[0] == 1.0
    assert f.value(np.array([[2.0]]))[0] == 0.0
    assert f.value(np.array([[5.0]]))[0] == 0.0
    assert np.all(f.gradient(np.array([[2.5], [-3.0]])) == 0.0)
    v = f.value(np.array([[1.0]]))[0]
    assert v == pytest.approx((1 - 0.25) ** 3, abs=1e-15)


def test_bump_gradient_matches_finite_differences():
    rng = np.random.default_rng(41)
    for dim in (1, 2):
        center = rng.uniform(-1, 1, size=dim)
        radius = float(rng.uniform(0.5, 3.0))
        f = TestFunction(center=center, radius=radius)
        step = 1e-6 * radius
        for _ in range(30):
            x = center + rng.uniform(-radius, radius, size=dim) * 0.7
            grad = f.gradient(x[None, :])[0]
            for axis in range(dim):
                e = np.zeros(dim)
                e[axis] = step
                fd = (f.value((x + e)[None, :])[0] - f.value((x - e)[None, :])[0]) / (
                    2 * step
                )
                scale = max(1.0, abs(fd))
                assert abs(grad[axis] - fd) <= 1e-6 * scale


def test_bump_lipschitz_bound_is_sharp_supremum():
    f = TestFunction(center=np.array([0.0]), radius=1.7)
    xs = np.linspace(-1.7, 1.7, 20001)[:, None]
    grads = np.abs(f.gradient(xs))[:, 0]
    bound = f.lipschitz_bound()
    assert grads.max() <= bound + 1e-12
    assert grads.max() >= bound * (1.0 - 1e-6)


def test_bump_validation():
    with pytest.raises(ValueError):
        TestFunction(center=np.array([0.0]), radius=0.0)
    for center in ([np.nan], [0.0, np.inf]):
        with pytest.raises(ValueError, match="^center must be finite$"):
            TestFunction(center=center, radius=1)
    for radius in (2, np.int64(2), np.float64(2.0)):
        f = TestFunction(center=np.array([0.0]), radius=radius)
        assert type(f.radius) is float and f.radius == 2.0


@pytest.mark.parametrize("radius", [True, False, np.bool_(True), "2", None, [1.0],
                                    np.array([1.0]), 0, -1.0, float("nan"), float("inf"),
                                    pytest.param(10**400, id="10**400")])
def test_bump_refuses_a_radius_that_is_not_a_positive_number(radius):
    # float() read True as 1.0 and "2" as 2.0
    with pytest.raises(ValueError, match="radius must be a positive finite number"):
        TestFunction(center=np.array([0.0]), radius=radius)


def refuse_blocks(monkeypatch):
    def refuse(*args):
        raise AssertionError("a block was evaluated")

    monkeypatch.setattr(analysis, "_polynomial", refuse)


def test_a_bump_of_another_dimension_is_refused_at_points():
    f = TestFunction([0.0, 1.0], 2.0)
    for evaluate in (f.value, f.gradient):
        with pytest.raises(DimMismatchError, match="test function dim 2 vs point dim 1"):
            evaluate([[0.0]])
    assert f.value([[0.0, 1.0]])[0] == 1.0


def test_a_bump_of_another_dimension_is_refused_by_the_residual(monkeypatch):
    path = run_scheme(BINOMIAL, dirac(0.0), cfg(LAS, N=4))
    refuse_blocks(monkeypatch)
    with pytest.raises(DimMismatchError, match="test function dim 2 vs point dim 1"):
        residual(path, BINOMIAL, [TestFunction([0.0, 1.0], 2.0)])


def test_a_family_of_mixed_dimensions_is_refused_by_the_residual(monkeypatch):
    path = run_scheme(BINOMIAL, dirac(0.0), cfg(LAS, N=4))
    family = [TestFunction([0.0], 2.0), TestFunction([0.0, 1.0], 2.0), TestFunction([1.0], 1.0)]
    refuse_blocks(monkeypatch)
    with pytest.raises(DimMismatchError, match="test function dim 2 vs point dim 1"):
        residual(path, BINOMIAL, family)


def test_default_family_covers_inflated_hull():
    mus = [dirac(-1.0), dirac(3.0)]
    family = default_test_family(mus)
    assert len(family) == 9
    centers = np.array([f.center[0] for f in family])
    assert centers[0] == pytest.approx(1.0 - 1.2 * 2.0, abs=1e-12)
    assert centers[-1] == pytest.approx(1.0 + 1.2 * 2.0, abs=1e-12)
    # every atom is interior to every bump
    for f in family:
        assert f.value(np.array([[-1.0], [3.0]])).min() > 0.0


def test_default_family_degenerate_hull():
    family = default_test_family([dirac(0.5)])
    assert all(f.radius == 1.0 for f in family)


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

def test_residual_stationary_case_is_exact():
    path = run_scheme(BINOMIAL, dirac(0.0), cfg(MEAN_VELOCITY))
    report = residual(path, BINOMIAL)
    assert report.max_defect == 0.0
    assert report.defects.shape == (9, 9)
    assert np.array_equal(report.times, path.times)


def test_residual_initial_node_defect_is_zero():
    path = run_scheme(SPLIT, dirac(0.0), cfg(LAGRANGIAN))
    report = residual(path, SPLIT)
    assert np.all(report.defects[:, 0] == 0.0)


def test_residual_shrinks_with_refinement():
    defects = {}
    for N in (8, 32):
        path = run_scheme(SPLIT, dirac(0.0), cfg(LAGRANGIAN, N=N))
        defects[N] = residual(path, SPLIT).max_defect
    assert defects[32] < defects[8]
    assert defects[8] > 0.0


def test_residual_flags_wrong_speed_path():
    true_path = run_scheme(SPLIT, dirac(0.0), cfg(LAGRANGIAN, N=32))
    wrong_path = run_scheme(WRONG_SPEED, dirac(0.0), cfg(LAGRANGIAN, N=32))
    family = default_test_family(list(true_path.measures) + list(wrong_path.measures))
    good = residual(true_path, SPLIT, family).max_defect
    bad = residual(wrong_path, SPLIT, family).max_defect
    assert bad > 2.0 * good


def test_residual_custom_family():
    path = run_scheme(SPLIT, dirac(0.0), cfg(LAGRANGIAN, N=4))
    f = TestFunction(center=np.array([0.0]), radius=5.0)
    report = residual(path, SPLIT, [f])
    assert report.defects.shape == (1, 5)


def loop_defects(path, spec, family=None) -> np.ndarray:
    """The defects of ``oracles.residual_loop`` on ``path``, with the
    default family where ``family`` is None."""
    family = default_test_family(path.measures) if family is None else family
    nodes = [(mu.atoms, mu.weights) for mu in path.measures]
    lifts = []
    for mu in path.measures:
        lf = eval_pvf(spec, mu)
        lifts.append((lf.positions, lf.velocities, lf.weights))
    return oracles.residual_loop(
        path.times, nodes, lifts, [f.center for f in family], [f.radius for f in family]
    )


def assert_residual_matches_loop(path, spec, family=None):
    report = residual(path, spec, family)
    assert np.array_equal(report.defects, loop_defects(path, spec, family))


RULES = {
    1: [SPLIT, BINOMIAL, GraphPvf(GRAPH_FIELDS["linear"]),
        ConstantFiberPvf(make_measure([[-1.0], [0.5], [2.0]], [0.25, 0.5, 0.25]))],
    2: [ConstantFiberPvf(make_measure([[1.0, 0.0], [-0.5, 0.25]], [0.25, 0.75])),
        GraphPvf(GRAPH_FIELDS["peano"])],
}


@st.composite
def residual_problems(draw):
    """A short run of up to 40 atoms in 1-D or 2-D under each scheme, with
    the default family or a few bumps of mixed radii.  Graph fields and
    splitting lifts whose median moves whole share their node's atoms; a
    constant fiber of m atoms lifts n atoms to n m rows."""
    d = draw(st.integers(1, 2))
    mu0 = draw(sts.measures(dim=d, max_atoms=40))
    spec = draw(st.sampled_from(RULES[d]))
    scheme = draw(st.sampled_from([LAGRANGIAN, LAS, MEAN_VELOCITY]))
    path = run_scheme(spec, mu0, cfg(scheme, N=draw(st.integers(1, 4))))
    family = None
    if draw(st.booleans()):
        bump = st.builds(
            TestFunction,
            center=st.lists(sts.finite, min_size=d, max_size=d).map(np.array),
            radius=st.floats(0.5, 20.0),
        )
        family = draw(st.lists(bump, min_size=1, max_size=4))
    return path, spec, family


@given(residual_problems())
def test_residual_matches_loop_reference(problem):
    assert_residual_matches_loop(*problem)


def test_residual_matches_loop_reference_on_a_long_run():
    # 300 atoms: the per-bump sums run over long, pairwise-summed rows
    path = run_scheme(SPLIT, quantile_uniform(0.0, 1.0, 300), cfg(LAGRANGIAN, N=16))
    assert_residual_matches_loop(path, SPLIT)


@pytest.mark.parametrize("mu0, shared", [
    (quantile_uniform(0.0, 1.0, 256), True),  # every median moves whole: n rows
    (m1([0.0, 1.0, 2.0], [0.25, 0.5, 0.25]), False),  # the first median splits: n + 1 rows
], ids=["torn-block", "split-median"])
def test_residual_shares_the_bump_polynomial_only_on_a_node_s_own_atoms(monkeypatch, mu0, shared):
    path = run_scheme(SPLIT, mu0, cfg(LAGRANGIAN, N=16))
    rows = [lift.natoms for lift in path.interp]
    assert rows == [mu.natoms + (not shared and k == 0) for k, mu in enumerate(path.measures[:-1])]
    blocks, calls = [], []
    chunked, polynomial = analysis._blocks, analysis._polynomial

    def recorded(*args):
        for key, chunks in chunked(*args):
            blocks.append((key, len(chunks)))
            yield key, chunks

    monkeypatch.setattr(analysis, "_blocks", recorded)
    monkeypatch.setattr(analysis, "_polynomial", lambda *args: calls.append(1) or polynomial(*args))
    assert_residual_matches_loop(path, SPLIT)
    lifts = [eval_pvf(SPLIT, mu) for mu in path.measures]
    own = {(mu.natoms, lf.natoms, lf.positions is mu.atoms) for mu, lf in zip(path.measures, lifts)}
    assert {key for key, _ in blocks} == own
    # one polynomial per block where the lift's positions are the node's
    # atoms, and a second for the lift rows where not
    assert len(calls) == sum(count * (1 if key[2] else 2) for key, count in blocks)
    assert all(key[2] for key in own) == shared


ZERO = GraphPvf(GRAPH_FIELDS["zero"])


def _rebuilt(spec, mu):
    """``spec``'s lift of ``mu`` rebuilt by ``make_lifted`` from its columns."""
    lift = eval_pvf(spec, mu)
    return make_lifted(lift.positions, lift.velocities, lift.weights)


M2 = make_measure([[0.0, 0.0], [1.0, 0.5], [0.25, 2.0]], [0.2, 0.3, 0.5])
# (rule, initial measure, scheme, whether some block holds one array at every node)
SHARING = {
    # the whole-array route: every node and lift holds one weights array,
    # and every lift one velocity column
    "torn-block": (SPLIT, quantile_uniform(0.0, 1.0, 64), LAGRANGIAN, True),
    # a fixed point of the zero field: every node and lift holds one weights
    # array, and every node but the last one atoms array
    "fixed-point-1d": (ZERO, m1([0.0, 0.5, 2.0], [0.25, 0.5, 0.25]), MEAN_VELOCITY, True),
    "fixed-point-2d": (ZERO, M2, MEAN_VELOCITY, True),
    # lifts built by a custom rule from fresh columns, and nodes from them
    "fresh-1d": (WRONG_SPEED, quantile_uniform(0.0, 1.0, 16), LAGRANGIAN, False),
    "fresh-2d": (CustomPvf(lambda mu: _rebuilt(GraphPvf(GRAPH_FIELDS["peano"]), mu), name="fresh-peano"),
                 M2, LAGRANGIAN, False),
}


def _mixed_radii(d):
    return [TestFunction(np.full(d, c), r) for c, r in ((-0.5, 0.7), (0.25, 1.5), (1.0, 3.0))]


def copied(path):
    """``path`` with a fresh copy of every node array."""
    nodes = [_derive(mu.atoms.copy(), mu.weights.copy(), ordered=True, tested=True)
             for mu in path.measures]
    return MeasurePath(path.times, nodes, path.interp)


def copying_lifts(monkeypatch, positions):
    """Make the residual's lifts fresh copies of the rule's.  A lift whose
    positions are its node's atoms keeps them where ``positions`` is
    "kept", so that only arrays held across nodes are copied."""
    evaluate = analysis.eval_pvf

    def copy(spec, mu):
        lift = evaluate(spec, mu)
        pos = lift.positions
        if not (positions == "kept" and pos is mu.atoms):
            pos = pos.copy()
        return _derive(pos, lift.weights.copy(), lift.velocities.copy(), ordered=True, tested=True)

    monkeypatch.setattr(analysis, "eval_pvf", copy)


def broadcasts(monkeypatch) -> list:
    """Record, per ``_held`` call on two or more arrays, whether it gave
    one array to broadcast rather than a stack."""
    seen = []
    held = analysis._held

    def recorded(arrays):
        out = held(arrays)
        if len(arrays) > 1:
            seen.append(out.ndim == arrays[0].ndim)
        return out

    monkeypatch.setattr(analysis, "_held", recorded)
    return seen


def assert_broadcast_matches_stacked(monkeypatch, path, spec, family, positions) -> list:
    """``residual(path)`` has the bits of the same path with every node and
    lift array copied, which stacks every array, and of the loop reference.
    Returns what each ``_held`` call on ``path`` gave (see ``broadcasts``)."""
    expected = loop_defects(path, spec, family)
    seen = broadcasts(monkeypatch)
    report = residual(path, spec, family)
    shared = list(seen)
    seen.clear()
    copying_lifts(monkeypatch, positions)
    stacked = residual(copied(path), spec, family)
    assert not any(seen)
    assert report.defects.tobytes() == stacked.defects.tobytes() == expected.tobytes()
    return shared


@pytest.mark.parametrize("positions", ["kept", "copied"])
@pytest.mark.parametrize("mixed", [False, True], ids=["default-family", "mixed-radii"])
@pytest.mark.parametrize("case", SHARING)
def test_residual_broadcast_of_shared_arrays_has_the_bits_of_stacked_copies(
        monkeypatch, case, mixed, positions):
    spec, mu0, scheme, sharing = SHARING[case]
    path = run_scheme(spec, mu0, cfg(scheme, N=16))
    family = _mixed_radii(path.dim) if mixed else None
    shared = assert_broadcast_matches_stacked(monkeypatch, path, spec, family, positions)
    assert any(shared) == sharing


@st.composite
def broadcast_problems(draw):
    """A path of ``residual_problems``, or one whose nodes share arrays: a
    splitting run from a torn block of 2 to 80 atoms, or a run of the zero
    field in 1-D or 2-D, under each scheme; and whether the copies keep a
    lift's positions as its node's atoms."""
    if draw(st.booleans()):
        path, spec, family = draw(residual_problems())
    else:
        scheme = draw(st.sampled_from([LAGRANGIAN, LAS, MEAN_VELOCITY]))
        if draw(st.booleans()):
            spec, mu0 = SPLIT, quantile_uniform(0.0, 1.0, draw(st.integers(2, 80)))
        else:
            spec, mu0 = ZERO, draw(sts.measures(dim=draw(st.integers(1, 2)), max_atoms=12))
        path = run_scheme(spec, mu0, cfg(scheme, N=draw(st.integers(1, 24))))
        family = _mixed_radii(path.dim) if draw(st.booleans()) else None
    return path, spec, family, draw(st.sampled_from(["kept", "copied"]))


@given(broadcast_problems())
def test_residual_broadcast_route_matches_stacked_copies_on_drawn_paths(problem):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_broadcast_matches_stacked(monkeypatch, *problem)


def counted_evaluations(monkeypatch) -> list:
    """Record the measure of every ``eval_pvf`` call the residual makes."""
    calls = []
    evaluate = analysis.eval_pvf

    def counted(spec, mu):
        calls.append(mu)
        return evaluate(spec, mu)

    monkeypatch.setattr(analysis, "eval_pvf", counted)
    return calls


@pytest.mark.parametrize("mu0", [
    quantile_uniform(0.0, 1.0, 256),  # every split exact
    # split 0 is inexact, and splits 1 and 2 leave a sliver under the weight floor
    m1([0.572, 0.318, 0.619, 0.582, 0.104], [0.5, 0.45, 0.74, 0.18, 0.25]),
    m1([0.0, 1.0, 2.0], [0.5 + 3e-16, 0.25, 0.25 - 3e-16]),  # every split inexact
], ids=["torn-block", "mixed", "inexact"])
def test_residual_matches_the_loop_on_lagrangian_splitting_paths(mu0):
    assert_residual_matches_loop(run_scheme(SPLIT, mu0, cfg(LAGRANGIAN, N=16)), SPLIT)


@pytest.mark.parametrize("scheme", [LAS, LAGRANGIAN, MEAN_VELOCITY])
@pytest.mark.parametrize("spec", [
    SPLIT, BINOMIAL, GraphPvf(GRAPH_FIELDS["linear"]), CustomPvf(lambda mu: eval_pvf(SPLIT, mu)),
], ids=["split", "binomial", "graph", "custom"])
def test_residual_evaluates_each_node_once_and_the_bundle_glues_each_interval_once(
        monkeypatch, spec, scheme):
    # the residual evaluates the rule at every node and reads no stored
    # lift; the bundle glues each of the N - 1 later intervals with the
    # public concat_merge
    n = 5
    path = run_scheme(spec, make_measure([[0.0], [0.25], [0.5]], [0.2, 0.3, 0.5]), cfg(scheme, N=n))
    calls = counted_evaluations(monkeypatch)
    assert_residual_matches_loop(path, spec)
    assert len(calls) == len(path.measures) and all(a is b for a, b in zip(calls, path.measures))
    glued = []
    concat_merge = superposition.concat_merge

    def counted(*args):
        glued.append(args)
        return concat_merge(*args)

    monkeypatch.setattr(superposition, "concat_merge", counted)
    build_representation(path)
    assert len(glued) == n - 1


def test_residual_is_the_same_for_an_equal_rule_object():
    path = run_scheme(SPLIT, quantile_uniform(0.0, 1.0, 64), cfg(LAGRANGIAN, N=8))
    other = SplittingParticlePvf()
    assert other == SPLIT and other is not SPLIT
    assert np.array_equal(residual(path, other).defects, residual(path, SPLIT).defects)


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------

def test_convergence_splitting_against_closed_form():
    def closed(t):
        xs, ws = oracles.splitting_dirac_atoms(0.0, t)
        return make_measure([[x] for x in xs], ws)

    table = convergence_study(runs(SPLIT, dirac(0.0), LAS, [4, 8, 16]), LAS, reference=closed)
    assert table.mode == "reference"
    assert table.Ns == (4, 8, 16)
    for N, err in table.rows():
        assert err <= 1.0 / N**2 + 1e-9
    errs = list(table.errors)
    assert errs == sorted(errs, reverse=True) or max(errs) <= 1e-12


def test_convergence_binomial_matches_mad_oracle():
    table = convergence_study(
        runs(BINOMIAL, dirac(0.0), LAS, [4, 16]), LAS, reference=lambda t: dirac(0.0)
    )
    for N, err in table.rows():
        assert err == pytest.approx(oracles.binomial_mad(N), abs=1e-12)
        assert err <= 1.0 / np.sqrt(N)


def test_convergence_mean_velocity_stationary_error_zero():
    table = convergence_study(
        runs(SPLIT, dirac(2.0), MEAN_VELOCITY, [2, 4, 8]),
        MEAN_VELOCITY,
        reference=lambda t: dirac(2.0),
    )
    assert all(err == 0.0 for _, err in table.rows())


def test_convergence_against_reference_path():
    fine = run_scheme(SPLIT, dirac(0.0), cfg(LAS, N=64))
    table = convergence_study(runs(SPLIT, dirac(0.0), LAS, [4, 16]), LAS, reference=fine)
    assert table.errors[1] <= table.errors[0] + 1e-12


def test_convergence_evaluates_its_reference_once_per_time():
    asked = []

    def closed(t):
        asked.append(t)
        xs, ws = oracles.splitting_dirac_atoms(0.0, t)
        return make_measure([[x] for x in xs], ws)

    paths = runs(SPLIT, dirac(0.0), LAGRANGIAN, [4, 8, 16])
    table = convergence_study(paths, LAGRANGIAN, reference=closed)
    times = paths[0].times.tolist()
    assert asked == times
    # the errors are the per-node loop's, bit for bit
    loop = [max(w1_distance(interpolate_at(p, t), closed(t)) for t in times) for p in paths]
    assert table.errors == tuple(loop)


def test_convergence_successive_mode():
    table = convergence_study(runs(BINOMIAL, dirac(0.0), LAS, [2, 4, 8]), LAS)
    assert table.mode == "successive"
    assert table.Ns == (2, 4)
    # recompute the first successive gap by hand
    a = run_scheme(BINOMIAL, dirac(0.0), cfg(LAS, N=2))
    b = run_scheme(BINOMIAL, dirac(0.0), cfg(LAS, N=4))
    manual = max(
        w1_distance(interpolate_at(a, float(t)), interpolate_at(b, float(t)))
        for t in a.times
    )
    assert table.errors[0] == pytest.approx(manual, abs=1e-12)


def test_convergence_validates_refinement_order():
    with pytest.raises(ValueError):
        convergence_study(runs(SPLIT, dirac(0.0), LAS, [8, 4]), LAS)
    with pytest.raises(ValueError):
        convergence_study(runs(SPLIT, dirac(0.0), LAS, [4]), LAS)


def test_empty_inputs_are_empty_input_errors():
    path = run_scheme(SPLIT, dirac(0.0), cfg(LAS, N=2))
    for call, message in [
        (lambda: scheme_compare({}), "need at least one path"),
        (lambda: convergence_study([], LAS), "need at least one path"),
        (lambda: default_test_family([]), "need at least one measure to size the family"),
        (lambda: residual(path, SPLIT, family=[]), "test family is empty"),
    ]:
        with pytest.raises(EmptyInputError, match=f"^{message}$"):
            call()


# ---------------------------------------------------------------------------
# scheme comparison
# ---------------------------------------------------------------------------

def test_scheme_compare_graph_pvf_collapses():
    spec = GraphPvf(GRAPH_FIELDS["linear"])
    table = scheme_compare(all_schemes(spec, dirac(0.5), N=8))
    g = GridSpec(T=1.0, N=8)
    for _, _, gap in table.rows():
        assert gap <= g.dx + g.dv * 1.0


def test_scheme_compare_needs_shared_node_times():
    paths = {LAS: run_scheme(SPLIT, dirac(0.0), cfg(LAS, N=2)),
             LAGRANGIAN: run_scheme(SPLIT, dirac(0.0), cfg(LAGRANGIAN, N=4))}
    with pytest.raises(ValueError, match="^paths must share their node times$"):
        scheme_compare(paths)


def test_scheme_compare_splitting_structure():
    table = scheme_compare(all_schemes(SPLIT, dirac(0.0), N=8))
    assert table.gap(LAS, LAGRANGIAN) <= 1e-12  # dyadic grid, schemes agree
    assert table.gap(LAS, MEAN_VELOCITY) == pytest.approx(1.0, abs=1e-12)
    assert table.gap(LAGRANGIAN, MEAN_VELOCITY) == pytest.approx(1.0, abs=1e-12)
    assert table.gap(MEAN_VELOCITY, LAS) == table.gap(LAS, MEAN_VELOCITY)
    with pytest.raises(KeyError):
        table.gap(LAS, "rk4")


def test_walk_2d_nodes_are_the_multinomial_law():
    # four directions with 1/4 each from the origin: under las and
    # lagrangian the node after k steps is the k-step walk, scaled by dt
    N = 8
    walk = ConstantFiberPvf(make_measure([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                                         [0.25] * 4))
    paths = {s: run_scheme(walk, dirac([0.0, 0.0]), cfg(s, N=N)) for s in SCHEMES}
    for scheme in (LAS, LAGRANGIAN):
        for k, mu in enumerate(paths[scheme].measures):
            law = oracles.multinomial_law(k, 1.0 / N)
            assert mu.atoms.tolist() == [list(x) for x, _ in law]
            assert np.allclose(mu.weights, [w for _, w in law], rtol=0.0, atol=1e-15)
    assert all(mu == dirac([0.0, 0.0]) for mu in paths[MEAN_VELOCITY].measures)
    table = scheme_compare(paths)
    assert table.gap(LAS, LAGRANGIAN) == 0.0
    assert table.gap(LAS, MEAN_VELOCITY) > 0.0


def test_scheme_compare_binomial_gaps_shrink():
    coarse = scheme_compare(all_schemes(BINOMIAL, dirac(0.0), N=4))
    fine = scheme_compare(all_schemes(BINOMIAL, dirac(0.0), N=16))
    for a, b, gap in fine.rows():
        assert gap <= coarse.gap(a, b) + 1e-12


def test_a_splitting_dirac_comparison_integrates_each_shape_once(monkeypatch):
    paths = all_schemes(SPLIT, dirac(0.0), N=64)
    loop = {(a, b): max(map(w1_distance, paths[a].measures, paths[b].measures))
            for a in paths for b in paths}

    def refused(*args, **kwargs):
        raise AssertionError("a sweep called w1_distance")

    shapes, kernel = [], []
    sweep, integral = transport._w1_sweep, transport._cdf_gap_integral

    def grouping(ms, ns):
        shapes.append({(mu.natoms, nu.natoms) for mu, nu in zip(ms, ns) if mu != nu})
        return sweep(ms, ns)

    def counting(a, *args):
        kernel.append(a.shape[0])
        return integral(a, *args)

    monkeypatch.setattr(transport, "w1_distance", refused)
    monkeypatch.setattr(analysis, "_w1_sweep", grouping)
    monkeypatch.setattr(transport, "_cdf_gap_integral", counting)
    table = scheme_compare(paths)
    assert len(shapes) == 3
    assert len(kernel) <= sum(map(len, shapes))  # at most one call per shape and sweep
    assert sum(kernel) > len(kernel)  # nodes of one shape went through together
    assert table.rows() == [(a, b, loop[a, b]) for a, b in table.pairs]


def test_a_ragged_sweep_is_the_per_node_loop():
    # from a 64-atom block the binomial rule gives nodes of growing size,
    # so nearly every shape of a sweep is a group of one
    mu0 = quantile_uniform(0.0, 1.0, 64)
    a, b = (run_scheme(BINOMIAL, mu0, cfg(s, N=64)) for s in (LAGRANGIAN, MEAN_VELOCITY))
    assert len({mu.natoms for mu in a.measures}) > 32
    loop = list(map(w1_distance, a.measures, b.measures))
    swept = transport._w1_sweep(a.measures, b.measures)
    assert swept.tolist() == loop
    assert np.signbit(swept).tolist() == np.signbit(loop).tolist()
    assert scheme_compare({LAGRANGIAN: a, MEAN_VELOCITY: b}).gaps == (max(loop),)


def test_scheme_compare_on_one_path_under_two_tags_is_the_table_of_two_copies(monkeypatch):
    calls = []  # one entry per node pair a sweep computes
    real = analysis._w1_sweep

    def counting(ms, ns):
        calls.extend(zip(ms, ns))
        return real(ms, ns)

    monkeypatch.setattr(analysis, "_w1_sweep", counting)
    path = run_scheme(BINOMIAL, dirac(0.0), cfg(LAS, N=4))
    copy = run_scheme(BINOMIAL, dirac(0.0), cfg(LAS, N=4))
    other = run_scheme(BINOMIAL, dirac(0.0), cfg(MEAN_VELOCITY, N=4))
    assert copy is not path
    shared = scheme_compare({"a": path, "b": path, "c": other, "d": path})
    # one sweep for each ordered pair of distinct objects: (path, other) and
    # (other, path), since W1 is swept in the order of the pair
    assert len(calls) == 2 * 5
    twice = scheme_compare({"a": path, "b": copy, "c": other, "d": path})
    # (path, copy), (path, other), (copy, other), (copy, path), (other, path)
    assert len(calls) == 2 * 5 + 5 * 5
    assert shared == twice
    assert shared.gap("a", "b") == 0.0 and shared.gap("a", "c") > 0.0
