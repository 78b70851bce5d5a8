import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
import strategies as sts
from mdelab import (
    ConstantFiberPvf,
    CustomPvf,
    DimMismatchError,
    GraphPvf,
    GridSpec,
    LAGRANGIAN,
    LAS,
    MEAN_VELOCITY,
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
from mdelab import analysis, superposition
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
    for radius in (2, np.int64(2), np.float64(2.0)):
        f = TestFunction(center=np.array([0.0]), radius=radius)
        assert type(f.radius) is float and f.radius == 2.0


@pytest.mark.parametrize("radius", [True, False, "2", None, [1.0], np.array([1.0]), 0,
                                    -1.0, float("nan"), float("inf")])
def test_bump_refuses_a_radius_that_is_not_a_positive_number(radius):
    # float() read True as 1.0 and "2" as 2.0
    with pytest.raises(ValueError, match="radius must be a positive finite number"):
        TestFunction(center=np.array([0.0]), radius=radius)


def refuse_blocks(monkeypatch):
    def refuse(*args):
        raise AssertionError("a block was evaluated")

    monkeypatch.setattr(analysis, "_bump", refuse)


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


def assert_residual_matches_loop(path, spec, family=None):
    report = residual(path, spec, family)
    family = default_test_family(path.measures) if family is None else family
    nodes = [(mu.atoms, mu.weights) for mu in path.measures]
    lifts = []
    for mu in path.measures:
        lf = eval_pvf(spec, mu)
        lifts.append((lf.positions, lf.velocities, lf.weights))
    expected = oracles.residual_loop(
        path.times, nodes, lifts, [f.center for f in family], [f.radius for f in family]
    )
    assert np.array_equal(report.defects, expected)


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
    calls = {"_bump": 0, "_bump_gradients": 0}
    for name in calls:
        def counted(*args, kernel=getattr(analysis, name), name=name):
            calls[name] += 1
            return kernel(*args)

        monkeypatch.setattr(analysis, name, counted)
    assert_residual_matches_loop(path, SPLIT)
    # one polynomial per block where it is shared, and a second for the lift rows where not
    assert (calls["_bump"] == calls["_bump_gradients"]) == shared


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


# ---------------------------------------------------------------------------
# scheme comparison
# ---------------------------------------------------------------------------

def test_scheme_compare_graph_pvf_collapses():
    spec = GraphPvf(GRAPH_FIELDS["linear"])
    table = scheme_compare(all_schemes(spec, dirac(0.5), N=8))
    g = GridSpec(T=1.0, N=8)
    for _, _, gap in table.rows():
        assert gap <= g.dx + g.dv * 1.0


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


def test_scheme_compare_on_one_path_under_two_tags_is_the_table_of_two_copies(monkeypatch):
    calls = []
    real = analysis.w1_distance

    def counting(mu, nu):
        calls.append(None)
        return real(mu, nu)

    monkeypatch.setattr(analysis, "w1_distance", counting)
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
