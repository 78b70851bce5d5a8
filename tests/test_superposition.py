import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
import strategies as sts
from mdelab import (
    ConstantFiberPvf,
    DimMismatchError,
    EndpointMismatchError,
    GraphPvf,
    GridSpec,
    LAGRANGIAN,
    LAS,
    MEAN_VELOCITY,
    OutOfRangeError,
    SchemeConfig,
    SplittingParticlePvf,
    SupportBlowupError,
    TrajectoryEnsemble,
    build_representation,
    concat_merge,
    dirac,
    evaluate_pushforward,
    interpolate_at,
    make_lifted,
    make_measure,
    max_speed,
    run_scheme,
    sublinearity_bound,
    support_radius,
    verify_fiber_barycenter,
    w1_distance,
)
from mdelab import superposition, transport
from mdelab.measures import MERGE_TOL, match_rows
from mdelab.pvf import GRAPH_FIELDS

SPLIT = SplittingParticlePvf()
BINOMIAL = ConstantFiberPvf(make_measure([[-1.0], [1.0]], [0.5, 0.5]))
PEANO = GraphPvf(GRAPH_FIELDS["peano"], name="graph:peano")


def cfg(scheme, T=1.0, N=2, dv=None, **kw):
    return SchemeConfig(scheme=scheme, grid=GridSpec(T=T, N=N, dv=dv), **kw)


def m1(xs, ws):
    return make_measure([[x] for x in xs], ws)


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def test_segment_ensemble_single_atom():
    # one interval: the seed bundle is the first lift's segments, unglued
    path = run_scheme(ConstantFiberPvf(dirac(1.0)), dirac(0.0), cfg(LAS, N=1))
    lift = path.interp[0]
    assert np.array_equal(lift.positions, [[0.0]])
    assert np.array_equal(lift.velocities, [[1.0]])
    assert np.array_equal(lift.weights, [1.0])
    ens = build_representation(path)
    assert np.array_equal(ens.times, [0.0, 1.0])
    assert np.array_equal(ens.knots, [[[0.0], [1.0]]])
    assert np.array_equal(ens.weights, [1.0])


def test_segment_ensemble_split_pair():
    ens = build_representation(run_scheme(SPLIT, dirac(0.0), cfg(LAS, T=0.5, N=1)))
    assert np.array_equal(ens.times, [0.0, 0.5])
    assert (ens.ncurves, ens.dim) == (2, 1)
    assert np.array_equal(ens.weights, [0.5, 0.5])
    slopes = (ens.knots[:, 1, 0] - ens.knots[:, 0, 0]) / 0.5
    assert set(slopes) == {-1.0, 1.0}
    assert np.all(ens.knots[:, 0, :] == 0.0)


def test_segment_ensemble_from_las_step():
    lift = run_scheme(BINOMIAL, dirac(0.0), cfg(LAS, N=2)).interp[1]
    # two atoms, two velocities each
    assert lift.natoms == 4
    assert np.allclose(lift.weights, 0.25)


def test_concat_merge_rejects_bad_interval():
    head = TrajectoryEnsemble(times=[0.0, 1.0], weights=[1.0], knots=[[[0.0], [0.0]]])
    tail = make_lifted([[0.0]], [[1.0]], [1.0])
    for t_end in (1.0, 0.5):
        with pytest.raises(ValueError):
            concat_merge(head, tail, t_end, dirac(0.0))


def test_concat_merge_single_chain():
    head = TrajectoryEnsemble(
        times=[0.0, 1.0], weights=[1.0], knots=[[[0.0], [0.0]]]
    )
    tail = make_lifted([[0.0]], [[2.0]], [1.0])
    out = concat_merge(head, tail, 2.0, dirac(0.0))
    assert out.ncurves == 1
    assert np.array_equal(out.times, [0.0, 1.0, 2.0])
    assert np.array_equal(out.knots, [[[0.0], [0.0], [2.0]]])


def test_concat_merge_no_cross_terms_across_fibers():
    head = TrajectoryEnsemble(
        times=[0.0, 1.0],
        weights=[0.5, 0.5],
        knots=[[[0.0], [0.0]], [[0.0], [1.0]]],
    )
    tail = make_lifted([[0.0], [1.0]], [[1.0], [-1.0]], [0.5, 0.5])
    joint = m1([0.0, 1.0], [0.5, 0.5])
    out = concat_merge(head, tail, 2.0, joint)
    assert out.ncurves == 2
    ends = {(k[1][0], k[2][0]) for k in out.knots.tolist()}
    assert ends == {(0.0, 1.0), (1.0, 0.0)}


def test_concat_merge_full_product_within_fiber():
    head = TrajectoryEnsemble(
        times=[0.0, 1.0],
        weights=[0.5, 0.5],
        knots=[[[-1.0], [0.0]], [[1.0], [0.0]]],
    )
    tail = make_lifted([[0.0], [0.0]], [[1.0], [-1.0]], [0.5, 0.5])
    out = concat_merge(head, tail, 2.0, dirac(0.0))
    assert out.ncurves == 4
    assert np.allclose(out.weights, 0.25)


@st.composite
def glue_problems(draw):
    """(head, tail, t_end, joint) meeting at 1 to 4 joint atoms in 1-D or 2-D.

    Each atom gets 1 to 3 incoming curves and 1 to 3 outgoing segments
    with small integer shares of its mass; curves and segments may repeat
    (and merge), and an endpoint may sit a sub-tolerance offset off its
    atom.
    """
    d = draw(st.integers(1, 2))
    coord = st.integers(-8, 8).map(lambda k: k / 4.0)
    point = st.lists(coord, min_size=d, max_size=d)
    atoms = draw(st.lists(point, min_size=1, max_size=4, unique_by=tuple))
    masses = draw(st.lists(st.integers(1, 4), min_size=len(atoms), max_size=len(atoms)))
    masses = np.array(masses, dtype=float) / sum(masses)
    share = st.integers(1, 3)
    offset = st.sampled_from([0.0, 0.0, 0.5 * MERGE_TOL, -0.5 * MERGE_TOL])
    knots, hw, starts, vels, tw = [], [], [], [], []
    for x, m in zip(atoms, masses):
        ins = draw(st.lists(share, min_size=1, max_size=3))
        for k in ins:
            end = [c + draw(offset) for c in x]
            knots.append([draw(point), end])
            hw.append(m * k / sum(ins))
        outs = draw(st.lists(share, min_size=1, max_size=3))
        for k in outs:
            starts.append(x)
            vels.append(draw(point))
            tw.append(m * k / sum(outs))
    head = TrajectoryEnsemble(times=[0.0, 0.5], weights=hw, knots=knots)
    tail = make_lifted(starts, vels, tw)
    return head, tail, 1.25, make_measure(atoms, masses)


@given(glue_problems())
def test_concat_merge_matches_double_loop(problem):
    head, tail, t_end, joint = problem
    h_at = match_rows(head.knots[:, -1, :], joint.atoms)
    t_at = match_rows(tail.positions, joint.atoms)
    knots, weights = oracles.glue_loop(
        head.knots, head.weights, h_at, tail.velocities, tail.weights, t_at,
        joint.weights, t_end - head.times[-1],
    )
    expected = TrajectoryEnsemble(times=[0.0, 0.5, 1.25], weights=weights, knots=knots)
    out = concat_merge(head, tail, t_end, joint)
    assert np.array_equal(out.times, expected.times)
    assert np.array_equal(out.knots, expected.knots)
    assert np.array_equal(out.weights, expected.weights)


def test_concat_merge_endpoint_mismatch():
    head = TrajectoryEnsemble(
        times=[0.0, 1.0], weights=[1.0], knots=[[[0.0], [0.0]]]
    )
    tail = make_lifted([[0.0]], [[1.0]], [1.0])
    with pytest.raises(EndpointMismatchError):
        concat_merge(head, tail, 2.0, dirac(5.0))
    # a 2-D joint atom is no joint for a 1-D bundle, though broadcasting
    # matched the 1-D ends against it
    with pytest.raises(DimMismatchError, match="^dim 1 vs 2$"):
        concat_merge(head, tail, 2.0, dirac([0.0, 0.0]))
    # a joint atom of weight 1e-10 that no curve reaches: the masses agree
    # within AGREE_TOL, but the atom has no incoming mass
    stray = m1([0.0, 5.0], [1.0 - 1e-10, 1e-10])
    with pytest.raises(EndpointMismatchError, match="^a joint atom has no incoming or outgoing"):
        concat_merge(head, tail, 2.0, stray)


def test_concat_merge_names_the_dimension_that_differs():
    # the curve ends and segment starts are matched as one stack, so the
    # head's and the tail's dimension are each checked before the stacking,
    # with match_rows's message; test_concat_merge_endpoint_mismatch checks
    # a joint of another dimension
    head = TrajectoryEnsemble(times=[0.0, 1.0], weights=[1.0], knots=[[[0.0], [0.0]]])
    head_2d = TrajectoryEnsemble(times=[0.0, 1.0], weights=[1.0], knots=[[[0.0, 0.0], [0.0, 0.0]]])
    tail = make_lifted([[0.0]], [[1.0]], [1.0])
    tail_2d = make_lifted([[0.0, 0.0]], [[1.0, 1.0]], [1.0])
    for h, t, joint, message in [(head_2d, tail, dirac(0.0), "dim 2 vs 1"),
                                 (head, tail_2d, dirac(0.0), "dim 2 vs 1"),
                                 (head_2d, tail_2d, dirac(0.0), "dim 2 vs 1"),
                                 (head, tail_2d, dirac([0.0, 0.0]), "dim 1 vs 2")]:
        with pytest.raises(DimMismatchError, match=f"^{message}$"):
            concat_merge(h, t, 2.0, joint)


def test_concat_merge_checks_masses_per_joint_atom():
    head = TrajectoryEnsemble(
        times=[0.0, 1.0], weights=[0.5, 0.5], knots=[[[0.0], [0.0]], [[1.0], [1.0]]]
    )
    tail = make_lifted([[0.0], [1.0]], [[1.0], [1.0]], [0.5, 0.5])
    # joint weights 1e-9 off on each atom: the head endpoint masses differ
    # from them by 2e-9 in total
    off = m1([0.0, 1.0], [0.5 + 1e-9, 0.5 - 1e-9])
    assert np.abs(off.weights - head.weights).sum() == pytest.approx(2e-9, rel=1e-6)
    with pytest.raises(EndpointMismatchError, match="head endpoint"):
        concat_merge(head, tail, 2.0, off)
    skewed = make_lifted([[0.0], [1.0]], [[1.0], [1.0]], [0.5 + 1e-9, 0.5 - 1e-9])
    with pytest.raises(EndpointMismatchError, match="tail start"):
        concat_merge(head, skewed, 2.0, m1([0.0, 1.0], [0.5, 0.5]))
    # a total gap within 1e-9 glues
    near = m1([0.0, 1.0], [0.5 + 2e-10, 0.5 - 2e-10])
    assert concat_merge(head, tail, 2.0, near).ncurves == 2


def test_trajectory_ensemble_validation():
    with pytest.raises(ValueError):
        TrajectoryEnsemble(times=[0.0], weights=[1.0], knots=[[[0.0]]])
    with pytest.raises(ValueError):
        TrajectoryEnsemble(times=[0.0, 0.0], weights=[1.0], knots=[[[0.0], [0.0]]])
    with pytest.raises(ValueError):
        TrajectoryEnsemble(times=[0.0, 1.0], weights=[1.0], knots=[[0.0, 1.0]])


@pytest.mark.parametrize("times", [[np.nan, 1.0], [0.0, np.nan], [0.0, np.inf]])
def test_trajectory_ensemble_rejects_non_finite_times(times):
    with pytest.raises(ValueError) as info:
        TrajectoryEnsemble(times=times, weights=[1.0], knots=[[[0.0], [1.0]]])
    assert str(info.value) == "knot times must be finite"


def test_an_ensemble_keeps_its_own_times():
    # the ensemble copies the caller's times, so a later write to that
    # array cannot break its strictly increasing knot times
    t = np.array([0.0, 1.0])
    ens = TrajectoryEnsemble(times=t, weights=[1.0], knots=np.zeros((1, 2, 1)))
    t[1] = 5.0
    assert ens.times.tolist() == [0.0, 1.0]
    assert not ens.times.flags.writeable and t.flags.writeable


def test_identical_curves_merge():
    ens = TrajectoryEnsemble(
        times=[0.0, 1.0],
        weights=[0.5, 0.5],
        knots=[[[0.0], [1.0]], [[0.0], [1.0]]],
    )
    assert ens.ncurves == 1
    assert ens.weights[0] == 1.0


# ---------------------------------------------------------------------------
# representations of full runs
# ---------------------------------------------------------------------------

def test_stationary_run_gives_single_constant_curve():
    path = run_scheme(SPLIT, dirac(1.5), cfg(MEAN_VELOCITY, N=4))
    ens = build_representation(path)
    assert ens.ncurves == 1
    assert np.allclose(ens.knots, 1.5)
    assert ens.weights[0] == pytest.approx(1.0, abs=1e-12)


def test_las_splitting_two_rays():
    path = run_scheme(SPLIT, dirac(0.0), cfg(LAS, N=2))
    ens = build_representation(path)
    assert ens.ncurves == 2
    assert sorted(ens.knots[:, -1, 0]) == [-1.0, 1.0]
    assert np.allclose(ens.weights, 0.5)


def test_las_binomial_four_sign_paths():
    path = run_scheme(BINOMIAL, dirac(0.0), cfg(LAS, N=2))
    ens = build_representation(path)
    assert ens.ncurves == 4
    assert np.allclose(ens.weights, 0.25)
    t1 = evaluate_pushforward(ens, 1.0)
    assert t1 == m1([-1.0, 0.0, 1.0], [0.25, 0.5, 0.25])


def test_binomial_curve_count_is_product_structure():
    path = run_scheme(BINOMIAL, dirac(0.0), cfg(LAS, N=3))
    assert build_representation(path).ncurves == 2**3


def test_build_representation_curve_cap(monkeypatch):
    def never(*args):
        raise AssertionError("gluing ran before the curve cap")

    monkeypatch.setattr(superposition, "concat_merge", never)
    path = run_scheme(BINOMIAL, dirac(0.0), cfg(LAS, N=4))
    # 2**4 curves: the cap fires on the exact count, one below it too
    for cap in (7, 15):
        with pytest.raises(SupportBlowupError):
            build_representation(path, max_curves=cap)
    # a cap that no count exceeds (NaN), a bool and a non-integer are refused
    for cap in (0, float("nan"), True, 15.5, 16.0):
        with pytest.raises(ValueError) as info:
            build_representation(path, max_curves=cap)
        assert str(info.value) == "max_curves must be a positive integer"


@given(
    st.sampled_from([LAS, LAGRANGIAN]),
    st.sampled_from([SPLIT, BINOMIAL, GraphPvf(GRAPH_FIELDS["linear"])]),
    sts.measures(coords=sts.dyadic, max_atoms=3),
    st.integers(1, 4),
)
def test_glued_pair_count_is_the_curve_count(scheme, spec, mu0, n):
    path = run_scheme(spec, mu0, cfg(scheme, N=n))
    assert superposition._glued_pairs(path) == build_representation(path).ncurves


def glued_by_concat_merge(path):
    """The bundle of a path glued interval by interval with the public
    ``concat_merge``."""
    times, first = path.times, path.interp[0]
    ends = first.positions + (times[1] - times[0]) * first.velocities
    ens = TrajectoryEnsemble(times=times[:2], weights=first.weights,
                             knots=np.stack([first.positions, ends], axis=1))
    for k in range(1, len(path.interp)):
        ens = concat_merge(ens, path.interp[k], times[k + 1], path.measures[k])
    return ens


@pytest.mark.parametrize("scheme, spec", [(LAS, BINOMIAL), (LAGRANGIAN, SPLIT), (LAS, SPLIT),
                                          (LAGRANGIAN, PEANO)],
                         ids=["las-binomial", "lagrangian-split", "las-split", "peano"])
def test_a_glued_interval_is_matched_twice(monkeypatch, scheme, spec):
    # the cap count and concat_merge each match an interval's curve ends
    # and segment starts in one call over the stacked rows: 2 matches per
    # glued interval, and the bundle is concat_merge's bit for bit
    n = 5
    path = run_scheme(spec, m1([0.0, 0.25, 0.5], [0.2, 0.3, 0.5]), cfg(scheme, N=n))
    calls = []

    def counted(*args):
        calls.append(args)
        return match_rows(*args)

    monkeypatch.setattr(superposition, "match_rows", counted)
    ens = build_representation(path)
    assert len(calls) == 2 * (n - 1)
    monkeypatch.undo()
    ref = glued_by_concat_merge(path)
    for a, b in [(ens.times, ref.times), (ens.weights, ref.weights), (ens.knots, ref.knots)]:
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_binomial_bundle_runs_no_transport(monkeypatch):
    def no_w1(*args, **kwargs):
        raise AssertionError("w1_distance ran while gluing")

    # gluing binds nothing from transport, and calls no W1 through it either
    assert not any(
        getattr(v, "__module__", None) == transport.__name__ for v in vars(superposition).values()
    )
    monkeypatch.setattr(transport, "w1_distance", no_w1)
    path = run_scheme(BINOMIAL, dirac(0.0), cfg(LAS, N=10))
    ens = build_representation(path)
    assert ens.ncurves == 2**10
    assert evaluate_pushforward(ens, 1.0).allclose(path.measures[-1], tol=1e-12)


def test_evaluate_pushforward_examples():
    path = run_scheme(SPLIT, dirac(0.0), cfg(LAS, N=2))
    ens = build_representation(path)
    assert evaluate_pushforward(ens, 0.0) == path.measures[0]
    assert evaluate_pushforward(ens, 0.5) == m1([-0.5, 0.5], [0.5, 0.5])
    with pytest.raises(OutOfRangeError):
        evaluate_pushforward(ens, 1.2)


def test_representation_matches_interpolation_everywhere():
    runs = [
        run_scheme(BINOMIAL, dirac(0.0), cfg(LAS, N=4)),
        run_scheme(SPLIT, dirac(0.0), cfg(LAGRANGIAN, N=4)),
        run_scheme(BINOMIAL, dirac(0.0), cfg(MEAN_VELOCITY, N=4)),
        run_scheme(PEANO, dirac(-1.0), cfg(LAS, T=3.0, N=3, dv=1.0)),
    ]
    for path in runs:
        ens = build_representation(path)
        assert abs(ens.weights.sum() - 1.0) <= 1e-9
        ts = list(path.times) + [
            0.5 * (a + b) for a, b in zip(path.times[:-1], path.times[1:])
        ]
        for t in ts:
            gap = w1_distance(evaluate_pushforward(ens, float(t)), interpolate_at(path, float(t)))
            assert gap <= 1e-9


def test_max_speed_respects_sublinear_growth():
    path = run_scheme(SPLIT, dirac(0.0), cfg(LAGRANGIAN, N=4))
    ens = build_representation(path)
    C = sublinearity_bound(SPLIT, path.measures)
    K = max(support_radius(mu) for mu in path.measures)
    assert max_speed(ens) <= C * (1.0 + K) + 1e-12

    lattice = run_scheme(PEANO, dirac(-1.0), cfg(LAS, T=3.0, N=3, dv=1.0))
    lens = build_representation(lattice)
    CL = sublinearity_bound(PEANO, lattice.measures)
    KL = max(support_radius(mu) for mu in lattice.measures)
    # velocity snapping can overshoot by at most one bin
    assert max_speed(lens) <= CL * (1.0 + KL) + 1.0 + 1e-12


def test_max_speed_is_the_support_radius_of_the_slopes():
    # the one norm route, scaled by a power of two: a slope whose squares
    # overflow still has its norm
    knots = np.array([[[0.0, 0.0], [3e200, 4e200]], [[0.0, 0.0], [1.0, 1.0]]])
    ens = TrajectoryEnsemble(np.array([0.0, 1.0]), np.array([0.5, 0.5]), knots)
    assert max_speed(ens) == support_radius(make_measure([[3e200, 4e200]], [1.0]))
    assert max_speed(ens) == pytest.approx(5e200, rel=1e-15)


# ---------------------------------------------------------------------------
# fiber-barycenter verification
# ---------------------------------------------------------------------------

def test_fiber_barycenter_lagrangian_splitting_at_zero():
    path = run_scheme(SPLIT, dirac(0.0), cfg(LAGRANGIAN, N=4))
    report = verify_fiber_barycenter(build_representation(path), SPLIT, 0.0)
    assert report.max_defect <= 1e-12


def test_fiber_barycenter_graph_pvf_all_knots():
    spec = GraphPvf(GRAPH_FIELDS["linear"])
    path = run_scheme(spec, m1([0.5, -1.0], [0.5, 0.5]), cfg(LAGRANGIAN, N=4))
    ens = build_representation(path)
    for t in path.times[:-1]:
        assert verify_fiber_barycenter(ens, spec, float(t)).max_defect <= 1e-12


def test_fiber_barycenter_las_peano_snapping_gap():
    path = run_scheme(PEANO, dirac(-1.0), cfg(LAS, T=3.0, N=3, dv=1.0))
    ens = build_representation(path)
    report = verify_fiber_barycenter(ens, PEANO, 2.0)
    assert report.max_defect == pytest.approx(2.0 * np.sqrt(3.0) - 3.0, abs=1e-12)
    assert report.max_defect <= 1.0  # one velocity bin


def test_fiber_barycenter_requires_interior_knot():
    path = run_scheme(SPLIT, dirac(0.0), cfg(LAS, N=2))
    ens = build_representation(path)
    with pytest.raises(OutOfRangeError):
        verify_fiber_barycenter(ens, SPLIT, 1.0)  # final knot
    with pytest.raises(OutOfRangeError):
        verify_fiber_barycenter(ens, SPLIT, 0.25)  # not a knot


def test_reprs_name_sizes_not_arrays():
    path = run_scheme(SPLIT, dirac(0.0), SchemeConfig(scheme=LAS, grid=GridSpec(T=1.0, N=2)))
    assert repr(path) == "MeasurePath(nodes=3, dim=1, T=1)"
    assert repr(path.measures[2]) == "DiscreteMeasure(natoms=2, dim=1)"
    assert repr(path.interp[0]) == "LiftedMeasure(natoms=2, dim=1)"
    assert repr(build_representation(path)) == "TrajectoryEnsemble(ncurves=2, nknots=3, dim=1)"
