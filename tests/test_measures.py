import math
import warnings
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
import strategies as sts
from mdelab import (
    ConstantFiberPvf,
    DimMismatchError,
    DiscreteMeasure,
    EmptyInputError,
    GRAPH_FIELDS,
    GraphPvf,
    LiftedMeasure,
    MERGE_TOL,
    NegativeWeightError,
    SplittingParticlePvf,
    base_of,
    coalesce,
    dirac,
    eval_pvf,
    make_lifted,
    make_measure,
    quantile_uniform,
    support_radius,
)
from mdelab import measures
from mdelab.measures import Disintegration, disintegrate, fiber_means, match_rows
from mdelab.pvf import _kind


def test_make_measure_normalizes_single_atom():
    mu = make_measure([[0.0]], [2.0])
    assert mu.natoms == 1
    assert mu.atoms[0, 0] == 0.0
    assert mu.weights[0] == 1.0


def test_make_measure_coalesces_duplicates():
    mu = make_measure([[0.0], [0.0]], [1.0, 1.0])
    assert mu.natoms == 1
    assert mu.weights[0] == 1.0


def test_make_measure_hand_normalization():
    mu = make_measure([[-1.0], [1.0]], [1.0, 3.0])
    assert np.array_equal(mu.atoms, [[-1.0], [1.0]])
    assert np.array_equal(mu.weights, [0.25, 0.75])


def test_make_measure_sorts_atoms_lexicographically():
    mu = make_measure([[2.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [1, 1, 1])
    assert np.array_equal(mu.atoms, [[0.0, -1.0], [0.0, 1.0], [2.0, 0.0]])


def test_make_measure_merge_uses_first_atom_as_representative():
    mu = make_measure([[0.0], [5e-13], [1.0]], [0.25, 0.25, 0.5])
    assert mu.natoms == 2
    assert mu.atoms[0, 0] == 0.0
    assert np.array_equal(mu.weights, [0.5, 0.5])


def test_make_measure_drops_tiny_weights_and_renormalizes():
    mu = make_measure([[0.0], [1.0]], [1.0, 1e-18])
    assert mu.natoms == 1
    assert mu.weights[0] == 1.0


def test_make_measure_errors():
    with pytest.raises(EmptyInputError):
        make_measure([], [])
    with pytest.raises(NegativeWeightError):
        make_measure([[0.0], [1.0]], [1.0, -0.5])
    with pytest.raises(ValueError):
        make_measure([[0.0]], [1.0, 2.0])
    with pytest.raises(ValueError):
        make_measure([[np.nan]], [1.0])
    with pytest.raises(ValueError):
        make_measure([[0.0]], [np.inf])
    # zero total mass cannot be normalized
    with pytest.raises(ValueError):
        make_measure([[0.0]], [0.0])


def test_measure_arrays_are_immutable():
    mu = make_measure([[0.0], [1.0]], [1.0, 1.0])
    with pytest.raises(ValueError):
        mu.atoms[0, 0] = 7.0
    with pytest.raises(ValueError):
        mu.weights[0] = 7.0


def test_negative_zero_is_normalized():
    mu = make_measure([[-0.0]], [1.0])
    assert np.signbit(mu.atoms).sum() == 0


def test_dirac_scalar_and_vector():
    assert dirac(3.0).atoms[0, 0] == 3.0
    d2 = dirac([1.0, -2.0])
    assert d2.dim == 2
    assert np.array_equal(d2.atoms, [[1.0, -2.0]])


def test_quantile_uniform_layout():
    mu = quantile_uniform(-1.0, 1.0, 4)
    assert np.allclose(mu.atoms[:, 0], [-0.75, -0.25, 0.25, 0.75])
    assert np.allclose(mu.weights, 0.25)
    assert quantile_uniform(-1.0, 1.0, np.int64(4)) == mu
    for a, b in [(1.0, 0.0), (1.0, 1.0)]:
        with pytest.raises(ValueError, match=r"^need b > a$"):
            quantile_uniform(a, b, 4)


@pytest.mark.parametrize("natoms", [True, False, 2.0, 2.5, float("nan"), float("inf"), "3", None, 0, -1])
def test_quantile_uniform_refuses_a_natoms_that_is_not_a_count(natoms):
    # a bool, a float or a string reached numpy before, as a TypeError or
    # as "arange: cannot compute length"
    with pytest.raises(ValueError, match="natoms must be an integer >= 1") as info:
        quantile_uniform(0.0, 1.0, natoms)
    assert type(info.value) is ValueError


def test_coalesce_examples():
    tight = make_measure([[0.0], [1.0]], [0.5, 0.5])
    merged = coalesce(make_measure([[0.0], [1e-15]], [0.5, 0.5]), 1e-12)
    assert merged == dirac(0.0)
    assert coalesce(tight, 0.5) == tight
    tri = make_measure([[0.0], [0.4], [0.8]], [1.0, 1.0, 1.0])
    out = coalesce(tri, 0.5)
    assert np.array_equal(out.atoms, [[0.0], [0.8]])
    assert np.allclose(out.weights, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)


def test_coalesce_rejects_negative_tolerance():
    with pytest.raises(ValueError):
        coalesce(dirac(0.0), -1.0)
    with pytest.raises(ValueError):  # a NaN tolerance would merge nothing
        coalesce(make_measure([[0.0], [1e-3], [1.0]], np.ones(3)), float("nan"))


@given(sts.measures(max_atoms=8))
def test_coalesce_idempotent_and_mass_preserving(mu):
    once = coalesce(mu, 0.3)
    twice = coalesce(once, 0.3)
    assert once == twice
    assert abs(once.weights.sum() - 1.0) <= 1e-9


def test_disintegrate_examples():
    d1 = disintegrate(make_lifted([[0.0]], [[1.0]], [1.0]))
    assert d1.base == dirac(0.0)
    assert d1.fibers[0] == dirac(1.0)

    d2 = disintegrate(make_lifted([[0.0], [0.0]], [[1.0], [-1.0]], [0.5, 0.5]))
    assert d2.base == dirac(0.0)
    assert d2.fibers[0] == make_measure([[-1.0], [1.0]], [0.5, 0.5])

    d3 = disintegrate(make_lifted([[0.0], [1.0]], [[1.0], [2.0]], [0.5, 0.5]))
    assert d3.base == make_measure([[0.0], [1.0]], [0.5, 0.5])
    assert d3.fibers[0] == dirac(1.0)
    assert d3.fibers[1] == dirac(2.0)


def test_disintegration_invalid_fiber_count():
    with pytest.raises(ValueError):
        Disintegration(dirac(0.0), (dirac(1.0), dirac(2.0)))


def test_match_rows_candidate_window_follows_the_scan():
    # 1e-12 - MERGE_TOL rounds to 0, above the first position: canonical form
    # keeps two base atoms although the positions are within MERGE_TOL, and
    # matching the positions against them must reproduce that grouping
    lifted = make_lifted([[-1.46739089e-202], [1e-12]], [[0.0], [0.0]], [0.5, 0.5])
    assert base_of(lifted).natoms == 2
    assert match_rows(lifted.positions, base_of(lifted).atoms).tolist() == [0, 1]
    # no representatives: no row matches
    assert match_rows(lifted.positions, np.empty((0, 1))).tolist() == [-1, -1]


def test_match_rows_refuses_rows_of_another_dimension():
    # broadcasting matched a 1-D row against a 2-D representative, or
    # raised numpy's own error for shapes that do not broadcast
    for rows, reps, message in [([[0.0]], [[0.0, 0.0]], "dim 1 vs 2"),
                                (np.zeros((3, 2)), np.zeros((2, 3)), "dim 2 vs 3"),
                                ([[0.0, 0.0]], np.empty((0, 1)), "dim 2 vs 1")]:
        with pytest.raises(DimMismatchError, match=f"^{message}$"):
            match_rows(rows, reps)


def test_support_radius_examples():
    assert support_radius(dirac(0.0)) == 0.0
    assert support_radius(make_measure([[-2.0], [1.0]], [0.5, 0.5])) == 2.0
    five = make_measure([[x] for x in np.linspace(-1, 1, 5)], [1.0] * 5)
    assert support_radius(five) == 1.0


def test_support_radius_euclidean_in_2d():
    mu = make_measure([[3.0, 4.0], [0.0, 0.0]], [0.5, 0.5])
    assert support_radius(mu) == 5.0


@pytest.mark.parametrize("mode", ["plain", "all"])
def test_support_radius_of_atoms_whose_squares_overflow(mode):
    # the square of 1e200 overflowed: the radius read inf, with a warning
    with np.errstate(all="raise") if mode == "all" else np.errstate():
        assert support_radius(dirac([1e200])) == 1e200
        assert support_radius(dirac([-1.7e308])) == 1.7e308
        assert support_radius(dirac([3e200, -4e200])) == math.hypot(3e200, 4e200)
        assert support_radius(make_measure([[1e-300, 0.0], [0.0, 1e200]], [0.5, 0.5])) == 1e200
        # a radius past the float range
        assert support_radius(dirac([1.5e308, 1.5e308])) == math.inf


@given(sts.measures(max_atoms=6, dim=2))
def test_support_radius_keeps_the_bits_of_every_finite_norm(mu):
    # the plain norm read 0 where the largest square underflows, which the
    # radius mends, so it is the reference only where that square is normal
    m = float(np.abs(mu.atoms).max())
    assume(m == 0.0 or m * m >= np.finfo(float).tiny)
    assert support_radius(mu) == float(np.max(np.linalg.norm(mu.atoms, axis=1)))


def test_the_radius_keeps_the_bits_of_the_plain_norm_where_the_squares_are_normal():
    # scaling by a power of two is exact: on seeded rows at magnitudes from
    # 1e-150 to 1e150, whose squares are all normal, the bits are the plain norm's
    rng = np.random.default_rng(7)
    for _ in range(2000):
        n, d = rng.integers(1, 9), rng.integers(1, 4)
        rows = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-150, 150, size=(n, 1))
        sq = rows ** 2
        assert sq.min() >= np.finfo(float).tiny and np.isfinite(sq).all()
        assert measures._radius(rows) == float(np.max(np.linalg.norm(rows, axis=1)))


@pytest.mark.parametrize("mode", ["plain", "all"])
def test_support_radius_of_atoms_whose_squares_underflow(mode):
    # the plain norm squared 1e-200 to 0 and read a radius of 0.0
    with np.errstate(all="raise") if mode == "all" else np.errstate():
        assert support_radius(dirac([1e-200])) == 1e-200
        assert support_radius(dirac([3e-170, 4e-170])) == 5e-170
        assert support_radius(dirac([5e-324])) == 5e-324


def test_integrate_weighted_sum():
    mu = make_measure([[-1.0], [1.0]], [0.25, 0.75])
    mean = mu.integrate(lambda pts: pts[:, 0])
    assert mean == pytest.approx(0.5, abs=1e-15)
    # a value per atom, or a ValueError: a single value would broadcast
    for wrong in (lambda pts: pts[:1, 0], lambda pts: np.ones(3)):
        with pytest.raises(ValueError, match="values for 2 atoms"):
            mu.integrate(wrong)


@given(sts.measures(max_atoms=8, dim=2))
def test_canonical_form_properties(mu):
    # weights: positive, above the drop floor, summing to one
    assert np.all(mu.weights > 0)
    assert abs(mu.weights.sum() - 1.0) <= 1e-9
    # atoms sorted lexicographically and pairwise separated
    order = np.lexsort(mu.atoms.T[::-1])
    assert np.array_equal(order, np.arange(mu.natoms))
    for i in range(mu.natoms):
        for j in range(i + 1, mu.natoms):
            assert np.max(np.abs(mu.atoms[i] - mu.atoms[j])) > MERGE_TOL


@given(sts.lifted_measures(max_atoms=6))
def test_lifted_base_is_valid_measure(lifted):
    base = base_of(lifted)
    assert abs(base.weights.sum() - 1.0) <= 1e-9
    assert base.dim == lifted.dim


def test_measure_equality_is_exact_and_allclose_tolerant():
    a = make_measure([[0.0], [1.0]], [0.5, 0.5])
    b = make_measure([[0.0], [1.0 + 1e-11]], [0.5, 0.5])
    assert a != b
    assert a.allclose(b, tol=1e-9)
    assert not a.allclose(b, tol=1e-13)
    # the same bytes in another shape, and the same measure from other rows
    plane = dirac([0.0, 1.0])
    assert a.atoms.tobytes() == plane.atoms.tobytes() and a != plane and plane != a
    assert a == make_measure([[1.0], [0.0], [0.0]], [0.5, 0.25, 0.25])
    lift, flat = (make_lifted([[0.0], [1.0]], [[1.0], [0.0]], [0.5, 0.5]),
                  make_lifted([[0.0, 1.0]], [[1.0, 0.0]], [1.0]))
    assert lift.positions.tobytes() == flat.positions.tobytes() and lift != flat != lift
    assert lift == make_lifted([[1.0], [0.0]], [[0.0], [1.0]], [0.5, 0.5])
    # a value of another type is never equal
    for value in (a, make_lifted([[0.0]], [[1.0]], [1.0])):
        assert not (value == 0) and value != 0


def test_lifted_allclose_is_tolerant_within_tol_only():
    a = make_lifted([[0.0], [1.0]], [[-1.0], [1.0]], [0.5, 0.5])
    for b in (
        make_lifted([[0.0], [1.0 + 1e-11]], [[-1.0], [1.0]], [0.5, 0.5]),
        make_lifted([[0.0], [1.0]], [[-1.0], [1.0 - 1e-11]], [0.5, 0.5]),
        make_lifted([[0.0], [1.0]], [[-1.0], [1.0]], [0.5 + 1e-11, 0.5 - 1e-11]),
    ):
        assert a != b
        assert a.allclose(b, tol=1e-9) and b.allclose(a, tol=1e-9)
        assert not a.allclose(b, tol=1e-13)
    assert a.allclose(a, tol=0.0)
    # another atom count or dimension is never close
    assert not a.allclose(make_lifted([[0.0]], [[-1.0]], [1.0]), tol=10.0)
    plane = make_lifted([[0.0, 0.0], [1.0, 0.0]], [[-1.0, 0.0], [1.0, 0.0]], [0.5, 0.5])
    assert not a.allclose(plane, tol=10.0) and not plane.allclose(a, tol=10.0)


# ---------------------------------------------------------------------------
# the grouping kernel against the greedy reference scan
# ---------------------------------------------------------------------------

def assert_same_groups(pts, tol):
    gid, reps = measures._group_rows(pts, tol)
    ref_gid, ref_reps = oracles.greedy_groups(pts, tol)
    assert np.array_equal(gid, ref_gid)
    assert list(reps) == ref_reps
    return reps


@pytest.mark.parametrize(
    "rows, ngroups",
    [
        ([[0.0], [MERGE_TOL]], 1),
        ([[0.0], [np.nextafter(MERGE_TOL, np.inf)]], 2),
        ([[0.0], [MERGE_TOL], [2 * MERGE_TOL]], 2),  # chain: the middle row joins the first
        ([[0.0, 0.0], [0.0, np.nextafter(MERGE_TOL, 0.0)], [0.0, 1.0]], 2),
        ([[0.0], [0.0], [1.0], [1.0]], 2),
        # the last row is within tol of both representatives and joins the first
        ([[0.0, 0.0], [0.0, 2 * MERGE_TOL], [MERGE_TOL, MERGE_TOL]], 2),
    ],
)
def test_group_rows_examples(rows, ngroups):
    assert len(assert_same_groups(np.array(rows, dtype=float), MERGE_TOL)) == ngroups


def ulp_rows(tol):
    """Rows one ulp either side of ``tol`` apart, and a chain a, a + 0.9 tol,
    a + 1.8 tol whose ends are more than tol apart."""
    below, above = np.nextafter(tol, 0.0), np.nextafter(tol, np.inf)
    a = 0.5
    return [
        np.array([[0.0], [below], [1.0], [1.0 + above]]),
        np.array([[0.0, 0.0], [0.0, tol], [above, 1.0], [above, 1.0 + below]]),
        np.array([[a], [a + 0.9 * tol], [a + 1.8 * tol]]),
        # the middle row is farther than tol from both others
        np.array([[0.0, 0.0], [0.9 * tol, 5.0], [1.8 * tol, 0.0]]),
    ]


def with_examples(tol):
    def decorate(test):
        for pts in ulp_rows(tol):
            test = example(pts)(test)
        return test
    return decorate


# a near-tie in column 1 between rows that differ first in column 0
SEPARATED_HEADS = np.array([[0.0, 0.0], [0.0, 5.0], [1.0, 5.0 + 1e-13]])


@given(sts.near_tie_rows(tol=MERGE_TOL))
@with_examples(MERGE_TOL)
@example(SEPARATED_HEADS)
def test_group_rows_matches_greedy_scan(pts):
    assert_same_groups(pts, MERGE_TOL)


@given(sts.near_tie_rows(tol=1e-6))
@with_examples(1e-6)
def test_group_rows_matches_greedy_scan_at_coalesce_tol(pts):
    assert_same_groups(pts, 1e-6)


def test_group_rows_keeps_isolated_rows_apart():
    # the middle row is farther than tol from both others, which chain
    # within tol in column 0 but lie 5 apart in column 1
    pts = ulp_rows(MERGE_TOL)[3]
    assert len(assert_same_groups(pts, MERGE_TOL)) == 3


def test_group_rows_matches_greedy_scan_on_a_large_cloud():
    # 2000 distinct rows and 21 pairs planted in one column at MERGE_TOL and
    # 1 ulp either side, a scale the drawn examples do not reach.  A pair's
    # tied column starts near 0, where adding the step and taking the
    # difference back are exact, so the gap as computed is the step itself
    rng = np.random.default_rng(11)
    cloud = rng.uniform(-1.0, 1.0, size=(2000, 2))
    steps = [np.nextafter(MERGE_TOL, 0.0), MERGE_TOL, np.nextafter(MERGE_TOL, 1.0)]
    pairs = []
    for k, row in enumerate(cloud[:21]):
        j, step = k % 2, steps[k % 3]
        row[j] = (k - 10) * 2.0**-70
        twin = row.copy()
        twin[j] += step
        assert twin[j] - row[j] == step
        pairs.append(twin)
    pts = np.vstack([cloud, pairs])
    pts = pts[measures._lex_perm(pts)]
    assert len(np.unique(pts, axis=0)) == len(pts)
    reps = assert_same_groups(pts, MERGE_TOL)
    assert len(pts) - len(reps) == 14  # the pairs at MERGE_TOL and 1 ulp below merge


@given(sts.near_tie_rows(widths=(1, 2), tol=1e-6), st.data())
def test_coalesce_matches_greedy_scan(pts, data):
    w = np.array(data.draw(st.lists(sts.positive_weight, min_size=len(pts), max_size=len(pts))))
    mu = make_measure(pts, w)
    gid, reps = oracles.greedy_groups(mu.atoms, 1e-6)
    mass = np.bincount(gid, weights=mu.weights)
    out = coalesce(mu, 1e-6)
    assert np.array_equal(out.atoms, mu.atoms[reps])
    assert np.allclose(out.weights, mass / mass.sum(), rtol=0.0, atol=1e-15)


@given(sts.near_tie_rows(widths=(4,), tol=MERGE_TOL), st.data())
def test_disintegrate_matches_greedy_scan(joint, data):
    w = np.array(data.draw(st.lists(sts.positive_weight, min_size=len(joint), max_size=len(joint))))
    lifted = make_lifted(joint[:, :2], joint[:, 2:], w)
    gid, reps = oracles.greedy_groups(lifted.positions, MERGE_TOL)
    dis = disintegrate(lifted)
    assert np.array_equal(dis.base.atoms, lifted.positions[reps])
    assert dis.base == base_of(lifted)
    assert disintegrate(lifted).base is base_of(lifted)
    mass = np.bincount(gid, weights=lifted.weights)
    assert np.allclose(dis.base.weights, mass / mass.sum(), rtol=0.0, atol=1e-15)
    for g, fiber in enumerate(dis.fibers):
        sel = gid == g
        assert fiber == make_measure(lifted.velocities[sel], lifted.weights[sel])


@given(sts.near_tie_rows(widths=(2, 4), tol=MERGE_TOL), st.data())
def test_fiber_means_match_the_per_fiber_reference(joint, data):
    """The kernel against one canonical fiber measure per base atom.

    Both group the positions by the first-match rule, so the base atoms
    agree exactly, and a one-atom fiber's velocity must come back exactly.
    Elsewhere the reference first merges the velocities of a fiber that lie
    within MERGE_TOL of their group's first velocity.  So each velocity it
    averages has moved by at most MERGE_TOL per coordinate, and a mean is
    a convex combination, so the mean moves by at most MERGE_TOL too.  On
    top of that, each side rounds a weighted sum of at most n terms (n eps
    relative to the sum of w |v|), a mass (n eps relative) and a quotient
    (eps): within (2 n + 1) eps max|v| each.
    """
    d = joint.shape[1] // 2
    w = np.array(data.draw(st.lists(sts.positive_weight, min_size=len(joint), max_size=len(joint))))
    lifted = make_lifted(joint[:, :d], joint[:, d:], w)
    atoms, means = measures.fiber_means(lifted)
    ref_atoms, ref_means = oracles.fiber_means_loop(
        lifted.positions, lifted.velocities, lifted.weights, MERGE_TOL
    )
    assert np.array_equal(atoms, ref_atoms)
    assert np.array_equal(atoms, base_of(lifted).atoms)
    gid, _ = oracles.greedy_groups(lifted.positions, MERGE_TOL)
    single = np.bincount(gid) == 1
    assert np.array_equal(means[single], ref_means[single])
    vmax = float(np.abs(lifted.velocities).max())
    bound = MERGE_TOL + 2 * (2 * lifted.natoms + 1) * np.finfo(float).eps * vmax
    assert float(np.abs(means - ref_means).max()) <= bound


def test_fiber_means_copy_one_atom_fibers():
    # (0.1 * 3) / 0.1 rounds to 3.0000000000000004
    lifted = make_lifted([[0.0], [1.0]], [[3.0], [3.0]], [0.1, 0.9])
    atoms, means = measures.fiber_means(lifted)
    assert np.array_equal(atoms, [[0.0], [1.0]])
    assert np.array_equal(means, [[3.0], [3.0]])


def test_lattice_without_near_ties_takes_the_runs_route(monkeypatch):
    def no_scan(rows, tol):
        raise AssertionError("near-tie scan ran on data without near-ties")

    monkeypatch.setattr(measures, "_first_match_scan", no_scan)
    k = np.arange(50_000)
    grid = np.stack([(k % 200) * 0.25, (k // 200) * 0.5], axis=1)
    pts = np.vstack([grid, grid])[np.random.default_rng(3).permutation(100_000)]
    atoms, weights = measures.canonical_support(pts, np.ones(100_000))
    assert np.array_equal(atoms, grid[np.lexsort(grid.T[::-1])])
    assert np.all(weights == 1.0 / 50_000)


def test_binomial_bundle_sends_few_rows_to_the_scan(monkeypatch):
    from mdelab import GridSpec, SchemeConfig, build_representation, get_scenario, run_scheme

    spec = get_scenario("binomial").pvf_spec()
    path = run_scheme(spec, dirac(0.0), SchemeConfig(scheme="las", grid=GridSpec(T=1.0, N=10)))
    seen = {"grouped": 0, "scanned": 0}
    group_rows, scan = measures._group_rows, measures._first_match_scan

    def counting_group_rows(pts, tol, gaps=None):
        seen["grouped"] += pts.shape[0]
        return group_rows(pts, tol, gaps)

    def counting_scan(rows, tol):
        seen["scanned"] += rows.shape[0]
        return scan(rows, tol)

    monkeypatch.setattr(measures, "_group_rows", counting_group_rows)
    monkeypatch.setattr(measures, "_first_match_scan", counting_scan)
    ens = build_representation(path)
    assert ens.ncurves == 2**10
    # gluing builds no endpoint measures, so the bundle itself has no near-ties
    assert seen["scanned"] == 0
    # its final knots do: one lattice point reached by different orders of
    # the +-dt steps differs in its last bits
    seen.update(grouped=0, scanned=0)
    DiscreteMeasure(ens.knots[:, -1, :], ens.weights)
    assert 0 < seen["scanned"] < seen["grouped"] / 10


def test_separated_heads_take_the_runs_route(monkeypatch):
    def no_scan(rows, tol):
        raise AssertionError("near-tie scan ran on rows whose first gaps exceed tol")

    monkeypatch.setattr(measures, "_first_match_scan", no_scan)
    assert len(assert_same_groups(SEPARATED_HEADS, MERGE_TOL)) == 3


# ---------------------------------------------------------------------------
# rows that arrive in canonical order skip the sort
# ---------------------------------------------------------------------------

@contextmanager
def counted_sorts():
    """Record the row count of every sort ``canonical_support`` makes."""
    sorts = []
    lex_perm = measures._lex_perm

    def counting(rows):
        sorts.append(rows.shape[0])
        return lex_perm(rows)

    with mock.patch.object(measures, "_lex_perm", counting):
        yield sorts


def canonical_both_ways(pts, w, perm, tol):
    """``canonical_support`` of the rows as given and shuffled by ``perm``,
    with the number of sorts each one made."""
    with counted_sorts() as sorts:
        given_order = measures.canonical_support(pts, w, tol)
        sorted_in_order = len(sorts)
        shuffled = measures.canonical_support(pts[perm], w[perm], tol)
    return given_order, shuffled, sorted_in_order, len(sorts) - sorted_in_order


def gap_examples(tol):
    """Two rows whose first difference is tol - 1 ulp, tol or tol + 1 ulp,
    in column 0 and in a later column, with weights and the swap."""
    def decorate(test):
        one, swap = np.ones(2), np.array([1, 0])
        for gap in (np.nextafter(tol, 0.0), tol, np.nextafter(tol, np.inf)):
            test = example((np.array([[0.0], [gap]]), one, swap))(test)
            test = example((np.array([[-0.0, 1.0], [gap, 0.0]]), one, swap))(test)
            test = example((np.array([[0.0, 0.0, 1.0], [0.0, gap, 0.0]]), one, swap))(test)
        return test
    return decorate


def check_routes_agree(case, tol):
    pts, w, perm = case
    (atoms, mass), (atoms2, mass2), sorts, sorts2 = canonical_both_ways(pts, w, perm, tol)
    # the rows arrive sorted, so no sort is made, near-ties or not
    assert sorts == 0
    assert sorts2 == (1 if pts.shape[0] > 1 else 0)
    assert np.array_equal(atoms, atoms2)
    assert np.array_equal(mass, mass2)
    assert not np.signbit(atoms[atoms == 0.0]).any()


@given(sts.canonical_rows(tol=MERGE_TOL))
@gap_examples(MERGE_TOL)
def test_canonical_rows_skip_the_sort_with_the_same_result(case):
    check_routes_agree(case, MERGE_TOL)


@given(sts.canonical_rows(tol=1e-6))
@gap_examples(1e-6)
def test_canonical_rows_skip_the_sort_with_the_same_result_at_coalesce_tol(case):
    check_routes_agree(case, 1e-6)


def tie_examples(tol):
    """Sorted rows with an exact tie (-0.0 beside 0.0) followed by a row
    tol - 1 ulp, tol or tol + 1 ulp away, in column 0 and in a later
    column, with a sub-floor weight on the tie and a shuffle that keeps the
    tied rows in order."""
    def decorate(test):
        w, perm = np.array([1.0, 1e-18, 0.5]), np.array([2, 0, 1])
        for gap in (np.nextafter(tol, 0.0), tol, np.nextafter(tol, np.inf)):
            test = example((np.array([[0.0], [-0.0], [gap]]), w, perm))(test)
            test = example((np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 1.0 + gap]]), w, perm))(test)
        return test
    return decorate


def check_sorted_rows_with_ties(case, tol):
    pts, w, perm = case
    (atoms, mass), (atoms2, mass2), sorts, _ = canonical_both_ways(pts, w, perm, tol)
    # the rows arrive sorted, so no sort is made, near-ties or not
    assert sorts == 0
    assert atoms.shape == atoms2.shape and atoms.tobytes() == atoms2.tobytes()
    assert mass.tobytes() == mass2.tobytes()


@given(sts.sorted_rows_with_ties(tol=MERGE_TOL))
@tie_examples(MERGE_TOL)
def test_sorted_rows_with_exact_ties_skip_the_sort_with_the_same_result(case):
    check_sorted_rows_with_ties(case, MERGE_TOL)


@given(sts.sorted_rows_with_ties(tol=1e-6))
@tie_examples(1e-6)
def test_sorted_rows_with_exact_ties_skip_the_sort_at_coalesce_tol(case):
    check_sorted_rows_with_ties(case, 1e-6)


def test_canonical_route_ignores_overflow_in_input_order():
    # -1e308 to 1e308 overflows; the sorted neighbours are 1e308 apart
    with np.errstate(over="raise"):
        atoms, weights = measures.canonical_support([-1e308, 1e308, 0.0], np.ones(3))
    assert atoms[:, 0].tolist() == [-1e308, 0.0, 1e308]
    assert np.all(weights == 1.0 / 3.0)


def test_splitting_run_and_its_residual_sort_nothing():
    from mdelab import GridSpec, SchemeConfig, SplittingParticlePvf, residual, run_scheme

    spec, mu0 = SplittingParticlePvf(), quantile_uniform(0.0, 1.0, 256)
    with counted_sorts() as sorts:
        path = run_scheme(spec, mu0, SchemeConfig(scheme="lagrangian", grid=GridSpec(T=1.0, N=16)))
        residual(path, spec)
    assert sorts == []


def test_builtins_sort_at_most_twice(tmp_path):
    import dataclasses

    from mdelab import get_scenario, list_scenarios, run_scenario

    with counted_sorts() as sorts:
        for name, _ in list_scenarios():
            scn = get_scenario(name)
            run_scenario(dataclasses.replace(scn, outputs=str(tmp_path / name)))
    assert len(sorts) <= 2


# ---------------------------------------------------------------------------
# validation: four reductions, then the per-check tests in their order
# ---------------------------------------------------------------------------

NAN, INF = np.nan, np.inf


@pytest.mark.parametrize("mode", ["plain", "raise"])
@pytest.mark.parametrize(
    "points, weights, error, message",
    [
        ([[0.0], [NAN]], [1.0, 1.0], ValueError, "atom coordinates must be finite"),
        ([[INF], [0.0]], [1.0, 1.0], ValueError, "atom coordinates must be finite"),
        ([[0.0, -INF]], [1.0], ValueError, "atom coordinates must be finite"),
        ([[0.0], [1.0]], [NAN, 1.0], ValueError, "weights must be finite"),
        ([[0.0], [1.0]], [1.0, INF], ValueError, "weights must be finite"),
        ([[0.0], [1.0]], [1.0, -INF], ValueError, "weights must be finite"),
        ([[0.0], [1.0]], [1.0, -0.5], NegativeWeightError, "negative weight np.float64(-0.5)"),
        ([[0.0], [1.0], [2.0]], [-2.0, 1.0, -0.5], NegativeWeightError,
         "negative weight np.float64(-2.0)"),
        # combinations: coordinates are checked first, then finiteness, then sign
        ([[NAN], [1.0]], [1.0, -1.0], ValueError, "atom coordinates must be finite"),
        ([[0.0], [-INF]], [NAN, 1.0], ValueError, "atom coordinates must be finite"),
        ([[0.0], [1.0]], [-1.0, NAN], ValueError, "weights must be finite"),
        ([[0.0], [1.0]], [-1.0, INF], ValueError, "weights must be finite"),
        (np.zeros((0, 1)), [], EmptyInputError, "a measure needs at least one atom"),
        ([], [1.0], EmptyInputError, "a measure needs at least one atom"),
        ([[0.0], [1.0]], [1.0], ValueError, "2 atoms but 1 weights"),
        ([[NAN]], [1.0, 2.0], ValueError, "1 atoms but 2 weights"),
        (np.zeros((1, 1, 1)), [1.0], ValueError,
         "points must be a 1-D or 2-D array, got shape (1, 1, 1)"),
        ([[0.0], [1.0]], [0.0, 0.0], ValueError, "total mass must be positive"),
        ([[]], [1.0], ValueError, "points need at least one coordinate, got shape (1, 0)"),
        (np.zeros((2, 0)), [NAN, -1.0], ValueError,
         "points need at least one coordinate, got shape (2, 0)"),
    ],
)
def test_validation_errors_keep_their_class_message_and_order(points, weights, error, message, mode):
    with np.errstate(all="raise") if mode == "raise" else np.errstate():
        with pytest.raises(error) as info:
            measures.canonical_support(points, weights)
    assert type(info.value) is error
    assert str(info.value) == message


def test_lifted_points_without_coordinates_are_rejected():
    with pytest.raises(ValueError) as info:
        make_lifted([[]], [[]], [1.0])
    assert str(info.value) == "points need at least one coordinate, got shape (1, 0)"
    with pytest.raises(ValueError) as info:
        make_lifted([[0.0]], [[0.0, 1.0]], [1.0])
    assert str(info.value) == "positions (1, 1) and velocities (1, 2) must have the same shape"


@pytest.mark.parametrize("mode", ["plain", "raise"])
def test_validation_accepts_a_negative_zero_weight(mode):
    with np.errstate(all="raise") if mode == "raise" else np.errstate():
        atoms, weights = measures.canonical_support([[0.0], [1.0]], [-0.0, 1.0])
    assert atoms.tolist() == [[1.0]] and weights.tolist() == [1.0]


@pytest.mark.parametrize("mode", ["plain", "raise"])
def test_weights_whose_total_overflows_are_scaled_by_the_largest(mode):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise") if mode == "raise" else np.errstate():
            mu = make_measure([[0.0], [1.0]], [1e308, 1e308])
            merged = make_measure([[0.0], [0.0], [1.0]], [1e308, 1e308, 1e308])
            light = make_measure([[0.0], [1.0], [2.0]], [1e308, 1e308, 1.0])
            atoms, weights = measures.canonical_support([[0.0], [1.0]], [1e308, 5e307])
    assert mu.atoms.tolist() == [[0.0], [1.0]] and mu.weights.tolist() == [0.5, 0.5]
    assert merged.weights.tolist() == [2.0 / 3.0, 1.0 / 3.0]
    # the light atom scales to 1e-308 / 2, below the floor
    assert light.atoms.tolist() == [[0.0], [1.0]] and light.weights.tolist() == [0.5, 0.5]
    # a total that does not overflow is used as it is
    w = np.array([1e308, 5e307])
    assert weights.tobytes() == (w / np.add.reduce(w)).tobytes()


def test_subnormal_weights_renormalize_alike_in_raise_mode():
    # 1e-310 / 2 underflows to a subnormal, which the floor then drops
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plain = make_measure([[0.0], [1.0]], [1e-310, 2.0])
        with np.errstate(all="raise"):
            raised = make_measure([[0.0], [1.0]], [1e-310, 2.0])
    assert plain == raised
    assert plain.atoms.tolist() == [[1.0]] and plain.weights.tolist() == [1.0]


@pytest.mark.parametrize("mode", ["plain", "raise"])
def test_near_ties_among_far_apart_rows_raise_no_overflow(mode):
    # the sort, the chain test and the scan all subtract rows 2e308 apart
    pts = np.array([[1e308, 1e-13], [-1e308, 0.0], [1e308, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise") if mode == "raise" else np.errstate():
            atoms, weights = measures.canonical_support(pts, np.ones(3))
            derived = measures._derive(pts, np.ones(3))
    assert atoms.tolist() == [[-1e308, 0.0], [1e308, 0.0]]
    assert weights.tolist() == [1.0 / 3.0, 2.0 / 3.0]
    assert derived == DiscreteMeasure(atoms, weights)


# ---------------------------------------------------------------------------
# derived rows: the kernel alone gives the bits the checked constructors give
# ---------------------------------------------------------------------------

def outcome(build):
    """The arrays a constructor returns, as bytes with their shape, or the
    class and message of the error it raises."""
    try:
        value = build()
    except Exception as exc:  # compared, so a difference fails the test
        return type(exc), str(exc)
    arrays = (value.atoms, value.weights) if isinstance(value, DiscreteMeasure) else (
        value.positions, value.velocities, value.weights)
    return [(a.shape, np.ascontiguousarray(a).tobytes(), a.flags.writeable) for a in arrays]


def derived_examples(test):
    """Weights at the floor +- 1 ulp on rows at the merge tolerance +- 1 ulp,
    with totals at 1 +- UNIT_MASS_TOL."""
    floor, unit = measures.WEIGHT_FLOOR, measures.UNIT_MASS_TOL
    for gap in (np.nextafter(MERGE_TOL, 0.0), MERGE_TOL, np.nextafter(MERGE_TOL, 1.0)):
        for tiny in (np.nextafter(floor, 0.0), floor, np.nextafter(floor, 1.0)):
            for total in (1.0 - unit, 1.0, 1.0 + unit):
                pts = np.array([[0.0, 1.0], [gap, 1.0], [1.0, gap], [1.0, 0.0]])
                w = np.array([tiny, 0.5 * total, tiny, 0.5 * total])
                test = example((pts, w))(test)
    return test


@given(sts.derived_rows(tol=MERGE_TOL))
@derived_examples
def test_derived_construction_matches_the_checked_one(case):
    # the constructor is handed its arrays and may keep them, so each call
    # gets copies; with a canonical measure's weights (tested) the weight
    # tests are skipped and the bits are still the checked constructor's
    pts, w = case
    checked = outcome(lambda: DiscreteMeasure(pts, w))
    assert outcome(lambda: measures._derive(pts.copy(), w.copy())) == checked
    if not isinstance(checked[0], type):
        weights = DiscreteMeasure(pts, w).weights
        rows = pts[:len(weights)]
        assert outcome(lambda: measures._derive(rows.copy(), weights, tested=True)) \
            == outcome(lambda: DiscreteMeasure(rows, weights))
    if pts.shape[1] % 2 == 0:
        d = pts.shape[1] // 2
        checked = outcome(lambda: LiftedMeasure(pts[:, :d], pts[:, d:], w))

        def derived():
            return measures._derive(pts[:, :d].copy(), w.copy(), velocities=pts[:, d:].copy())

        assert outcome(derived) == checked
        if not isinstance(checked[0], type):
            lifted = derived()
            assert outcome(lambda: base_of(lifted)) == outcome(
                lambda: DiscreteMeasure(lifted.positions, lifted.weights))


def derived_arrays(pts, w):
    mu = measures._derive(pts, w)
    return mu.atoms, mu.weights


def support_outcome(build):
    """The (atoms, weights) a kernel path returns, as bytes with their shape
    and flags, or the class and message of the error it raises."""
    try:
        arrays = build()
    except Exception as exc:  # compared, so a difference fails the test
        return type(exc), str(exc)
    return [(a.shape, a.tobytes(), a.flags.writeable, a.flags.c_contiguous) for a in arrays]


def line_examples(test):
    """Two rows a gap of ``MERGE_TOL`` +- 1 ulp apart, and one row with a
    total at 1 +- ``UNIT_MASS_TOL`` +- 1 ulp or a weight at ``WEIGHT_FLOOR``
    +- 1 ulp beside a heavy one."""
    unit, floor = measures.UNIT_MASS_TOL, measures.WEIGHT_FLOOR
    for gap in (np.nextafter(MERGE_TOL, 0.0), MERGE_TOL, np.nextafter(MERGE_TOL, 1.0)):
        test = example((np.array([[0.0], [gap]]), np.full(2, 0.5)), "plain", True)(test)
    for edge in (1.0 - unit, 1.0 + unit):
        for total in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 2.0)):
            test = example((np.array([[1.0]]), np.array([total])), "all", True)(test)
    for tiny in (np.nextafter(floor, 0.0), floor, np.nextafter(floor, 1.0)):
        test = example((np.array([[0.0], [1.0]]), np.array([1.0, tiny])), "plain", True)(test)
    return test


@settings(max_examples=300)
@given(sts.line_rows(tol=MERGE_TOL), st.sampled_from(["plain", "over", "all"]), st.booleans())
@line_examples
@example((np.array([[0.0], [1e308], [-1e308], [1.0]]), np.full(4, 0.25)), "over", False)
@example((np.array([[0.0], [1e308], [-1e308], [1.0]]), np.full(4, 0.25)), "plain", False)
@example((np.array([[-1e308], [1e308]]), np.full(2, 0.5)), "all", True)
@example((np.array([[np.inf], [np.inf]]), np.full(2, 0.5)), "all", True)
@example((np.array([[-0.0]]), np.ones(1)), "plain", True)
def test_derived_rows_on_the_line_give_the_checked_bits(case, mode, frozen):
    # derived rows on the line with unproved coordinates take the two
    # finiteness reductions and the kernel.  The result, or the error, is
    # the checked constructor's in every error mode, read-only weights or
    # not, and no warning is raised where none was.
    pts, w = case

    def weights():
        given = w.copy()
        given.setflags(write=not frozen)
        return given

    errstate = {"plain": {}, "over": {"over": "raise"}, "all": {"all": "raise"}}[mode]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(**errstate):
            derived = support_outcome(lambda: derived_arrays(pts.copy(), weights()))
            checked = support_outcome(lambda: measures.canonical_support(pts, weights()))
    assert derived == checked


def test_derived_rows_adopt_read_only_weights():
    # derived weights are handed over: kept as they are, read-only or not
    pts = np.array([[0.0], [1.0]])
    for frozen in (False, True):
        w = np.array([0.25, 0.75])
        w.setflags(write=not frozen)
        adopted = measures._derive(pts, w).weights
        assert adopted is w and not adopted.flags.writeable
    # outside input is always copied, read-only or not
    for frozen in (False, True):
        w = np.array([0.25, 0.75])
        w.setflags(write=not frozen)
        assert not np.shares_memory(DiscreteMeasure(pts, w).weights, w)
        assert not np.shares_memory(measures.canonical_support(pts, w)[1], w)


# ---------------------------------------------------------------------------
# presorted rows: a rule's lift with no kernel pass has the kernel's bits
# ---------------------------------------------------------------------------

def _signed_zero(x):
    return np.full_like(x, -0.0)


NOT_FINITE = [lambda x: np.full_like(x, np.nan), lambda x: np.full_like(x, np.inf),
              lambda x: np.where(x > 0.5, -np.inf, x)]


@st.composite
def presorted_inputs(draw):
    """(rule, measure, one-point) over the rows of every shipped rule in 1-D
    and 2-D.  Measures come from near-tie rows, so 2-D atoms can have first
    gaps at most ``MERGE_TOL`` while lying pairwise farther apart; weights
    of 1e-8 make constant-fiber slivers under ``WEIGHT_FLOOR``, and so does
    a splitting median whose left part falls short by j 1e-16.  Graph
    fields include -0.0, NaN and inf velocities.  With one-point, the rows
    are the ``mean-velocity`` lift over the rule's fiber means."""
    dim = draw(st.sampled_from([1, 2]))
    weight = st.sampled_from([1.0, 0.25, 1e-8])

    def measure():
        rows = draw(sts.near_tie_rows(widths=(dim,), max_rows=8))
        return make_measure(rows, [draw(weight) for _ in rows])

    mu = measure()
    one_point = draw(st.booleans())
    kind = draw(st.sampled_from(["graph", "fiber", "split"][:2 + (dim == 1)]))
    if kind == "graph":
        fields = [*GRAPH_FIELDS.values(), _signed_zero] + ([] if one_point else NOT_FINITE)
        return GraphPvf(draw(st.sampled_from(fields))), mu, one_point
    if kind == "fiber":
        return ConstantFiberPvf(measure()), mu, one_point
    d = draw(st.integers(-30, 30)) * 1e-16
    sliver = make_measure([[0.0], [1.0], [2.0]], [0.5 - d, 0.25, 0.25 + d])
    return SplittingParticlePvf(), draw(st.sampled_from([mu, sliver])), one_point


UNIT = measures.UNIT_MASS_TOL
TOTALS = [1.0, 1.0 - 2 * UNIT, 1.0 - UNIT, 1.0 + UNIT, 1.0 + 2 * UNIT]
LINEAR_2D = make_measure([[0.0, 0.0], [5e-13, 1.0]], [1.0, 2.0])  # first gap 5e-13


@given(presorted_inputs(), st.sampled_from(TOTALS))
@example((GraphPvf(GRAPH_FIELDS["linear"]), LINEAR_2D, False), 1.0)
@example((GraphPvf(_signed_zero), LINEAR_2D, False), 1.0)
@example((GraphPvf(NOT_FINITE[0]), LINEAR_2D, False), 1.0)
@example((GraphPvf(NOT_FINITE[1]), LINEAR_2D, False), 1.0)
@example((ConstantFiberPvf(make_measure([[0.0], [1.0]], [1.0, 1e-8])),
          make_measure([[0.0], [1.0]], [1.0, 1e-8]), False), 1.0)
def test_a_presorted_lift_has_the_kernel_bits(case, total):
    spec, mu, one_point = case
    if isinstance(spec, GraphPvf) and not one_point:
        field = np.array([spec.velocity(x.copy()) for x in mu.atoms])
        if not np.isfinite(field).all():
            # the rows refuse the field's velocities, as the checked constructor does
            refused = (ValueError, "atom coordinates must be finite")
            assert outcome(lambda: make_lifted(mu.atoms, field, mu.weights)) == refused
            assert outcome(lambda: eval_pvf(spec, mu)) == refused
            return
    if one_point:
        lift = eval_pvf(spec, mu)
        atoms, vbar = fiber_means(lift)
        base = base_of(lift) if len(vbar) < mu.natoms else mu
        pos, vel, w = atoms, vbar + 0.0, base.weights
    else:
        pos, vel, w, _ = _kind(spec).rows(spec, mu)
    # a canonical measure's weights: the graph rule's are mu's
    tested = one_point or w is mu.weights

    def build(w, **facts):
        return lambda: measures._derive(pos.copy(), w.copy(), velocities=vel.copy(), **facts)

    kernel = outcome(build(w))
    if total == 1.0 and not one_point:
        assert outcome(lambda: eval_pvf(spec, mu)) == kernel
    if total == 1.0 and tested:
        assert outcome(build(w, ordered=True, tested=True)) == kernel
    w = w * total
    assert outcome(build(w, ordered=True)) == outcome(build(w))
