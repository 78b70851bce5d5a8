import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import oracles
import strategies as sts
from mdelab import (
    LAS,
    ConstantFiberPvf,
    DimMismatchError,
    GridSpec,
    IterationCapError,
    OutOfRangeError,
    SchemeConfig,
    SupportBlowupError,
    TransportPlan,
    dirac,
    fiber_pseudometric,
    lifted_w1,
    lp_solve,
    make_lifted,
    make_measure,
    run_scheme,
    w1_distance,
    w1_plan,
)
from mdelab import transport
from mdelab.tolerances import AGREE_TOL, REDUCED_COST_TOL
from mdelab.analysis import TestFunction


def m1(xs, ws):
    return make_measure([[x] for x in xs], ws)


def test_w1_examples():
    assert w1_distance(dirac(0.0), dirac(1.0)) == pytest.approx(1.0, abs=1e-15)
    mu = m1([0.3, -1.2], [0.4, 0.6])
    assert w1_distance(mu, mu) == 0.0
    assert w1_distance(m1([0, 2], [0.5, 0.5]), dirac(1.0)) == pytest.approx(
        1.0, abs=1e-15
    )


def test_w1_dim_mismatch():
    with pytest.raises(DimMismatchError):
        w1_distance(dirac(0.0), dirac([0.0, 0.0]))
    with pytest.raises(ValueError):
        w1_distance(dirac(0.0), dirac(1.0), method="bogus")
    with pytest.raises(DimMismatchError):
        w1_plan(dirac(0.0), dirac([0.0, 0.0]))
    with pytest.raises(DimMismatchError):
        w1_distance(dirac([0.0, 0.0]), dirac([1.0, 0.0]), method="quantile")
    flat = make_lifted([[0.0]], [[0.0]], [1.0])
    plane = make_lifted([[0.0, 0.0]], [[0.0, 0.0]], [1.0])
    for distance in (lifted_w1, fiber_pseudometric):
        with pytest.raises(DimMismatchError):
            distance(flat, plane)


def test_w1_positive_for_distinct_measures():
    a = m1([0.0], [1.0])
    b = m1([1e-9], [1.0])
    assert w1_distance(a, b) > 1e-10


def test_quantile_route_matches_lp_route():
    rng = np.random.default_rng(7)
    for _ in range(60):
        xa, wa = oracles.random_support_1d(rng)
        xb, wb = oracles.random_support_1d(rng)
        mu, nu = m1(xa, wa), m1(xb, wb)
        fast = w1_distance(mu, nu, method="quantile")
        slow = w1_distance(mu, nu, method="lp")
        ref = oracles.w1_inverse_cdf(mu.atoms[:, 0], mu.weights, nu.atoms[:, 0], nu.weights)
        assert fast == pytest.approx(slow, abs=1e-8)
        assert fast == pytest.approx(ref, abs=1e-10)


def test_w1_metric_axioms_1d():
    rng = np.random.default_rng(11)
    for _ in range(40):
        mus = [m1(*oracles.random_support_1d(rng, max_atoms=8)) for _ in range(3)]
        a, b, c = mus
        assert w1_distance(a, b) == w1_distance(b, a)
        assert w1_distance(a, c) <= w1_distance(a, b) + w1_distance(b, c) + 1e-12


def test_w1_2d_against_scipy():
    rng = np.random.default_rng(13)
    for _ in range(25):
        xa, wa = oracles.random_support(rng, dim=2, max_atoms=7)
        xb, wb = oracles.random_support(rng, dim=2, max_atoms=7)
        mu, nu = make_measure(xa, wa), make_measure(xb, wb)
        cost = np.linalg.norm(
            mu.atoms[:, None, :] - nu.atoms[None, :, :], axis=2
        )
        ref, _ = oracles.lp_transport_scipy(cost, mu.weights, nu.weights)
        assert w1_distance(mu, nu) == pytest.approx(ref, abs=1e-8)
        assert w1_distance(mu, nu) == pytest.approx(w1_distance(nu, mu), abs=1e-10)


def test_kantorovich_rubinstein_lower_bound():
    rng = np.random.default_rng(17)
    for _ in range(20):
        mu = m1(*oracles.random_support_1d(rng, max_atoms=10))
        nu = m1(*oracles.random_support_1d(rng, max_atoms=10))
        dist = w1_distance(mu, nu)
        for center in (-2.0, 0.0, 3.0):
            f = TestFunction(center=np.array([center]), radius=4.0)
            lip = f.lipschitz_bound()
            gap = abs(
                mu.integrate(f.value) - nu.integrate(f.value)
            )
            assert gap <= lip * dist + 1e-8


def test_lp_solve_examples():
    plan, value = lp_solve([[2.5]], [1.0], [1.0])
    assert value == pytest.approx(2.5, abs=1e-12)
    assert np.allclose(plan.mass, [[1.0]])

    plan, value = lp_solve([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5], [0.5, 0.5])
    assert value == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(plan.mass, np.diag([0.5, 0.5]), atol=1e-12)

    plan, value = lp_solve([[0.0, 1.0], [1.0, 0.0]], [1.0, 0.0], [0.0, 1.0])
    assert value == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(plan.mass, [[0.0, 1.0], [0.0, 0.0]], atol=1e-12)


def test_lp_solve_validates_inputs():
    with pytest.raises(ValueError):
        lp_solve([[1.0]], [0.7], [1.0])  # marginals must both sum to one
    with pytest.raises(ValueError):
        lp_solve([[np.inf]], [1.0], [1.0])
    # the cap is None or an integer >= 0, checked after every other input
    for cap in ("3", 2.5, True, np.bool_(True), -1, np.int64(-1), np.nan, np.inf, [3]):
        with pytest.raises(ValueError) as info:
            lp_solve([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5], [0.5, 0.5], max_iter=cap)
        assert type(info.value) is ValueError
        assert str(info.value) == f"max_iter must be None or an integer >= 0, got {cap!r}"
    with pytest.raises(ValueError) as info:
        lp_solve([[1.0]], [0.7], [1.0], max_iter=-1)
    assert str(info.value) == "marginals must each sum to one"


@pytest.mark.parametrize("mode", ["plain", "raise"])
@pytest.mark.parametrize("costs, r, c, message", [
    # each input also has every fault checked after the one it names
    ([0.0, 1.0], [-1.0, 1.0, 1.0], [2.0], "costs must be a 2-D matrix"),
    ([[np.nan, 1.0]], [-1.0, 1.0, 1.0], [2.0], "costs must be finite"),
    ([[0.0, 1.0], [1.0, 0.0]], [-1.0, 1.0, 1.0], [2.0],
     "marginal lengths must match the cost matrix shape"),
    ([[0.0, 1.0], [1.0, 0.0]], [-0.5, 1.5], [2.0, 0.0], "marginals must be nonnegative"),
    (np.zeros((0, 0)), [], [], "marginals must each sum to one"),
])
def test_lp_solve_names_the_first_fault_of_its_input(costs, r, c, message, mode):
    with np.errstate(all="raise") if mode == "raise" else np.errstate():
        with pytest.raises(ValueError) as info:
            lp_solve(costs, r, c)
    assert type(info.value) is ValueError
    assert str(info.value) == message


@pytest.mark.parametrize("gap", [0.9e-9, -0.9e-9])
def test_lp_solve_unequal_marginal_totals(gap):
    r, c = [0.5, 0.5 + gap], [0.5, 0.5 - gap]
    plan, value = lp_solve([[0.0, 1.0], [1.0, 0.0]], r, c)
    assert np.max(np.abs(plan.row_marginals - r)) <= 1e-9
    assert np.max(np.abs(plan.col_marginals - c)) <= 1e-9
    assert 0.0 <= value <= abs(gap) * (1 + 1e-6)


def test_lp_solve_against_scipy():
    rng = np.random.default_rng(19)
    for _ in range(30):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        cost = rng.uniform(0.0, 4.0, size=(m, n))
        a = rng.uniform(0.1, 1.0, size=m)
        a /= a.sum()
        b = rng.uniform(0.1, 1.0, size=n)
        b /= b.sum()
        plan, value = lp_solve(cost, a, b)
        ref, _ = oracles.lp_transport_scipy(cost, a, b)
        assert value == pytest.approx(ref, abs=1e-9)
        assert np.allclose(plan.row_marginals, a, atol=1e-9)
        assert np.allclose(plan.col_marginals, b, atol=1e-9)
        assert np.all(plan.mass >= 0.0)
        assert float(np.sum(plan.mass * cost)) == pytest.approx(value, abs=1e-10)


@pytest.mark.parametrize("r, c", [
    ([np.nan, 1.0], [0.5, 0.5]),
    ([0.5, 0.5], [np.nan, 1.0]),
    ([np.inf, 0.0], [0.5, 0.5]),
    ([0.5, 0.5], [1.0, -np.inf]),
])
def test_lp_solve_rejects_non_finite_marginals(r, c):
    with pytest.raises(ValueError) as info:
        lp_solve([[0.0, 1.0], [1.0, 0.0]], r, c)
    assert str(info.value) == "marginals must be finite"


@pytest.mark.parametrize("mode", ["plain", "raise"])
@pytest.mark.parametrize("r, c", [
    ([1e308, 1e308], [0.5, 0.5]),
    ([0.5, 0.5], [1e308, 1e308]),
    ([1e308, 1e308], [1e308, 1e308]),
    ([1.0 + 2.0 * AGREE_TOL, 0.0], [0.5, 0.5]),
])
def test_lp_solve_rejects_huge_marginals_without_overflow(r, c, mode):
    # finite marginals whose sum overflows: the same error in both modes,
    # and no numpy warning on the way
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise") if mode == "raise" else np.errstate():
            with pytest.raises(ValueError) as info:
                lp_solve([[0.0, 1.0], [1.0, 0.0]], r, c)
    assert type(info.value) is ValueError
    assert str(info.value) == "marginals must each sum to one"


# what the simplex raises for an inf cost, a distance between atoms too far apart
FAR_APART = "costs must be finite: a distance between atoms overflows"


@pytest.mark.parametrize("mode", ["plain", "raise"])
def test_quantile_w1_of_atoms_spanning_the_float_range(mode):
    # the grid gap 2e308 overflowed, and W1 came back inf with a warning;
    # the LP route still refuses the pair, since its costs overflow, with
    # the lab's error for costs built from points
    import warnings

    mu = make_measure([[-1e308], [1e308]], [0.5, 0.5])
    nu = make_measure([[-1e308], [1e308]], [0.4, 0.6])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise") if mode == "raise" else np.errstate():
            value = w1_distance(mu, nu)
    assert value == pytest.approx(2e307, rel=1e-15)
    with warnings.catch_warnings(), pytest.raises(OutOfRangeError) as info:
        warnings.simplefilter("error")
        with np.errstate(all="raise") if mode == "raise" else np.errstate():
            w1_distance(mu, nu, method="lp")
    assert str(info.value) == FAR_APART


def bits(values) -> list[int]:
    """The bit patterns of float values, so NaNs and signed zeros compare too."""
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


# three rows of one batch: the first spans the float range and takes the
# halved fallback; the second does not and must keep its bits, which
# halving its subnormal gap would round away; the third is a W1 past the
# float range, inf once doubled, with no warning
_WIDE_AND_TINY = (
    np.array([[-1e308, 1e308], [0.0, 5e-324], [-1.7e308, -1.6e308]]),
    np.array([[-1e308, 1e308], [0.0, 1.5e-323], [1.6e308, 1.7e308]]),
    np.array([[0.5, 0.5], [0.3, 0.7], [0.5, 0.5]]), np.array([[0.4, 0.6], [0.6, 0.4], [0.5, 0.5]]),
)


@given(sts.cdf_batches())
@example(_WIDE_AND_TINY)
def test_cdf_kernel_rows_are_the_per_pair_integral(batch):
    a, b, wa, wb = batch
    with np.errstate(over="ignore", invalid="ignore"):
        values = transport._cdf_gap_integral(a, b, wa, wb)
        expected = [oracles.cdf_gap_pair(*row) for row in zip(a, b, wa, wb)]
    assert bits(values) == bits(expected)


@given(sts.cdf_batches())
@example(_WIDE_AND_TINY)
def test_cdf_kernel_batch_is_its_rows_one_at_a_time(batch):
    a, b, wa, wb = batch
    values = transport._w1_rows(a, b, wa, wb)
    rows = [transport._w1_rows(a[i:i + 1], b[i:i + 1], wa[i:i + 1], wb[i:i + 1])[0]
            for i in range(len(a))]
    assert bits(values) == bits(rows)
    assert bits(values) == bits([oracles.w1_quantile_pair(*row) for row in zip(a, b, wa, wb)])


@given(sts.line_sweeps())
def test_cdf_kernel_sweep_is_the_per_node_w1_loop(sweep):
    ms, ns = sweep
    assert bits(transport._w1_sweep(ms, ns)) == bits(list(map(w1_distance, ms, ns)))


def test_cdf_kernel_sweep_takes_large_groups_in_blocks(monkeypatch):
    rng = np.random.default_rng(43)

    def node(n):
        return m1(np.sort(rng.normal(size=n)), rng.uniform(0.5, 1.5, n))

    # 40 pairs of 300 + 300 atoms go in blocks of 4096 // 600 = 6 rows, the
    # last of 4; 3 pairs of more than 4096 merged atoms go one at a time
    ms = [node(300) for _ in range(40)] + [node(2100) for _ in range(3)]
    ns = [node(mu.natoms) for mu in ms]
    expected = list(map(w1_distance, ms, ns))
    rows = []
    integral = transport._cdf_gap_integral
    monkeypatch.setattr(transport, "_cdf_gap_integral",
                        lambda a, *args: rows.append(a.shape[0]) or integral(a, *args))
    assert bits(transport._w1_sweep(ms, ns)) == bits(expected)
    assert rows == [6] * 6 + [4] + [1] * 3


def test_cdf_kernel_sweep_off_the_line_is_one_solve_per_pair(monkeypatch):
    rng = np.random.default_rng(41)
    ms = [make_measure(*oracles.random_support(rng, dim=2, max_atoms=6)) for _ in range(5)]
    ns = [make_measure(*oracles.random_support(rng, dim=2, max_atoms=6)) for _ in range(4)] + [ms[4]]
    expected = list(map(w1_distance, ms, ns))
    solves = []
    real = transport._lp
    monkeypatch.setattr(transport, "_lp", lambda *args, **kw: solves.append(1) or real(*args, **kw))
    assert bits(transport._w1_sweep(ms, ns)) == bits(expected)
    assert len(solves) == 4  # the equal pair is 0.0 with no solve
    with pytest.raises(DimMismatchError):
        transport._w1_sweep([dirac(0.0), dirac(0.0)], [dirac(0.0), dirac([0.0, 0.0])])


def test_quantile_w1_keeps_the_per_pair_bits_on_seeded_pairs():
    # ties between the two measures from coordinates rounded to quarters
    rng = np.random.default_rng(2024)
    for trial in range(2000):
        sizes = rng.integers(1, 42, size=2)
        xa, xb = (np.round(rng.uniform(-3.0, 3.0, k) * 4.0) / 4.0 if trial % 2 else rng.normal(size=k)
                  for k in sizes)
        mu, nu = (m1(x, rng.uniform(0.1, 1.0, x.size)) for x in (xa, xb))
        expected = oracles.w1_quantile_pair(mu.atoms[:, 0], nu.atoms[:, 0], mu.weights, nu.weights)
        if mu == nu:
            expected = 0.0
        assert bits([w1_distance(mu, nu, method="quantile")]) == bits([expected])
        assert bits([w1_plan(mu, nu)[1]]) == bits([expected])


@pytest.mark.parametrize("mode", ["plain", "over", "all"])
def test_lp_costs_that_overflow_raise_one_error_in_every_mode(mode):
    # the distance of atoms 2e308 apart overflowed as a FloatingPointError
    # in raise mode; it now reads as inf, which the LP refuses with the
    # lab's error for costs built from points
    import warnings

    mu = make_measure([[-1e308, 0.0], [1e308, 0.0]], [0.5, 0.5])
    nu = make_measure([[-1e308, 0.0], [1e308, 0.0]], [0.4, 0.6])
    lifted = make_lifted(mu.atoms, mu.atoms, mu.weights)
    other = make_lifted(nu.atoms, nu.atoms, nu.weights)
    errstate = {"plain": {}, "over": {"over": "raise"}, "all": {"all": "raise"}}[mode]
    for distance, a, b in [(w1_distance, mu, nu), (lifted_w1, lifted, other)]:
        with warnings.catch_warnings(), pytest.raises(OutOfRangeError) as info:
            warnings.simplefilter("error")
            with np.errstate(**errstate):
                distance(a, b)
        assert str(info.value) == FAR_APART


@pytest.mark.parametrize("mode", ["plain", "over", "all"])
@pytest.mark.parametrize("far", ["positions", "velocities"])
def test_fiber_costs_that_overflow_raise_the_lp_error(mode, far):
    # positions 2e308 apart: stage one priced its inf costs and returned
    # 0.5 with warnings, where lifted_w1 raised; velocities 2e308 apart
    # leaked a warning from stage two.  Both distances raise the lab's
    # error for costs built from points
    import warnings

    near, wide = [[0.0], [1.0]], [[-1e308], [1e308]]
    pos, vel = (wide, near) if far == "positions" else (near, wide)
    a, b = make_lifted(pos, vel, [0.5, 0.5]), make_lifted(pos, vel, [0.4, 0.6])
    errstate = {"plain": {}, "over": {"over": "raise"}, "all": {"all": "raise"}}[mode]
    for distance in (lifted_w1, fiber_pseudometric):
        with warnings.catch_warnings(), pytest.raises(OutOfRangeError) as info:
            warnings.simplefilter("error")
            with np.errstate(**errstate):
                distance(a, b)
        assert str(info.value) == FAR_APART


@pytest.mark.parametrize("mass", [[[np.nan]], [[np.inf]], [[0.5, -np.inf]], [[0.5, np.nan], [-1.0, 0.0]]])
def test_transport_plan_rejects_non_finite_mass(mass):
    with pytest.raises(ValueError) as info:
        TransportPlan(mass)
    assert str(info.value) == "plan mass must be finite"


@pytest.mark.parametrize("mass, message", [
    ([0.5, 0.5], "plan mass must be a 2-D matrix"),
    ([[[1.0]]], "plan mass must be a 2-D matrix"),
    ([[0.5, -1e-9], [0.0, 0.5]], "plan mass must be nonnegative"),
])
def test_transport_plan_rejects_a_mass_that_is_not_a_nonnegative_matrix(mass, message):
    with pytest.raises(ValueError) as info:
        TransportPlan(mass)
    assert str(info.value) == message


def _traced_peak(f) -> int:
    """The ``tracemalloc`` peak, in bytes, while ``f()`` runs or raises."""
    tracemalloc.start()
    try:
        f()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


def test_a_solve_past_the_cell_cap_raises_before_any_matrix_is_built():
    # the cap admits the 2-D walk's las final nodes at N = 64 and 128 (2601
    # and 5301 atoms), not those at N = 128 and 256 (5301 and 10405)
    assert 2601 * 5301 <= transport._MAX_CELLS < 5301 * 10405
    # 5000 x 5000 cells: the cost matrix alone would take 200 MB
    rng = np.random.default_rng(5)
    mu, nu = (make_measure(rng.uniform(-1.0, 1.0, (5000, 2)), rng.uniform(0.5, 1.5, 5000))
              for _ in range(2))

    def refused():
        with pytest.raises(SupportBlowupError) as info:
            w1_distance(mu, nu)
        assert str(info.value) == f"a 5000 x 5000 solve has 25000000 cells, past the cap of {2**24}"

    assert _traced_peak(refused) < 2**20


def test_every_solve_meets_the_one_cell_cap(monkeypatch):
    # lp_solve, w1_plan, the lift and the fiber pseudometric's first stage
    # meet the cap at the one site, before the simplex
    monkeypatch.setattr(transport, "_MAX_CELLS", 11)
    monkeypatch.setattr(transport, "_simplex", None)  # a call would raise TypeError
    v1, v2 = (make_lifted(np.arange(k)[:, None], np.zeros((k, 1)), np.ones(k)) for k in (3, 4))
    calls = [lambda: lp_solve(np.ones((3, 4)), [1 / 3] * 3, [0.25] * 4),
             lambda: lifted_w1(v1, v2), lambda: fiber_pseudometric(v1, v2),
             lambda: w1_plan(make_measure([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], [1 / 3] * 3),
                             make_measure([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0], [3.0, 1.0]],
                                          [0.25] * 4))]
    for call in calls:
        with pytest.raises(SupportBlowupError) as info:
            call()
        assert str(info.value) == "a 3 x 4 solve has 12 cells, past the cap of 11"


def test_a_100_atom_2d_w1_peaks_below_70_bytes_per_cell():
    # the cost matrix, the pricing buffer and the least-cost start's order
    # and index lists; a nested-list copy of the costs took the peak to 84
    # bytes per cell
    mu, nu = _pair_2d(np.random.default_rng(37), 100)
    assert _traced_peak(lambda: w1_distance(mu, nu)) / 100**2 < 70


def test_lp_solve_iteration_cap():
    cost = [[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]]
    third = [1.0 / 3.0] * 3
    with pytest.raises(IterationCapError):
        lp_solve(cost, third, third, max_iter=1)
    # a cap of 0 raises even where the north-west corner is optimal
    half = [0.5, 0.5]
    with pytest.raises(IterationCapError):
        lp_solve([[0.0, 1.0], [1.0, 0.0]], half, half, max_iter=0)
    assert lp_solve([[0.0, 1.0], [1.0, 0.0]], half, half, max_iter=1)[1] == 0.0
    # numpy's integers are caps too
    with pytest.raises(IterationCapError):
        lp_solve([[0.0, 1.0], [1.0, 0.0]], half, half, max_iter=np.int64(0))
    for cap in (np.int32(1), np.uint8(1), None):
        assert lp_solve([[0.0, 1.0], [1.0, 0.0]], half, half, max_iter=cap)[1] == 0.0


def test_lp_solve_plan_is_read_only_and_as_if_checked():
    rng = np.random.default_rng(79)
    mu, nu = _pair_2d(rng, 12)
    for a, b in ((mu.weights, nu.weights), (np.r_[mu.weights[:-1], 0.0] / mu.weights[:-1].sum(),
                                             nu.weights)):
        plan, _ = lp_solve(_cost(mu, nu), a, b)
        assert plan.shape == (len(a), len(b)) == plan.mass.shape
        assert not plan.mass.flags.writeable and plan.mass.flags.c_contiguous
        checked = TransportPlan(plan.mass)
        assert plan.mass.dtype == checked.mass.dtype
        assert plan.mass.tobytes() == checked.mass.tobytes()
        with pytest.raises(ValueError):
            plan.mass[0, 0] = 1.0


@given(sts.transport_problems())
@example((np.array([[0.0, 1.0, 1.0]]), np.array([1.0]), np.array([0.5, 0.0, 0.5])))
@example((np.array([[1.0], [0.0], [1.0]]), np.array([0.0, 1.0, 0.0]), np.array([1.0])))
@example((np.zeros((3, 3)), np.full(3, 1.0 / 3.0), np.full(3, 1.0 / 3.0)))
def test_lp_solve_degenerate_against_scipy(problem):
    cost, a, b = problem
    plan, value = lp_solve(cost, a, b)
    ref, _ = oracles.lp_transport_scipy(cost, a, b)
    assert value == pytest.approx(ref, abs=1e-9)
    assert np.allclose(plan.row_marginals, a, rtol=0.0, atol=1e-12)
    assert np.allclose(plan.col_marginals, b, rtol=0.0, atol=1e-12)
    assert np.all(plan.mass >= 0.0)
    assert value == math.fsum(cost[i, j] * x for i, j, x in plan.nonzeros())


@given(sts.transport_problems())
def test_simplex_keeps_a_strongly_feasible_tree(problem):
    # every zero-mass basic cell hangs its row under its column, so mass can
    # always be pushed toward the root, row 0: the anti-cycling invariant
    cost, a, b = problem
    C = cost[np.ix_(a > 0, b > 0)]
    m, n = C.shape
    flow, _, _ = transport._simplex(C, a[a > 0], b[b > 0], 10 * cost.size)
    adj = [set() for _ in range(m + n)]
    for i, j in flow:
        adj[i].add(m + j)
        adj[m + j].add(i)
    parent, _ = oracles.hang(adj, C.tolist(), m)
    assert len(flow) == m + n - 1 and -1 not in parent[1:]
    assert all(parent[i] == m + j for (i, j), x in flow.items() if x == 0.0)


# ---------------------------------------------------------------------------
# the simplex against the reference that re-hangs the whole tree and prices
# every cell at every pivot
# ---------------------------------------------------------------------------


def _same_as_reference(C, a, b, **kw):
    # one pricing block: the same pivots, so the same cells in the same
    # order, the same masses and bit-identical reduced costs
    assert C.size <= transport._BLOCK_CELLS
    cap = 10 * C.size
    flow, R, pivots = transport._simplex(C, a, b, cap, **kw)
    ref_flow, ref_R, ref_pivots = oracles.simplex(C, a, b, cap, **kw)
    assert list(flow.items()) == list(ref_flow.items())
    assert pivots == ref_pivots
    assert np.array_equal(R, ref_R)
    return flow, R


def _pair_2d(rng, n):
    return [
        make_measure(rng.uniform(-1.0, 1.0, (n, 2)), rng.uniform(0.5, 1.5, n))
        for _ in range(2)
    ]


def _cost(mu, nu):
    return np.linalg.norm(mu.atoms[:, None, :] - nu.atoms[None, :, :], axis=2)


def test_reduced_cost_tolerance_matches_the_reference():
    assert oracles.REDUCED_COST_TOL == REDUCED_COST_TOL


@given(sts.transport_problems())
@example((np.array([[0.0, 1.0, 1.0]]), np.array([1.0]), np.array([0.5, 0.0, 0.5])))
@example((np.array([[1.0], [0.0], [1.0]]), np.array([0.0, 1.0, 0.0]), np.array([1.0])))
@example((np.zeros((3, 3)), np.full(3, 1.0 / 3.0), np.full(3, 1.0 / 3.0)))
def test_simplex_matches_reference_on_degenerate_problems(problem):
    cost, a, b = problem
    _same_as_reference(cost[np.ix_(a > 0, b > 0)], a[a > 0], b[b > 0])


@pytest.mark.parametrize("n", [10, 20, 40])
def test_simplex_matches_reference_on_2d_pairs(n):
    rng = np.random.default_rng(43 + n)
    for _ in range(5):
        mu, nu = _pair_2d(rng, n)
        _same_as_reference(_cost(mu, nu), mu.weights, nu.weights)


def test_simplex_matches_reference_through_both_fiber_stages(monkeypatch):
    # the solves of fiber_pseudometric, as it makes them: a cold start, then
    # a warm start from the stage-one tree restricted to the tight cells
    solves = []
    simplex = transport._simplex

    def recorded(C, a, b, cap, **kw):
        solves.append((C, a, b, kw))
        return simplex(C, a, b, cap, **kw)

    monkeypatch.setattr(transport, "_simplex", recorded)
    rng = np.random.default_rng(47)
    for _ in range(5):
        v1, v2 = (
            make_lifted(rng.choice(rng.uniform(-1.0, 1.0, 7), (20, 1)),
                        rng.uniform(-1.0, 1.0, (20, 1)), rng.uniform(0.5, 1.5, 20))
            for _ in range(2)
        )
        fiber_pseudometric(v1, v2)
    monkeypatch.undo()
    assert len(solves) == 10
    for C, a, b, kw in solves:
        _same_as_reference(C, a, b, **kw)


def test_least_cost_start_is_a_positive_spanning_tree():
    rng = np.random.default_rng(67)
    for m, n in ((1, 5), (7, 12), (40, 40), (30, 9)):
        mu, nu = (make_measure(rng.uniform(-1.0, 1.0, (k, 2)), rng.uniform(0.5, 1.5, k))
                  for k in (m, n))
        C = _cost(mu, nu)
        flow = transport._least_cost(C, mu.weights, nu.weights)
        assert len(flow) == m + n - 1 and min(flow.values()) > 0.0
        plan = np.zeros((m, n))
        for (i, j), x in flow.items():
            plan[i, j] = x
        assert np.max(np.abs(plan.sum(axis=1) - mu.weights)) <= AGREE_TOL
        assert np.max(np.abs(plan.sum(axis=0) - nu.weights)) <= AGREE_TOL
        # m + n - 1 cells, each joining two components: a spanning tree
        root = list(range(m + n))
        for i, j in flow:
            p, q = i, m + j
            while root[p] != p:
                p = root[p]
            while root[q] != q:
                q = root[q]
            assert p != q
            root[p] = q
        assert list(flow.items()) == list(oracles.least_cost(C.tolist(), mu.weights, nu.weights).items())


def test_sorted_line_problems_take_no_pivot_and_no_least_cost_start(monkeypatch):
    # on the line the north-west corner of sorted atoms is optimal, so the
    # first pricing ends the solve before the least-cost start is built
    def no_least_cost(*args, **kwargs):
        raise AssertionError("the least-cost start was built")

    monkeypatch.setattr(transport, "_least_cost", no_least_cost)
    rng = np.random.default_rng(71)
    for n in (10, 20, 40):
        mu, nu = (m1(rng.uniform(-1.0, 1.0, n), rng.uniform(0.5, 1.5, n)) for _ in range(2))
        angle = rng.uniform(0.0, np.pi)
        u, c = np.array([np.cos(angle), np.sin(angle)]), rng.uniform(-1.0, 1.0, 2)
        line = [make_measure(p.atoms * u + c, p.weights) for p in (mu, nu)]
        for p, q in ((mu, nu), line):
            C = _cost(p, q)
            _, R, pivots = transport._simplex(C, p.weights, q.weights, 10 * C.size)
            assert pivots == 0 and R.min() >= -REDUCED_COST_TOL * (1.0 + C.max())
            assert w1_distance(p, q, method="lp") == pytest.approx(
                w1_distance(mu, nu, method="quantile"), abs=1e-12)


def test_an_optimal_staircase_is_priced_without_a_tree(monkeypatch):
    # line problems, the 1-D LP route and the first fiber stage stop at the
    # north-west corner, which is priced cell by cell with no tree
    def no_tree(*args, **kwargs):
        raise AssertionError("a basis tree was built")

    monkeypatch.setattr(transport, "_tree", no_tree)
    rng = np.random.default_rng(83)
    for n in (1, 5, 20, 40):
        mu, nu = (m1(rng.uniform(-1.0, 1.0, k), rng.uniform(0.5, 1.5, k)) for k in (n, n + 3))
        angle = rng.uniform(0.0, np.pi)
        u, c = np.array([np.cos(angle), np.sin(angle)]), rng.uniform(-1.0, 1.0, 2)
        line = [make_measure(p.atoms * u + c, p.weights) for p in (mu, nu)]
        exact = w1_distance(mu, nu, method="quantile")
        assert w1_distance(mu, nu, method="lp") == pytest.approx(exact, abs=1e-12)
        assert w1_distance(*line) == pytest.approx(exact, abs=1e-12)
        v1, v2 = (
            make_lifted(rng.choice(rng.uniform(-1.0, 1.0, 5), (k, 1)),
                        rng.uniform(-1.0, 1.0, (k, 1)), rng.uniform(0.5, 1.5, k))
            for k in (n, n + 2)
        )
        pos_cost = np.abs(v1.positions - v2.positions.T)
        _, R, pivots = transport._simplex(pos_cost, v1.weights, v2.weights, 10 * pos_cost.size)
        assert pivots == 0 and R.min() >= -REDUCED_COST_TOL * (1.0 + pos_cost.max())


def test_a_dearer_least_cost_start_keeps_the_north_west_corner():
    # the least-cost start is positive but costs 31/18 against 7/6
    C = np.array([[2.0, 5.0], [5.0, 0.0], [0.0, 0.0]])
    a, b = np.array([4.0, 2.0, 3.0]) / 9.0, np.array([0.5, 0.5])
    start = transport._least_cost(C, a, b)
    north_west = transport._north_west(list(a), list(b))
    assert min(start.values()) > 0.0
    assert sum(C[e] * x for e, x in start.items()) > sum(C[e] * x for e, x in north_west.items())
    flow, R, pivots = transport._simplex(C, a, b, 10 * C.size)
    nw_flow, nw_R, nw_pivots = transport._simplex(C, a, b, 10 * C.size, flow=north_west)
    assert list(flow.items()) == list(nw_flow.items())
    assert pivots == nw_pivots == 1 and np.array_equal(R, nw_R)


def test_least_cost_start_cuts_the_pivots_of_2d_pairs():
    # the north-west corner, passed in as a warm start, is the old cold start
    rng = np.random.default_rng(73)
    pivots = {"least-cost": 0, "north-west": 0}
    for _ in range(5):
        mu, nu = _pair_2d(rng, 40)
        C, a, b = _cost(mu, nu), mu.weights, nu.weights
        flow, _, k = transport._simplex(C, a, b, 10 * C.size)
        nw_flow, _, nw_k = transport._simplex(C, a, b, 10 * C.size,
                                              flow=transport._north_west(list(a), list(b)))
        pivots["least-cost"] += k
        pivots["north-west"] += nw_k
        assert sum(C[e] * x for e, x in flow.items()) == pytest.approx(
            sum(C[e] * x for e, x in nw_flow.items()), abs=1e-12)
    assert pivots["least-cost"] <= 0.7 * pivots["north-west"]


@pytest.mark.parametrize("n", [100, 200])
def test_block_pricing_matches_reference_value(n):
    rng = np.random.default_rng(53 + n)
    mu, nu = _pair_2d(rng, n)
    C = _cost(mu, nu)
    assert C.size > transport._BLOCK_CELLS
    flow, R, pivots = transport._simplex(C, mu.weights, nu.weights, 10 * C.size)
    ref_flow, _, _ = oracles.simplex(C, mu.weights, nu.weights, 10 * C.size)
    value = sum(C[e] * x for e, x in flow.items())
    assert value == pytest.approx(sum(C[e] * x for e, x in ref_flow.items()), abs=1e-12)
    assert pivots > 0 and R.min() >= -REDUCED_COST_TOL * (1.0 + C.max())


def _basis_duals(C, flow):
    # the duals of the basis hung from row 0, by the reference re-hang
    m, n = C.shape
    _, pot = oracles.hang(oracles.tree_adjacency(flow, m, n), C.tolist(), m)
    return pot[:m, None], pot[None, m:]


@pytest.mark.parametrize("m, n", [(70, 70), (120, 80), (160, 80)])
def test_multi_block_reduced_costs_are_c_minus_u_minus_v(m, n):
    # the pricing buffer is returned as the reduced costs, so after the last
    # round it must hold C - u - v for the final duals in every block, from a
    # cold start and from a warm start restricted to the allowed cells
    assert 2 <= -(-m // -(-transport._BLOCK_CELLS // n)) <= 4
    rng = np.random.default_rng(59 + m + n)
    mu, nu = (make_measure(rng.uniform(-1.0, 1.0, (k, 2)), rng.uniform(0.5, 1.5, k)) for k in (m, n))
    a, b, C = mu.weights, nu.weights, _cost(mu, nu)
    flow, R, pivots = transport._simplex(C, a, b, 10 * C.size)
    u, v = _basis_duals(C, flow)
    assert pivots > 0 and np.array_equal(R, C - u - v)
    C2 = rng.uniform(0.0, 2.0, (m, n))
    allowed = rng.random((m, n)) < 0.5
    allowed[tuple(np.array(list(flow)).T)] = True
    flow2, R2, pivots2 = transport._simplex(C2, a, b, 10 * C.size, flow=flow, allowed=allowed)
    u2, v2 = _basis_duals(C2, flow2)
    assert pivots2 > 0 and np.array_equal(R2, C2 - u2 - v2)


def _assert_certified(monkeypatch, mu, nu):
    # the LP-duality gap of the basis behind w1_distance: the simplex stops
    # when no cell prices below -REDUCED_COST_TOL (1 + max C), so the
    # c-transform of its column duals is within that of the plan's cost
    solves = []
    simplex = transport._simplex

    def recorded(C, a, b, cap, **kw):
        out = simplex(C, a, b, cap, **kw)
        solves.append((C, a, b, out[0]))
        return out

    monkeypatch.setattr(transport, "_simplex", recorded)
    value = w1_distance(mu, nu)
    [(C, a, b, flow)] = solves
    lower, upper = oracles.certify(C, a, b, flow)
    assert upper == value
    assert abs(upper - lower) <= 2.0 * REDUCED_COST_TOL * (1.0 + C.max())


@pytest.mark.parametrize("n", [200, 400, 800])
def test_w1_2d_is_certified_by_lp_duality(monkeypatch, n):
    rng = np.random.default_rng(37)
    _assert_certified(monkeypatch, *_pair_2d(rng, n))


@given(sts.measures(max_atoms=8), sts.measures(max_atoms=8))
def test_w1_plan_1d_is_the_monotone_coupling(mu, nu):
    plan, value = w1_plan(mu, nu)
    expected = oracles.monotone_coupling(mu.weights, nu.weights)
    assert np.allclose(plan.mass, expected, rtol=0.0, atol=1e-12)
    assert value == w1_distance(mu, nu)


def test_w1_plan_1d_is_the_north_west_corner_without_the_simplex(monkeypatch):
    def no_simplex(*args, **kwargs):
        raise AssertionError("the simplex ran on the line")

    monkeypatch.setattr(transport, "_simplex", no_simplex)
    rng = np.random.default_rng(61)
    mu, nu = (m1(rng.uniform(-1.0, 1.0, k), rng.uniform(0.5, 1.5, k)) for k in (200, 300))
    plan, value = w1_plan(mu, nu)
    assert np.count_nonzero(plan.mass) <= mu.natoms + nu.natoms - 1
    assert np.allclose(plan.mass, oracles.monotone_coupling(mu.weights, nu.weights),
                       rtol=0.0, atol=1e-12)
    assert value == w1_distance(mu, nu)  # bit for bit, as off the line


def test_equal_measures_take_no_solve(monkeypatch):
    # nor an integral on the quantile route, whose value there is exactly 0.0
    integral = transport._w1_quantile

    def no_solve(*args, **kwargs):
        raise AssertionError("an LP was solved or a W1 integrated")

    monkeypatch.setattr(transport, "lp_solve", no_solve)
    monkeypatch.setattr(transport, "_simplex", no_solve)
    monkeypatch.setattr(transport, "_w1_quantile", no_solve)
    rng = np.random.default_rng(89)
    for d in (1, 2):
        mu = make_measure(rng.uniform(-1.0, 1.0, (30, d)), rng.uniform(0.5, 1.5, 30))
        twin = make_measure(mu.atoms.copy(), mu.weights.copy())
        assert twin == mu and twin is not mu
        assert w1_distance(mu, twin, method="lp") == 0.0
        assert w1_distance(mu, twin) == 0.0
        plan, value = w1_plan(mu, twin)
        assert value == 0.0 and np.array_equal(plan.mass, np.diag(mu.weights))
        assert not plan.mass.flags.writeable
        if d == 1:
            assert w1_distance(mu, twin, method="quantile") == 0.0
            assert integral(mu, twin) == 0.0


def test_w1_2d_200_atoms_against_scipy():
    rng = np.random.default_rng(37)
    mu, nu = (
        make_measure(rng.uniform(-1.0, 1.0, (200, 2)), rng.uniform(0.5, 1.5, 200))
        for _ in range(2)
    )
    cost = np.linalg.norm(mu.atoms[:, None, :] - nu.atoms[None, :, :], axis=2)
    ref, _ = oracles.lp_transport_scipy(cost, mu.weights, nu.weights)
    assert w1_distance(mu, nu) == pytest.approx(ref, abs=1e-9)


@pytest.fixture(scope="module")
def walk_pair():
    # las final nodes of the four-direction walk at N = 16 and 32: 289 and
    # 1049 atoms (WEIGHT_FLOOR drops 40 corners of 1089), weights to 1.5e-15
    walk = ConstantFiberPvf(make_measure([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                                         [0.25] * 4))
    mu, nu = (
        run_scheme(walk, dirac([0.0, 0.0]), SchemeConfig(LAS, GridSpec(T=1.0, N=N))).measures[-1]
        for N in (16, 32)
    )
    assert (mu.natoms, nu.natoms) == (289, 1049)
    return mu, nu


def test_w1_2d_walk_at_desk_scale_against_scipy(walk_pair):
    mu, nu = walk_pair
    ref, _ = oracles.lp_transport_scipy(_cost(mu, nu), mu.weights, nu.weights, tight=True)
    assert w1_distance(mu, nu) == pytest.approx(ref, abs=1e-9)


def test_w1_2d_walk_at_desk_scale_is_certified_by_lp_duality(monkeypatch, walk_pair):
    # the pair whose marginal totals differ by 9e-14, which HiGHS's default
    # call reports infeasible
    _assert_certified(monkeypatch, *walk_pair)


def test_transport_plan_nonzeros_row_major():
    plan, _ = lp_solve([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5], [0.5, 0.5])
    entries = list(plan.nonzeros())
    assert entries == sorted(entries, key=lambda e: (e[0], e[1]))
    assert all(mass > 0 for _, _, mass in entries)


def test_w1_plan_consistency():
    mu = m1([0.0, 2.0], [0.5, 0.5])
    nu = m1([1.0], [1.0])
    plan, value = w1_plan(mu, nu)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(plan.row_marginals, mu.weights, atol=1e-9)
    assert np.allclose(plan.col_marginals, nu.weights, atol=1e-9)


def test_w1_plan_2d_is_the_lp_plan():
    # off the line the plan is the simplex's: read-only, with the weights as
    # marginals, and its value is w1_distance's bit for bit
    rng = np.random.default_rng(97)
    for n in (5, 20, 60):
        mu, nu = _pair_2d(rng, n)
        plan, value = w1_plan(mu, nu)
        assert not plan.mass.flags.writeable
        with pytest.raises(ValueError):
            plan.mass[0, 0] = 1.0
        assert np.max(np.abs(plan.row_marginals - mu.weights)) <= AGREE_TOL
        assert np.max(np.abs(plan.col_marginals - nu.weights)) <= AGREE_TOL
        assert value == w1_distance(mu, nu)


def test_lifted_w1_examples():
    a = make_lifted([[0.0]], [[0.0]], [1.0])
    b = make_lifted([[1.0]], [[0.0]], [1.0])
    c = make_lifted([[1.0]], [[2.0]], [1.0])
    assert lifted_w1(a, b) == pytest.approx(1.0, abs=1e-12)
    assert lifted_w1(a, c) == pytest.approx(3.0, abs=1e-12)
    assert lifted_w1(a, a) == 0.0


def test_fiber_pseudometric_examples():
    v = make_lifted([[0.0], [1.0]], [[1.0], [-1.0]], [0.5, 0.5])
    assert fiber_pseudometric(v, v) == pytest.approx(0.0, abs=1e-12)

    a = make_lifted([[0.0]], [[2.0]], [1.0])
    b = make_lifted([[0.0]], [[-1.5]], [1.0])
    assert fiber_pseudometric(a, b) == pytest.approx(3.5, abs=1e-9)

    # distinct lifted measures at zero pseudo-distance: the position
    # transport is forced and costs nothing extra on the velocities
    v1 = make_lifted([[0.0]], [[5.0]], [1.0])
    v2 = make_lifted([[1.0]], [[5.0]], [1.0])
    assert v1 != v2
    assert fiber_pseudometric(v1, v2) == pytest.approx(0.0, abs=1e-12)


def _random_lifted(rng, max_atoms=6):
    n = int(rng.integers(1, max_atoms + 1))
    pos = rng.uniform(-4, 4, size=(n, 1))
    vel = rng.uniform(-4, 4, size=(n, 1))
    w = rng.uniform(0.05, 1.0, size=n)
    return make_lifted(pos, vel, w / w.sum())


def test_lifted_metric_inequality():
    from mdelab import base_of

    rng = np.random.default_rng(29)
    for _ in range(40):
        v1 = _random_lifted(rng)
        v2 = _random_lifted(rng)
        lhs = lifted_w1(v1, v2)
        rhs = (
            fiber_pseudometric(v1, v2)
            + w1_distance(base_of(v1), base_of(v2))
            + 1e-7
        )
        assert lhs <= rhs
        assert fiber_pseudometric(v1, v2) >= 0.0


def test_fiber_pseudometric_stage1_is_base_w1():
    from mdelab import base_of

    rng = np.random.default_rng(31)
    for _ in range(20):
        v1 = _random_lifted(rng, max_atoms=3)
        v2 = _random_lifted(rng, max_atoms=3)
        pos_cost = np.abs(v1.positions - v2.positions.T)
        vel_cost = np.abs(v1.velocities - v2.velocities.T)
        vopt, wstar = oracles.fiber_faceopt(pos_cost, vel_cost, v1.weights, v2.weights)
        assert wstar == pytest.approx(
            w1_distance(base_of(v1), base_of(v2)), abs=1e-9
        )
        got = fiber_pseudometric(v1, v2)
        # relaxed-face optimum can only undercut the exact face optimum
        assert got <= vopt + 1e-7
        assert got == pytest.approx(vopt, abs=1e-5)
        ref = oracles.fiber_pseudometric_scipy(pos_cost, vel_cost, v1.weights, v2.weights)
        assert got == pytest.approx(ref, abs=1e-7)


# few distinct positions and speeds, so the position-optimal face is wide
_grid_coords = st.integers(-2, 2).map(float)


def _check_fiber_sandwich(v1, v2):
    pos_cost = np.abs(v1.positions - v2.positions.T)
    vel_cost = np.abs(v1.velocities - v2.velocities.T)
    relaxed = oracles.fiber_pseudometric_scipy(pos_cost, vel_cost, v1.weights, v2.weights)
    face, _ = oracles.fiber_faceopt(pos_cost, vel_cost, v1.weights, v2.weights)
    assert relaxed - 1e-9 <= fiber_pseudometric(v1, v2) <= face + 1e-9


@given(
    sts.lifted_measures(max_atoms=3, coords=_grid_coords),
    sts.lifted_measures(max_atoms=3, coords=_grid_coords),
)
# feet 1e-6 apart: stage two may not use the cells priced at 2e-6 in stage one
@example(
    make_lifted([[-1.0], [0.0], [0.0]], [[0.0], [-1.0], [0.0]], [4.0, 1.0, 4.0]),
    make_lifted([[-1e-6], [0.0]], [[-1.0], [0.0]], [1.0, 2.0]),
)
def test_fiber_pseudometric_between_relaxed_and_face_optimum(v1, v2):
    _check_fiber_sandwich(v1, v2)


def test_fiber_pseudometric_between_relaxed_and_face_optimum_random():
    # Seeded floats, not hypothesis: positions within ~1e-9 of a tie make the
    # tolerances differ, per cell for the solver and on the total cost for
    # the oracles (positions 0 and -2.7e-9 give 0.44 against a face value
    # of 0.22, since the oracle face admits the near-optimal coupling).
    rng = np.random.default_rng(41)
    for _ in range(150):
        v1, v2 = _random_lifted(rng, max_atoms=3), _random_lifted(rng, max_atoms=3)
        if rng.random() < 0.5:  # two sites: fibers over shared positions
            sites = rng.uniform(-4, 4, 2)
            v1, v2 = (
                make_lifted(rng.choice(sites, (v.natoms, 1)), v.velocities, v.weights)
                for v in (v1, v2)
            )
        _check_fiber_sandwich(v1, v2)


def test_both_fiber_stages_solve_balanced_marginals_from_one_tree(monkeypatch):
    # canonical weights whose totals differ in the last bits: both stages go
    # through _lp, so each solves the marginals rescaled to their mean total
    # that lifted_w1's solve gets, and stage two starts from stage one's basic cells
    solves = []
    simplex = transport._simplex

    def recorded(C, a, b, cap, **kw):
        out = simplex(C, a, b, cap, **kw)
        solves.append((a, b, kw, out[0]))
        return out

    monkeypatch.setattr(transport, "_simplex", recorded)
    rng = np.random.default_rng(101)
    unequal = 0
    while unequal < 20:
        v1, v2 = (
            make_lifted(rng.choice(rng.uniform(-1.0, 1.0, 5), (n, 1)),
                        rng.uniform(-1.0, 1.0, (n, 1)), rng.uniform(0.5, 1.5, n))
            for n in (int(k) for k in rng.integers(2, 12, 2))
        )
        if v1.weights.sum() == v2.weights.sum():
            continue
        unequal += 1
        solves.clear()
        lifted_w1(v1, v2)
        [(a, b, _, _)] = solves
        # the rescaling moved the marginals
        assert not (np.array_equal(a, v1.weights) and np.array_equal(b, v2.weights))
        solves.clear()
        fiber_pseudometric(v1, v2)
        [(a1, b1, kw1, cells), (a2, b2, kw2, _)] = solves
        for x, y in ((a1, b1), (a2, b2)):
            assert np.array_equal(x, a) and np.array_equal(y, b)
        assert kw1.get("flow") is None and kw1.get("allowed") is None
        assert list(kw2["flow"].items()) == list(cells.items())
        assert kw2["allowed"][tuple(np.array(list(cells)).T)].all()


# ---------------------------------------------------------------------------
# values summed over the basic cells, and the cost matrix coordinate-major
# ---------------------------------------------------------------------------

ERRSTATE_MODES = ["ignore", "warn", "raise", "call", "print", "log"]


class _Reports:
    """What one call reported under numpy's errstate: the warnings it gave
    (``caught``) and what it sent the errstate handler (``sent``)."""

    def __init__(self):
        self.caught, self.sent = [], []

    def __call__(self, err, flag):
        self.sent.append(err)

    def write(self, text):
        self.sent.append(text)


def _outcome(f, mode):
    """``f(reports)`` under numpy's errstate ``mode`` for every error: the
    bits of its values, or the type and message of what it raised, then the
    messages of the warnings it gave and what it sent the handler."""
    reports = _Reports()
    with warnings.catch_warnings(record=True) as reports.caught:
        warnings.simplefilter("always")
        with np.errstate(all=mode, call=reports):
            try:
                result = bits(f(reports))
            except Exception as error:  # what it raised is part of the outcome
                result = f"{type(error).__name__}: {error}"
    return result, [str(w.message) for w in reports.caught], reports.sent


@pytest.mark.parametrize("mode", ERRSTATE_MODES)
@given(sts.point_pairs())
def test_pairwise_dist_is_the_trailing_axis_formula_in_every_errstate_mode(mode, pair):
    # the same bits, the same error and the same reports as the (m, n, d)
    # differences summed over their trailing axis
    X, Y = pair
    assert (_outcome(lambda _: transport._pairwise_dist(X, Y), mode)
            == _outcome(lambda _: oracles.pairwise_dist_trailing(X, Y), mode))


def _basic_cell_sum(C, solve) -> float:
    """``math.fsum`` of cost times mass over the basic cells of a ``_Solve``
    on the cost matrix ``C``, in Python floats."""
    rows, cols = solve.index or (range(C.shape[0]), range(C.shape[1]))
    return math.fsum(float(C[rows[i], cols[j]]) * x for (i, j), x in solve.cells.items())


@given(sts.transport_problems(), sts.measures(dim=2, max_atoms=8), sts.measures(dim=2, max_atoms=8),
       sts.lifted_measures(dim=2, max_atoms=8), sts.lifted_measures(dim=2, max_atoms=8))
def test_basic_cells_sum_to_every_value(problem, mu, nu, v1, v2):
    solves = []
    real = transport._lp

    def recorded(costs, *args, **kw):
        # lp_solve's matrix, or the distances' point pairs, whose costs are
        # the trailing-axis formula, summed over the pairs
        solve = real(costs, *args, **kw)
        C = costs if isinstance(costs, np.ndarray) else sum(
            oracles.pairwise_dist_trailing(X, Y) for X, Y in costs)
        solves.append((C, solve))
        return solve

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(transport, "_lp", recorded)
        plan, value = lp_solve(*problem)
        w1_distance(mu, nu)
        lifted_w1(v1, v2)
        fiber_pseudometric(v1, v2)
        transport._w1_sweep([mu, nu], [nu, mu])
    assert value == math.fsum(problem[0][i, j] * x for i, j, x in plan.nonzeros())
    assert len(solves) >= 1 + 3 * (v1 != v2)
    for C, solve in solves:
        assert solve.value == _basic_cell_sum(C, solve)


def test_basic_cells_give_values_with_no_dense_plan(monkeypatch):
    rng = np.random.default_rng(97)
    mu, nu = _pair_2d(rng, 12)
    v1, v2 = (make_lifted(rng.uniform(-1.0, 1.0, (k, 2)), rng.uniform(-1.0, 1.0, (k, 2)),
                          rng.uniform(0.5, 1.5, k)) for k in (9, 11))

    def dense(*args):
        raise AssertionError("a value-only solve built a dense plan")

    monkeypatch.setattr(transport, "_dense", dense)
    values = [w1_distance(mu, nu), lifted_w1(v1, v2), fiber_pseudometric(v1, v2),
              *transport._w1_sweep([mu, nu], [nu, mu])]
    assert all(value > 0.0 for value in values)


def test_basic_cells_give_the_plans_of_lp_solve_and_w1_plan(monkeypatch):
    built = []
    dense = transport._dense
    monkeypatch.setattr(transport, "_dense", lambda *args: built.append(args) or dense(*args))
    rng = np.random.default_rng(89)
    mu, nu = _pair_2d(rng, 10)
    cost = _cost(mu, nu)
    r = np.r_[mu.weights[:-1], 0.0] / mu.weights[:-1].sum()
    plan, value = lp_solve(cost, r, nu.weights)
    assert len(built) == 1 and plan.row_marginals[-1] == 0.0
    assert value == math.fsum(cost[i, j] * x for i, j, x in plan.nonzeros())
    plan, value = w1_plan(mu, nu)
    assert len(built) == 2 and plan.shape == (10, 10)
    assert value == w1_distance(mu, nu)


def test_basic_cells_and_both_starts_are_priced_by_one_function(monkeypatch):
    # the least-cost start, then the north-west corner it must undercut,
    # then the value over the basic cells: m + n - 1 cells each
    priced = []
    price = transport._price
    monkeypatch.setattr(transport, "_price", lambda C, cells: priced.append(len(cells)) or price(C, cells))
    mu, nu = _pair_2d(np.random.default_rng(89), 10)
    value = w1_distance(mu, nu)
    assert priced == [19, 19, 19]
    assert value == math.fsum(_cost(mu, nu)[i, j] * x for i, j, x in w1_plan(mu, nu)[0].nonzeros())


@pytest.mark.parametrize("mode", ERRSTATE_MODES)
def test_basic_cells_near_the_float_range_keep_the_outcome_in_every_errstate_mode(monkeypatch, mode):
    # costs within 2^20 ulps of the largest float, all the largest float, or
    # scaled to about 1.7e308, and marginal totals 5e-10 below, at or above
    # one, so some values pass the float range.  The value is the correctly
    # rounded sum of the basic products.  What the solve reports after the
    # simplex is what numpy's sum of the costs times the dense plan reported,
    # and the value is that sum's or the next float to it, counting inf as
    # the float after the largest: where the dense sum rounded up to inf and
    # the exact sum is the largest float, the value is that float, with no
    # report.  No OverflowError comes from the value's fsum, nor from the
    # start's cost comparison in the simplex, which reads a cost past the
    # float range as inf.  Only numpy's "raise" stops a solve inside the
    # simplex, at the overflow of a reduced cost
    top = np.finfo(float).max
    ulp = top - np.nextafter(top, 0.0)
    simplex = transport._simplex
    marks = []  # per solve that returns from the simplex: how much was reported by then

    def solve(reports):
        def recorded(*args, **kw):
            out = simplex(*args, **kw)
            marks.append((len(reports.caught), len(reports.sent)))
            return out

        monkeypatch.setattr(transport, "_simplex", recorded)
        return [lp_solve(C, a, b)[1]]

    rng = np.random.default_rng(83)
    seen = set()
    for trial in range(120):
        m, n = (int(k) for k in rng.integers(1, 7, 2))
        C = top - rng.integers(0, 2**20, (m, n)) * ulp
        if trial % 4 == 3:
            C = C * (1.7e308 / top)
        elif trial % 5 == 4:
            C = np.full((m, n), top)
        a, b = (w / w.sum() * (1.0 + (trial % 3 - 1) * 5e-10)
                for w in (rng.uniform(0.5, 1.5, m), rng.uniform(0.5, 1.5, n)))
        marks.clear()
        result, caught, sent = _outcome(solve, mode)
        if not marks:  # numpy's errstate stopped the simplex
            assert mode == "raise" and result.startswith("FloatingPointError: overflow")
            seen.add("simplex")
            continue
        [(k, h)] = marks
        with np.errstate(all="ignore"):
            plan, value = lp_solve(C, a, b)
            products = [Fraction(float(C[i, j] * x)) for i, j, x in plan.nonzeros()]
            try:
                exact = float(sum(products))
            except OverflowError:
                exact = math.inf
            assert value == exact
            dense = np.sum(C * plan.mass)
        dense_result, dense_caught, dense_sent = _outcome(lambda _: [np.sum(C * plan.mass)], mode)
        if dense == math.inf and value == top:
            assert (result, caught[k:], sent[h:]) == (bits([top]), [], [])
            seen.add("rounded below the range")
            continue
        assert (caught[k:], sent[h:]) == (dense_caught, dense_sent)
        if isinstance(result, str):
            assert result == dense_result
            seen.add("raised")
        else:
            assert abs(result[0] - dense_result[0]) <= 1
            seen.add("inf" if value == math.inf else "finite")
    assert {"finite", "rounded below the range"} <= seen
    assert ("raised" if mode == "raise" else "inf") in seen
    assert ("simplex" in seen) == (mode == "raise")


@pytest.mark.parametrize("mode", ["ignore", "warn"])
def test_a_start_whose_cost_passes_the_float_range_is_compared_as_inf(mode):
    # 2-7 x 2-7 costs within 2^20 ulps of the largest float, and marginal
    # totals 5e-10 above one, so the cost of a start passes the float range
    # and its math.fsum raises OverflowError (122 of these 200 problems
    # raised it from the simplex before the comparison read it as inf).
    # Every solve returns, and its value, past the range, is inf
    top = np.finfo(float).max
    ulp = top - np.nextafter(top, 0.0)
    rng = np.random.default_rng(0)
    for _ in range(200):
        m, n = (int(k) for k in rng.integers(2, 8, 2))
        C = top - rng.integers(0, 2**20, (m, n)) * ulp
        a, b = (w / w.sum() * (1.0 + 5e-10) for w in (rng.uniform(0.5, 1.5, m), rng.uniform(0.5, 1.5, n)))
        result, _, _ = _outcome(lambda _: [lp_solve(C, a, b)[1]], mode)
        assert result == bits([math.inf])
