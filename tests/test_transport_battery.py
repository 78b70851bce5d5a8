"""A seeded battery of transport solves, pinned by digest.

Every call to the transportation simplex ``transport._simplex`` made while
the battery runs is recorded: its basic cells in order with their masses,
its pivot count and its reduced costs.  So are the plans and values that
``lp_solve`` returns, the values of ``w1_distance``, ``lifted_w1`` and
``fiber_pseudometric``, and which iteration caps raise.  The problems are

- generic 2-D pairs of 5 to 40 atoms, some of unequal sizes;
- pairs of more than ``_BLOCK_CELLS`` cells, priced in several blocks;
- lattices with equal weights, where the bases are degenerate;
- marginals with zero entries;
- small integer costs and weights, tied in cost and in mass;
- 1-D pairs and 2-D pairs on a line, whose north-west corner is optimal;
- lifted pairs with few distinct positions, through both fiber stages.

A refactor of the solver that claims to keep every pivot, flow, dual and
plan bit for bit is checked by this test rather than by hand.  A change
meant to alter results must recompute the digest it moves and say why.

There are two pins.  The solves-and-plans digest holds every ``_simplex``
call's cells, masses, reduced costs and pivots, the plans of ``lp_solve``
and which caps raise: what the solver computes.  The values digest holds
every value returned.  They are apart because a value is a sum over the
solve's basic cells, and the formula of that sum can change while the
solves stay: when the value became ``math.fsum`` over the basic cells in
place of numpy's sum of the dense product of costs and plan, 34 of the
battery's 156 values moved, by at most 1 ulp, and not one cell, mass,
reduced cost, pivot or plan did.

The digests are of IEEE double results under numpy's reductions; a numpy
whose summation order differs would need new pins.
"""

import hashlib

import numpy as np
import pytest

from mdelab import (
    IterationCapError,
    fiber_pseudometric,
    lifted_w1,
    lp_solve,
    make_lifted,
    make_measure,
    w1_distance,
)
from mdelab import transport

SOLVES_DIGEST = "84d69d8a02caff3153e87ae98a9afa4eb9c0caba33f345e80a1f3f9e211216fb"
VALUES_DIGEST = "00589935fc9ded34249aa9c9e0b7674ee03ec2b700ccbc12a134da498ba646bb"


def _feed(h, *arrays):
    for a in arrays:
        a = np.asarray(a)
        h.update(f"{a.dtype} {a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())


def _recording(h, simplex):
    def recorded(C, a, b, cap, flow=None, allowed=None):
        out_flow, R, pivots = simplex(C, a, b, cap, flow=flow, allowed=allowed)
        _feed(h, np.array(list(out_flow), dtype=np.int64).reshape(-1, 2),
              np.array(list(out_flow.values()), dtype=float), R)
        h.update(f"pivots {pivots}".encode())
        return out_flow, R, pivots

    return recorded


def _solve(h, hv, cost, a, b):
    plan, value = lp_solve(cost, a, b)
    _feed(h, plan.mass)
    _feed(hv, np.array([value]))


def _caps(h, hv, cost, a, b):
    # which of the smallest caps fire, 0 included, and what the others return
    for cap in range(4):
        try:
            plan, value = lp_solve(cost, a, b, max_iter=cap)
        except IterationCapError:
            h.update(f"cap {cap} raised".encode())
            continue
        _feed(h, plan.mass)
        _feed(hv, np.array([value]))


def _cost(X, Y):
    return np.linalg.norm(X[:, None, :] - Y[None, :, :], axis=2)


def _measure(rng, n, d):
    return make_measure(rng.uniform(-1.0, 1.0, (n, d)), rng.uniform(0.5, 1.5, n))


def _lattice(k, l, shift):
    xs, ys = np.meshgrid(np.arange(k, dtype=float), np.arange(l, dtype=float), indexing="ij")
    pts = np.column_stack([xs.ravel(), ys.ravel()]) + shift
    return make_measure(pts, np.ones(k * l))


def _lifted(rng, n):
    sites = rng.uniform(-1.0, 1.0, 7)
    return make_lifted(rng.choice(sites, n)[:, None], rng.uniform(-1.0, 1.0, (n, 1)),
                       rng.uniform(0.5, 1.5, n))


def battery_digests(monkeypatch) -> tuple[str, str]:
    """The solves-and-plans digest and the values digest of the battery."""
    rng = np.random.default_rng(20261019)
    h, hv = hashlib.sha256(), hashlib.sha256()
    monkeypatch.setattr(transport, "_simplex", _recording(h, transport._simplex))
    # generic 2-D pairs, equal and unequal sizes
    for m, n in [(5, 5), (5, 9), (10, 10), (12, 7), (20, 20), (20, 20), (25, 31), (40, 40)]:
        mu, nu = _measure(rng, m, 2), _measure(rng, n, 2)
        hv.update(repr(w1_distance(mu, nu)).encode())
        _solve(h, hv, _cost(mu.atoms, nu.atoms), mu.weights, nu.weights)
    # more cells than one pricing block holds
    for m, n in [(70, 70), (64, 80)]:
        mu, nu = _measure(rng, m, 2), _measure(rng, n, 2)
        assert m * n > transport._BLOCK_CELLS
        _solve(h, hv, _cost(mu.atoms, nu.atoms), mu.weights, nu.weights)
    # lattices with equal weights: many ties in cost and in mass
    for (k, l), (p, q), shift in [((3, 3), (3, 3), (0.5, 0.0)), ((4, 4), (2, 8), (0.25, 0.5)),
                                  ((5, 5), (5, 5), (1.0, 1.0)), ((6, 4), (3, 8), (0.0, 0.0))]:
        mu, nu = _lattice(k, l, (0.0, 0.0)), _lattice(p, q, shift)
        hv.update(repr(w1_distance(mu, nu)).encode())
        _caps(h, hv, _cost(mu.atoms, nu.atoms), mu.weights, nu.weights)
    # marginals with zero entries, random and integer costs
    for _ in range(12):
        m, n = (int(k) for k in rng.integers(1, 9, 2))
        a, b = rng.uniform(0.0, 1.0, m), rng.uniform(0.0, 1.0, n)
        a[rng.random(m) < 0.3] = 0.0
        b[rng.random(n) < 0.3] = 0.0
        a[int(rng.integers(m))] += 0.5
        b[int(rng.integers(n))] += 0.5
        cost = rng.uniform(0.0, 4.0, (m, n))
        if rng.random() < 0.5:
            cost = np.round(cost)
        _solve(h, hv, cost, a / a.sum(), b / b.sum())
        _caps(h, hv, cost, a / a.sum(), b / b.sum())
    # small integer costs and small integer weights: ties in cost and in mass
    for _ in range(60):
        m, n = (int(k) for k in rng.integers(2, 7, 2))
        cost = rng.integers(0, 4, (m, n)).astype(float)
        a, b = rng.integers(1, 4, m).astype(float), rng.integers(1, 4, n).astype(float)
        _solve(h, hv, cost, a / a.sum(), b / b.sum())
    # 1-D pairs by the LP route, and 2-D pairs on a line
    for n in (1, 3, 10, 20, 40):
        mu, nu = _measure(rng, n, 1), _measure(rng, n + 2, 1)
        hv.update(repr(w1_distance(mu, nu, method="lp")).encode())
        angle = rng.uniform(0.0, np.pi)
        u, c = np.array([np.cos(angle), np.sin(angle)]), rng.uniform(-1.0, 1.0, 2)
        line = [make_measure(p.atoms * u + c, p.weights) for p in (mu, nu)]
        hv.update(repr(w1_distance(*line)).encode())
        _caps(h, hv, _cost(line[0].atoms, line[1].atoms), mu.weights, nu.weights)
    # lifted pairs: the cold stage one and the warm, restricted stage two
    for n in (3, 8, 20, 20, 30):
        v1, v2 = _lifted(rng, n), _lifted(rng, n + 1)
        hv.update(repr((lifted_w1(v1, v2), fiber_pseudometric(v1, v2))).encode())
    return h.hexdigest(), hv.hexdigest()


@pytest.fixture(scope="module")
def digests():
    with pytest.MonkeyPatch.context() as monkeypatch:
        return battery_digests(monkeypatch)


def test_transport_battery_solves_and_plans_are_bit_identical_to_the_pinned_digest(digests):
    assert digests[0] == SOLVES_DIGEST


def test_transport_battery_values_are_bit_identical_to_the_pinned_digest(digests):
    assert digests[1] == VALUES_DIGEST
