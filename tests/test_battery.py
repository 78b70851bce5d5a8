"""A seeded battery of scheme runs and ``coalesce`` calls, pinned by digest.

The battery runs every rule under every scheme, in 1-D and 2-D, with and
without ``coalesce_tol`` and ``prune_floor``, on small random measures with
exact ties, near-ties and tiny weights, and coalesces random measures at
random tolerances.  The sha256 of every node, lift and pruned mass (and of
the class of any error) is pinned, so a refactor of the scheme steps, the
rules or the canonical kernel that claims to keep results bit for bit is
checked by this test rather than by hand.  A change meant to alter
results must recompute the digest and say why.

The digest is of IEEE double results under numpy's reductions; a numpy whose
summation order differs would need a new pin.
"""

import hashlib

import numpy as np

from mdelab import (
    LAGRANGIAN,
    LAS,
    MEAN_VELOCITY,
    ConstantFiberPvf,
    CustomPvf,
    GraphPvf,
    GridSpec,
    SchemeConfig,
    SplittingParticlePvf,
    coalesce,
    make_lifted,
    make_measure,
    run_scheme,
)
from mdelab.pvf import GRAPH_FIELDS

PATHS = 480
COALESCE_CALLS = 400
DIGEST = "ab2b104c530fca88c21b57f331db85c47fa6b30e0ff12a724638175f6b5577a5"


def _measure(rng, dim, max_atoms=6):
    n = int(rng.integers(1, max_atoms + 1))
    pts = rng.uniform(-1.0, 1.0, size=(n, dim))
    if rng.random() < 0.5:  # dyadic coordinates: exact ties and on-grid atoms
        pts = np.round(pts * 8.0) / 8.0
    if rng.random() < 0.3 and n > 1:  # a near-tie at the merge tolerance
        pts[-1] = pts[0] + rng.choice([0.5e-12, 1e-12, 2e-12])
    w = rng.uniform(0.05, 1.0, size=n)
    if rng.random() < 0.3:  # a weight near the prune floor
        w[int(rng.integers(n))] = rng.choice([1e-7, 1e-9, 3e-15])
    return make_measure(pts, w)


def _custom(dim):
    def evaluate(mu):
        # two velocities per atom, the first depending on the position
        pos = np.repeat(mu.atoms, 2, axis=0)
        vel = np.empty_like(pos)
        vel[0::2] = -mu.atoms
        vel[1::2] = 1.0
        w = np.repeat(mu.weights, 2) * np.tile([1.0 / 3.0, 2.0 / 3.0], mu.natoms)
        return make_lifted(pos, vel, w)

    return CustomPvf(evaluate, name=f"custom-{dim}d")


def _rules(rng, dim):
    rules = [GraphPvf(GRAPH_FIELDS[name], name=f"graph:{name}")
             for name in ("zero", "linear", "peano")]
    rules.append(ConstantFiberPvf(_measure(rng, dim, max_atoms=3)))
    rules.append(_custom(dim))
    if dim == 1:
        rules.append(SplittingParticlePvf())
    return rules


def _config(rng, scheme):
    T = float(rng.choice([0.5, 1.0, 2.0, rng.uniform(0.3, 3.0)]))
    N = int(rng.integers(1, 5))
    dv = None if rng.random() < 0.5 else float(rng.choice([0.25, 1.0 / 3.0, 0.5, 1.0]))
    coalesce_tol = 1e-12 if rng.random() < 0.5 else float(rng.uniform(1e-3, 0.3))
    prune_floor = 0.0 if rng.random() < 0.5 else float(rng.choice([1e-8, 1e-6]))
    return SchemeConfig(scheme=scheme, grid=GridSpec(T=T, N=N, dv=dv),
                        coalesce_tol=coalesce_tol, prune_floor=prune_floor)


def _feed(h, *arrays):
    for a in arrays:
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a).tobytes())


def battery_digest() -> str:
    rng = np.random.default_rng(20261018)
    h = hashlib.sha256()
    for i in range(PATHS):
        dim = 1 + i % 2
        rules = _rules(rng, dim)
        spec = rules[(i // 2) % len(rules)]
        scheme = (LAS, LAGRANGIAN, MEAN_VELOCITY)[(i // 12) % 3]
        mu0 = _measure(rng, dim)
        config = _config(rng, scheme)
        h.update(f"{i} {spec.name} {scheme}".encode())
        try:
            path = run_scheme(spec, mu0, config)
        except Exception as exc:  # the error class is part of the result
            h.update(type(exc).__name__.encode())
            continue
        _feed(h, path.times)
        for mu in path.measures:
            _feed(h, mu.atoms, mu.weights)
        for lifted in path.interp:
            _feed(h, lifted.positions, lifted.velocities, lifted.weights)
        h.update(repr(path.pruned_mass).encode())
    for i in range(COALESCE_CALLS):
        mu = _measure(rng, 1 + i % 2, max_atoms=12)
        tol = float(rng.choice([0.0, 1e-12, 2e-12, rng.uniform(0.0, 0.5)]))
        out = coalesce(mu, tol)
        _feed(h, out.atoms, out.weights)
    return h.hexdigest()


def test_battery_is_bit_identical_to_the_pinned_digest():
    assert battery_digest() == DIGEST
