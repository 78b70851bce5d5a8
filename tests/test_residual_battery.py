"""A seeded battery of weak residuals, pinned by digest.

The battery scores paths of every shape the residual meets: torn splitting
blocks with dyadic and non-dyadic atom counts (the latter reach the exact
``fsum`` route of the median), splitting runs from random weights, whose
node sizes differ, graph, constant-fiber and custom rules in 1-D and 2-D,
all three schemes, and hand-built paths whose lifts come from
``eval_pvf``.  Each is scored with the default family or with a few bumps
of mixed radii.  The sha256 of every defect table (and of the class of any
error) is pinned, so a change that claims to keep the residual bit for bit
is checked by this test rather than by hand.  A change meant to alter
results must recompute the digest and say why.

The digest is of IEEE double results under numpy's reductions; a numpy
whose summation order differs would need a new pin.  The residual takes no
route that BLAS or numpy's CPU dispatch picks per machine, so the digest of
a few paths is also checked under other BLAS kernels and with numpy's
dispatched loops turned off.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from mdelab import (
    LAGRANGIAN,
    LAS,
    MEAN_VELOCITY,
    ConstantFiberPvf,
    CustomPvf,
    GraphPvf,
    GridSpec,
    MeasurePath,
    SchemeConfig,
    SplittingParticlePvf,
    TestFunction,
    eval_pvf,
    make_lifted,
    make_measure,
    quantile_uniform,
    residual,
    run_scheme,
)
from mdelab.pvf import GRAPH_FIELDS

PATHS = 240
DIGEST = "75f23304aebca7df059f03f82fffbddfe47b71352acf0feec72ca4d9363187b1"

SPLIT = SplittingParticlePvf()
BLOCK_SIZES = (2, 8, 64, 256, 6, 100, 218, 600)


def _measure(rng, dim, max_atoms=8):
    n = int(rng.integers(1, max_atoms + 1))
    pts = rng.uniform(-1.0, 1.0, size=(n, dim))
    if rng.random() < 0.5:  # dyadic coordinates: exact ties
        pts = np.round(pts * 8.0) / 8.0
    w = rng.uniform(0.05, 1.0, size=n)
    if rng.random() < 0.3:  # a weight near the weight floor
        w[int(rng.integers(n))] = rng.choice([1e-9, 3e-15])
    return make_measure(pts, w)


def _custom(mu):
    # the splitting lift at twice the speed, rebuilt from the outside
    lift = eval_pvf(SPLIT, mu)
    return make_lifted(lift.positions, 2.0 * lift.velocities, lift.weights)


def _problem(rng, i):
    """(path, spec, family) for battery entry ``i``."""
    kind = i % 6
    scheme = (LAGRANGIAN, LAS, MEAN_VELOCITY)[(i // 6) % 3]
    T = float(rng.choice([0.5, 1.0, rng.uniform(0.3, 2.0)]))
    N = int(rng.integers(1, 13))
    cfg = SchemeConfig(scheme=scheme, grid=GridSpec(T=T, N=N))
    if kind == 0:  # a torn block
        a = float(rng.uniform(-1.0, 1.0))
        n = int(rng.choice(BLOCK_SIZES))
        mu0 = quantile_uniform(a, a + float(rng.choice([1.0, 0.3])), n)
        spec = SPLIT
    elif kind == 1:  # splitting from random weights
        mu0, spec = _measure(rng, 1, max_atoms=24), SPLIT
    elif kind == 2:
        dim = 1 + int(rng.integers(2))
        name = str(rng.choice(["zero", "linear", "peano"]))
        mu0, spec = _measure(rng, dim), GraphPvf(GRAPH_FIELDS[name], name=f"graph:{name}")
    elif kind == 3:
        dim = 1 + int(rng.integers(2))
        mu0, spec = _measure(rng, dim), ConstantFiberPvf(_measure(rng, dim, max_atoms=3))
        cfg = SchemeConfig(scheme=scheme, grid=GridSpec(T=T, N=min(N, 4)))
    elif kind == 4:
        mu0, spec = _measure(rng, 1), CustomPvf(_custom, name="doubled-splitting")
    else:  # a hand-built path: the splitting lifts of given nodes
        n = int(rng.integers(2, 7))
        nodes = [_measure(rng, 1) for _ in range(n)]
        times = np.cumsum(np.concatenate([[0.0], rng.uniform(0.1, 0.5, n - 1)]))
        lifts = [eval_pvf(SPLIT, mu) for mu in nodes[:-1]]
        spec = SPLIT if rng.random() < 0.5 else SplittingParticlePvf()
        return MeasurePath(times, tuple(nodes), tuple(lifts)), spec, _family(rng, 1)
    return run_scheme(spec, mu0, cfg), spec, _family(rng, mu0.dim)


def _family(rng, dim):
    if rng.random() < 0.5:
        return None
    return [TestFunction(center=rng.uniform(-2.0, 2.0, size=dim),
                         radius=float(rng.uniform(0.5, 4.0)))
            for _ in range(int(rng.integers(1, 5)))]


def battery_digest(paths: int = PATHS) -> str:
    """The digest of the first ``paths`` entries of the battery."""
    rng = np.random.default_rng(20261018)
    h = hashlib.sha256()
    for i in range(paths):
        h.update(str(i).encode())
        try:
            path, spec, family = _problem(rng, i)
            report = residual(path, spec, family)
        except Exception as exc:  # the error class is part of the result
            h.update(type(exc).__name__.encode())
            continue
        h.update(repr(report.defects.shape).encode())
        h.update(np.ascontiguousarray(report.defects).tobytes())
        h.update(f"{report.max_defect!r} {report.dt!r} {report.family_description}".encode())
    return h.hexdigest()


def test_residual_battery_is_bit_identical_to_the_pinned_digest():
    assert battery_digest() == DIGEST


# child-process settings that change, on x86-64, the BLAS kernels and
# numpy's loops: OpenBLAS's oldest and its AMD kernels, and numpy with every
# dispatch target of its build off, so only its baseline loops run.  Only
# the targets this CPU has are named: numpy warns at import of any other
DISPATCH = (
    {"OPENBLAS_CORETYPE": "Prescott"},
    {"OPENBLAS_CORETYPE": "Zen"},
    {"NPY_DISABLE_CPU_FEATURES": " ".join(t for t in __cpu_dispatch__ if __cpu_features__[t])},
)


def test_residual_battery_is_bit_identical_under_other_cpu_dispatch():
    # the first 12 entries hold every kind of path under two schemes
    tests = Path(__file__).resolve().parent
    src = str(tests.parent / "src")
    paths = os.pathsep.join(filter(None, [src, str(tests), os.environ.get("PYTHONPATH")]))
    code = "import test_residual_battery as t; print(t.battery_digest(12))"
    children = [subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                                 text=True, env={**os.environ, "PYTHONPATH": paths, **setting})
                for setting in DISPATCH]
    digests = [child.communicate(timeout=60)[0].strip() for child in children]
    assert digests == [battery_digest(12)] * len(DISPATCH)
