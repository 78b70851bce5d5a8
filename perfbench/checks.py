"""Output checks for the benchmark's operations.

Every check takes plain data (numpy arrays, floats, bytes) that the
workload extracted from an operation's result, and raises ``CheckError``
when the data is wrong.  Nothing here imports mdelab: expected values come
from closed forms and from small numpy references written for this file, so
a check cannot agree with the library by sharing its code.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np


class CheckError(Exception):
    """An operation returned a result that fails its output check."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def w1_line(xa, wa, xb, wb) -> float:
    """Wasserstein-1 on the line as the integral of |F_a - F_b|."""
    xa = np.asarray(xa, dtype=float).ravel()
    xb = np.asarray(xb, dtype=float).ravel()
    wa = np.asarray(wa, dtype=float).ravel() / np.sum(wa)
    wb = np.asarray(wb, dtype=float).ravel() / np.sum(wb)
    grid = np.unique(np.concatenate([xa, xb]))
    fa = np.array([wa[xa <= z].sum() for z in grid])
    fb = np.array([wb[xb <= z].sum() for z in grid])
    return float(np.sum(np.abs(fa - fb)[:-1] * np.diff(grid)))


def binomial_law(x0: float, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Law after k steps of the +-1/n walk from x0: atoms and exact weights."""
    atoms = np.array([x0 + (2 * i - k) / n for i in range(k + 1)])
    weights = np.array(
        [float(Fraction(math.comb(k, i), 2**k)) for i in range(k + 1)]
    )
    return atoms, weights


def parse_path_csv(data: bytes) -> dict[float, tuple[np.ndarray, np.ndarray]]:
    """Node time -> (atoms (n, d), weights) from a path CSV artifact."""
    lines = data.decode("utf-8").splitlines()
    require(lines and lines[0].startswith("t,"), "path CSV: bad header")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    require(rows.ndim == 2 and rows.shape[0] > 0, "path CSV: no rows")
    nodes = {}
    for t in np.unique(rows[:, 0]):
        sel = rows[rows[:, 0] == t]
        nodes[float(t)] = (sel[:, 1:-1], sel[:, -1])
    return nodes


def check_node(atoms, weights, expect_atoms, expect_weights, tol, where) -> None:
    """A 1-D node measure equals the expected atoms and weights within tol."""
    weights = np.asarray(weights, dtype=float)
    atoms = np.asarray(atoms, dtype=float).reshape(len(weights), -1)[:, 0]
    require(
        len(atoms) == len(expect_atoms),
        f"{where}: {len(atoms)} atoms, expected {len(expect_atoms)}",
    )
    i = np.argsort(atoms, kind="stable")
    j = np.argsort(expect_atoms, kind="stable")
    gap = max(
        float(np.max(np.abs(atoms[i] - expect_atoms[j]))),
        float(np.max(np.abs(weights[i] - expect_weights[j]))),
    )
    require(gap <= tol, f"{where}: off by {gap:.3e}")


def check_lattice(atoms, weights, dx: float, where: str) -> None:
    """Atoms sit on multiples of dx and the weights sum to one."""
    q = np.asarray(atoms, dtype=float) / dx
    off = float(np.max(np.abs(q - np.rint(q)), initial=0.0))
    require(off <= 1e-9, f"{where}: atom {off:.3e} grid steps off the dx grid")
    mass = float(np.sum(weights))
    require(abs(mass - 1.0) <= 1e-12, f"{where}: total mass {mass!r}")


# ---------------------------------------------------------------------------
# scenarios workload
# ---------------------------------------------------------------------------

def normalize_tree(files: dict[str, bytes]) -> dict[str, bytes]:
    """Artifact bytes with the manifest's ``wall_time_s`` removed."""
    require("manifest.json" in files, "no manifest.json written")
    manifest = json.loads(files["manifest.json"].decode("utf-8"))
    listed = set(manifest.get("artifacts", [])) | {"manifest.json"}
    require(listed == set(files), "manifest artifact list does not match the files")
    manifest.pop("wall_time_s", None)
    out = dict(files)
    out["manifest.json"] = json.dumps(manifest, sort_keys=True).encode("utf-8")
    return out


def check_same_tree(tree: dict[str, bytes], reference: dict[str, bytes]) -> None:
    require(set(tree) == set(reference), "artifact file set differs from the first pass")
    changed = sorted(name for name in tree if tree[name] != reference[name])
    require(not changed, f"artifact bytes differ from the first pass: {changed[:3]}")


def check_splitting_dirac(files: dict[str, bytes], Ns) -> None:
    """las and lagrangian end at 1/2 delta_-1 + 1/2 delta_+1."""
    for scheme in ("las", "lagrangian"):
        for n in Ns:
            nodes = parse_path_csv(files[f"path_{scheme}_N{n}.csv"])
            atoms, weights = nodes[max(nodes)]
            check_node(
                atoms, weights, np.array([-1.0, 1.0]), np.array([0.5, 0.5]),
                1e-9, f"splitting-dirac {scheme} N={n} final node",
            )


def check_binomial(files: dict[str, bytes], Ns) -> None:
    """Every las node of the binomial scenario is the binomial law."""
    for n in Ns:
        nodes = parse_path_csv(files[f"path_las_N{n}.csv"])
        require(len(nodes) == n + 1, f"binomial las N={n}: {len(nodes)} nodes")
        for k, t in enumerate(sorted(nodes)):
            atoms, weights = nodes[t]
            ea, ew = binomial_law(0.0, k, n)
            check_node(atoms, weights, ea, ew, 1e-12, f"binomial las N={n} node {k}")


def check_splitting_uniform(files: dict[str, bytes], n: int, m: int) -> None:
    nodes = parse_path_csv(files[f"path_lagrangian_N{n}.csv"])
    atoms, weights = nodes[max(nodes)]
    check_node(
        atoms, weights, torn_block(0.0, m, 1.0), np.full(m, 1.0 / m),
        1e-9, f"splitting-uniform lagrangian N={n} final node",
    )


def check_uniform_fiber(files: dict[str, bytes], Ns) -> None:
    for n in Ns:
        dx = (1.0 / n) * (1.0 / n)
        for t, (atoms, weights) in parse_path_csv(files[f"path_las_N{n}.csv"]).items():
            check_lattice(atoms, weights, dx, f"uniform-fiber las N={n} t={t:g}")


def check_peano(files: dict[str, bytes]) -> None:
    """On the unit grid the lattice scheme visits -1, 1, 3, 6."""
    nodes = parse_path_csv(files["path_las_N3.csv"])
    got = [float(nodes[t][0][0, 0]) for t in sorted(nodes)]
    require(got == [-1.0, 1.0, 3.0, 6.0], f"peano unit-grid positions {got}")


# ---------------------------------------------------------------------------
# transport-2d workload
# ---------------------------------------------------------------------------

def check_equal_routes(lp: float, quantile: float, where: str) -> None:
    require(
        abs(lp - quantile) <= 1e-9,
        f"{where}: LP {lp!r} vs quantile {quantile!r}",
    )


def check_w1_bounds(w: float, xa, wa, xb, wb, where: str) -> None:
    """Bounds on a W1 distance in R^d that need no LP.

    From below, by each coordinate projection (projections are 1-Lipschitz)
    and by the distance of the means; from above, by the cost of the
    independent coupling.
    """
    xa, xb = np.asarray(xa, dtype=float), np.asarray(xb, dtype=float)
    wa = np.asarray(wa, dtype=float) / np.sum(wa)
    wb = np.asarray(wb, dtype=float) / np.sum(wb)
    tol = 1e-9 * (1.0 + abs(w))
    lower = max(
        max(w1_line(xa[:, i], wa, xb[:, i], wb) for i in range(xa.shape[1])),
        float(np.linalg.norm(wa @ xa - wb @ xb)),
    )
    dist = np.sqrt(((xa[:, None, :] - xb[None, :, :]) ** 2).sum(axis=2))
    upper = float(wa @ dist @ wb)
    require(lower - tol <= w <= upper + tol, f"{where}: W1 {w!r} outside [{lower!r}, {upper!r}]")


def check_lifted(lifted: float, fiber: float, base_w1: float, where: str) -> None:
    """W1(base) <= lifted_w1 <= W1(base) + fiber_pseudometric + 1e-9 (1 + W1)."""
    tol = 1e-9 * (1.0 + base_w1)
    require(fiber >= 0.0, f"{where}: negative fiber pseudometric {fiber!r}")
    require(
        base_w1 - tol <= lifted <= base_w1 + fiber + tol,
        f"{where}: lifted {lifted!r} outside [{base_w1!r}, {base_w1 + fiber!r}]",
    )


# ---------------------------------------------------------------------------
# long-runs workload
# ---------------------------------------------------------------------------

def torn_block(a: float, m: int, t: float) -> np.ndarray:
    """Atoms of the m-point uniform block on [a, a + 1] after tearing for t.

    The splitting rule sends the lower half left and the upper half right
    at unit speed.
    """
    x = a + (np.arange(m) + 0.5) / m
    return np.where(np.arange(m) < m // 2, x - t, x + t)


def check_lattice_path(nodes, dx: float, per_step: int, where: str) -> None:
    """Nodes on the dx grid with mass one; node k has 1 + per_step k atoms."""
    for k, (atoms, weights) in enumerate(nodes):
        check_lattice(atoms, weights, dx, f"{where} node {k}")
        require(
            len(weights) == 1 + per_step * k,
            f"{where} node {k}: {len(weights)} atoms, expected {1 + per_step * k}",
        )


def check_round_trip(written, read, where: str) -> None:
    for name, a, b in zip(("times", "weights", "knots"), written, read):
        require(
            np.shape(a) == np.shape(b) and np.array_equal(a, b),
            f"{where}: {name} changed in the JSON round trip",
        )
