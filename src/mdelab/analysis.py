"""Diagnostics for scheme runs: weak residuals, convergence, comparisons.

The residual check measures how far a recorded path is from solving the
evolution law in the weak sense: for a smooth bump f, the change of
⟨mu_t, f⟩ should equal the time integral of the mean of grad f(x)·v under
the velocity rule evaluated along the path.  The integrand is only known
at node measures, so the integral is a trapezoid sum over nodes; the
defect therefore carries an O(dt) quadrature floor and the useful signal
is how it scales with N, not its absolute size.

Convergence studies and scheme comparisons score paths they are given:
both reduce them to tables of sup-over-node-times Wasserstein-1 numbers,
ready for CSV plotting, and neither runs a scheme.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import DimMismatchError, EmptyInputError
from .measures import DiscreteMeasure
from .pvf import PvfSpec, eval_pvf
from .schemes import MeasurePath, interpolate_at
from .transport import w1_distance

# sup of |grad f| for the cubic bump, attained at |x-c| = r/sqrt(5)
_GRAD_SUP = 96.0 / (25.0 * np.sqrt(5.0))
# the largest temporary of a residual block, in bytes; larger blocks
# measured slower, since fresh pages for each temporary cost more than the
# numpy calls they save
_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class TestFunction:
    """Compactly supported cubic bump centered at c with radius r.

    f(x) = (max(0, 1 - |x-c|^2/r^2))^3.  Twice continuously
    differentiable, zero outside the ball B(c, r).
    """

    __test__ = False  # not a pytest collectible despite the name

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, dtype=float)).ravel()
        r = self.radius
        # a bool or a string would read as a number through float()
        if isinstance(r, bool) or not isinstance(r, numbers.Real) or not (r > 0 and np.isfinite(r)):
            raise ValueError(f"radius must be a positive finite number, got {r!r}")
        r = float(r)
        if not np.all(np.isfinite(c)):
            raise ValueError("center must be finite")
        c = c + 0.0
        c.setflags(write=False)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", r)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def value(self, points: np.ndarray) -> np.ndarray:
        return _bump(*self._at(points))[2][0] ** 3

    def gradient(self, points: np.ndarray) -> np.ndarray:
        return _bump_gradients(*_bump(*self._at(points)))[0]

    def lipschitz_bound(self) -> float:
        """Exact sup-norm of the gradient (well below the crude 6/r)."""
        return _GRAD_SUP / self.radius

    def _at(self, points):
        """The arguments of ``_bump`` for this bump at ``points``."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        _check_dims([self], pts.shape[-1])
        return pts, self.center[None, :], np.array([self.radius**2])


def _check_dims(family: Sequence[TestFunction], dim: int) -> None:
    """Raise DimMismatchError, naming both dimensions, for a bump not of ``dim``."""
    for f in family:
        if f.dim != dim:
            raise DimMismatchError(f"test function dim {f.dim} vs point dim {dim}")


def _bump(points: np.ndarray, centers: np.ndarray, r2: np.ndarray):
    """(points - center, squared radius, s = max(1 - |points - center|^2 / r^2, 0))
    per bump, for points (..., d), centers (bumps, d) and squared radii
    (bumps,): the bump's value is s^3.  The differences have shape
    (bumps, ..., d), s (bumps, ...), and the radii broadcast against s."""
    lead = (len(centers),) + (1,) * (points.ndim - 1)
    diff, r2 = points[None] - centers.reshape(lead + centers.shape[1:]), r2.reshape(lead)
    return diff, r2, np.maximum(1.0 - np.sum(diff**2, axis=-1) / r2, 0.0)


def _bump_gradients(diff: np.ndarray, r2: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Cubic bump gradients, shape (bumps, ..., d), from the parts ``_bump`` returns."""
    return (-6.0 / r2)[..., None] * s[..., None] ** 2 * diff


def default_test_family(measures: Sequence[DiscreteMeasure]) -> list[TestFunction]:
    """Nine overlapping bumps covering the support hull, inflated by 20%.

    Centers sit on a uniform 9-point grid along the hull box diagonal
    (which in one dimension is just the inflated interval); the common
    radius is the inflated hull diameter, so every bump sees all the mass
    and no movement escapes the family.  Degenerate hulls fall back to
    radius 1.
    """
    if len(measures) == 0:
        raise EmptyInputError("need at least one measure to size the family")
    atoms = np.concatenate([m.atoms for m in measures])
    lo, hi = atoms.min(axis=0), atoms.max(axis=0)
    mid = (lo + hi) / 2.0
    half = 1.2 * (hi - lo) / 2.0
    lo, hi = mid - half, mid + half
    width = float(np.linalg.norm(hi - lo))
    if width <= 0:
        width = 1.0
    fracs = np.linspace(0.0, 1.0, 9)
    return [TestFunction(center=lo + f * (hi - lo), radius=width) for f in fracs]


@dataclass(frozen=True)
class ResidualReport:
    """Weak-form defects of one path, per test function and node time."""

    times: np.ndarray
    defects: np.ndarray
    max_defect: float
    dt: float
    family_description: str

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "defects", np.asarray(self.defects, dtype=float))


def residual(
    path: MeasurePath, spec: PvfSpec, family: Optional[Sequence[TestFunction]] = None
) -> ResidualReport:
    """Defect |⟨mu_k, f⟩ - ⟨mu_0, f⟩ - Trap_k| per bump f and node k.

    Trap_k is the trapezoid sum over nodes 0..k of the mean of
    grad f(x)·v under the velocity rule evaluated at each node measure.
    Evaluating the rule at the nodes (rather than trusting the stored
    interval lifts) makes this a test of the path as a candidate solution,
    independent of the scheme that produced it.
    """
    if family is None:
        family = default_test_family(path.measures)
    family = list(family)
    if not family:
        raise EmptyInputError("test family is empty")
    _check_dims(family, path.dim)
    times = path.times
    centers = np.array([f.center for f in family])
    r2 = np.array([f.radius**2 for f in family])
    nodes = path.measures
    lifts = [eval_pvf(spec, mu) for mu in nodes]
    integrand = np.empty((len(family), len(nodes)))
    values = np.empty((len(family), len(nodes)))
    # The whole family at once on blocks of nodes with equal atom and lift
    # row counts.  Where each lift's positions are its node's atoms (the
    # same array: a graph field's lift, a splitting lift whose median moves
    # whole), the bump polynomial s serves both the values and the
    # gradients.  Sums run along each node's contiguous row, and the value
    # of a bump at a node is one stacked dot of the node's weights with its
    # row, so each defect is bit for bit what a loop over bumps and nodes
    # gives.
    keys = [(mu.natoms, lf.natoms, lf.positions is mu.atoms) for mu, lf in zip(nodes, lifts)]
    for ks in _blocks(keys, family, path.dim):
        diff, r2s, s = _bump(np.stack([nodes[k].atoms for k in ks]), centers, r2)
        w = np.stack([nodes[k].weights for k in ks])
        values[:, ks] = np.matmul((s**3)[..., None, :], w[None, :, :, None])[..., 0, 0]
        if not keys[ks[0]][2]:
            diff, r2s, s = _bump(np.stack([lifts[k].positions for k in ks]), centers, r2)
        grad = _bump_gradients(diff, r2s, s)
        vel = np.stack([lifts[k].velocities for k in ks])
        w = np.stack([lifts[k].weights for k in ks])
        integrand[:, ks] = np.sum(np.sum(grad * vel, axis=-1) * w, axis=-1)
    steps = np.diff(times)
    trap = np.zeros_like(values)
    np.cumsum(steps * (integrand[:, :-1] + integrand[:, 1:]) / 2.0, axis=1, out=trap[:, 1:])
    defects = np.abs(values - values[:, :1] - trap)
    dt = float(np.max(np.diff(times)))
    desc = (
        f"{len(family)} cubic bumps, radius {family[0].radius:g}"
        if len({f.radius for f in family}) == 1
        else f"{len(family)} cubic bumps, mixed radii"
    )
    return ResidualReport(
        times=times,
        defects=defects,
        max_defect=float(defects.max()),
        dt=dt,
        family_description=desc,
    )


def _blocks(keys: Sequence[tuple[int, int, bool]], family: Sequence[TestFunction], dim: int):
    """Lists of node indices with equal ``keys`` (node atoms, lift rows,
    shared positions), in chunks whose (bumps, nodes, rows, d) float
    temporaries stay under ``_BLOCK_BYTES``."""
    by_key: dict[tuple[int, int, bool], list[int]] = {}
    for k, key in enumerate(keys):
        by_key.setdefault(key, []).append(k)
    for (n, m, _), ks in by_key.items():
        step = max(1, _BLOCK_BYTES // (8 * len(family) * max(n, m) * dim))
        for s in range(0, len(ks), step):
            yield ks[s:s + step]


@dataclass(frozen=True)
class ConvergenceTable:
    """sup-over-time W1 errors across a refinement sweep.

    ``mode`` is "reference" (one error per N, against a known limit) or
    "successive" (one error per consecutive pair, keyed by the coarser N).
    """

    scheme: str
    T: float
    Ns: tuple[int, ...]
    errors: tuple[float, ...]
    mode: str

    def rows(self):
        return list(zip(self.Ns, self.errors))


ReferenceLike = Union[MeasurePath, Callable[[float], DiscreteMeasure]]


def _along(path: MeasurePath) -> Callable[[float], DiscreteMeasure]:
    return lambda t: interpolate_at(path, t)


def _sup_w1(a, b, times) -> float:
    """max over ``times`` of W1(a(t), b(t)), for callables t -> measure."""
    return float(max(w1_distance(a(float(t)), b(float(t))) for t in times))


def convergence_study(
    paths: Sequence[MeasurePath],
    scheme: str,
    reference: Optional[ReferenceLike] = None,
) -> ConvergenceTable:
    """Errors of the ``scheme`` runs in ``paths``, ordered by increasing N.

    N and T are read off the paths.  With a reference (path or callable
    t -> measure), each path is compared against it at the coarsest path's
    node times.  Without one, consecutive paths are compared with each
    other at the coarser path's node times.
    """
    paths = list(paths)
    if len(paths) == 0:
        raise EmptyInputError("need at least one path")
    Ns = tuple(p.times.shape[0] - 1 for p in paths)
    if any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise ValueError("N must strictly increase along the paths")
    if reference is not None:
        ref = _along(reference) if isinstance(reference, MeasurePath) else reference
        errors = tuple(_sup_w1(_along(p), ref, paths[0].times) for p in paths)
        mode = "reference"
    elif len(paths) < 2:
        raise ValueError("successive mode needs at least two paths")
    else:
        errors = tuple(
            _sup_w1(_along(coarse), _along(fine), coarse.times)
            for coarse, fine in zip(paths, paths[1:])
        )
        Ns, mode = Ns[:-1], "successive"
    return ConvergenceTable(
        scheme=scheme, T=paths[0].T, Ns=Ns, errors=errors, mode=mode
    )


@dataclass(frozen=True)
class ComparisonTable:
    """Pairwise sup-over-node-times W1 gaps between schemes at one grid."""

    N: int
    T: float
    pairs: tuple[tuple[str, str], ...]
    gaps: tuple[float, ...]

    def gap(self, a: str, b: str) -> float:
        for (pa, pb), g in zip(self.pairs, self.gaps):
            if {pa, pb} == {a, b}:
                return g
        raise KeyError((a, b))

    def rows(self):
        return [(a, b, g) for (a, b), g in zip(self.pairs, self.gaps)]


def scheme_compare(runs: Mapping[str, MeasurePath]) -> ComparisonTable:
    """Tabulate pairwise gaps between paths run on one grid.

    ``runs`` maps a scheme tag to its path; pairs follow the mapping's
    order.  All paths must share their node times.  Tags that map to one
    path object share its sweeps: a pair of one object with itself has gap
    0.0, as the W1 of equal measures is, and each ordered pair of distinct
    objects is swept once, so a repeat gets the bits a second sweep would.
    """
    tags = list(runs)
    if len(tags) == 0:
        raise EmptyInputError("need at least one path")
    first = runs[tags[0]]
    if any(not np.array_equal(runs[tag].times, first.times) for tag in tags):
        raise ValueError("paths must share their node times")
    pairs = tuple((a, b) for i, a in enumerate(tags) for b in tags[i + 1 :])
    # keyed by the ordered pair of path objects, which ``runs`` keeps alive
    sweeps = {(id(p), id(p)): 0.0 for p in runs.values()}
    for a, b in pairs:
        key = (id(runs[a]), id(runs[b]))
        if key not in sweeps:
            sweeps[key] = float(max(map(w1_distance, runs[a].measures, runs[b].measures)))
    gaps = tuple(sweeps[id(runs[a]), id(runs[b])] for a, b in pairs)
    N = first.times.shape[0] - 1
    return ComparisonTable(N=N, T=first.T, pairs=pairs, gaps=gaps)
