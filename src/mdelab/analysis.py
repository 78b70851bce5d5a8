"""Diagnostics for scheme runs: weak residuals, convergence, comparisons.

The residual check measures how far a recorded path is from solving the
evolution law in the weak sense: for a smooth bump f, the change of
⟨mu_t, f⟩ should equal the time integral of the mean of grad f(x)·v under
the velocity rule evaluated along the path.  The integrand is only known
at node measures, so the integral is a trapezoid sum over nodes; the
defect therefore carries an O(dt) quadrature floor and the useful signal
is how it scales with N, not its absolute size.  A bump is evaluated by
one route, the residual's in-place polynomial (``_polynomial``): a block
of the residual and ``TestFunction.value`` and ``.gradient`` alike form
s = max(1 - |x - c|²/r², 0), the value (s·s)·s and the gradient
((s·s)·k)·(x - c) with k = -6/r², in that order.

Convergence studies and scheme comparisons score paths they are given:
both reduce them to tables of sup-over-node-times Wasserstein-1 numbers,
ready for CSV plotting, and neither runs a scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import DimMismatchError, EmptyInputError
from .measures import DiscreteMeasure, _radius, _same_dim, is_real
from .pvf import PvfSpec, eval_pvf
from .schemes import MeasurePath, interpolate_at
from .transport import _w1_sweep

# sup of |grad f| for the cubic bump, attained at |x-c| = r/sqrt(5)
_GRAD_SUP = 96.0 / (25.0 * np.sqrt(5.0))
# the largest buffer of a residual block, in bytes; on the 257-node,
# 256-atom splitting path, blocks of 2^17 to 2^19 bytes measured alike, and
# smaller ones slower, as each numpy call then covers fewer elements
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
        if not (is_real(r) and r > 0 and np.isfinite(r)):
            raise ValueError(f"radius must be a positive finite number, got {r!r}")
        r = float(r)
        if c.shape[0] == 0:
            raise ValueError(f"center needs at least one coordinate, got shape {c.shape}")
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
        _, s, s2 = self._at(points)
        return np.multiply(s2, s, out=s2)

    def gradient(self, points: np.ndarray) -> np.ndarray:
        diff, _, s2 = self._at(points)
        np.multiply(s2, -6.0 / self.radius**2, out=s2)  # (s·s)·k with k = -6/r²
        return np.multiply(s2[..., None], diff, out=diff)

    def lipschitz_bound(self) -> float:
        """Exact sup-norm of the gradient (well below the crude 6/r)."""
        return _GRAD_SUP / self.radius

    def _at(self, points):
        """diff = points - c, s and s·s at ``points`` (..., d), by the
        residual's ``_polynomial`` on buffers shaped like the points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        _check_dims([self], pts.shape[-1])
        # diff and the squares shaped (..., d), s and s·s (...)
        diff, sq, s, s2 = (np.empty(pts.shape[:n]) for n in (None, None, -1, -1))
        _polynomial(pts, self.center, self.radius**2, diff, None if self.dim == 1 else sq, s, s2)
        return diff, s, s2


def _check_dims(family: Sequence[TestFunction], dim: int) -> None:
    """Raise DimMismatchError, naming both dimensions, for a bump not of ``dim``."""
    for f in family:
        if f.dim != dim:
            raise DimMismatchError(f"test function dim {f.dim} vs point dim {dim}")


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
    try:
        atoms = np.concatenate([m.atoms for m in measures])
    except ValueError:  # atoms of two dimensions; the happy path tests none
        for m in measures:
            _same_dim(measures[0].dim, m.dim)
        raise
    lo, hi = atoms.min(axis=0), atoms.max(axis=0)
    mid = (lo + hi) / 2.0
    half = 1.2 * (hi - lo) / 2.0
    lo, hi = mid - half, mid + half
    width = _radius((hi - lo)[None, :])
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

    The whole family is scored at once on blocks of nodes with equal atom
    and lift row counts (``_blocks``).  Per bump of radius r, with diff =
    x - c, a block computes s = max(1 - Σ_d diff² / r², 0), the values
    Σ_rows ((s·s)·s)·w over each node's atoms and weights, and the
    integrand Σ_rows (Σ_d ((k·(s·s))·diff)·v)·w over each lift's rows,
    with k = -6/r².  Where each lift's positions are its node's atoms (the
    same array: a graph field's lift, a splitting lift whose median moves
    whole), one s and one s·s serve both; elsewhere the lift rows get their
    own.  Every step writes into (bumps, nodes, rows) buffers that the
    blocks of one key reuse, and for d = 1 the coordinate sums read the
    single coordinate.  An array that every node or lift of a block holds
    (the weights and velocity columns of a torn splitting block's moved
    run, or of a fixed point's repeated node) is broadcast, not stacked.
    Sums run along each node's contiguous row, so each defect is bit for
    bit what a loop over bumps and nodes gives.
    """
    if family is None:
        family = default_test_family(path.measures)
    family = list(family)
    if not family:
        raise EmptyInputError("test family is empty")
    _check_dims(family, path.dim)
    times = path.times
    one = path.dim == 1
    lead = (len(family), 1, 1)
    centers = np.array([f.center for f in family]).reshape(lead + (-1,))
    r2 = np.array([f.radius**2 for f in family]).reshape(lead)
    k = -6.0 / r2
    nodes = path.measures
    lifts = [eval_pvf(spec, mu) for mu in nodes]
    integrand = np.empty((len(family), len(nodes)))
    values = np.empty((len(family), len(nodes)))
    keys = [(mu.natoms, lf.natoms, lf.positions is mu.atoms) for mu, lf in zip(nodes, lifts)]
    for (n, m, shared), chunks in _blocks(keys, family, path.dim):
        shape = (len(family), len(chunks[0]), max(n, m))
        # diff, its squares (or None for d = 1), s, s·s, and the products summed over rows
        buffers = (np.empty(shape + (path.dim,)), None if one else np.empty(shape + (path.dim,)),
                   np.empty(shape), np.empty(shape), np.empty(shape))
        for ks in chunks:  # each block takes the (bumps, nodes, rows) corner it needs
            diff, sq, s, s2, t = (b if b is None else b[:, :len(ks), :n] for b in buffers)
            _polynomial(_held([nodes[j].atoms for j in ks]), centers, r2, diff, sq, s, s2)
            np.multiply(s2, s, out=t)
            np.multiply(t, _held([nodes[j].weights for j in ks]), out=t)
            values[:, ks] = np.add.reduce(t, axis=-1)
            if not shared:
                diff, sq, s, s2, t = (b if b is None else b[:, :len(ks), :m] for b in buffers)
                _polynomial(_held([lifts[j].positions for j in ks]), centers, r2, diff, sq, s, s2)
            vel = _held([lifts[j].velocities for j in ks])
            np.multiply(s2, k, out=t)
            if one:
                np.multiply(t, diff[..., 0], out=t)
                np.multiply(t, vel[..., 0], out=t)
            else:
                np.multiply(t[..., None], diff, out=sq)
                np.multiply(sq, vel, out=sq)
                np.add.reduce(sq, axis=-1, out=t)
            np.multiply(t, _held([lifts[j].weights for j in ks]), out=t)
            integrand[:, ks] = np.add.reduce(t, axis=-1)
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


def _held(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The one array that every entry of ``arrays`` is, to be broadcast,
    or the arrays stacked along a new leading axis."""
    first = arrays[0]
    return first if all(a is first for a in arrays) else np.stack(arrays)


def _polynomial(points, centers, r2, diff, sq, s, s2) -> None:
    """Write diff = points - center, s = max(1 - Σ_d diff² / r², 0) and
    s·s per bump into the buffers ``diff``, ``s`` and ``s2``: the bump
    polynomial, the only code that forms s.  A residual block passes
    (bumps, nodes, rows[, d]) buffers, a ``TestFunction`` buffers shaped
    like its points (..., d).  ``sq`` takes the squares where d > 1 and is
    None for d = 1, where ``s`` takes the one square."""
    np.subtract(points, centers, out=diff)
    if sq is None:
        np.multiply(diff[..., 0], diff[..., 0], out=s)
    else:
        np.multiply(diff, diff, out=sq)
        np.add.reduce(sq, axis=-1, out=s)
    np.divide(s, r2, out=s)
    np.subtract(1.0, s, out=s)
    np.maximum(s, 0.0, out=s)
    np.multiply(s, s, out=s2)


def _blocks(keys: Sequence[tuple[int, int, bool]], family: Sequence[TestFunction], dim: int):
    """Each distinct key (node atoms, lift rows, shared positions) of
    ``keys``, with its node indices in chunks whose (bumps, nodes, rows, d)
    buffers stay under ``_BLOCK_BYTES``."""
    by_key: dict[tuple[int, int, bool], list[int]] = {}
    for k, key in enumerate(keys):
        by_key.setdefault(key, []).append(k)
    for key, ks in by_key.items():
        step = max(1, _BLOCK_BYTES // (8 * len(family) * max(key[:2]) * dim))
        yield key, [ks[s:s + step] for s in range(0, len(ks), step)]


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


def _at(source: ReferenceLike, times: np.ndarray) -> list[DiscreteMeasure]:
    """``source``, a path or a callable t -> measure, at each of ``times``."""
    at = (lambda t: interpolate_at(source, t)) if isinstance(source, MeasurePath) else source
    return [at(t) for t in times.tolist()]


def _sup_w1(ms: Sequence[DiscreteMeasure], ns: Sequence[DiscreteMeasure]) -> float:
    """max over k of W1(ms[k], ns[k]): one sweep."""
    return float(_w1_sweep(ms, ns).max())


def convergence_study(
    paths: Sequence[MeasurePath],
    scheme: str,
    reference: Optional[ReferenceLike] = None,
) -> ConvergenceTable:
    """Errors of the ``scheme`` runs in ``paths``, ordered by increasing N.

    N and T are read off the paths.  With a reference (path or callable
    t -> measure), each path is compared against it at the coarsest path's
    node times; the reference is evaluated once per time, and each path is
    one sweep against those measures.  Without one, consecutive paths are
    compared with each other at the coarser path's node times, one sweep
    per pair.  A sweep takes W1 on the line for all node pairs of one shape
    in one kernel call, or one per block of a large group
    (``transport._w1_sweep``).
    """
    paths = list(paths)
    if len(paths) == 0:
        raise EmptyInputError("need at least one path")
    Ns = tuple(p.times.shape[0] - 1 for p in paths)
    if any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise ValueError("N must strictly increase along the paths")
    if reference is not None:
        ref = _at(reference, paths[0].times)
        errors = tuple(_sup_w1(_at(p, paths[0].times), ref) for p in paths)
        mode = "reference"
    elif len(paths) < 2:
        raise ValueError("successive mode needs at least two paths")
    else:
        errors = tuple(
            _sup_w1(_at(coarse, coarse.times), _at(fine, coarse.times))
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
    A sweep takes W1 on the line for all node pairs of one shape in one
    kernel call, or one per block of a large group (``transport._w1_sweep``).
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
            sweeps[key] = _sup_w1(runs[a].measures, runs[b].measures)
    gaps = tuple(sweeps[id(runs[a]), id(runs[b])] for a, b in pairs)
    N = first.times.shape[0] - 1
    return ComparisonTable(N=N, T=first.T, pairs=pairs, gaps=gaps)
