"""Trajectory ensembles: paths of measures as weighted bundles of curves.

A ``TrajectoryEnsemble`` is a finite family of piecewise-linear curves with
weights summing to one.  Pushing the ensemble forward through the
evaluation map e_t (read each curve at time t) yields a measure at every
time; a run of one of the schemes is *represented* by an ensemble when
this pushforward reproduces the run's interpolation at all times.

``build_representation`` constructs such an ensemble from a recorded run.
It first counts, from the path alone, the (curve, segment) pairs that
gluing will make, and checks ``max_curves`` against that count before any
curve is built.  The first interval's lifted measure seeds the bundle,
one straight segment per atom, and ``concat_merge`` glues on each later
interval's lifted measure, pairing incoming curves with outgoing segments
through the node measure they share (conditional-independence weights).
The glue is checked exactly, atom by atom: the curve endpoint masses and
the segment start masses summed over each node atom must each equal the
node weights within ``AGREE_TOL`` in total, so the marginals work out.

``verify_fiber_barycenter`` checks the ensemble-level compatibility
condition: at a knot, the weighted mean of right-hand curve slopes through
each position must equal the mean fiber velocity there.  Right derivatives
are the convention, so the final knot carries no check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EndpointMismatchError, OutOfRangeError, SupportBlowupError
from .measures import (
    DiscreteMeasure,
    LiftedMeasure,
    base_of,
    canonical_support,
    fiber_means,
    is_count,
    match_rows,
)
from .pvf import PvfSpec, barycentric_field
from .schemes import MeasurePath, locate_time
from .tolerances import AGREE_TOL, MERGE_TOL


@dataclass(frozen=True, eq=False)
class TrajectoryEnsemble:
    """Weighted piecewise-linear curves over shared knot times.

    ``knots`` has shape (curves, len(times), d).  Construction merges
    curves that coincide at every knot (within the canonical tolerance)
    and sorts the rest, so ensembles are deterministic values.
    """

    times: np.ndarray
    weights: np.ndarray
    knots: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float).ravel()
        knots = np.asarray(self.knots, dtype=float)
        if knots.ndim != 3:
            raise ValueError("knots must have shape (curves, times, dim)")
        if not np.isfinite(times).all():
            raise ValueError("knot times must be finite")
        if times.shape[0] < 2 or np.any(np.diff(times) <= 0):
            raise ValueError("need at least two strictly increasing knot times")
        if knots.shape[1] != times.shape[0]:
            raise ValueError("one knot per time per curve required")
        ncurves, ntimes, d = knots.shape
        flat, weights = canonical_support(
            knots.reshape(ncurves, ntimes * d), self.weights
        )
        knots = np.ascontiguousarray(flat.reshape(-1, ntimes, d))
        times = np.ascontiguousarray(times)
        knots.setflags(write=False)
        times.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "knots", knots)

    @property
    def ncurves(self) -> int:
        return self.knots.shape[0]

    @property
    def dim(self) -> int:
        return self.knots.shape[2]

    def __repr__(self) -> str:
        return (
            f"TrajectoryEnsemble(ncurves={self.ncurves}, "
            f"nknots={self.times.shape[0]}, dim={self.dim})"
        )


# ---------------------------------------------------------------------------
# gluing
# ---------------------------------------------------------------------------

def concat_merge(
    head: TrajectoryEnsemble, tail: LiftedMeasure, t_end: float, joint: DiscreteMeasure
) -> TrajectoryEnsemble:
    """Extend ``head`` to ``t_end`` by the segments of ``tail``, pairing through ``joint``.

    Each atom (x, v) of ``tail`` is a straight segment that starts at x at
    time ``head.times[-1]`` with slope v.  Every head endpoint and every
    segment start must match a joint atom within ``MERGE_TOL``.  Summed per
    joint atom, the head endpoint masses m_head and the segment start
    masses m_tail must each equal the joint weights: sum |m - joint.weights|
    <= ``AGREE_TOL``, and no joint atom may lack incoming or outgoing mass.
    Otherwise EndpointMismatchError.  Over each joint atom carrying mass m,
    a curve of weight a and a segment of weight b combine with weight
    m (a / m_head)(b / m_tail); this conditional-independence pairing
    preserves both marginals.
    """
    dt = t_end - head.times[-1]
    if not dt > 0:
        raise ValueError(f"need t_end > {head.times[-1]:g}, got {t_end:g}")
    end_pts = head.knots[:, -1, :]
    h_at = match_rows(end_pts, joint.atoms, MERGE_TOL)
    t_at = match_rows(tail.positions, joint.atoms, MERGE_TOL)
    if np.any(h_at < 0) or np.any(t_at < 0):
        raise EndpointMismatchError("a curve endpoint matches no joint atom")
    m_head = np.bincount(h_at, weights=head.weights, minlength=joint.natoms)
    m_tail = np.bincount(t_at, weights=tail.weights, minlength=joint.natoms)
    for name, m in (("head endpoint", m_head), ("tail start", m_tail)):
        gap = float(np.abs(m - joint.weights).sum())
        if gap > AGREE_TOL:
            raise EndpointMismatchError(f"{name} masses are {gap:.3e} off the joint weights")
    if np.any((joint.weights > 0) & ((m_head <= 0) | (m_tail <= 0))):
        raise EndpointMismatchError("a joint atom has no incoming or outgoing mass")

    # Every (curve, segment) pair meeting at a joint atom, curve-major:
    # curve ci pairs with the segments over its atom in index order.
    count = np.bincount(t_at, minlength=joint.natoms)
    first = np.cumsum(count) - count
    by_atom = np.argsort(t_at, kind="stable")
    fan = count[h_at]
    ci = np.repeat(np.arange(head.ncurves), fan)
    rank = np.arange(ci.shape[0]) - np.repeat(np.cumsum(fan) - fan, fan)
    a = h_at[ci]
    si = by_atom[first[a] + rank]
    share = joint.weights[h_at] * (head.weights / m_head[h_at])
    weights = share[ci] * (tail.weights[si] / m_tail[a])
    # Extend from the curve's own endpoint with the segment's slope, so
    # curves stay continuous even when the grouping tolerance absorbed a
    # sub-MERGE_TOL discrepancy.
    end = end_pts[ci] + dt * tail.velocities[si]
    knots = np.concatenate([head.knots[ci], end[:, None, :]], axis=1)
    times = np.concatenate([head.times, [t_end]])
    return TrajectoryEnsemble(times=times, weights=weights, knots=knots)


def _glued_pairs(path: MeasurePath) -> float:
    """Number of (curve, segment) pairs that gluing the whole path makes.

    Carries the count of curves through each lift atom from node to node:
    at node k the curves ending on an atom continue along every lift atom
    starting there.  This is the count before merging, so it equals the
    bundle's ``ncurves`` unless two glued curves coincide.  Raises
    EndpointMismatchError where ``concat_merge`` would find no joint atom.
    """
    times, nodes, lifts = path.times, path.measures, path.interp
    through = np.ones(lifts[0].natoms)
    for k in range(1, len(lifts)):
        prev = lifts[k - 1]
        ends = prev.positions + (times[k] - times[k - 1]) * prev.velocities
        end_at = match_rows(ends, nodes[k].atoms, MERGE_TOL)
        start_at = match_rows(lifts[k].positions, nodes[k].atoms, MERGE_TOL)
        if np.any(end_at < 0) or np.any(start_at < 0):
            raise EndpointMismatchError(f"a curve endpoint matches no atom of node {k}")
        through = np.bincount(end_at, weights=through, minlength=nodes[k].natoms)[start_at]
    return float(through.sum())


def build_representation(path: MeasurePath, max_curves: int = 1_000_000) -> TrajectoryEnsemble:
    """Reconstruct a run as a trajectory ensemble from its interval data.

    The count of glued pairs before merging (see ``_glued_pairs``) is
    computed from the path first; past ``max_curves``, a positive integer,
    it raises SupportBlowupError before any curve is built.  The first
    interval's lifted measure then seeds the bundle, one segment per atom,
    and each later interval is glued on by ``concat_merge``, with the
    recorded node measure as the joint.
    """
    if not is_count(max_curves):
        raise ValueError("max_curves must be a positive integer")
    pairs = _glued_pairs(path)
    if pairs > max_curves:
        raise SupportBlowupError(f"{pairs:.0f} curves exceed the cap of {max_curves}")
    times, first = path.times, path.interp[0]
    ends = first.positions + (times[1] - times[0]) * first.velocities
    knots = np.stack([first.positions, ends], axis=1)
    ens = TrajectoryEnsemble(times=times[:2], weights=first.weights, knots=knots)
    for k in range(1, len(path.interp)):
        ens = concat_merge(ens, path.interp[k], times[k + 1], path.measures[k])
    return ens


# ---------------------------------------------------------------------------
# evaluation and checks
# ---------------------------------------------------------------------------

def evaluate_pushforward(ens: TrajectoryEnsemble, t: float) -> DiscreteMeasure:
    """The measure seen at time t: each curve contributes its point."""
    t = float(t)
    times = ens.times
    k, at_node = locate_time(times, t)
    if at_node:
        pts = ens.knots[:, k, :]
    else:
        frac = (t - times[k]) / (times[k + 1] - times[k])
        pts = ens.knots[:, k, :] + frac * (ens.knots[:, k + 1, :] - ens.knots[:, k, :])
    return DiscreteMeasure(pts, ens.weights)


def max_speed(ens: TrajectoryEnsemble) -> float:
    """Largest segment speed over all curves and intervals.

    Finite by construction; useful against the sublinear growth bound
    C * (1 + max support radius) of the generating rule.
    """
    steps = np.diff(ens.times)[None, :, None]
    rates = np.diff(ens.knots, axis=1) / steps
    return float(np.sqrt((rates**2).sum(axis=2)).max())


@dataclass(frozen=True)
class FiberBarycenterReport:
    """Outcome of the knot-slope compatibility check at one knot time."""

    time: float
    max_defect: float
    positions: np.ndarray
    ensemble_means: np.ndarray
    field_values: np.ndarray
    defects: np.ndarray


def verify_fiber_barycenter(
    ens: TrajectoryEnsemble, spec: PvfSpec, t: float
) -> FiberBarycenterReport:
    """Compare mean right-hand slopes against the rule's fiber means at t.

    ``t`` must be a knot time with a following interval (right-derivative
    convention).  The curves' positions and right-hand slopes at t form a
    lifted measure whose base is the pushforward measure; its fiber means
    are the mean slopes, compared with the mean fiber velocity of the rule
    evaluated on the pushforward measure.
    """
    times = ens.times
    k, at_node = locate_time(times, t)
    if not at_node:
        raise OutOfRangeError(f"t={t:g} is not a knot time")
    if k >= times.shape[0] - 1:
        raise OutOfRangeError("the final knot has no right-hand slope")

    slopes = (ens.knots[:, k + 1, :] - ens.knots[:, k, :]) / (times[k + 1] - times[k])
    lift = LiftedMeasure(ens.knots[:, k, :], slopes, ens.weights)
    mu_t = base_of(lift)
    _, means = fiber_means(lift)
    field = barycentric_field(spec, mu_t)
    defects = np.linalg.norm(means - field, axis=1)
    return FiberBarycenterReport(
        time=float(times[k]),
        max_defect=float(defects.max()),
        positions=mu_t.atoms,
        ensemble_means=means,
        field_values=field,
        defects=defects,
    )
