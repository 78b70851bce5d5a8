"""Trajectory ensembles: paths of measures as weighted bundles of curves.

A ``TrajectoryEnsemble`` is a finite family of piecewise-linear curves with
weights summing to one.  Pushing the ensemble forward through the
evaluation map e_t (read each curve at time t) yields a measure at every
time; a run of one of the schemes is *represented* by an ensemble when
this pushforward reproduces the run's interpolation at all times.

``build_representation`` constructs such an ensemble from a recorded run:
each interval's lifted measure becomes a bundle of straight segments, and
consecutive bundles are glued by ``concat_merge``, which pairs incoming
curves with outgoing segments through their shared endpoint distribution
(conditional-independence weights, so the marginals work out exactly).

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
    MERGE_TOL,
    DiscreteMeasure,
    LiftedMeasure,
    canonical_support,
    match_rows,
)
from .pvf import PvfSpec, barycentric_field
from .schemes import _TIME_TOL, MeasurePath, locate_time
from .transport import w1_distance

_JOINT_TOL = 1e-9


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


@dataclass(frozen=True, eq=False)
class SegmentEnsemble:
    """Straight-line curves on one interval: starts plus constant velocities."""

    t_start: float
    t_end: float
    weights: np.ndarray
    starts: np.ndarray
    velocities: np.ndarray

    def __post_init__(self):
        if not self.t_end > self.t_start:
            raise ValueError("need t_end > t_start")
        lifted = LiftedMeasure(self.starts, self.velocities, self.weights)
        object.__setattr__(self, "t_start", float(self.t_start))
        object.__setattr__(self, "t_end", float(self.t_end))
        object.__setattr__(self, "starts", lifted.positions)
        object.__setattr__(self, "velocities", lifted.velocities)
        object.__setattr__(self, "weights", lifted.weights)

    @property
    def nsegments(self) -> int:
        return self.starts.shape[0]

    @property
    def dim(self) -> int:
        return self.starts.shape[1]


def segment_ensemble(lifted: LiftedMeasure, t_start: float, t_end: float) -> SegmentEnsemble:
    """One straight segment per lifted atom, slope its velocity."""
    return SegmentEnsemble(
        t_start=t_start,
        t_end=t_end,
        weights=lifted.weights,
        starts=lifted.positions,
        velocities=lifted.velocities,
    )


def _ensemble_from_segments(seg: SegmentEnsemble) -> TrajectoryEnsemble:
    dt = seg.t_end - seg.t_start
    knots = np.stack([seg.starts, seg.starts + dt * seg.velocities], axis=1)
    return TrajectoryEnsemble(
        times=np.array([seg.t_start, seg.t_end]), weights=seg.weights, knots=knots
    )


# ---------------------------------------------------------------------------
# gluing
# ---------------------------------------------------------------------------

def concat_merge(
    head: TrajectoryEnsemble, tail: SegmentEnsemble, joint: DiscreteMeasure
) -> TrajectoryEnsemble:
    """Extend ``head`` by ``tail``, pairing curves through ``joint``.

    ``joint`` must agree (within 1e-9 in Wasserstein-1) with both the
    endpoint distribution of ``head`` and the start distribution of
    ``tail``.  Over each joint atom carrying mass m, a curve of weight a
    and a segment of weight b combine with weight m (a / m_head)(b / m_tail),
    where m_head and m_tail are the head and tail masses over that atom;
    this conditional-independence pairing preserves both marginals.
    """
    if abs(head.times[-1] - tail.t_start) > _TIME_TOL * max(1.0, abs(tail.t_start)):
        raise EndpointMismatchError(
            f"head ends at t={head.times[-1]:g}, tail starts at t={tail.t_start:g}"
        )
    end_pts = head.knots[:, -1, :]
    end_dist = DiscreteMeasure(end_pts, head.weights)
    start_dist = DiscreteMeasure(tail.starts, tail.weights)
    for name, dist in (("head endpoint", end_dist), ("tail start", start_dist)):
        gap = w1_distance(dist, joint, method="auto" if dist.dim == 1 else "lp")
        if gap > _JOINT_TOL:
            raise EndpointMismatchError(
                f"{name} distribution is {gap:.3e} away from the joint measure"
            )

    h_at = match_rows(end_pts, joint.atoms, MERGE_TOL)
    t_at = match_rows(tail.starts, joint.atoms, MERGE_TOL)
    if np.any(h_at < 0) or np.any(t_at < 0):
        raise EndpointMismatchError("a curve endpoint matches no joint atom")
    m_head = np.bincount(h_at, weights=head.weights, minlength=joint.natoms)
    m_tail = np.bincount(t_at, weights=tail.weights, minlength=joint.natoms)
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
    # sub-1e-12 discrepancy.
    end = end_pts[ci] + (tail.t_end - tail.t_start) * tail.velocities[si]
    knots = np.concatenate([head.knots[ci], end[:, None, :]], axis=1)
    times = np.concatenate([head.times, [tail.t_end]])
    return TrajectoryEnsemble(times=times, weights=weights, knots=knots)


def build_representation(path: MeasurePath, max_curves: int = 1_000_000) -> TrajectoryEnsemble:
    """Reconstruct a run as a trajectory ensemble from its interval data.

    The first interval's lifted measure seeds the bundle; each later
    interval is glued on by ``concat_merge`` with the recorded node measure
    as the joint.  Raises SupportBlowupError past ``max_curves`` curves.
    """
    times = path.times
    ens = _ensemble_from_segments(
        segment_ensemble(path.interp[0], times[0], times[1])
    )
    for k in range(1, len(path.interp)):
        tail = segment_ensemble(path.interp[k], times[k], times[k + 1])
        ens = concat_merge(ens, tail, path.measures[k])
        if ens.ncurves > max_curves:
            raise SupportBlowupError(
                f"{ens.ncurves} curves exceed the cap of {max_curves}"
            )
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
    convention).  Curves are grouped by their position at t exactly as the
    pushforward measure coalesces them; per group, the weighted mean slope
    is compared with the mean fiber velocity of the rule evaluated on the
    pushforward measure.
    """
    times = ens.times
    k, at_node = locate_time(times, t)
    if not at_node:
        raise OutOfRangeError(f"t={t:g} is not a knot time")
    if k >= times.shape[0] - 1:
        raise OutOfRangeError("the final knot has no right-hand slope")

    pts = ens.knots[:, k, :]
    mu_t = DiscreteMeasure(pts, ens.weights)
    slopes = (ens.knots[:, k + 1, :] - ens.knots[:, k, :]) / (times[k + 1] - times[k])
    at = match_rows(pts, mu_t.atoms, MERGE_TOL)
    if np.any(at < 0):  # pragma: no cover - atoms came from these points
        raise RuntimeError("curve position matches no pushforward atom")
    d = ens.dim
    sums = np.zeros((mu_t.natoms, d))
    np.add.at(sums, at, ens.weights[:, None] * slopes)
    masses = np.bincount(at, weights=ens.weights, minlength=mu_t.natoms)
    means = sums / masses[:, None]
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
