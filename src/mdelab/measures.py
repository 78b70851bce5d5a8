"""Finitely supported probability measures on R^d and on R^d x R^d.

Two immutable value types live here.  ``DiscreteMeasure`` is a convex
combination of point masses on R^d.  ``LiftedMeasure`` is a point mass
distribution on position-velocity pairs; its projection onto the first
factor (the *base*) is again a ``DiscreteMeasure``, and grouping its atoms
by position yields one velocity distribution per base atom (the *fibers*).

Both types are kept in a canonical form so that equality checks, CSV dumps
and downstream grouping are deterministic:

* atoms sorted lexicographically by coordinates,
* atoms closer than ``MERGE_TOL`` in every coordinate merged (the group
  representative is its lexicographically first atom),
* weights normalized to total mass one, with atoms below ``WEIGHT_FLOOR``
  dropped and the rest renormalized,
* the backing arrays marked read-only.

Merging follows one rule, the greedy first-match scan in lexicographic
order: a row joins the first earlier group representative within the
tolerance in every coordinate, or opens a group.

Input is validated where it enters the library, and derived rows go
through the kernel alone.  There are two ways in:

* ``canonical_support`` (and so every public constructor) validates its
  input with four whole-array reductions (the least and greatest
  coordinate and weight; NaN propagates through both) and runs the
  per-check tests, in their fixed order, only when that joint test
  fails; then it calls the kernel, ``_canonical``.
* ``_derive`` is the one constructor of the values the library derives
  from canonical measures: a rule's lift, a scheme's next or pruned node,
  an interpolated measure, a lift's base, a coalesced measure.  The
  caller passes the rows with what their construction proves: that they
  are finite, that they are in canonical order (the kernel then runs
  only its weight tests), or that the weights are a canonical measure's
  (which pass those tests, so they are skipped).  A lift's base is
  passed in too where the rows prove it.
  Rows on the line with unproved coordinates take the gap test of the
  kernel's first route before the finiteness check, and the kernel
  reuses its outcome.

A test is skipped only where the docstring of ``_derive`` shows that the
construction guarantees its outcome.

The kernel reads each pair of consecutive rows' first gap
(``_first_gaps``) once, or takes them from the derived path's gap test,
and picks one of three routes from them.  Each gives exactly the scan's
result.

* *Already canonical.*  If each row exceeds its predecessor by more than
  the tolerance in the first coordinate where the two differ, the rows are
  sorted and pairwise farther apart than the tolerance, so every row is a
  group of its own: nothing is sorted or grouped.  Lifts and nodes built
  from canonical data by order-preserving maps usually arrive like this.
* *Runs of equal rows.*  If the rows are sorted and every nonzero first
  gap exceeds the tolerance, the only ties are exact, and the groups are
  the runs of equal consecutive rows.  Sorted input needs no sort; other
  input is sorted first and, if the same test holds, grouped the same way.
* *Near-ties.*  Otherwise the scan runs over the distinct rows that share
  a chain of near-ties with another row in every column, and each is
  compared against all its candidate representatives in one array
  operation.

``_canonical`` takes the first route and the runs route on sorted input;
``_group_rows`` the other two on the sorted rows.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import EmptyInputError, NegativeWeightError
from .tolerances import AGREE_TOL, MERGE_TOL, UNIT_MASS_TOL, WEIGHT_FLOOR


# ---------------------------------------------------------------------------
# canonical form helpers
# ---------------------------------------------------------------------------

def _as_points(points) -> np.ndarray:
    """Coerce input to a (n, d) float array, d >= 1; 1-D input is read as n points in R^1."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise ValueError(f"points must be a 1-D or 2-D array, got shape {pts.shape}")
    if pts.shape[1] == 0:
        raise ValueError(f"points need at least one coordinate, got shape {pts.shape}")
    return pts


def _lex_perm(pts: np.ndarray) -> np.ndarray:
    """Permutation sorting rows lexicographically (first coordinate primary)."""
    # np.lexsort uses the LAST key as the primary one.
    return np.lexsort(pts.T[::-1])


def _first_gaps(pts: np.ndarray) -> np.ndarray:
    """For each pair of consecutive rows, the difference in the first
    coordinate where they differ; 0 for equal rows.

    Rows far apart may have a difference that overflows; read as +-inf it
    still orders and compares with ``tol`` correctly.  The caller silences
    the overflow where it can happen.
    """
    diff = pts[1:] - pts[:-1]
    gaps = diff[:, -1]
    for j in range(pts.shape[1] - 2, -1, -1):
        gaps = np.where(diff[:, j] != 0, diff[:, j], gaps)
    return gaps


def _runs(gaps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run id per row and the first row of each run, for runs of equal
    consecutive rows (a first gap of 0 continues a run)."""
    head = np.empty(gaps.shape[0] + 1, dtype=bool)
    head[0] = True
    head[1:] = gaps != 0
    return head.cumsum(dtype=np.intp) - 1, head.nonzero()[0]


def _group_rows(pts: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Group lexicographically sorted rows, l-inf tolerance ``tol``.

    The rule is the greedy first-match scan: rows are taken in order, and a
    row joins the first existing group whose representative (the group's
    first row) is within ``tol`` in every coordinate; otherwise it opens a
    new group.  Two routes compute exactly that result.

    *Runs of equal rows.*  Equal rows are consecutive after the
    lexicographic sort.  A row equal to its predecessor sees the same
    candidates and joins its predecessor's group, so only the first row of
    each run (its head) needs grouping.  A head's first gap (see
    ``_first_gaps``) is positive.  If no first gap lies in (0, ``tol``],
    the heads are pairwise farther than ``tol`` apart (the argument in
    ``_canonical``), so each head opens its own group and the
    groups are the runs.  The result is exactly the scan's.

    *Near-ties.*  Otherwise ``_first_match_scan`` runs the scan over the
    heads that ``_shared_chains`` cannot rule out, comparing each against
    all its candidate representatives at once.  Every other head is
    farther than ``tol`` from all rows, so it is a group of its own.

    A difference of two coordinates that overflows is read as +-inf,
    which orders and compares with ``tol`` correctly, and is not reported.

    Returns (group id per row, representative row indices in group order).
    """
    with np.errstate(over="ignore"):
        gaps = _first_gaps(pts)
        run, heads = _runs(gaps)
        if not (gaps[gaps != 0] <= tol).any():
            return run, heads
        rows = pts[heads]
        sub = _shared_chains(rows, tol).nonzero()[0]
        gid, reps = _first_match_scan(rows[sub], tol)
    is_rep = np.ones(rows.shape[0], dtype=bool)
    is_rep[sub] = False
    is_rep[sub[reps]] = True
    group = is_rep.cumsum(dtype=np.intp) - 1
    group[sub] = group[sub[reps]][gid]
    return group[run], heads[is_rep]


def _shared_chains(rows: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the rows that may lie within ``tol`` of another row.

    In each column, consecutive sorted values at most ``tol`` apart share
    a chain id.  Float subtraction is monotone, so the values between two
    values at most ``tol`` apart have consecutive gaps at most ``tol``:
    two rows within ``tol`` in every coordinate share their chain in every
    column.  A row whose tuple of chain ids no other row has is therefore
    farther than ``tol`` from every other row.
    """
    order = np.argsort(rows, axis=0, kind="stable")
    cols = np.take_along_axis(rows, order, axis=0)
    chain = np.zeros(rows.shape, dtype=np.intp)
    np.cumsum(cols[1:] - cols[:-1] > tol, axis=0, out=chain[1:])
    ids = np.empty_like(chain)
    np.put_along_axis(ids, order, chain, axis=0)
    perm = np.lexsort(ids.T)
    same = (ids[perm[1:]] == ids[perm[:-1]]).all(axis=1)
    shared = np.zeros(rows.shape[0], dtype=bool)
    shared[perm[1:]] = same
    shared[perm[:-1]] |= same
    return shared


def _first_match_scan(rows: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Greedy first-match grouping of sorted distinct rows, one row at a time.

    Representatives are kept in row order, so their first coordinates are
    sorted and the candidates for a row are the suffix whose first
    coordinate is >= row[0] - ``tol``; ``bisect`` finds it.  The row is
    compared against the whole suffix in one array operation and joins the
    first representative within ``tol`` in every coordinate, else it opens
    a new group.
    """
    gid = np.empty(rows.shape[0], dtype=np.intp)
    reps = np.empty(rows.shape[0], dtype=np.intp)
    rep_rows = np.empty_like(rows)
    rep_x0: list[float] = []
    for i, x0 in enumerate(rows[:, 0].tolist()):
        nrep = len(rep_x0)
        lo = bisect_left(rep_x0, x0 - tol)
        if lo < nrep:
            hit = np.abs(rep_rows[lo:nrep] - rows[i]).max(axis=1) <= tol
            k = hit.argmax()
            if hit[k]:
                gid[i] = lo + k
                continue
        rep_rows[nrep] = rows[i]
        reps[nrep] = i
        rep_x0.append(x0)
        gid[i] = nrep
    return gid, reps[:len(rep_x0)]


def canonical_support(points, weights, tol: float = MERGE_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Return the canonical (atoms, weights) pair for a weighted point cloud.

    Sorts lexicographically, merges near-duplicates at ``tol``, normalizes
    the total mass to one, applies the weight floor and renormalizes.  The
    returned arrays are fresh, C-contiguous and read-only.

    This is the checked entry point, where outside input enters: four
    whole-array reductions (the least and greatest coordinate and weight;
    NaN fails their joint test) validate the data, and only when they fail
    do the single checks run, in a fixed order, so each error has the same
    class and message whether or not ``np.errstate(all="raise")`` is in
    force.  Then the kernel, ``_canonical``, does the work on a copy of the
    weights, since outside input may be a view of an array its owner still
    writes.

    Raises EmptyInputError when there are no atoms, NegativeWeightError for
    a negative weight, ValueError for shape mismatches or non-finite data.
    """
    pts = _as_points(points)
    w = np.array(weights, dtype=float).ravel()
    n = pts.shape[0]
    if n == 0:
        raise EmptyInputError("a measure needs at least one atom")
    if n != w.shape[0]:
        raise ValueError(f"{n} atoms but {w.shape[0]} weights")
    lo, hi = _bounds(pts)
    w_hi = float(np.maximum.reduce(w))
    if not (-math.inf < lo and hi < math.inf
            and 0.0 <= float(np.minimum.reduce(w)) and w_hi < math.inf):
        # NaN fails every comparison; name the first failed check
        if not np.isfinite(pts).all():
            raise ValueError("atom coordinates must be finite")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        if (w < 0).any():
            raise NegativeWeightError(f"negative weight {w.min()!r}")
    # |x - y| <= hi - lo for any two coordinates, and a partial sum of the
    # weights stays below 2 n max(w): if both are finite, nothing overflows
    wide = not (math.isfinite(hi - lo) and math.isfinite(2.0 * n * w_hi))
    return _frozen(*_canonical(pts, w, tol, wide))


def _bounds(pts: np.ndarray) -> tuple[float, float]:
    """Least and greatest coordinate; NaN propagates through both."""
    return (float(np.minimum.reduce(pts, axis=None, initial=math.inf)),
            float(np.maximum.reduce(pts, axis=None, initial=-math.inf)))


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, each read-only: a writeable one is frozen, and one that
    is already read-only, as a canonical measure's columns handed on by a
    scheme step are, is left as it is, since testing the flag costs less
    than setting it again."""
    for a in arrays:
        if a.flags.writeable:
            a.setflags(write=False)
    return arrays


def _columns(joint: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Joint rows (position, velocity) as contiguous position and velocity
    columns."""
    d = joint.shape[1] // 2
    return np.ascontiguousarray(joint[:, :d]), np.ascontiguousarray(joint[:, d:])


def _canonical(pts: np.ndarray, w: np.ndarray, tol: float, wide: bool,
               gaps: np.ndarray | None = None, apart: bool | None = None,
               tested: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The canonical form of valid rows: the kernel behind
    ``canonical_support`` and ``_derive``.

    ``pts`` is an (n, d) float array with n >= 1 and finite entries, ``w``
    its n finite, nonnegative weights, which the kernel may return as they
    are.  ``wide`` says that a difference of two coordinates or the total
    of the weights may overflow; overflow is then read as +-inf, which
    still orders and compares with ``tol`` correctly, and is not reported.

    Rows that arrive in canonical order skip the sort and the grouping.
    If every first gap (``_first_gaps``) exceeds ``tol``, the rows are
    strictly increasing, so the sort would keep them in place.  They are
    also pairwise farther than ``tol`` apart.  Take rows i < k and the
    first column j where some consecutive pair between them differs: the
    rows agree before column j, column j does not decrease from row i to
    row k, and one step m -> m + 1 in it exceeds ``tol``.  Float
    subtraction is monotone, so x_k[j] - x_i[j] >= x_{m+1}[j] - x_m[j] >
    ``tol`` as computed.  So the scan makes every row its own group, and
    the grouping would give ``0.0 + w = w``: the result is exactly that of
    the sorted route.  Rows whose first gaps are each 0 or above ``tol``
    are sorted too, and the stable sort would keep them in place; the
    same argument applies to the first rows of their runs of equal rows,
    so the groups are the runs, as ``_group_rows`` would find them.

    ``gaps``, ``apart`` and ``tested`` are given only by ``_derive``:
    the first gaps of rows on the line, taken before -0.0 was read as
    +0.0, and whether every one exceeds ``tol``.  A difference with a zero
    operand of either sign is the same up to the sign of a zero result,
    and 0.0 and -0.0 compare alike in every test the routes make, so the
    routes and their results are the same.  With ``tested``, the weights
    on the first route are returned without the tail's tests, which
    ``_derive`` shows they pass; given ``apart`` too, as a scheme's next
    node on the line is, only the -0.0 normalization is left, which cannot
    overflow, so it runs before the ``np.errstate`` context is entered.

    Finite weights whose total overflows are scaled by the largest of
    them first; a total that does not overflow is used as it is.
    """
    if apart and tested:  # given by _derive: see the docstring
        return pts + 0.0, w
    with np.errstate(over="ignore") if wide else nullcontext():
        pts = pts + 0.0  # normalize -0.0 to +0.0 so sorting and dumps are stable
        if gaps is None:
            gaps = _first_gaps(pts)
        floor = max(tol, 0.0)  # a negative tol still merges equal rows
        if apart is None:
            apart = np.minimum.reduce(gaps, initial=math.inf) > floor
        if apart and tested:
            return pts, w
        atoms, mass, gid = pts, w, None
        if not apart:
            if (gaps[gaps != 0] > floor).all():  # sorted, and every tie is exact
                gid, reps = _runs(gaps)
            else:
                perm = _lex_perm(pts)
                pts = np.ascontiguousarray(pts[perm])
                w = w[perm]
                gid, reps = _group_rows(pts, tol)
            atoms = pts[reps]
            mass = np.bincount(gid, weights=w, minlength=len(reps))
        total = float(np.add.reduce(mass))
    return _unit(total, mass, w, gid, atoms)


def _unit(total: float, mass: np.ndarray, w: np.ndarray, gid: np.ndarray | None,
          *cols: np.ndarray) -> tuple[np.ndarray, ...]:
    """The kernel's tail: group masses ``mass`` of total ``total``, from
    weights ``w`` grouped by ``gid`` (None when every row is a group),
    normalized to mass one with the weight floor applied.

    Returns the columns ``cols`` of the groups kept, then their masses; an
    unchanged ``mass`` is returned as it is.
    """
    # a weight that underflows in a renormalization is below the floor anyway
    if total == math.inf:
        with np.errstate(under="ignore"):
            w = w / np.maximum.reduce(w)
            mass = w if gid is None else np.bincount(gid, weights=w, minlength=len(mass))
            mass = mass / np.add.reduce(mass)
    elif total <= 0.0:
        raise ValueError("total mass must be positive")
    elif abs(total - 1.0) > UNIT_MASS_TOL:
        with np.errstate(under="ignore"):
            mass = mass / total

    if not np.minimum.reduce(mass) >= WEIGHT_FLOOR:
        keep = mass >= WEIGHT_FLOOR
        mass, cols = mass[keep], [c[keep] for c in cols]
        if mass.shape[0] == 0:
            raise EmptyInputError("all atoms fell below the weight floor")
        kept = float(mass.sum())
        if abs(kept - 1.0) > UNIT_MASS_TOL:
            mass = mass / kept
    return (*cols, mass)


def _derive(rows: np.ndarray, weights: np.ndarray, velocities: np.ndarray | None = None, *,
            ordered: bool = False, finite: bool = False, tested: bool = False,
            base: "DiscreteMeasure | None" = None,
            tol: float = MERGE_TOL) -> "DiscreteMeasure | LiftedMeasure":
    """The measure on rows the library derived from canonical measures: a
    ``DiscreteMeasure`` on ``rows``, or with ``velocities`` the
    ``LiftedMeasure`` on the rows (``rows``, ``velocities``).

    The one constructor of derived values: a scheme's lift, next node or
    pruned node, an interpolated measure, a lift's base, a coalesced
    measure.  Outside input goes through the public constructors instead.
    ``rows`` (and ``velocities``) are C-contiguous (n, d) float arrays with
    n >= 1, ``weights`` a C-contiguous array of their n nonnegative finite
    weights, of total at most n; the arrays are handed over, and the value
    may keep them.  The
    caller states what the construction proves, and the constructor skips
    the checks and the kernel work whose outcome that fixes:

    * ``finite``: the coordinates are finite.  Otherwise they are tested,
      with the error ``canonical_support`` raises: the rows given to the
      kernel, or with ``ordered`` the velocities, which are then read
      through ``+ 0.0`` (a -0.0 becomes +0.0).  Rows on the line given to
      the kernel take the gap test of its first route first, with overflow
      and invalid operations silenced (the rows are not yet known to be
      finite).  If every gap exceeds ``tol``, the rows strictly increase
      (a NaN gap fails the test, and a - b > 0 as computed means a > b),
      so the end rows are the least and greatest coordinate, and the test
      reads them in place of two reductions; the kernel takes the gaps and
      the test's outcome.
    * ``ordered``: the rows are in canonical order, lexicographically
      sorted and pairwise farther than ``tol`` apart in the l-inf distance
      as computed, and hold no -0.0; the positions are a canonical
      measure's atoms, or some of them, in order.  On such rows the kernel
      keeps every row in place as a group of its own: by the argument in
      ``_canonical``'s docstring when every first gap exceeds ``tol``, and
      otherwise because the sort keeps sorted distinct rows in place and
      the scan finds no two rows within ``tol``.  Its weights are then
      ``0.0 + w = w``, so only its tail (``_unit``) runs, and the rows are
      kept as they are.
    * ``tested``: ``weights`` is a canonical measure's weights array.  The
      kernel leaves every weight at least ``WEIGHT_FLOOR`` and their total
      (``np.add.reduce``) within ``UNIT_MASS_TOL`` of one.  A total it
      keeps is the one it tested, and a weight it keeps passed the floor;
      a floor renormalization divides by a kept mass below 1 -
      ``UNIT_MASS_TOL``, which lowers no weight.  Where it divides by a
      sum s, numpy's pairwise summation of n values errs by less than
      (log2 n + 26) u relatively (u = 2^-53), so s, then each quotient
      (one more u) and their sum lie within 2 (log2 n + 27) u < 1e-13 of
      one for any n below 2^40.  So on a route that keeps every row and
      weight as given, both tests of the tail pass, and they are skipped.
    * ``base`` (a lift only): the rows are exact for the canonical measure
      ``base``: their positions are its atoms in order, one possibly
      twice, and their weights regroup to its weights bit for bit.  If the
      lift keeps every row and weight, the base pass would group the
      positions back to ``base``'s atoms and the weights to its weights,
      and keep them (they are tested, as above).  So ``base`` is then the
      lift's base, and it is not computed.
    * ``tol``: the merge tolerance, ``MERGE_TOL`` or, for ``coalesce``,
      more.

    Given all of ``ordered``, ``finite`` and ``tested``, as a splitting lift
    whose median atom moves whole and a ``mean-velocity`` lift are, nothing
    is left to test or compute: the value adopts the arrays as given, with
    ``base`` when given, and reads nothing else.  Every value freezes its
    arrays (``_frozen``), and only those still writeable.
    """
    lifted = velocities is not None
    cols, mass = ((rows, velocities) if lifted else (rows,)), weights
    if not (ordered and finite and tested):  # else nothing is left to test or compute
        # the rows to check: a lift's velocities when its rows are ordered
        pts = velocities if ordered else np.concatenate(cols, axis=1) if lifted else rows
        gaps = apart = None
        wide = True
        if not finite:
            if pts.shape[1] == 1 and not ordered:
                with np.errstate(over="ignore", invalid="ignore"):
                    gaps = pts[1:, 0] - pts[:-1, 0]
                apart = bool(np.minimum.reduce(gaps, initial=math.inf) > tol)
            lo, hi = (float(pts[0, 0]), float(pts[-1, 0])) if apart else _bounds(pts)
            if not (-math.inf < lo and hi < math.inf):
                raise ValueError("atom coordinates must be finite")
            wide = not math.isfinite(hi - lo)
        if ordered:
            cols = (rows, velocities + 0.0) if lifted and not finite else cols
            if not tested:
                *cols, mass = _unit(float(np.add.reduce(weights)), weights, weights, None, *cols)
        else:
            atoms, mass = _canonical(pts, weights, tol, wide, gaps, apart, tested)
            cols = _columns(atoms) if lifted else (atoms,)
    out = object.__new__(LiftedMeasure if lifted else DiscreteMeasure)
    keeps = base is not None and (mass is weights or np.array_equal(mass, weights))
    out._set(*cols, mass, *((base,) if keeps else ()))
    return out


def match_rows(rows: np.ndarray, reps: np.ndarray, tol: float = MERGE_TOL) -> np.ndarray:
    """Index of the first row of ``reps`` within l-inf ``tol`` of each row, else -1.

    The first-match rule mirrors canonical coalescing, so matching points
    against a canonical measure's atoms reproduces the grouping that built
    those atoms.  As in that scan, a representative is a candidate only
    when its first coordinate is >= row[0] - ``tol`` as computed in floats,
    which can differ from the distance test when the subtraction rounds.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    reps = np.atleast_2d(np.asarray(reps, dtype=float))
    n = rows.shape[0]
    out = np.full(n, -1, dtype=np.intp)
    if reps.shape[0] == 0:
        return out
    block = max(1, int(2_000_000 // max(1, reps.size)))
    for s in range(0, n, block):
        chunk = rows[s:s + block]
        near = np.abs(chunk[:, None, :] - reps[None, :, :]).max(axis=2) <= tol
        near &= reps[:, 0] >= chunk[:, 0, None] - tol
        hit = near.any(axis=1)
        first = near.argmax(axis=1)
        out[s:s + block] = np.where(hit, first, -1)
    return out


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """A probability measure with finitely many atoms on R^d.

    Parameters
    ----------
    atoms : array_like, shape (n, d) or (n,)
        Atom coordinates; a 1-D array is read as n atoms on the line.
    weights : array_like, shape (n,)
        Nonnegative masses.  They are normalized to sum to one.

    Construction always produces the canonical form described in the module
    docstring, so two measures built from permuted or duplicated input data
    compare equal.
    """

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self._set(*canonical_support(self.atoms, self.weights))

    def _set(self, atoms: np.ndarray, weights: np.ndarray) -> None:
        # also the initializer of ``_derive``, which may adopt fresh arrays
        _frozen(atoms, weights)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    @property
    def natoms(self) -> int:
        return self.atoms.shape[0]

    def integrate(self, fn: Callable[[np.ndarray], np.ndarray]) -> float:
        """Integral of a scalar function; ``fn`` maps an (n, d) array to (n,)."""
        vals = np.asarray(fn(self.atoms), dtype=float).ravel()
        return float(np.dot(self.weights, vals))

    def allclose(self, other: "DiscreteMeasure", tol: float = AGREE_TOL) -> bool:
        """Atom-by-atom comparison of two canonical measures."""
        return self is other or (
            self.dim == other.dim
            and self.natoms == other.natoms
            and float(np.max(np.abs(self.atoms - other.atoms), initial=0.0)) <= tol
            and float(np.max(np.abs(self.weights - other.weights), initial=0.0)) <= tol
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscreteMeasure):
            return NotImplemented
        return (
            self.dim == other.dim
            and np.array_equal(self.atoms, other.atoms)
            and np.array_equal(self.weights, other.weights)
        )

    def __repr__(self) -> str:
        return f"DiscreteMeasure(natoms={self.natoms}, dim={self.dim})"


@dataclass(frozen=True, eq=False)
class LiftedMeasure:
    """A probability measure on position-velocity pairs in R^d x R^d.

    Canonical form sorts atoms lexicographically by the joint vector
    (position, velocity); since positions are the leading coordinates, the
    atoms of the base measure appear in base-canonical order.
    """

    positions: np.ndarray
    velocities: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pos = _as_points(self.positions)
        vel = _as_points(self.velocities)
        if pos.shape != vel.shape:
            raise ValueError(
                f"positions {pos.shape} and velocities {vel.shape} must have the same shape"
            )
        joint, weights = canonical_support(np.concatenate((pos, vel), axis=1), self.weights)
        self._set(*_columns(joint), weights)

    def _set(self, positions: np.ndarray, velocities: np.ndarray, weights: np.ndarray,
             base: DiscreteMeasure | None = None) -> None:
        # contiguous columns (``_columns``, ``_derive``): a scheme step reads
        # them twice, and arithmetic on strided views costs more; ``base``
        # as ``_derive`` documents it
        _frozen(positions, velocities, weights)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "velocities", velocities)
        object.__setattr__(self, "weights", weights)
        if base is not None:
            object.__setattr__(self, "_base", base)

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    @property
    def natoms(self) -> int:
        return self.positions.shape[0]

    def allclose(self, other: "LiftedMeasure", tol: float = AGREE_TOL) -> bool:
        return self is other or (
            self.dim == other.dim
            and self.natoms == other.natoms
            and float(np.max(np.abs(self.positions - other.positions), initial=0.0)) <= tol
            and float(np.max(np.abs(self.velocities - other.velocities), initial=0.0)) <= tol
            and float(np.max(np.abs(self.weights - other.weights), initial=0.0)) <= tol
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, LiftedMeasure):
            return NotImplemented
        return (
            self.dim == other.dim
            and np.array_equal(self.positions, other.positions)
            and np.array_equal(self.velocities, other.velocities)
            and np.array_equal(self.weights, other.weights)
        )

    @cached_property
    def _base(self) -> "DiscreteMeasure":
        # computed once per lift, unless ``_derive`` was given it: schemes
        # and path validation all ask for it
        return _derive(self.positions, self.weights, finite=True, tested=True)

    def __repr__(self) -> str:
        return f"LiftedMeasure(natoms={self.natoms}, dim={self.dim})"


@dataclass(frozen=True)
class Disintegration:
    """A base measure together with one velocity fiber per base atom.

    ``fibers[i]`` is the velocity distribution attached to ``base.atoms[i]``;
    each fiber is itself a probability measure (mass one).
    """

    base: DiscreteMeasure
    fibers: tuple[DiscreteMeasure, ...]

    def __post_init__(self):
        if len(self.fibers) != self.base.natoms:
            raise ValueError(
                f"{self.base.natoms} base atoms but {len(self.fibers)} fibers"
            )


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def make_measure(points, weights) -> DiscreteMeasure:
    """Build a canonical DiscreteMeasure from raw atoms and weights."""
    return DiscreteMeasure(points, weights)


def make_lifted(positions, velocities, weights) -> LiftedMeasure:
    """Build a canonical LiftedMeasure from raw position-velocity atoms."""
    return LiftedMeasure(positions, velocities, weights)


def dirac(point) -> DiscreteMeasure:
    """The unit mass at a single point."""
    pt = np.atleast_1d(np.asarray(point, dtype=float))
    return DiscreteMeasure(pt[None, :], np.ones(1))


def is_count(n) -> bool:
    """True for an integer >= 1 (numpy's too), as a count of atoms, a cap
    or a grid size must be; a bool and a float (NaN, which no count
    exceeds, included) are not."""
    return isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= 1


def quantile_uniform(a: float, b: float, natoms: int) -> DiscreteMeasure:
    """Quantile discretization of the uniform distribution on [a, b].

    Places ``natoms`` equal atoms at the quantile midpoints
    a + (b - a) (i + 1/2) / n, the standard grid-free stand-in for a
    uniform density in 1-D computations.  ``natoms`` is an integer >= 1
    (``is_count``): a bool, a float or a string is refused.
    """
    if not is_count(natoms):
        raise ValueError(f"natoms must be an integer >= 1, got {natoms!r}")
    if not b > a:
        raise ValueError("need b > a")
    i = np.arange(natoms, dtype=float)
    pts = a + (b - a) * (i + 0.5) / natoms
    return DiscreteMeasure(pts[:, None], np.full(natoms, 1.0 / natoms))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def coalesce(mu: DiscreteMeasure, tol: float) -> DiscreteMeasure:
    """Merge atoms within l-inf distance ``tol``, greedily in lexicographic order.

    The representative of each group is its lexicographically first atom.
    Idempotent at fixed ``tol``: surviving representatives are pairwise
    farther apart than ``tol``.
    """
    if not tol >= 0:  # NaN fails too
        raise ValueError("tol must be >= 0")
    # mu's arrays are canonical, and so valid: one pass of the kernel
    return _derive(mu.atoms, mu.weights, finite=True, tested=True, tol=max(tol, MERGE_TOL))


def base_of(lifted: LiftedMeasure) -> DiscreteMeasure:
    """Projection of a lifted measure onto its position factor.

    Computed once per lifted measure, unless the constructor was given
    it; later calls return the same object.
    """
    return lifted._base


def fiber_means(lifted: LiftedMeasure) -> tuple[np.ndarray, np.ndarray]:
    """Base atoms and the mean velocity of each fiber, both (n_base, d).

    One grouping of the positions, the one ``base_of`` applies, so row i
    belongs to ``base_of(lifted).atoms[i]``; then one weighted
    ``np.bincount`` per coordinate over the group masses.  A one-atom
    fiber's velocity is copied, since (w v) / w need not round back to v.
    """
    pos, vel, w = lifted.positions, lifted.velocities, lifted.weights
    gid, reps = _group_rows(pos, MERGE_TOL)
    n = len(reps)
    sums = np.stack([np.bincount(gid, w * v, n) for v in vel.T], axis=1)
    means = sums / np.bincount(gid, w, n)[:, None]
    single = np.bincount(gid, minlength=n) == 1
    means[single] = vel[reps[single]]
    return pos[reps], means


def disintegrate(lifted: LiftedMeasure) -> Disintegration:
    """Split a lifted measure into its base and per-position velocity fibers.

    The positions (sorted, since the lifted atoms are) are grouped by the
    canonical-form kernel at ``MERGE_TOL``, with the first-match rule that
    ``base_of`` applies.  So ``base.atoms[i]`` is the first position of
    group ``i``, its weight is the group's mass, and ``fibers[i]`` is the
    group's velocities with their weights, normalized to mass one.  The
    base equals ``base_of(lifted)``.
    """
    pos = lifted.positions
    gid, reps = _group_rows(pos, MERGE_TOL)
    masses = np.bincount(gid, weights=lifted.weights, minlength=len(reps))
    base = DiscreteMeasure(pos[reps], masses)
    if base.natoms != len(reps):  # pragma: no cover - representatives are tol-separated
        raise RuntimeError("disintegration grouping lost atoms")
    fibers = []
    for g in range(len(reps)):
        sel = gid == g
        fibers.append(DiscreteMeasure(lifted.velocities[sel], lifted.weights[sel]))
    return Disintegration(base, tuple(fibers))


def support_radius(mu: DiscreteMeasure) -> float:
    """Largest Euclidean norm among the atoms."""
    return float(np.max(np.linalg.norm(mu.atoms, axis=1)))
