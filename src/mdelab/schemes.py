"""Time-stepping schemes for measure dynamics driven by velocity fibers.

``run_scheme`` advances a measure mu by N steps of dt under a fiber rule V.
Every step lifts mu to V[mu] and pushes each lifted atom for time dt; the
scheme named by ``SchemeConfig.scheme`` picks the step:

* ``las`` (lattice scheme): mass is first binned onto the space grid of
  step dx = dt * dv, fibers are binned onto the velocity grid of step dv,
  and every grid atom x_i spawns children at x_i + dt * v_j weighted by
  the binned fiber mass.  Because dt * dv = dx, children land on the
  space grid again, so the scheme lives on a fixed lattice.
* ``lagrangian``: every atom splits along its exact fiber, children at
  x + dt * v.  Grid-free; the support can grow geometrically.
* ``mean-velocity``: every atom moves by dt times its fiber mean, so the
  atom count never grows.  Fiber spread is invisible to this scheme,
  which is exactly what makes it a useful contrast case.

Runs record the node measures plus, per step, the lifted measure that
generated it, which is what linear-in-time interpolation and trajectory
reconstruction consume.

Every lift and node a step builds is derived from canonical measures,
and ``measures._derive`` builds it, told what the step proves.  Every
rule's rows (``pvf._Kind``) are finite, in canonical order, and name
their lift's base where they prove it, so a rule's lift, and a
``mean-velocity`` step's one-point lift, take no kernel pass; the
splitting rule hands over position and velocity columns that the lift
keeps as they are.  Every other value goes through the canonical kernel,
plus a finiteness check on the atoms that arithmetic produced (a node,
an interpolated measure, a binned velocity), where a float overflow can
first appear.  A node whose children keep the lift's order, as under
``lagrangian`` the splitting rule's and a monotone field's do, takes the
kernel's first route; its weights are the lift's, which a canonical
measure already tested, so it adopts them untested.  A node whose
children collide (``las``, a constant fiber) goes on to the rest of the
kernel.

A step runs the kernel at most once per value it builds: for the node,
for a lattice lift (its binned velocities can collide), and for the
lift's base only where the rows name none.  The base the rows name is
passed to the constructor, under ``lagrangian`` and ``las`` alike, and
taken when the lift keeps every row and weight: the node for a graph
field's rows and a splitting lift's whose median splits exactly or moves
whole, and for a custom rule's the base of the lift it returned, which
was computed once to check it; the node is always the base of a
``mean-velocity`` lift.  So a step runs the kernel once under
``lagrangian`` and twice under ``las`` for a graph field and the
splitting rule, once under ``mean-velocity`` for every rule, and once
more for the base of a constant fiber's lift; the run records the node
it started from as node k.

A lift whose weights are the node's own array takes no weight test: a
graph field's, and a splitting lift's whose median atom moves right
whole with its own weight, as a torn dyadic block's does at every step.
Such a splitting step runs no ``measures._unit`` (the weight total and
floor) under ``lagrangian`` or ``las``; one whose median splits runs it
once, on the lift's fresh weights.  The next node of a whole step holds
the same weights array, and such a run finds the median once: a torn
block's later steps, and a ``splitting-dirac`` run's after its first
split, run no median search and build no velocity column, and their lifts
share one read-only velocity column.  Under every
scheme the splitting rule's velocity column, its lattice binning and its
fiber means are functions of the weights array alone, so once a step's
lift holds the node's weights array and the next node keeps it, the later
steps are one translation, and ``run_scheme`` takes them in whole arrays
(``_moved_whole``): under ``lagrangian`` (with the default merge
tolerance) and ``mean-velocity`` node k + 1 = node k + dt v, under
``las`` the node's lattice index moves by the binned velocity's index.
A running sum adds the move to each node in the order a step does, one
contiguous row add (``np.add``) per node, in exact integer lattice indices
under ``las``, so every node has the step's bits, and one gap reduction per
node stands for the step's finiteness check and first-route test.  Such
steps call no ``eval_pvf`` and run no kernel.  A ``mean-velocity`` lift
holds the node's weights even where the median splits, so such a run takes
the route from its first step; a ``las`` or ``lagrangian`` run takes it once
its median atom moves right whole with its own weight (a Dirac's after its
first split, and never that of a block which splits off a sliver at every
step).  The route hands the first whole lift's velocity column to every
later lift itself.  The rule's kept column (``pvf._split_memo``) serves
``residual``, which lifts each node, and in a run only a ``lagrangian``
step from the last node of a route that stopped (two atoms that round
together); ``las`` and ``mean-velocity`` lifts hold a binned column or the
fiber means, so their steps never find it.  What a split fixes is not
kept: a run does not lift a split node's weights again while the lift
holding its columns lives.

A step does no bookkeeping that its inputs already settle.  Its rule's
kind is one entry of one table (``pvf._KINDS``), which gives the atom
cap its size bound and ``eval_pvf`` and the lattice scheme their rows:
a lattice step looks it up once, and a ``lagrangian`` or
``mean-velocity`` step once for the cap and once in ``eval_pvf``.  A
value freezes only the arrays that are still writeable, so a lift that
adopts a node's read-only columns sets no flag, and a lift or node built
from rows whose order and weights are both proved (a whole median's
splitting lift, a ``mean-velocity`` lift, the whole-array route's nodes,
row views of one frozen block, and their lifts) costs one
``object.__new__`` and one ``_set`` of the arrays as given.
A step that returns the node it started from is not run again: the run
repeats it to the end (``run_scheme``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BaseOffGridError, OutOfRangeError, SupportBlowupError
from .measures import (
    DiscreteMeasure,
    LiftedMeasure,
    _derive,
    _frozen,
    base_of,
    coalesce,
    fiber_means,
    is_count,
    is_real,
    support_radius,
)
from .pvf import _KINDS, MAX_ATOMS, PvfSpec, SplittingParticlePvf, _kind, eval_pvf
from .tolerances import AGREE_TOL, CELL_TOL, MERGE_TOL, PRUNE_FLOOR_MAX

LAS = "las"
LAGRANGIAN = "lagrangian"
MEAN_VELOCITY = "mean-velocity"
SCHEMES = (LAS, LAGRANGIAN, MEAN_VELOCITY)


@dataclass(frozen=True)
class GridSpec:
    """Time, velocity and space steps of the lattice scheme.

    ``dt = T / N`` and ``dx = dt * dv`` always; ``dv`` defaults to 1/N,
    the standard refinement convention, and may be overridden to express
    unit-grid runs (dt = dv = 1 over several steps, for instance).
    """

    T: float
    N: int
    dv: float = None  # type: ignore[assignment]  # filled in __post_init__

    def __post_init__(self):
        if not (is_real(self.T) and 0 < self.T < math.inf):
            raise ValueError("T must be positive and finite")
        if not (is_count(self.N) and is_real(self.N)):  # is_real: within the float range
            raise ValueError("N must be a positive integer")
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(self, "N", int(self.N))
        dv = 1.0 / self.N if self.dv is None else self.dv
        if not (is_real(dv) and 0 < dv < math.inf):
            raise ValueError("dv must be positive and finite")
        object.__setattr__(self, "dv", float(dv))
        if abs(self.N * self.dt - self.T) > MERGE_TOL * max(1.0, self.T):
            raise ValueError("N * dt must reproduce T")

    @property
    def dt(self) -> float:
        return self.T / self.N

    @property
    def dx(self) -> float:
        return self.dt * self.dv

    @property
    def times(self) -> np.ndarray:
        """Node times k dt for k = 0..N; the last is T exactly, not N dt."""
        times = self.dt * np.arange(self.N + 1)
        times[-1] = self.T
        return times


@dataclass(frozen=True)
class SchemeConfig:
    """Which scheme to run and with what housekeeping parameters.

    ``max_atoms``, a positive integer, caps the atoms of each step.  Every
    scheme compares it with the lift size that the rule's entry
    (``pvf._Kind``) predicts, so a step that would blow up is refused
    before its atoms are built; canonicalization may merge some
    afterwards.  A custom rule is checked after evaluation.  A node has at
    most the atoms of its lift.
    """

    scheme: str
    grid: GridSpec
    coalesce_tol: float = MERGE_TOL
    prune_floor: float = 0.0
    max_atoms: int = MAX_ATOMS

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if not isinstance(self.grid, GridSpec):
            raise ValueError(f"grid must be a GridSpec, got {self.grid!r}")
        if not (is_real(self.coalesce_tol) and self.coalesce_tol >= 0):
            raise ValueError("coalesce_tol must be >= 0")
        if not (is_real(self.prune_floor) and 0.0 <= self.prune_floor <= PRUNE_FLOOR_MAX):
            raise ValueError(f"prune_floor must lie in [0, {PRUNE_FLOOR_MAX:g}]")
        if not is_count(self.max_atoms):
            raise ValueError("max_atoms must be a positive integer")


def _times(times, what: str) -> np.ndarray:
    """The time check shared by ``MeasurePath`` (``what`` is "node") and
    ``TrajectoryEnsemble`` ("knot"): a read-only copy of ``times`` as a
    flat float array, so the caller keeps theirs.  Fewer than two times,
    a time that is not finite, or times that do not strictly increase are
    a ValueError whose message names ``what``."""
    times = np.array(times, dtype=float).ravel()
    if times.shape[0] < 2:
        raise ValueError(f"need at least two {what} times")
    if not np.isfinite(times).all():
        raise ValueError(f"{what} times must be finite")
    if np.any(np.diff(times) <= 0):
        raise ValueError(f"{what} times must increase")
    times.setflags(write=False)
    return times


@dataclass(frozen=True, eq=False)
class MeasurePath:
    """A discrete-time run: node measures plus per-interval lifted data.

    ``interp[k]`` is the lifted measure over ``measures[k]`` whose atoms,
    transported for time t - times[k], realize the run on the k-th
    interval; its base equals the node measure.
    """

    times: np.ndarray
    measures: tuple[DiscreteMeasure, ...]
    interp: tuple[LiftedMeasure, ...]
    pruned_mass: float = 0.0

    def __post_init__(self):
        times = _times(self.times, "node")
        object.__setattr__(self, "times", times)
        if abs(times[0]) > MERGE_TOL:
            raise ValueError("paths start at time zero")
        if len(self.measures) != times.shape[0]:
            raise ValueError("one measure per node time required")
        if len(self.interp) != times.shape[0] - 1:
            raise ValueError("one lifted measure per interval required")
        d = self.measures[0].dim
        for mu in self.measures:
            if mu.dim != d:
                raise ValueError("node measures must share a dimension")
        for k, lifted in enumerate(self.interp):
            if not base_of(lifted).allclose(self.measures[k]):
                raise ValueError(f"interval {k}: lifted base != node measure")

    @property
    def T(self) -> float:
        return float(self.times[-1])

    @property
    def dim(self) -> int:
        return self.measures[0].dim

    def __repr__(self) -> str:
        return (
            f"MeasurePath(nodes={len(self.measures)}, dim={self.dim}, "
            f"T={self.T:g})"
        )


# ---------------------------------------------------------------------------
# grid snapping
# ---------------------------------------------------------------------------

def _bin_indices(values: np.ndarray, step: float) -> np.ndarray:
    """Cell index of each value for half-open cells [k step, (k+1) step)."""
    return np.floor(values / step + CELL_TOL)


def snap_space(mu: DiscreteMeasure, grid: GridSpec) -> DiscreteMeasure:
    """Bin atoms onto the space grid of step dx (cells anchored at 0)."""
    idx = _bin_indices(mu.atoms, grid.dx)
    return DiscreteMeasure(idx * grid.dx, mu.weights)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def _lift(spec: PvfSpec, mu: DiscreteMeasure, cfg: SchemeConfig, rows: bool = False):
    """``eval_pvf(spec, mu)``, or with ``rows`` the raw rows of the rule's
    entry (``pvf._Kind``), refused before evaluation when the atoms it
    would build, the entry's ``size``, exceed ``cfg.max_atoms``; a custom
    rule, whose entry has no ``size``, is checked after."""
    kind = _kind(spec)
    evaluate = kind.rows if rows else eval_pvf
    out = None if kind.size else evaluate(spec, mu)  # a custom rule runs first
    bound = kind.size(spec, mu) if kind.size else len(out[2] if rows else out.weights)
    if bound > cfg.max_atoms:
        raise SupportBlowupError(f"{bound} atoms exceed the cap of {cfg.max_atoms}")
    return evaluate(spec, mu) if out is None else out


def _prune(mu: DiscreteMeasure, floor: float) -> tuple[DiscreteMeasure, float]:
    # weights are positive, so a zero floor drops nothing
    if floor == 0.0 or np.minimum.reduce(mu.weights) >= floor:
        return mu, 0.0
    drop = mu.weights < floor
    lost = float(mu.weights[drop].sum())
    # some of mu's canonical rows, in order
    return _derive(mu.atoms[~drop], mu.weights[~drop], ordered=True), lost


def _las_step(spec: PvfSpec, mu: DiscreteMeasure, cfg: SchemeConfig):
    """Fibers binned onto the dv grid, children on the lattice.

    The rule's raw rows are binned, so the lift takes one kernel pass
    (binned velocities can collide); their positions must sit on the space
    grid (within ``AGREE_TOL``), and the binned velocities, which overflow
    when ``dv`` is tiny, are checked for finiteness.  Binning moves no
    position, so where ``eval_pvf`` passes ``mu`` as the base of the
    rule's lift, it is passed here too.  Children are computed in integer
    lattice coordinates: atoms sit exactly on multiples of dx, so
    recombining children coincide exactly (binomial-type weights come out
    in exact dyadic arithmetic).
    """
    grid = cfg.grid
    pos, vel, w, base = _lift(spec, mu, cfg, rows=True)
    if float(np.max(np.abs(pos - np.rint(pos / grid.dx) * grid.dx), initial=0.0)) > AGREE_TOL:
        raise BaseOffGridError("base atoms are not on the space grid")
    vel = _bin_indices(vel, grid.dv) * grid.dv
    lifted = _derive(pos, w, velocities=vel, tested=w is mu.weights, base=base)
    ix = np.rint(lifted.positions / grid.dx)
    iv = np.rint(lifted.velocities / grid.dv)
    return lifted, _derive((ix + iv) * grid.dx, lifted.weights, tested=True), 0.0


def _lagrangian_step(spec: PvfSpec, mu: DiscreteMeasure, cfg: SchemeConfig):
    """Children at x + dt v, merged at ``coalesce_tol`` and pruned below ``prune_floor``."""
    lifted = _lift(spec, mu, cfg)
    nxt = _derive(lifted.positions + cfg.grid.dt * lifted.velocities, lifted.weights, tested=True)
    if cfg.coalesce_tol > MERGE_TOL:
        nxt = coalesce(nxt, cfg.coalesce_tol)
    nxt, lost = _prune(nxt, cfg.prune_floor)
    return lifted, nxt, lost


def _mean_velocity_step(spec: PvfSpec, mu: DiscreteMeasure, cfg: SchemeConfig):
    """Each atom moves by dt times its fiber mean, recorded as a one-point fiber.

    ``max_atoms`` applies; ``coalesce_tol`` and ``prune_floor`` do not.
    The node is built (and its atoms checked) first: a mean that is not
    finite makes its atom not finite, so the lift needs no check.  The
    one-point lift's rows (x_i, v_i) over ``mu``'s canonical atoms are in
    canonical order and carry ``mu``'s weights, so it takes no kernel pass
    and no weight test; its velocities are the means copied by ``+ 0.0``,
    which reads a -0.0 as +0.0.  Its base is ``mu`` itself, so it is not
    computed, unless the weight floor dropped a whole fiber of the lift:
    then the step starts from the lift's base, whose atoms are the fibers
    left.
    """
    lift = _lift(spec, mu, cfg)
    _, vbar = fiber_means(lift)
    if len(vbar) < mu.natoms:
        mu = base_of(lift)
    nxt = _derive(mu.atoms + cfg.grid.dt * vbar, mu.weights, tested=True)
    lifted = _derive(mu.atoms, mu.weights, velocities=vbar + 0.0, ordered=True, tested=True,
                     base=mu)
    return lifted, nxt, 0.0


_STEPS = {LAS: _las_step, LAGRANGIAN: _lagrangian_step, MEAN_VELOCITY: _mean_velocity_step}

#: The bytes of one block of a whole-array route's running sum (``_moved_whole``).
_BLOCK_BYTES = 1 << 18

#: The largest lattice index that ``_moved_whole`` carries under ``las``:
#: ``np.rint(n * dx / dx)`` gives back every integer n up to it.
_EXACT_INDEX = 2.0 ** 50


def _moved_whole(mu: DiscreteMeasure, vel: np.ndarray, grid: GridSpec, steps: int,
                 lattice: bool):
    """Up to ``steps`` splitting steps from ``mu``, as (lift, next node,
    0.0), of a run whose last step gave a lift with one row per node atom
    on the node's own weights array, which the next node ``mu`` adopted:
    ``vel`` is that lift's velocity column, and ``lattice`` says the run is
    ``las``.

    The splitting rule's velocity column is a function of the weights
    array alone (``pvf._splitting_rows``), and so are its ``las`` binning
    and its ``mean-velocity`` fiber means, even where the median splits:
    the lift groups its rows by position, one fiber per node atom.  So
    every later lift is ``mu``'s atoms with ``vel`` and the same weights,
    and every later step is the same translation.  The cap saw this atom
    count already, no weight changes for the floor to drop, and the merge
    tolerance is ``MERGE_TOL``.  So only the node's finiteness check and
    the kernel's first-route test can differ, and under ``las`` the check
    that the node lies on the space grid.

    Each node's atoms come from a running sum that adds a step's move to
    the row before as the step does, so they are the step's bits.  It adds
    one node row per step, ``np.add(x[k], move, out=x[k + 1])``: one
    contiguous pass over the atoms.  ``np.add.accumulate`` along the step
    axis gives the same bits, but runs one dependent chain per atom, each
    strided by a whole row, and where a row is a power of two of bytes
    (256 atoms: 2 KiB) those strides fall on few cache sets.  On an AMD
    EPYC with numpy 2.4.6, a 129 x 256 block took 51 us by rows against
    272 us by ``accumulate``, and a 33 x 1000 block 17 us against 89 us.
    Under ``lagrangian`` and ``mean-velocity`` the move is ``dt * vel``.
    Under ``las`` the sum runs in lattice indices: ``_las_step`` computes
    the next node as ``(ix + iv) dx`` with ``ix = rint(x / dx)`` and ``iv =
    rint(vel / dv)``, so the sum starts from ``rint(mu.atoms / dx)``, adds
    ``iv``, and a node is its index times ``dx``.  This is the step's node
    while every step starts from an index n with |n| <= ``_EXACT_INDEX`` =
    2^50, since the step's ``ix`` is then n: n is an integer (a sum of
    integral floats), and ``fl(n dx)`` is n dx within a factor 1 + u (u =
    2^-53), or exactly where it is subnormal, so ``fl(fl(n dx) / dx)`` lies
    within |n| (2 u + u^2) < 1/2 of n and ``rint`` gives n back; the grid
    check then reads an offset of 0.

    A node whose gaps all exceed ``MERGE_TOL`` strictly increases, so if
    its end rows are finite, every row is, and it passes both as the
    step's node does; under ``las`` its end indices bound the others.  At
    the first step that fails, the route stops, and the scheme's step, run
    from the last node given, refuses, merges or moves it with its own
    result or error in every ``np.errstate`` mode.  Overflow here is
    silenced, since a node it spoils is not given.

    The sums run in blocks of ``_BLOCK_BYTES``, each starting from the last
    node of the one before.  A block's nodes take ``+ 0.0`` once, in
    place, which reads a -0.0 as +0.0 element by element, as the step's
    node does, and the block is frozen.  Under ``lagrangian`` and
    ``mean-velocity`` the nodes are the running sum itself, whose last row
    starts the next block; a zero read as +0.0 there changes no later
    node, since +-0 + m is m for m != 0, and a zero sum is read as +0.0
    again.  Each node adopts its row of the block, a read-only view, as
    ordered rows, which are finite and hold no -0.0, and each lift adopts
    its node's atoms, ``vel`` and the weights, with that node as its base,
    as a step's lift does.  All of them are read-only already, so
    ``_derive``'s adopt route sets no flag on them.  The price of the views:
    a node that outlives its run keeps its whole block (at most
    ``_BLOCK_BYTES``) alive, and where the route stops inside a block, the
    rows after the stop stay allocated with it, unused.
    """
    w = mu.weights
    if lattice:
        start, move = np.rint(mu.atoms / grid.dx), np.rint(vel / grid.dv)
        if max(abs(start[0, 0]), abs(start[-1, 0])) > _EXACT_INDEX:
            return  # the step, which restarts the route, goes on alone
    else:
        start, move = mu.atoms, grid.dt * vel
    rows = max(1, _BLOCK_BYTES // (8 * mu.natoms))
    while steps:
        m = min(rows, steps)
        x = np.empty((m + 1,) + mu.atoms.shape)
        x[0] = start
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(m):
                np.add(x[k], move, out=x[k + 1])
            start, nodes = x[-1], x[1:] * grid.dx if lattice else x[1:]
            nodes += 0.0
            gap = np.minimum.reduce(nodes[:, 1:, 0] - nodes[:, :-1, 0], axis=1, initial=math.inf)
            ok = (gap > MERGE_TOL) & np.isfinite(nodes[:, 0, 0]) & np.isfinite(nodes[:, -1, 0])
            if lattice:  # the index each step starts from
                ok &= np.maximum(abs(x[:-1, 0, 0]), abs(x[:-1, -1, 0])) <= _EXACT_INDEX
        nodes.setflags(write=False)
        for atoms, passed in zip(nodes, ok.tolist()):
            if not passed:
                return
            lifted = _derive(mu.atoms, w, velocities=vel, ordered=True, tested=True, base=mu)
            mu = _derive(atoms, w, ordered=True, tested=True)
            yield lifted, mu, 0.0
        steps -= m


def run_scheme(spec: PvfSpec, mu0: DiscreteMeasure, cfg: SchemeConfig) -> MeasurePath:
    """Run the scheme named by ``cfg.scheme`` for N steps of dt from ``mu0``.

    A step maps a node to (its lift, the next node, the mass pruned).  The
    lattice scheme first bins ``mu0`` onto the space grid.  Each node is
    replaced by the base of its lift: the weight floor may trim lift tails.
    Where the lift's base is the node itself (see ``pvf.eval_pvf``), that
    is the same object, and nothing is computed.

    A step is a function of the rule, the node and ``cfg``, so a step whose
    next node equals the node it started from (``==``, which compares the
    bits of canonical arrays: the shape of the atoms, then the bytes of
    atoms and weights) is a fixed point: every step after it would return
    the same lift, node and pruned mass, and the run repeats that triple
    instead.  Under the splitting rule, a step of any scheme whose lift
    holds the node's own weights array, one row per node atom, and whose
    next node adopts that array, hands the steps that follow to
    ``_moved_whole`` while they pass its test: the same translation, by
    the running sum of ``dt v`` under ``lagrangian`` (at ``coalesce_tol <=
    MERGE_TOL``; the next node adopts the lift's weights only where the
    floor dropped none) and ``mean-velocity`` (which ignores both), and by
    exact lattice offsets under ``las``.  Both routes yield through the
    loop's one recording site.

    The path is built without ``MeasurePath``'s checks, which the loop
    proves: each node is its lift's base, every step keeps the dimension,
    and the times are the grid's.
    """
    grid = cfg.grid
    step = _STEPS[cfg.scheme]
    whole = (_kind(spec) is _KINDS[SplittingParticlePvf]
             and (cfg.scheme != LAGRANGIAN or cfg.coalesce_tol <= MERGE_TOL))
    mu = snap_space(mu0, grid) if cfg.scheme == LAS else mu0
    measures = [mu]
    lifts: list[LiftedMeasure] = []
    pruned = 0.0
    moved = iter(())
    for k in range(grid.N):
        out = next(moved, None)
        if out is None:
            out = step(spec, mu, cfg)
            lifted, nxt, _ = out
            if nxt == mu:
                moved = itertools.repeat(out, grid.N - k - 1)
            elif whole and lifted.weights is mu.weights is nxt.weights:
                moved = _moved_whole(nxt, lifted.velocities, grid, grid.N - k - 1,
                                     cfg.scheme == LAS)
        lifted, mu, lost = out
        measures[-1] = base_of(lifted)
        lifts.append(lifted)
        measures.append(mu)
        pruned += lost
    path = object.__new__(MeasurePath)
    path.__dict__.update(times=_frozen(grid.times)[0], measures=tuple(measures),
                         interp=tuple(lifts), pruned_mass=pruned)
    return path


# ---------------------------------------------------------------------------
# evaluation along a path
# ---------------------------------------------------------------------------

def locate_time(times: np.ndarray, t: float) -> tuple[int, bool]:
    """``(k, True)`` if t is node time k (within ``MERGE_TOL``), else ``(k, False)``
    for the interval (times[k], times[k+1]) holding t; OutOfRangeError outside.
    """
    t = float(t)
    if not times[0] - MERGE_TOL <= t <= times[-1] + MERGE_TOL:  # NaN fails too
        raise OutOfRangeError(f"t={t:g} outside [{times[0]:g}, {times[-1]:g}]")
    k = int(np.argmin(np.abs(times - t)))
    if abs(times[k] - t) <= MERGE_TOL:
        return k, True
    return int(np.searchsorted(times, t) - 1), False


def interpolate_at(path: MeasurePath, t: float) -> DiscreteMeasure:
    """The path's measure at any time in [0, T].

    Node times return the node measures; interior times transport the
    interval's lifted atoms linearly, x + (t - t_k) v.
    """
    t = float(t)
    times = path.times
    k, at_node = locate_time(times, t)
    if at_node:
        return path.measures[k]
    lifted = path.interp[k]
    return _derive(lifted.positions + (t - times[k]) * lifted.velocities, lifted.weights,
                   tested=True)


def support_bound_check(path: MeasurePath, C: float, R: float) -> bool:
    """True when every node's support radius is <= exp(C T) (R + 1).

    ``C`` should be a growth constant of the driving rule (see
    ``sublinearity_bound``) and ``R`` at least the initial support radius.
    """
    bound = float(np.exp(C * path.T) * (R + 1.0))
    return all(support_radius(mu) <= bound for mu in path.measures)
