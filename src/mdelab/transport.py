"""Optimal-transport distances between atomic measures.

Provides the order-1 Wasserstein distance on R^d, its analogue on
position-velocity space with ground cost |x - y| + |v - w|, and a
two-stage fiber comparison that measures how far apart the velocity
fibers of two lifted measures are once their positions are coupled
optimally.  The two-stage quantity is a pseudo-metric only: it can
vanish for distinct lifted measures.

All couplings are computed by one transportation (network) simplex on
the m x n cost matrix, with no external solver: the basis is a spanning
tree of m + n - 1 cells, kept strongly feasible against degeneracy
(Cunningham 1976; Peyre & Cuturi, Computational Optimal Transport,
ch. 3).  A cold solve prices the north-west corner first, cell by cell
along its staircase with no tree built, and stops there when it is
optimal, as on the line.  Otherwise it starts from the least-cost
(matrix-minimum) basis when that has no zero-mass cell and costs less;
on 2-D data that roughly halves the pivots.  Only the basis the pivots
start from is hung as a tree.  As in the network simplex of LEMON
(Kovacs 2015, "Minimum-cost flow algorithms: an experimental
evaluation"), the tree is kept in lists indexed by node: parent, depth,
children, and the cost and mass of the cell to the parent.  A pivot
reverses the tree path between the entering and the leaving cell, and
updates depths and duals only on the subtree that moves.  The entering
cell is found by block-search pricing, LEMON's default rule, into a
buffer of the whole matrix that holds the reduced costs when the solve
ends.  Equal measures are at distance 0 with no solve.  On the line the
Wasserstein distance is instead integrated exactly from the CDF
difference, which doubles as an independent cross-check of the simplex
in the test suite.  That integral is a row kernel: it takes a batch of
pairs of one shape, (m, n) atoms, and a single pair is a batch of one.
A path sweep (``_w1_sweep``) groups its node pairs by shape and calls the
kernel once per group, or per block of a large group, each value bit for
bit the single pair's.

Every coupling comes from one solve, ``_lp``, the one caller of the
simplex: ``lp_solve``, the distances and both stages of
``fiber_pseudometric``.  It is also the one site where a solve's costs
are built, held and summed.  ``lp_solve`` hands it the cost matrix it
checked; the distances hand it their point pairs (atoms, or the positions
and the velocities of lifts) and their canonical weights, unchecked.
``_lp`` refuses a solve of more than ``_MAX_CELLS`` cells with
``SupportBlowupError`` before it builds any m x n array, then builds the
costs from the points, coordinate-major, as a Euclidean distance or the
in-place sum of two.  The simplex reads single costs from that one
matrix.  Atoms so far apart that a distance passes the float range give
an inf cost, which the simplex refuses with ``OutOfRangeError``.  ``_lp``
rescales marginals whose totals differ to their mean total, checks the
marginals of the basic masses, and returns the value, the basic cells,
the reduced costs and the rows and columns it solved.  One function,
``_price``, sums cost times mass over a set of cells with ``math.fsum``:
the value of a solve, over its m + n - 1 basic cells, and the costs of the
simplex's two starts.  The sum is correctly rounded, so it depends neither
on the order the cells entered nor on the CPU.  No dense plan is built
for a value: only ``lp_solve`` and ``w1_plan``, which return a plan, build
one from the basic cells.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Optional

import numpy as np

from .errors import DimMismatchError, IterationCapError, LpFailureError
from .errors import OutOfRangeError, SupportBlowupError
from .measures import DiscreteMeasure, LiftedMeasure, _same_dim
from .tolerances import AGREE_TOL, PLAN_NEG_TOL, REDUCED_COST_TOL, TIGHT_TOL


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TransportPlan:
    """A coupling between two atom lists, stored as a dense mass matrix.

    ``mass[i, j]`` is the mass moved from atom i of the first measure to
    atom j of the second; row and column sums reproduce the marginals.
    """

    mass: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mass, dtype=float)
        if not np.isfinite(m).all():
            raise ValueError("plan mass must be finite")
        if m.ndim != 2:
            raise ValueError("plan mass must be a 2-D matrix")
        if np.any(m < -PLAN_NEG_TOL):
            raise ValueError("plan mass must be nonnegative")
        self._set(np.ascontiguousarray(np.clip(m, 0.0, None)))

    @classmethod
    def _solved(cls, mass: np.ndarray) -> "TransportPlan":
        """The plan of a solve, whose finite, nonnegative masses the solver
        wrote into a fresh contiguous matrix: nothing is re-checked."""
        plan = object.__new__(cls)
        plan._set(mass)
        return plan

    def _set(self, mass: np.ndarray) -> None:
        mass.setflags(write=False)
        object.__setattr__(self, "mass", mass)

    @property
    def shape(self) -> tuple[int, int]:
        return self.mass.shape

    @property
    def row_marginals(self) -> np.ndarray:
        return self.mass.sum(axis=1)

    @property
    def col_marginals(self) -> np.ndarray:
        return self.mass.sum(axis=0)

    def nonzeros(self, tol: float = 0.0) -> Iterator[tuple[int, int, float]]:
        """Yield (i, j, mass) for entries with mass > ``tol``, row-major."""
        rows, cols = np.nonzero(self.mass > tol)
        for i, j in zip(rows, cols):
            yield int(i), int(j), float(self.mass[i, j])


# ---------------------------------------------------------------------------
# transportation simplex
# ---------------------------------------------------------------------------

def _north_west(a: list[float], b: list[float]) -> dict[tuple[int, int], float]:
    """North-west-corner basis: m + n - 1 cells and their masses.

    A row and a column that run out together move down, so the zero cell
    that follows hangs a new row under the column: every zero-mass cell
    points toward row 0, the root, and the tree is strongly feasible.
    """
    m, n = len(a), len(b)
    flow = {}
    i = j = 0
    ra, rb = a[0], b[0]
    while True:
        x = min(ra, rb)
        flow[i, j] = x
        ra, rb = ra - x, rb - x
        if i == m - 1 and j == n - 1:
            return flow
        if j == n - 1 or (i < m - 1 and ra <= rb):
            i += 1
            ra = a[i]
        else:
            j += 1
            rb = b[j]


def _least_cost(C: np.ndarray, a, b) -> dict[tuple[int, int], float]:
    """Least-cost basis: m + n - 1 cells and their masses.

    Cells are taken in increasing cost order, ties row-major.  A cell whose
    row and column are both open gets the smaller of what they have left
    and closes one of them, the row when it runs out first or together
    (unless it is the last open row), as in ``_north_west``.  No later cell
    lies on a closed line, so the cells form a spanning tree.  A row and a
    column that run out together leave a zero-mass cell to come.
    """
    m, n = C.shape
    ra, rb = a.tolist(), b.tolist()
    row_open, col_open = [True] * m, [True] * n
    rows_left, cols_left = m, n
    flow = {}
    order = np.argsort(C, axis=None, kind="stable")
    for i, j in zip((order // n).tolist(), (order % n).tolist()):
        if not (row_open[i] and col_open[j]):
            continue
        x = min(ra[i], rb[j])
        flow[i, j] = x
        ra[i], rb[j] = ra[i] - x, rb[j] - x
        if rows_left == cols_left == 1:
            break
        if cols_left == 1 or (rows_left > 1 and ra[i] <= rb[j]):
            row_open[i] = False
            rows_left -= 1
        else:
            col_open[j] = False
            cols_left -= 1
    return flow


_BLOCK_CELLS = 4096  # pricing visits whole rows, at least this many cells at once


def _hang(children, depth, cost, top: int, pot_top: float) -> tuple[list[int], list[float]]:
    """Hang the subtree of node ``top``: its depths, in place, and duals.

    The one routine that computes depths and duals: ``_tree`` hangs the
    whole start tree with it from row 0 (``top`` 0, dual 0), and a pivot
    re-hangs the subtree that moved.  ``children[p]`` lists the nodes hung
    from node p, and ``cost[q]`` is the cost of the basic cell joining
    node q to its parent, whose duals satisfy u_p + u_q = that cost.  The
    depth of ``top`` must already be set; ``pot_top`` is its dual.
    Returns the nodes of the subtree, ``top`` first, and their duals.
    """
    order, pot = [top], [pot_top]
    for p, x in zip(order, pot):
        kids = children[p]
        if kids:
            d = depth[p] + 1
            for q in kids:
                depth[q] = d
                pot.append(cost[q] - x)
            order += kids
    return order, pot


def _tree(flow, C: np.ndarray, m: int, n: int, u: np.ndarray):
    """The basis ``flow`` hung from row 0, as lists indexed by node.

    Nodes 0..m-1 are the rows and m.. the columns.  Orients the basis:
    each node's parent and children, and the cost and mass of the basic
    cell joining it to its parent (row 0's are unused).  The depths and
    the duals, written into ``u`` rows first, come from ``_hang``, so a
    start tree's duals and a re-hung subtree's share one formula.
    Returns parent, depth, children, cost and mass.
    """
    children = [[] for _ in range(m + n)]  # the neighbours, until the parent is taken out
    for i, j in flow:
        children[i].append(m + j)
        children[m + j].append(i)
    parent, depth = [-1] * (m + n), [0] * (m + n)
    cost, mass = [0.0] * (m + n), [0.0] * (m + n)
    order = [0]
    for p in order:
        kids = children[p]
        if p:
            kids.remove(parent[p])
        for q in kids:
            i, j = (p, q - m) if q >= m else (q, p - m)
            parent[q], cost[q], mass[q] = p, C.item(i, j), flow[i, j]
        order += kids
    u.put(*_hang(children, depth, cost, 0, 0.0))
    return parent, depth, children, cost, mass


def _simplex(C: np.ndarray, a, b, cap: int, flow=None, allowed=None):
    """Transportation simplex on a strongly feasible tree.

    ``a`` and ``b`` are positive marginals, not checked here: ``lp_solve``
    checks outside input, and ``_lp``, the one caller, takes canonical
    weights and rescales them to their mean total.  The basis
    starts at ``flow`` (the basic cells of an earlier solve with the same
    marginals) when it is given.  Otherwise it starts at the north-west
    corner, which is
    priced first: on the line, where the atoms are sorted, it is optimal
    and no pivot is made.  Each cell of that staircase, in order, adds a
    row or a column next to a node already placed, its parent in the tree
    hung from row 0, so the staircase is priced in one loop and no tree is
    built for it.  If it is not optimal, the least-cost basis replaces it
    when that carries positive mass on every cell and costs less (a cost
    past the float range reads as inf).  A tree without zero-mass cells is
    strongly feasible whatever its root; a degenerate least-cost basis is
    not used.  When ``allowed`` is given,
    only those cells may enter.  Pricing is block search (Kovacs 2015):
    blocks of whole rows of at least ``_BLOCK_CELLS`` cells, visited in
    turn from the block of the last entering cell; the most negative
    reduced cost of the first block that has one enters, so a problem of
    one block enters by Dantzig's rule.  The cell that leaves is
    Cunningham's: the last blocking cell met going round the cycle from
    its apex, which keeps zero-mass cells pointing to the root and rules
    out cycling.

    Every start that pivots (a warm start, the least-cost start, or a
    staircase that is not optimal) is hung from row 0 at one site, by
    ``_tree``, into lists indexed by node: parent, depth, children, and
    the cost and mass of the cell to the parent; then it is priced once.
    A staircase that stays is so priced twice, cell by cell and on its
    tree, to the same duals and the same entering cell.  An optimal
    staircase is never hung.  The cycle walk reads masses by node.  A
    pivot reverses the tree path from the entering cell's cut-off end up
    to the leaving cell: each node on it now hangs from the path node it
    carried before, by the same cell, whose cost and mass move with it;
    the cut-off end hangs by the entering cell, and the leaving cell is
    gone.  Then only the subtree that moved is re-hung, over the children
    lists.  A dual is computed from its parent's by one formula, in
    ``_hang``, for the start tree and for every subtree that moves, so it
    depends only on its path from the root: duals outside the subtree keep
    their paths and values, and those inside are recomputed along their
    new paths.  Every dual is thus bit-identical to a full re-hang of the
    new tree, and none can drift.  The basis dict keeps the cells in the
    order they entered; its masses are read back from the nodes at the
    end.

    The pricing buffer spans the whole m x n matrix, and a solve ends when
    a round over every block finds no entering cell, so the buffer then
    holds the reduced costs C - u - v under the final duals.  Besides the
    blocks of rows that pricing reads, single costs are read from ``C`` in
    place (``C.item``): O(m + n + pivots) of them, so the matrix is held
    once.  The costs of the two starts are compared by ``_price``.

    Costs that are not all finite raise OutOfRangeError: the largest, read
    for the pricing tolerance, tests them all.  Only costs ``_lp`` built
    from points can fail it, an inf distance between atoms too far apart;
    ``lp_solve`` refuses such a matrix of its own with a ValueError first.

    Returns the basic cells with their masses, the reduced costs and the
    pivot count.
    """
    m, n = C.shape
    tol = REDUCED_COST_TOL * (1.0 + float(np.abs(C).max()))
    if not math.isfinite(tol):  # a distance that overflowed to inf
        raise OutOfRangeError("costs must be finite: a distance between atoms overflows")
    rows = -(-_BLOCK_CELLS // n)
    blocks = -(-m // rows)
    block = 0
    u = np.empty(m + n)  # the duals: rows, then columns
    urow, vcol = u[:m, None], u[m:]
    reduced = np.empty((m, n))
    spans = [  # per block: its first row, costs, row duals, reduced costs and allowed cells
        (lo, C[lo:lo + rows], urow[lo:lo + rows], reduced[lo:lo + rows],
         None if allowed is None else allowed[lo:lo + rows])
        for lo in range(0, m, rows)
    ]

    def entering():  # the cell that enters the current tree, or None at an optimum
        nonlocal block
        for _ in range(blocks):
            lo, Cb, ub, R, ok = spans[block]
            np.subtract(Cb, ub, out=R)
            np.subtract(R, vcol, out=R)
            price = R if ok is None else np.where(ok, R, 0.0)
            k = int(price.argmin())
            if price.item(k) < -tol:
                i, j = divmod(k, n)
                return lo + i, j
            block = (block + 1) % blocks
        return None

    if flow is None:
        flow = _north_west(a.tolist(), b.tolist())
        pot, last = [0.0] * (m + n), 0
        for i, j in flow:  # each cell places its new row or column under the other
            if i != last:
                pot[i], last = C.item(i, j) - pot[m + j], i
            else:
                pot[m + j] = C.item(i, j) - pot[i]
        u[:] = pot
        pivoting = entering() is not None  # an optimal staircase is left without a tree
        if pivoting:
            start = _least_cost(C, a, b)
            if min(start.values()) > 0.0 and _price(C, start) < _price(C, flow):
                flow = start
    else:
        flow, pivoting = dict(flow), True
    if pivoting:  # the one site that hangs a start: the tree the pivots leave
        parent, depth, children, cost, mass = _tree(flow, C, m, n, u)
    enter = entering() if pivoting else None
    for pivots in range(cap):
        if enter is None:
            if pivots:  # the cell joining a child to its parent holds the child's mass
                for e in flow:
                    i, j = e
                    flow[e] = mass[i] if parent[i] == m + j else mass[m + j]
            return flow, reduced, pivots
        i, j = enter
        # walk from row i and from column j up to their common ancestor; the
        # cells met on the way from row i that lose mass are those of rows,
        # and on the way from column j those of columns.  Cunningham's cell
        # is the last minimum going round the cycle from the apex down to
        # row i, then over (i, j) and up from column j: the first minimum
        # met from row i, unless one from column j is as small.
        lose, gain = [], []
        p, q = i, m + j
        dp = dq = math.inf
        while p != q:
            if depth[p] >= depth[q]:
                if p < m:
                    lose.append(p)
                    if mass[p] < dp:
                        dp, ep = mass[p], p
                else:
                    gain.append(p)
                p = parent[p]
            else:
                if q >= m:
                    lose.append(q)
                    if mass[q] <= dq:
                        dq, eq = mass[q], q
                else:
                    gain.append(q)
                q = parent[q]
        # the end of (i, j) cut off from the root heads the subtree that moves
        if dq <= dp:
            delta, leave, top, below = dq, eq, m + j, i
        else:
            delta, leave, top, below = dp, ep, i, m + j
        for p in lose:
            mass[p] -= delta
        for p in gain:
            mass[p] += delta
        up = parent[leave]
        del flow[(leave, up - m) if leave < m else (up, leave - m)]
        flow[i, j] = delta
        # reverse the path from top up to the leaving cell: each node on it
        # hangs from the path node it carried, by the cell that joined them
        c, x, p = C.item(i, j), delta, below
        q = top
        while True:
            up = parent[q]
            children[up].remove(q)
            children[p].append(q)
            parent[q] = p
            cost[q], c = c, cost[q]
            mass[q], x = x, mass[q]
            if q == leave:
                break
            p, q = q, up
        depth[top] = depth[below] + 1
        order, pot = _hang(children, depth, cost, top, cost[top] - u.item(below))
        u.put(order, pot)
        enter = entering()
    raise IterationCapError(f"simplex exceeded {cap} iterations")


def lp_solve(
    costs, row_marginals, col_marginals, max_iter: Optional[int] = None
) -> tuple[TransportPlan, float]:
    """Minimize ``sum(costs * plan)`` over plans with the given marginals.

    A transportation simplex: the basis is a spanning tree of m + n - 1
    cells, started at the north-west corner when that is optimal and
    otherwise at the least-cost basis when it has no zero-mass cell and
    costs less; rows and columns of zero mass are left out of the tree and
    carry none.  Both marginals must be
    probability vectors (sums within ``AGREE_TOL`` of one).  ``max_iter``
    is None or an integer >= 0 (numpy's too, not a bool); the solve raises
    IterationCapError past that many pivots (default 10 m n), and a cap
    of 0 raises even where the north-west corner is optimal.

    The value is ``math.fsum`` of ``costs[i, j] * plan.mass[i, j]`` over
    the basic cells, the correctly rounded cost of the plan, which is built
    from the basic cells on demand, here, and zero elsewhere.
    """
    C = np.asarray(costs, dtype=float)
    r = np.asarray(row_marginals, dtype=float).ravel()
    c = np.asarray(col_marginals, dtype=float).ravel()
    if C.ndim != 2:
        raise ValueError("costs must be a 2-D matrix")
    if not np.all(np.isfinite(C)):
        raise ValueError("costs must be finite")
    if not (np.isfinite(r).all() and np.isfinite(c).all()):
        raise ValueError("marginals must be finite")
    if r.shape[0] != C.shape[0] or c.shape[0] != C.shape[1]:
        raise ValueError("marginal lengths must match the cost matrix shape")
    if np.any(r < 0) or np.any(c < 0):
        raise ValueError("marginals must be nonnegative")
    # a nonnegative vector whose largest entry passes 1 + AGREE_TOL sums
    # past it too, and testing that first keeps a huge one from overflowing
    if (
        r.max(initial=0.0) > 1.0 + AGREE_TOL or c.max(initial=0.0) > 1.0 + AGREE_TOL
        or abs(r.sum() - 1.0) > AGREE_TOL or abs(c.sum() - 1.0) > AGREE_TOL
    ):
        raise ValueError("marginals must each sum to one")
    if max_iter is not None and not (
        isinstance(max_iter, numbers.Integral) and not isinstance(max_iter, bool) and max_iter >= 0
    ):
        raise ValueError(f"max_iter must be None or an integer >= 0, got {max_iter!r}")
    solve = _lp(C, r, c, max_iter)
    return _dense(solve.cells, C.shape, solve.index), solve.value


# what ``_lp`` computes: the value, the basic cells with their masses and
# the reduced costs of the problem the simplex solved, and the (rows, cols)
# of the matrix that it solved, or None when it solved them all
_Solve = namedtuple("_Solve", "value cells reduced index")

# the most cells (m x n) a solve may have: 16.8 million, enough for a
# 2601 x 5301 pair.  A 2-D W1 of 700 or 1500 atoms a side added 90-94 bytes
# of peak RSS per cell (the cost matrix, the pricing buffer, and the sorted
# order of the least-cost start with its two index lists), so a solve at
# the cap holds about 1.6 GB
_MAX_CELLS = 2**24


def _price(C: np.ndarray, cells: dict[tuple[int, int], float]) -> float:
    """The cost of ``cells`` on ``C``: ``math.fsum`` of ``C[i, j] * x`` over
    the cells (i, j) and their masses x, correctly rounded, so it depends
    neither on the order of the cells nor on the CPU.  A partial sum that
    passes the float range reads as inf.  The one sum of cost times mass:
    the value of a solve and the costs of the simplex's two starts."""
    try:
        return math.fsum(C.item(i, j) * x for (i, j), x in cells.items())
    except OverflowError:  # a partial sum passed the float range
        return math.inf


def _lp(costs, r: np.ndarray, c: np.ndarray, max_iter=None, flow=None, allowed=None):
    """The solve of ``lp_solve``, on marginals it does not check: the one
    caller of ``_simplex``, so every coupling of the package comes from it,
    and the one site where a solve's costs are built, held and summed.

    ``costs`` is the cost matrix, which ``lp_solve`` checked, or a list of
    pairs (X, Y) of point arrays from the distances: the cost of cell (i, j)
    is the sum over the pairs of the Euclidean distance |X[i] - Y[j]|, one
    pair for a W1 or a fiber stage and the positions and the velocities for
    ``lifted_w1``, the second distance added in place.  Before any m x n
    array is built, a solve of more than ``_MAX_CELLS`` cells raises
    SupportBlowupError.  A distance past the float range is inf and raises
    OutOfRangeError in ``_simplex``; ``lp_solve``'s matrix is finite.

    ``lp_solve`` calls it after its checks.  The distances call it with the
    weights of canonical measures: each is at least ``WEIGHT_FLOOR`` > 0,
    and their total is within ``UNIT_MASS_TOL`` of one, or is the sum of a
    renormalization, a few ulps from one; both are well inside
    ``AGREE_TOL``.  So those marginals pass every test of ``lp_solve``,
    and the costs built from the points have their shape.

    Marginals whose totals differ are rescaled to their mean total, and
    the row and column sums of the basic masses are checked against ``r``
    and ``c``.  ``flow`` and ``allowed`` are handed to ``_simplex``: a warm
    start from the cells of an earlier solve with the same marginals, and
    the cells that may enter.  They index the whole matrix, so they are for
    marginals with no zero entry, which canonical weights always are.  The
    cells and reduced costs returned index the whole matrix too, or, where
    a marginal has zero entries, the rows and columns of positive mass
    that the simplex solved, which ``index`` then holds.  No m x n array
    is built beyond the costs and the simplex's own: a caller that wants
    the plan builds it from the cells with ``_dense``.

    Returns a ``_Solve``.  Its value is ``_price`` of the basic cells.  The
    marginal check runs over the m + n - 1 cells in Python, where numpy's
    work per call would cost more than the loop.  A value past the float
    range is taken again by numpy's product and sum, so an overflow is inf,
    reported as numpy's errstate says; the sum runs over the halved
    products and is doubled, so a partial sum that passes the range does
    not make a value within it inf.  The distances return the value
    unclamped: their costs are norms or sums of norms, so >= +0.0 and never
    -0.0, and every basic mass is >= +0.0 (a start takes ``min(ra, rb)`` of
    what is left, and a pivot subtracts the smallest mass that loses), so
    every product and their sum are >= +0.0.
    """
    ready = isinstance(costs, np.ndarray)  # lp_solve's matrix, else pairs of point arrays
    m, n = costs.shape if ready else map(len, costs[0])
    if m * n > _MAX_CELLS:
        raise SupportBlowupError(f"a {m} x {n} solve has {m * n} cells, past the cap of {_MAX_CELLS}")
    C = costs if ready else _pairwise_dist(*costs[0])
    for X, Y in () if ready else costs[1:]:  # a lift's velocity distance, added in place
        C += _pairwise_dist(X, Y)
    cap = int(max_iter) if max_iter is not None else 10 * m * n
    if r.all() and c.all():
        a, b, index = r, c, None
    else:
        index = np.flatnonzero(r), np.flatnonzero(c)
        a, b, C = r[index[0]], c[index[1]], C[np.ix_(*index)]
    targets = a.tolist() + b.tolist()  # the marginals the basic masses must sum to
    sa, sb = a.sum(), b.sum()
    if sa != sb:
        # balance the totals, or the north-west corner strands the excess
        # in its last cell; each marginal moves by at most half their gap
        total = (sa + sb) / 2.0
        a, b = a * (total / sa), b * (total / sb)
    cells, reduced, _ = _simplex(C, a, b, cap, flow=flow, allowed=allowed)
    sums, k = [0.0] * len(targets), len(a)
    for (i, j), x in cells.items():
        sums[i] += x
        sums[k + j] += x
    if max(map(abs, map(float.__sub__, sums, targets))) > AGREE_TOL:  # pragma: no cover
        # the balanced totals keep the basic masses within tolerance
        raise LpFailureError("solver returned a plan violating the marginals")
    value = _price(C, cells)
    if not math.isfinite(value):  # numpy reports the overflow as its errstate says
        terms = np.multiply([C.item(i, j) for i, j in cells], list(cells.values())).tolist()
        value = float(np.add.reduce(np.full(2, math.fsum(t / 2.0 for t in terms))))
    return _Solve(value, cells, reduced, index)


def _dense(flow: dict[tuple[int, int], float], shape: tuple[int, int], index=None) -> TransportPlan:
    """The plan whose masses are ``flow``'s basic cells and zero elsewhere,
    built only where a plan is returned: by ``lp_solve`` and ``w1_plan``.

    ``index`` is None, or the (rows, cols) of the matrix that the cells'
    indices number, when the solve left out rows or columns of zero mass.
    """
    i, j = np.fromiter(chain.from_iterable(flow), np.intp, 2 * len(flow)).reshape(-1, 2).T
    mass = np.zeros(shape)
    mass[(i, j) if index is None else (index[0][i], index[1][j])] = list(flow.values())
    return TransportPlan._solved(mass)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def _pairwise_dist(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    # coordinate-major: the differences as one (d, m, n) array, squared in
    # place and reduced over the leading axis, then rooted in place.  numpy
    # lays the differences out as its inputs are, coordinates innermost, so
    # the reduce is the sum over the trailing axis of the (m, n, d)
    # differences, bit for bit.  A difference or square that overflows reads
    # as inf, unreported, so costs that are not finite meet the simplex's
    # OutOfRangeError in every mode.  Called only by _lp, which builds every
    # cost matrix from points
    with np.errstate(over="ignore"):
        sq = X.T[:, :, None] - Y.T[:, None, :]
        np.multiply(sq, sq, out=sq)
        dist = np.add.reduce(sq, axis=0)
        return np.sqrt(dist, out=dist)


def _w1_quantile(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Exact 1-D Wasserstein-1 of one pair: ``_w1_rows`` on a batch of one,
    taken on views of the measures' arrays."""
    return float(_w1_rows(mu.atoms.T, nu.atoms.T, mu.weights[None], nu.weights[None])[0])


def _w1_rows(a: np.ndarray, b: np.ndarray, wa: np.ndarray, wb: np.ndarray) -> np.ndarray:
    """Exact 1-D Wasserstein-1 per row, the integral of |F_a - F_b|, for the
    rows of ``_cdf_gap_integral``.

    Atoms that span more than the float range overflow a gap of the grid.
    Only on the rows whose integral is then not finite is it taken again on
    the halved coordinates and doubled, so every other row keeps its bits.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        values = _cdf_gap_integral(a, b, wa, wb)
        # one reduce tests every row; if finite rows sum past the float range,
        # the mask below is merely empty
        finite = math.isfinite(np.add.reduce(values))
    if not finite:
        bad = ~np.isfinite(values)
        with np.errstate(under="ignore", over="ignore"):
            values[bad] = 2.0 * _cdf_gap_integral(a[bad] / 2.0, b[bad] / 2.0, wa[bad], wb[bad])
    return values


def _cdf_gap_integral(a: np.ndarray, b: np.ndarray, wa: np.ndarray, wb: np.ndarray) -> np.ndarray:
    """The integral of |F_a - F_b| over the line, one per row: for rows of
    sorted atoms ``a`` (k, m) and ``b`` (k, n) with weights ``wa`` (k, m)
    and ``wb`` (k, n), the k integrals.

    Each row merges its atoms by a stable argsort, which puts an atom of
    ``a`` before an equal one of ``b``.  One prefix sum along the merged
    order, over ``wa`` padded with zeros and over zeros then ``wb``, gives
    F_a and F_b at every merged point; the zeros add +0.0, which changes no
    bit.  At a tie the first tied point may lack the other atom's mass, but
    its grid step is 0, so its term is +0.0 either way, and the last tied
    point sees both masses.  So every term is the one that searching each
    atom list for the merged grid gives, and a reduce along the contiguous
    last axis is numpy's pairwise sum of the row, as ``np.sum`` of the row
    alone is: a row's value does not depend on the rows beside it.
    """
    k, m = a.shape
    size = m + b.shape[1]
    x = np.concatenate((a, b), axis=1)
    order = np.argsort(x, axis=1, kind="stable")
    order += np.arange(0, k * size, size)[:, None]  # indices into the flat rows
    w = np.zeros((2, k, size))
    w[0, :, :m] = wa
    w[1, :, m:] = wb
    cdf = np.add.accumulate(w.reshape(2, -1)[:, order], axis=-1)
    grid = x.reshape(-1)[order]
    gaps = np.abs(cdf[0] - cdf[1])[:, :-1] * (grid[:, 1:] - grid[:, :-1])
    return np.add.reduce(gaps, axis=1)


def w1_distance(mu: DiscreteMeasure, nu: DiscreteMeasure, method: str = "auto") -> float:
    """Wasserstein-1 distance with Euclidean ground cost.

    ``method`` is "auto" (quantile integration on the line, LP otherwise),
    "quantile" (1-D only) or "lp".  Both routes are exact for atomic
    measures up to float roundoff, which the test suite exploits by
    comparing them against each other.  Both return 0.0 for equal measures
    (``==``, which compares the bits of canonical arrays) without
    integrating or solving.  The quantile route is the row kernel of a
    path sweep on a batch of one, so a sweep's values are this one's.
    """
    _same_dim(mu.dim, nu.dim)
    if method == "auto":
        method = "quantile" if mu.dim == 1 else "lp"
    if method not in ("quantile", "lp"):
        raise ValueError(f"unknown method {method!r}")
    if method == "quantile" and mu.dim != 1:
        raise DimMismatchError("quantile integration needs dim 1")
    if mu == nu:  # bit-equal canonical measures
        return 0.0
    if method == "quantile":
        return _w1_quantile(mu, nu)
    return _lp([(mu.atoms, nu.atoms)], mu.weights, nu.weights).value


# merged atoms per call of the row kernel in a sweep; a larger block measured
# slower per row (its temporaries, about ten times its atoms, leave the cache)
# and its memory grows with the path
_SWEEP_POINTS = 4096


def _w1_sweep(ms, ns) -> np.ndarray:
    """``w1_distance(ms[i], ns[i])`` for every i, bit for bit, in one pass
    over two equally long lists of measures.

    Bit-equal pairs are 0.0 with no work.  On the line the other pairs are
    grouped by their atom counts (m, n): a group of several is stacked and
    integrated by one call of the row kernel, in blocks of at most
    ``_SWEEP_POINTS`` merged atoms, and a lone pair goes through as views
    of its arrays, as ``w1_distance`` takes it.  Elsewhere each pair is one
    solve.  A pair of two dimensions raises DimMismatchError.
    """
    values = np.zeros(len(ms))
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (mu, nu) in enumerate(zip(ms, ns)):
        _same_dim(mu.dim, nu.dim)
        if mu == nu:
            continue
        if mu.dim == 1:
            groups.setdefault((mu.natoms, nu.natoms), []).append(i)
        else:
            values[i] = _lp([(mu.atoms, nu.atoms)], mu.weights, nu.weights).value
    for (m, n), ks in groups.items():
        step = max(1, _SWEEP_POINTS // (m + n))
        for part in (ks[s:s + step] for s in range(0, len(ks), step)):
            if len(part) == 1:  # views of the pair's arrays, as w1_distance takes them
                values[part[0]] = _w1_quantile(ms[part[0]], ns[part[0]])
            else:
                (a, wa), (b, wb) = ((np.stack([x[k].atoms[:, 0] for k in part]),
                                     np.stack([x[k].weights for k in part])) for x in (ms, ns))
                values[part] = _w1_rows(a, b, wa, wb)
    return values


def w1_plan(mu: DiscreteMeasure, nu: DiscreteMeasure) -> tuple[TransportPlan, float]:
    """An optimal coupling for the Euclidean Wasserstein-1 problem, and its value.

    Equal measures get the diagonal plan.  On the line the atoms are
    sorted, so the north-west corner of the weights is the monotone
    coupling, which is optimal; it is built directly in O(m + n) cells.
    Elsewhere the simplex solves the LP and the plan is built from its
    basic cells on demand, here; ``w1_distance`` builds none.  The value is
    ``w1_distance``'s, bit for bit: on the line the CDF integral, elsewhere
    the solve's ``math.fsum`` over the basic cells.
    """
    _same_dim(mu.dim, nu.dim)
    if mu == nu:
        return TransportPlan._solved(np.diag(mu.weights)), 0.0
    if mu.dim == 1:
        cells = _north_west(mu.weights.tolist(), nu.weights.tolist())
        return _dense(cells, (mu.natoms, nu.natoms)), _w1_quantile(mu, nu)
    solve = _lp([(mu.atoms, nu.atoms)], mu.weights, nu.weights)
    return _dense(solve.cells, (mu.natoms, nu.natoms)), solve.value


def lifted_w1(v1: LiftedMeasure, v2: LiftedMeasure) -> float:
    """Wasserstein-1 distance on position-velocity space.

    Uses the additive ground cost |x - y| + |v - w| (Euclidean norm on each
    factor), so moving mass in position and in velocity are charged
    independently.
    """
    _same_dim(v1.dim, v2.dim)
    return _lp([(v1.positions, v2.positions), (v1.velocities, v2.velocities)],
               v1.weights, v2.weights).value


def fiber_pseudometric(v1: LiftedMeasure, v2: LiftedMeasure) -> float:
    """Velocity discrepancy over (nearly) position-optimal couplings.

    Stage one couples the lifted atoms to minimize the position cost
    |x - y| alone; its optimum W* equals the Wasserstein-1 distance of the
    base measures.  By complementary slackness the position-optimal
    couplings are the couplings carried by the cells of zero stage-one
    reduced cost.  Stage two starts from the stage-one optimal tree and
    minimizes the velocity cost |v - w| over the cells whose reduced cost
    is at most ``TIGHT_TOL`` (1 + W*).  Each stage is one solve of
    ``_lp``, as every other coupling is: W* is stage one's value, the
    tight cells come from its reduced costs, and its basic cells are
    stage two's warm start.  Its value lies between the optimum
    over couplings within ``TIGHT_TOL`` (1 + W*) of W* and the exact
    optimum over the position-optimal face.

    This is a pseudo-metric: it vanishes whenever the fibers can be
    matched along some position-optimal coupling, even if the lifted
    measures differ.
    """
    _same_dim(v1.dim, v2.dim)
    a, b = v1.weights, v2.weights
    place = _lp([(v1.positions, v2.positions)], a, b)
    tight = place.reduced <= TIGHT_TOL * (1.0 + place.value)
    return _lp([(v1.velocities, v2.velocities)], a, b, flow=place.cells, allowed=tight).value
