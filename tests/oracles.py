"""Independent reference computations for the test suite.

Nothing in this module calls into mdelab, except that the per-fiber mean
reference builds each fiber with ``mdelab.make_measure``, as the route it
stands for did.  Expected values come from exact rational arithmetic
(fractions + math.comb), closed forms, scipy's HiGHS linear-programming
solver, an LP-duality certificate (the c-transform of a basis's column
duals bounds the optimum from below), brute-force vertex enumeration, and
the row-at-a-time greedy grouping scan that defines canonical-form
merging, so agreement with the package is meaningful.

The loop references at the end (the CDF integral of one pair on the
line, the cost matrix summed over its trailing axis, the splitting lift
and its median, curve gluing, the weak residual and its cubic bump) are
the per-atom and per-pair loops, or the earlier forms, that the
package's whole-array kernels replace.
They take plain arrays and use the same floating-point operations in the
same order, so the kernels must match them bit for bit.  The per-fiber
means are the exception: the reference merges and normalizes each fiber
first, so it agrees with the kernel within a stated bound.  The
per-value artifact writers are the references for the whole-table CSV
and JSON formatting in the same way, and the transportation simplex that
re-hangs the whole tree and prices every cell at every pivot is the
reference for the package's solver.
"""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import scipy.optimize
import scipy.sparse


# ---------------------------------------------------------------------------
# closed forms for the worked examples
# ---------------------------------------------------------------------------

def binomial_law(k: int, N: int) -> list[tuple[float, float]]:
    """Law of the k-step +-1 random walk scaled by 1/N.

    Returns (coordinate, weight) pairs on the lattice (2 i - k) / N with
    exact dyadic weights C(k, i) / 2^k, sorted by coordinate.
    """
    return [
        ((2 * i - k) / N, float(Fraction(math.comb(k, i), 2**k)))
        for i in range(k + 1)
    ]


def multinomial_law(k: int, dt: float) -> list[tuple[tuple[float, float], float]]:
    """Law of the k-step walk on +-e1, +-e2 with probability 1/4 each.

    Returns ((dt (a - b), dt (c - d)), weight) pairs, one per lattice point
    reached, with the weight summed exactly over the step counts
    a + b + c + d = k as k! / (a! b! c! d!) / 4^k; sorted by point.
    """
    law: dict[tuple[int, int], Fraction] = {}
    for a, b, c in itertools.product(range(k + 1), repeat=3):
        d = k - a - b - c
        if d >= 0:
            ways = math.factorial(k) // math.prod(map(math.factorial, (a, b, c, d)))
            key = (a - b, c - d)
            law[key] = law.get(key, Fraction(0)) + Fraction(ways, 4**k)
    return [((dt * x, dt * y), float(w)) for (x, y), w in sorted(law.items())]


def binomial_mad(N: int) -> float:
    """E|S_N| / N for the N-step +-1 walk, exact rational then float."""
    tot = sum(
        Fraction(math.comb(N, i), 2**N) * abs(2 * i - N) for i in range(N + 1)
    )
    return float(Fraction(tot, N))


def splitting_dirac_atoms(x0: float, t: float) -> tuple[list[float], list[float]]:
    """Closed-form solution of the splitting rule from a point mass."""
    if t == 0:
        return [x0], [1.0]
    return [x0 - t, x0 + t], [0.5, 0.5]


def splitting_uniform_atoms(t: float, M: int) -> tuple[list[float], list[float]]:
    """Quantile discretization of the torn uniform block on [0, 1].

    The left half of the initial block translates by -t and the right half
    by +t, so the M quantile atoms (i + 1/2)/M split evenly.
    """
    atoms = []
    for i in range(M):
        x = (i + 0.5) / M
        atoms.append(x - t if i < M // 2 else x + t)
    return atoms, [1.0 / M] * M


def peano_step_positions(x0: float, steps: int, dt: float, dv: float) -> list[float]:
    """Forward iteration of the 2 sqrt|x| field with floor velocity binning."""
    xs = [x0]
    for _ in range(steps):
        v = 2.0 * math.sqrt(abs(xs[-1]))
        vbin = math.floor(v / dv + 1e-9) * dv
        xs.append(xs[-1] + dt * vbin)
    return xs


# ---------------------------------------------------------------------------
# canonical-form grouping reference
# ---------------------------------------------------------------------------

def greedy_groups(pts: np.ndarray, tol: float) -> tuple[np.ndarray, list[int]]:
    """Group lexicographically sorted rows, l-inf tolerance ``tol``.

    Scans rows in order.  A row joins the first existing group whose
    representative (the group's first row) is within ``tol`` in every
    coordinate; otherwise it opens a new group.  Because the input is
    sorted, candidate representatives are confined to the suffix whose
    first coordinate is >= row[0] - tol, which keeps the scan short.

    Returns (group id per row, representative row indices in group order).
    """
    n = pts.shape[0]
    gid = np.empty(n, dtype=np.intp)
    reps: list[int] = []
    for i in range(n):
        x0 = pts[i, 0]
        lo = len(reps)
        while lo > 0 and pts[reps[lo - 1], 0] >= x0 - tol:
            lo -= 1
        assigned = -1
        for k in range(lo, len(reps)):
            if np.max(np.abs(pts[reps[k]] - pts[i])) <= tol:
                assigned = k
                break
        if assigned < 0:
            reps.append(i)
            assigned = len(reps) - 1
        gid[i] = assigned
    return gid, reps


def first_gaps(pts) -> list[float]:
    """For each pair of consecutive rows, the difference in the first
    coordinate where they differ (0.0 for equal rows), row by row."""
    rows = [[float(x) for x in row] for row in pts]
    return [next((y - x for x, y in zip(a, b) if x != y), 0.0) for a, b in zip(rows, rows[1:])]


def in_canonical_order(pts, tol: float) -> bool:
    """Whether each row exceeds its predecessor by more than ``tol`` in the
    first coordinate where the two differ (equal rows fail)."""
    return all(gap > tol for gap in first_gaps(pts))


# ---------------------------------------------------------------------------
# transport references
# ---------------------------------------------------------------------------

def w1_inverse_cdf(xa, wa, xb, wb) -> float:
    """1-D Wasserstein-1 via the inverse-CDF (quantile-slab) coupling.

    A different formula from the package's CDF-difference integral: pool
    the cumulative weight levels of both measures and charge each slab the
    distance between the two quantile values on it.
    """
    ia = np.argsort(np.asarray(xa, dtype=float), kind="stable")
    ib = np.argsort(np.asarray(xb, dtype=float), kind="stable")
    xa = np.asarray(xa, dtype=float)[ia]
    wa = np.asarray(wa, dtype=float)[ia]
    xb = np.asarray(xb, dtype=float)[ib]
    wb = np.asarray(wb, dtype=float)[ib]
    ca = np.cumsum(wa)
    cb = np.cumsum(wb)
    top = min(ca[-1], cb[-1])
    levels = np.unique(np.clip(np.concatenate([[0.0], ca, cb]), 0.0, top))
    total = 0.0
    for lo, hi in zip(levels[:-1], levels[1:]):
        if hi <= lo:
            continue
        mid = 0.5 * (lo + hi)
        qa = xa[np.searchsorted(ca, mid, side="left")]
        qb = xb[np.searchsorted(cb, mid, side="left")]
        total += (hi - lo) * abs(qa - qb)
    return float(total)


def monotone_coupling(wa, wb) -> np.ndarray:
    """The monotone (quantile) coupling of two weight vectors in support order.

    Row i holds the quantile levels (A_{i-1}, A_i] of the cumulative
    weights A of ``wa``, column j the levels (B_{j-1}, B_j] of ``wb``;
    cell (i, j) gets the length of the overlap.  On sorted supports of the
    line this is an optimal W1 coupling.
    """
    ca = np.concatenate([[0.0], np.cumsum(wa)])
    cb = np.concatenate([[0.0], np.cumsum(wb)])
    lo = np.maximum(ca[:-1, None], cb[None, :-1])
    hi = np.minimum(ca[1:, None], cb[None, 1:])
    return np.clip(hi - lo, 0.0, None)


def _transport_eq(m: int, n: int) -> np.ndarray:
    A = np.zeros((m + n, m * n))
    for i in range(m):
        A[i, i * n:(i + 1) * n] = 1.0
    for j in range(n):
        A[m + j, j::n] = 1.0
    return A


def lp_transport_scipy(cost, a, b, extra=None, tight=False) -> tuple[float, np.ndarray]:
    """Transportation LP (optionally with one extra inequality) via HiGHS.

    ``tight`` runs the dual simplex with presolve off and feasibility
    tolerances of 1e-10.  Marginal totals that differ by ~1e-13, as after
    ``WEIGHT_FLOOR`` drops atoms of weight ~1e-15, make the default call
    report the problem infeasible; the default tolerances also leave the
    value ~5e-9 off on the 2-D walk's 289 x 1049 pair.
    """
    cost = np.asarray(cost, dtype=float)
    m, n = cost.shape
    # sparse row and column sums, so 200 x 200 instances stay small
    A_eq = scipy.sparse.vstack([
        scipy.sparse.kron(scipy.sparse.eye(m), np.ones((1, n))),
        scipy.sparse.kron(np.ones((1, m)), scipy.sparse.eye(n)),
    ]).tocsr()
    b_eq = np.concatenate([np.asarray(a, float), np.asarray(b, float)])
    kwargs = {}
    if extra is not None:
        emat, bound = extra
        kwargs["A_ub"] = np.asarray(emat, float).reshape(1, m * n)
        kwargs["b_ub"] = np.asarray([bound], float)
    if tight:
        kwargs["method"] = "highs-ds"
        kwargs["options"] = {"presolve": False, "primal_feasibility_tolerance": 1e-10,
                             "dual_feasibility_tolerance": 1e-10}
    else:
        kwargs["method"] = "highs"
    res = scipy.optimize.linprog(cost.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None), **kwargs)
    if res.status != 0:
        raise RuntimeError(f"scipy linprog failed with status {res.status}")
    return float(res.fun), res.x.reshape(m, n)


def fiber_pseudometric_scipy(pos_cost, vel_cost, a, b) -> float:
    """Two-stage relaxed problem solved entirely by scipy."""
    wstar, _ = lp_transport_scipy(pos_cost, a, b)
    slack = 1e-9 * (1.0 + wstar)
    value, _ = lp_transport_scipy(vel_cost, a, b, extra=(pos_cost, wstar + slack))
    return max(value, 0.0)


def transport_vertices(a, b, tol: float = 1e-10) -> list[np.ndarray]:
    """All vertices of the transportation polytope with marginals a, b.

    Enumerates every basis (m + n - 1 columns of the reduced equality
    system) and keeps the nonnegative basic solutions.  Exponential, fine
    for the <= 3 x 3 instances it is used on.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = a.shape[0], b.shape[0]
    A = _transport_eq(m, n)[:-1]  # last constraint is redundant
    rhs = np.concatenate([a, b])[:-1]
    k = m + n - 1
    verts: list[np.ndarray] = []
    seen: set[tuple] = set()
    for cols in itertools.combinations(range(m * n), k):
        sub = A[:, cols]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x_basis = np.linalg.solve(sub, rhs)
        if np.any(x_basis < -tol):
            continue
        x = np.zeros(m * n)
        x[list(cols)] = np.clip(x_basis, 0.0, None)
        key = tuple(np.round(x, 9))
        if key in seen:
            continue
        seen.add(key)
        verts.append(x.reshape(m, n))
    return verts


def fiber_faceopt(pos_cost, vel_cost, a, b, face_tol: float = 1e-9):
    """Minimum velocity cost over the position-optimal face, by enumeration.

    Every vertex of the optimal face is a vertex of the polytope, so the
    face optimum of a linear function is attained among the enumerated
    vertices whose position cost ties the optimum.
    """
    verts = transport_vertices(a, b)
    pvals = [float(np.sum(pos_cost * v)) for v in verts]
    wstar = min(pvals)
    vopt = min(
        float(np.sum(vel_cost * v))
        for v, p in zip(verts, pvals)
        if p <= wstar + face_tol
    )
    return vopt, wstar


# ---------------------------------------------------------------------------
# transportation simplex reference
# ---------------------------------------------------------------------------

# The solver as it was before pivots re-hung only the subtree that moves:
# the whole basis tree is re-hung and every cell priced (Dantzig) at every
# pivot.  It starts by the package's rule, with a plain-loop least-cost
# basis.  The package's solver must match it bit for bit, pivot for pivot,
# on problems that it prices in one block.

REDUCED_COST_TOL = 1e-11  # mdelab.tolerances.REDUCED_COST_TOL


def north_west(a: list[float], b: list[float]) -> dict[tuple[int, int], float]:
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


def least_cost(C: list[list[float]], a, b) -> dict[tuple[int, int], float]:
    """Least-cost basis: m + n - 1 cells and their masses.

    In increasing cost order, ties row-major, each cell of an open row and
    an open column gets the smaller of what they have left.  It closes its
    row when the row runs out first or together with the column, else its
    column; the last open row (column) is never closed before the last
    cell.
    """
    m, n = len(a), len(b)
    ra, rb = list(a), list(b)
    rows, cols = set(range(m)), set(range(n))
    flow = {}
    for _, i, j in sorted((C[i][j], i, j) for i in range(m) for j in range(n)):
        if i not in rows or j not in cols:
            continue
        x = min(ra[i], rb[j])
        flow[i, j] = x
        ra[i] -= x
        rb[j] -= x
        if len(rows) == 1 and len(cols) == 1:
            return flow
        if len(cols) == 1 or (len(rows) > 1 and ra[i] <= rb[j]):
            rows.remove(i)
        else:
            cols.remove(j)
    raise AssertionError("the least-cost basis ran out of cells")


def tree_adjacency(flow, m: int, n: int) -> list[set]:
    """Node neighbours of the basis tree: rows 0..m-1, columns m.."""
    adj = [set() for _ in range(m + n)]
    for i, j in flow:
        adj[i].add(m + j)
        adj[m + j].add(i)
    return adj


def hang(adj: list[set], C: list[list[float]], m: int) -> tuple[list[int], np.ndarray]:
    """Parents and duals of the basis tree hung from row 0.

    Nodes 0..m-1 are the rows and m.. the columns; a basic cell (i, j)
    joins node i and node m + j and has u_i + v_j = C[i][j].
    """
    parent = [-1] * len(adj)
    pot = [0.0] * len(adj)
    order = [0]
    for p in order:
        for q in adj[p]:
            if q != parent[p]:
                parent[q] = p
                pot[q] = (C[p][q - m] if q >= m else C[q][p - m]) - pot[p]
                order.append(q)
    return parent, np.array(pot)


def certify(C, r, c, flow) -> tuple[float, float]:
    """Bounds (lower, upper) on the optimal cost, from the basis ``flow``.

    An LP-duality certificate (Peyre & Cuturi, Computational Optimal
    Transport, ch. 3).  The column duals v are those of the basis hung from
    row 0.  Their c-transform u_i = min_j (C_ij - v_j) gives u_i + v_j <=
    C_ij for every cell, so sum r u + sum c v bounds the cost of every plan
    with marginals r and c from below.  The upper bound is the cost of the
    basis's plan, correctly rounded: ``math.fsum`` of cost times mass over
    its nonzero cells.
    """
    C = np.asarray(C, dtype=float)
    m, n = C.shape
    _, pot = hang(tree_adjacency(flow, m, n), C.tolist(), m)
    v = pot[m:]
    u = (C - v).min(axis=1)
    lower = math.fsum(np.concatenate([np.asarray(r) * u, np.asarray(c) * v]))
    return lower, math.fsum(float(C[i, j]) * x for (i, j), x in flow.items() if x)


def simplex(C: np.ndarray, a, b, cap: int, flow=None, allowed=None):
    """Transportation simplex on a strongly feasible tree.

    ``a`` and ``b`` are positive marginals.  The basis starts at ``flow``
    (the basic cells of an earlier solve with the same marginals) when it
    is given.  Otherwise the north-west corner is priced; if it is not
    optimal, the least-cost basis replaces it when every one of its cells
    carries positive mass and it costs less.  When ``allowed`` is given,
    only those cells may enter.  Each pivot prices every cell at once,
    enters the most negative reduced cost (Dantzig) and leaves by
    Cunningham's rule: the last blocking cell met going round the cycle
    from its apex, which keeps zero-mass cells pointing to the root and
    rules out cycling.

    Returns the basic cells with their masses, the reduced costs and the
    pivot count.
    """
    m, n = C.shape
    Cl = C.tolist()
    tol = REDUCED_COST_TOL * (1.0 + float(np.abs(C).max()))
    if flow is None:
        flow = north_west(list(a), list(b))
        _, pot = hang(tree_adjacency(flow, m, n), Cl, m)
        R = C - pot[:m, None] - pot[None, m:]
        price = R if allowed is None else np.where(allowed, R, 0.0)
        if price.min() < -tol:
            start = least_cost(Cl, a, b)
            costs = [math.fsum(Cl[i][j] * x for (i, j), x in f.items()) for f in (start, flow)]
            if all(x > 0.0 for x in start.values()) and costs[0] < costs[1]:
                flow = start
    flow = dict(flow)
    adj = tree_adjacency(flow, m, n)
    for pivots in range(cap):
        parent, pot = hang(adj, Cl, m)
        R = C - pot[:m, None] - pot[None, m:]
        price = R if allowed is None else np.where(allowed, R, 0.0)
        k = int(price.argmin())
        if price.flat[k] >= -tol:
            return flow, R, pivots
        i, j = divmod(k, n)

        def cell(q):  # the basic cell joining node q to its parent
            return (q, parent[q] - m) if q < m else (parent[q], q - m)

        up = [i]
        while up[-1]:
            up.append(parent[up[-1]])
        depth = {q: d for d, q in enumerate(up)}
        side = [m + j]
        while side[-1] not in depth:
            side.append(parent[side[-1]])
        # the cycle from its apex down to row i, then over cell (i, j) and
        # up from column j; True marks the cells that lose mass
        cycle = [(cell(q), q < m) for q in reversed(up[:depth[side.pop()]])]
        cycle += [(cell(q), q >= m) for q in side]
        delta = min(flow[e] for e, loses in cycle if loses)
        leave = [e for e, loses in cycle if loses and flow[e] == delta][-1]
        for e, loses in cycle:
            flow[e] += -delta if loses else delta
        del flow[leave]
        flow[i, j] = delta
        adj[leave[0]].discard(m + leave[1])
        adj[m + leave[1]].discard(leave[0])
        adj[i].add(m + j)
        adj[m + j].add(i)
    raise RuntimeError(f"simplex exceeded {cap} iterations")


# ---------------------------------------------------------------------------
# loop references for the whole-array kernels
# ---------------------------------------------------------------------------

def cdf_gap_pair(a, b, wa, wb) -> float:
    """The integral of |F_a - F_b| over the line for one pair of sorted atom
    lists ``a`` and ``b`` with weights ``wa`` and ``wb``: the merged grid is
    sorted, and each CDF is read at every grid point by searching its own
    atoms.  The per-pair form of the package's row kernel."""
    grid = np.sort(np.concatenate([a, b]))
    cwa = np.concatenate([[0.0], np.cumsum(wa)])
    cwb = np.concatenate([[0.0], np.cumsum(wb)])
    fa = cwa[np.searchsorted(a, grid, side="right")]
    fb = cwb[np.searchsorted(b, grid, side="right")]
    return float(np.sum(np.abs(fa - fb)[:-1] * np.diff(grid)))


def pairwise_dist_trailing(X, Y) -> np.ndarray:
    """Euclidean distances between the rows of ``X`` (m, d) and ``Y`` (n, d):
    the (m, n, d) differences, squared and summed over the trailing axis.
    The form of the package's coordinate-major cost matrix, which keeps its
    bits.  A difference or square that overflows reads as inf, unreported."""
    with np.errstate(over="ignore"):
        diff = X[:, None, :] - Y[None, :, :]
        return np.sqrt(np.sum(diff * diff, axis=2))


def w1_quantile_pair(a, b, wa, wb) -> float:
    """1-D Wasserstein-1 of one pair by ``cdf_gap_pair``; an integral that is
    not finite (atoms spanning more than the float range) is taken again on
    the halved coordinates and doubled."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = cdf_gap_pair(a, b, wa, wb)
    if not math.isfinite(value):
        with np.errstate(under="ignore"):
            value = 2.0 * cdf_gap_pair(a / 2.0, b / 2.0, wa, wb)
    return value


def splitting_lift_loop(xs, ws, B, eta, cdf_left):
    """The splitting rule's raw lift, one atom at a time.

    Mass left of the median atom B moves with speed -1, mass right of it
    with +1; B itself carries ``eta`` rightward and 1/2 - ``cdf_left``
    leftward, or nothing when roundoff makes that negative.  Returns (positions, velocities, weights) before
    canonicalization.
    """
    pos, vel, w = [], [], []
    for x, wx in zip(xs, ws):
        if x < B:
            pos.append(x)
            vel.append(-1.0)
            w.append(wx)
        elif x > B:
            pos.append(x)
            vel.append(1.0)
            w.append(wx)
        else:
            pos.extend([x, x])
            vel.extend([1.0, -1.0])
            w.extend([eta, max(0.5 - cdf_left, 0.0)])
    return np.asarray(pos)[:, None], np.asarray(vel)[:, None], np.asarray(w)


def splitting_lift_rows(atoms, weights, B, eta, cdf_left):
    """The splitting rule's raw lift in n + 1 rows, built whole-array.

    The median atom B (found by ``np.searchsorted``) is always repeated:
    row i carries its max(1/2 - ``cdf_left``, 0) leftward mass and row
    i + 1 its ``eta`` rightward mass, and the weight floor of the canonical
    form drops a zero row.  ``eval_pvf`` builds no zero row; the two must
    give the same canonical lift.  Returns (positions, velocities, weights)
    before canonicalization.
    """
    n = len(weights)
    i = int(np.searchsorted(atoms[:, 0], B))
    count = np.ones(n, dtype=np.intp)
    count[i] = 2
    pos = np.repeat(atoms, count, axis=0)
    vel = np.where(np.arange(n + 1) > i, 1.0, -1.0)[:, None]
    w = np.repeat(weights, count)
    w[i] = max(0.5 - cdf_left, 0.0)
    w[i + 1] = eta
    return pos, vel, w


def median_argmax(weights, cdf_tol):
    """The weighted median of positive 1-D weights as (index, eta, mass_at_B,
    cdf_left_of_B), by the first index whose cumsum exceeds 1/2 + ``cdf_tol``
    found with ``argmax`` over a boolean mask and tested again (the last
    index when none does).  Near the tie the mass left of B is summed with
    ``math.fsum`` unless the cumsum lands on 1/2 itself.
    """
    cdf = weights.cumsum()
    idx = int((cdf > 0.5 + cdf_tol).argmax())
    if not cdf[idx] > 0.5 + cdf_tol:
        idx = len(weights) - 1
    eta = float(cdf[idx] - 0.5)
    mass = float(weights[idx])
    left = float(cdf[idx] - mass)
    if left != 0.5 and abs(0.5 - left) <= cdf_tol:
        left = math.fsum(weights[:idx].tolist())
        eta = mass - (0.5 - left)
    return idx, eta, mass, left


def glue_loop(head_knots, head_weights, h_at, tail_velocities, tail_weights, t_at,
              joint_weights, dt):
    """Curve gluing by a double loop over curves and their segments.

    Curve ci ends at joint atom h_at[ci]; segment si starts at joint atom
    t_at[si].  Each curve pairs with every segment over its atom, in
    segment order, with weight m_a (a / m_head)(b / m_tail), and is
    extended from its own endpoint by dt times the segment's velocity.
    Returns (knots, weights) of the glued curves, curve-major.
    """
    natoms = joint_weights.shape[0]
    m_head = np.bincount(h_at, weights=head_weights, minlength=natoms)
    m_tail = np.bincount(t_at, weights=tail_weights, minlength=natoms)
    by_atom_tail = [np.flatnonzero(t_at == a) for a in range(natoms)]
    curves, weights = [], []
    for ci in range(head_knots.shape[0]):
        a = h_at[ci]
        share = joint_weights[a] * (head_weights[ci] / m_head[a])
        junction = head_knots[ci, -1]
        for si in by_atom_tail[a]:
            end = junction + dt * tail_velocities[si]
            curves.append(np.vstack([head_knots[ci], end[None, :]]))
            weights.append(share * (tail_weights[si] / m_tail[a]))
    return np.stack(curves), np.asarray(weights)


def residual_loop(times, nodes, lifts, centers, radii):
    """Weak-form defects of a path, one (bump, node) pair at a time.

    ``nodes`` holds (atoms, weights) per node time and ``lifts`` the rule's
    (positions, velocities, weights) at each node.  The bump centered at c
    with radius r is f(x) = max(0, 1 - |x - c|^2 / r^2)^3.  The defect at
    node k is |<mu_k, f> - <mu_0, f> - Trap_k|, where Trap_k is the
    trapezoid sum of <lift, grad f . v> over nodes 0..k.  <mu_k, f> sums
    s * s * s * w by ``np.add.reduce``, the products of ``residual`` in its
    order.
    """
    steps = np.diff(times)
    defects = np.zeros((len(centers), len(nodes)))
    for fi, (c, r) in enumerate(zip(centers, radii)):
        integrand, values = [], []
        for (atoms, w), (pos, vel, lw) in zip(nodes, lifts):
            diff = pos - c
            s = np.maximum(1.0 - np.sum(diff**2, axis=1) / r**2, 0.0)
            grad = (-6.0 / r**2) * s[:, None] ** 2 * diff
            integrand.append(float(np.sum(np.sum(grad * vel, axis=1) * lw)))
            s = np.maximum(1.0 - np.sum((atoms - c) ** 2, axis=1) / r**2, 0.0)
            values.append(float(np.add.reduce(s * s * s * w)))
        integrand, values = np.array(integrand), np.array(values)
        trap = np.concatenate(
            [[0.0], np.cumsum(steps * (integrand[:-1] + integrand[1:]) / 2.0)]
        )
        defects[fi] = np.abs(values - values[0] - trap)
    return defects


def bump_loop(points, c, r):
    """The cubic bump centered at c with radius r and its gradient at
    ``points`` (..., d), written as ``residual_loop`` writes them.

    Over the points as rows, s = max(0, 1 - |x - c|^2 / r^2), the value is
    s * s * s and the gradient (-6 / r^2) * s^2 * (x - c).  Returns the
    values (...) and the gradients (..., d).
    """
    pts = np.asarray(points, dtype=float)
    diff = pts.reshape(-1, pts.shape[-1]) - c
    s = np.maximum(1.0 - np.sum(diff**2, axis=1) / r**2, 0.0)
    grad = (-6.0 / r**2) * s[:, None] ** 2 * diff
    return (s * s * s).reshape(pts.shape[:-1]), grad.reshape(pts.shape)


def fiber_means_loop(positions, velocities, weights, tol):
    """Mean velocity of each fiber, one canonical fiber measure at a time.

    The sorted positions are grouped by ``greedy_groups``.  Each group's
    velocities and weights become a canonical measure (merged at
    ``MERGE_TOL``, normalized to mass one), and its mean is that measure's
    weights dotted with its atoms, or its atom when it has only one.
    Returns (representative positions, means), one row per group.
    """
    from mdelab import make_measure

    gid, reps = greedy_groups(positions, tol)
    means = []
    for g in range(len(reps)):
        fiber = make_measure(velocities[gid == g], weights[gid == g])
        means.append(fiber.atoms[0] if fiber.natoms == 1 else fiber.weights @ fiber.atoms)
    return positions[reps], np.vstack(means)


# ---------------------------------------------------------------------------
# per-value artifact writers
# ---------------------------------------------------------------------------
#
# The text each artifact file held when it was written one value at a time:
# CSV rows joined from format(float(x), ".17g"), and JSON from the standard
# library encoder.  The package's whole-array writers must match them byte
# for byte.

def csv_float(x) -> str:
    return format(float(x), ".17g")


def _lines(lines) -> str:
    return "".join(line + "\n" for line in lines)


def path_csv_text(times, nodes) -> str:
    """A path CSV from node times and per-node (atoms, weights)."""
    d = nodes[0][0].shape[1]
    lines = ["t," + ",".join(f"x{i + 1}" for i in range(d)) + ",weight"]
    for t, (atoms, weights) in zip(times, nodes):
        for atom, w in zip(atoms, weights):
            coords = ",".join(csv_float(c) for c in atom)
            lines.append(f"{csv_float(t)},{coords},{csv_float(w)}")
    return _lines(lines)


def plan_csv_text(mass) -> str:
    """Rows i,j,mass for the positive entries of a plan, row-major."""
    lines = ["i,j,mass"]
    for i, row in enumerate(mass):
        for j, m in enumerate(row):
            if m > 0:
                lines.append(f"{i},{j},{csv_float(m)}")
    return _lines(lines)


def residual_csv_text(times, defects) -> str:
    lines = ["function,t,defect"]
    for fi, row in enumerate(defects):
        for t, dval in zip(times, row):
            lines.append(f"{fi},{csv_float(t)},{csv_float(dval)}")
    return _lines(lines)


def convergence_csv_text(rows) -> str:
    return _lines(["N,error"] + [f"{n},{csv_float(err)}" for n, err in rows])


def comparison_csv_text(rows) -> str:
    return _lines(
        ["scheme_a,scheme_b,gap"] + [f"{a},{b},{csv_float(g)}" for a, b, g in rows]
    )


def json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def trajectories_doc(schema, times, weights, knots) -> dict:
    """The trajectories document, built one float() at a time."""
    return {
        "schema": schema,
        "kind": "trajectories",
        "times": [float(t) for t in times],
        "curves": [
            {
                "weight": float(w),
                "knots": [[float(c) for c in knot] for knot in curve],
            }
            for w, curve in zip(weights, knots)
        ],
    }


# ---------------------------------------------------------------------------
# seeded random instances
# ---------------------------------------------------------------------------

def random_support_1d(rng, max_atoms: int = 20, span: float = 5.0):
    n = int(rng.integers(1, max_atoms + 1))
    pts = rng.uniform(-span, span, size=n)
    w = rng.uniform(0.05, 1.0, size=n)
    return pts, w / w.sum()


def random_support(rng, dim: int, max_atoms: int = 10, span: float = 5.0):
    n = int(rng.integers(1, max_atoms + 1))
    pts = rng.uniform(-span, span, size=(n, dim))
    w = rng.uniform(0.05, 1.0, size=n)
    return pts, w / w.sum()
