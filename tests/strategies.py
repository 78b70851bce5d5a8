"""Shared hypothesis strategies for measure-valued property tests."""

import numpy as np
from hypothesis import strategies as st

import oracles
from mdelab import make_lifted, make_measure

# Plain coordinates for generic properties.
finite = st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False)

# Dyadic coordinates k/32 keep sums exact in binary floating point, which
# lets algebraic laws (convolution associativity and such) hold literally.
dyadic = st.integers(-256, 256).map(lambda k: k / 32.0)

positive_weight = st.floats(0.01, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def measures(draw, dim: int = 1, max_atoms: int = 6, coords=finite):
    n = draw(st.integers(1, max_atoms))
    pts = [[draw(coords) for _ in range(dim)] for _ in range(n)]
    w = [draw(positive_weight) for _ in range(n)]
    return make_measure(pts, w)


@st.composite
def lifted_measures(draw, dim: int = 1, max_atoms: int = 6, coords=finite):
    n = draw(st.integers(1, max_atoms))
    pos = [[draw(coords) for _ in range(dim)] for _ in range(n)]
    vel = [[draw(coords) for _ in range(dim)] for _ in range(n)]
    w = [draw(positive_weight) for _ in range(n)]
    return make_lifted(pos, vel, w)


@st.composite
def near_tie_rows(draw, widths=(1, 2, 4, 11), tol: float = 1e-12, max_rows: int = 24):
    """Lexicographically sorted rows whose coordinates sit at and around ``tol``.

    Each coordinate is a small base value plus or minus an offset from
    {0, tol - 1 ulp, tol, tol + 1 ulp, 2 tol}, so pairs of rows straddle the
    merge threshold by one ulp and chains a ~ b ~ c with a !~ c appear.  The
    first coordinate draws from two base values only, which makes heavy
    ties on it.  Returns a C-contiguous (n, d) float array.
    """
    d = draw(st.sampled_from(widths))
    n = draw(st.integers(1, max_rows))
    offsets = [0.0, np.nextafter(tol, 0.0), tol, np.nextafter(tol, np.inf), 2.0 * tol]
    first = st.sampled_from([0.0, 1.0])
    other = st.sampled_from([0.0, -0.5])
    jitter = st.tuples(st.sampled_from([-1.0, 1.0]), st.sampled_from(offsets))
    rows = []
    for _ in range(n):
        row = []
        for j in range(d):
            sign, off = draw(jitter)
            row.append(draw(first if j == 0 else other) + sign * off + 0.0)
        rows.append(row)
    pts = np.array(rows, dtype=float)
    return np.ascontiguousarray(pts[np.lexsort(pts.T[::-1])])


def near_tol_values(tol: float):
    """-0.0, or one of 0, -0.5 and 1 plus or minus an offset from
    {0, tol - 1 ulp, tol, tol + 1 ulp, 2 tol}."""
    offsets = [0.0, np.nextafter(tol, 0.0), tol, np.nextafter(tol, np.inf), 2.0 * tol]
    pool = [b + s * o for b in (0.0, -0.5, 1.0) for s in (-1.0, 1.0) for o in offsets]
    return st.sampled_from(pool + [-0.0])


def mixed_weights(draw, n: int) -> np.ndarray:
    """n weights mixing zeros, a sub-floor 1e-18 and ordinary weights, with
    at least one ordinary."""
    weight = st.sampled_from([0.0, 1e-18]) | positive_weight
    w = np.array(draw(st.lists(weight, min_size=n, max_size=n)))
    w[draw(st.integers(0, n - 1))] = draw(positive_weight)
    return w


@st.composite
def canonical_rows(draw, tol: float = 1e-12, max_rows: int = 12):
    """Rows already in canonical order at ``tol``, weights, and a shuffle.

    Coordinates come from ``near_tol_values``, in 1 to 3 columns.  The
    drawn rows are sorted, and a row is kept only when it exceeds the last
    kept row by more than ``tol`` in the first coordinate where they
    differ.  Weights come from ``mixed_weights``.  The shuffle is never
    the identity on two or more rows.  Returns (rows, weights, permutation).
    """
    d = draw(st.integers(1, 3))
    value = near_tol_values(tol)
    n = draw(st.integers(1, max_rows))
    rows = sorted(tuple(draw(value) for _ in range(d)) for _ in range(n))
    kept = [rows[0]]
    for row in rows[1:]:
        if oracles.in_canonical_order([kept[-1], row], tol):
            kept.append(row)
    n = len(kept)
    w = mixed_weights(draw, n)
    perm = np.array(draw(st.permutations(range(n))), dtype=np.intp)
    if n > 1 and (perm == np.arange(n)).all():
        perm = perm[::-1]
    return np.array(kept, dtype=float), w, perm


@st.composite
def sorted_rows_with_ties(draw, tol: float = 1e-12, max_rows: int = 12):
    """Sorted rows with exact duplicates, weights, and a shuffle.

    Coordinates come from ``near_tol_values``, in 1 to 3 columns, so
    consecutive distinct rows differ first by tol - 1 ulp, tol, tol + 1
    ulp or more, and -0.0 stands beside 0.0.  The drawn rows are sorted
    and each is repeated one to three times in place.  Weights come from
    ``mixed_weights``.  The shuffle keeps equal rows (-0.0 equals 0.0) in
    their order: a group's mass is summed in row order, so reordering its
    equal rows could change the last bit.  It may be the identity.
    Returns (rows, weights, permutation).
    """
    d = draw(st.integers(1, 3))
    value = near_tol_values(tol)
    n = draw(st.integers(1, max_rows))
    rows = sorted(tuple(draw(value) for _ in range(d)) for _ in range(n))
    reps = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    rows = [row for row, k in zip(rows, reps) for _ in range(k)]
    n = len(rows)
    w = mixed_weights(draw, n)
    perm = np.array(draw(st.permutations(range(n))), dtype=np.intp)
    classes: dict = {}
    label = np.array([classes.setdefault(row, len(classes)) for row in rows])
    for c in range(len(classes)):
        at = np.flatnonzero(label[perm] == c)
        perm[at] = np.sort(perm[at])
    return np.array(rows, dtype=float), w, perm


@st.composite
def derived_rows(draw, tol: float = 1e-12, floor: float = 1e-15, unit_tol: float = 1e-13):
    """Rows and weights of the kind the library derives from canonical data.

    The rows are ``near_tie_rows`` in 1, 2 or 4 columns, sorted or
    shuffled.  Each weight is 0, ``floor`` - 1 ulp, ``floor``, ``floor`` + 1
    ulp or an ordinary one; the ordinary weights (at least one) are parts
    k/64 of one, scaled so that the total lands on 1, 1 - ``unit_tol`` or
    1 + ``unit_tol``, or 1 ulp beside either.  Returns (rows, weights).
    """
    pts = draw(near_tie_rows(widths=(1, 2, 4), tol=tol))
    n = pts.shape[0]
    if draw(st.booleans()):
        pts = pts[np.array(draw(st.permutations(range(n))), dtype=np.intp)]
    tiny = st.sampled_from([0.0, np.nextafter(floor, 0.0), floor, np.nextafter(floor, 1.0)])
    is_tiny = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    is_tiny[draw(st.integers(0, n - 1))] = False
    ordinary = int((~is_tiny).sum())
    cuts = sorted(draw(st.lists(st.integers(1, 63), min_size=ordinary - 1,
                                max_size=ordinary - 1, unique=True)))
    parts = np.diff([0, *cuts, 64]) / 64.0
    totals = [1.0]
    for edge in (1.0 - unit_tol, 1.0 + unit_tol):
        totals += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 2.0)]
    w = np.empty(n)
    w[~is_tiny] = parts * draw(st.sampled_from(totals))
    w[is_tiny] = [draw(tiny) for _ in range(n - ordinary)]
    return np.ascontiguousarray(pts), w


@st.composite
def line_rows(draw, tol: float = 1e-12, floor: float = 1e-15, unit_tol: float = 1e-13):
    """Derived rows on the line around the test of the kernel's first
    route (every first gap above ``tol``), and their weights.

    The rows run from a start value (0, -0.0, 1 or -1e308) by steps of
    ``tol`` - 1 ulp, ``tol``, ``tol`` + 1 ulp, 0.25, 0, -1 or 1e308, so a
    row may tie, step back or overflow to inf.  Either end may then become
    NaN or +-inf, and a row -0.0.  The weights are equal parts of a total
    at 1, 1 +- ``unit_tol`` or 1 ulp beside either, with some set to
    ``floor`` or 1 ulp beside it.  Returns (rows of shape (n, 1), weights).
    """
    n = draw(st.integers(1, 6))
    steps = [np.nextafter(tol, 0.0), tol, np.nextafter(tol, 1.0), 0.25, 0.0, -1.0, 1e308]
    x = [draw(st.sampled_from([0.0, -0.0, 1.0, -1e308]))]
    with np.errstate(over="ignore"):
        for _ in range(n - 1):
            x.append(x[-1] + draw(st.sampled_from(steps)))
    pts = np.array(x)
    for end in (0, n - 1):
        pts[end] = draw(st.sampled_from([pts[end], pts[end], np.nan, np.inf, -np.inf]))
    if draw(st.booleans()):
        pts[draw(st.integers(0, n - 1))] = -0.0
    totals = [1.0]
    for edge in (1.0 - unit_tol, 1.0 + unit_tol):
        totals += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 2.0)]
    w = np.full(n, draw(st.sampled_from(totals)) / n)
    tiny = st.sampled_from([np.nextafter(floor, 0.0), floor, np.nextafter(floor, 1.0)])
    for i in draw(st.lists(st.integers(0, n - 1), max_size=n - 1, unique=True)):
        w[i] = draw(tiny)
    return pts[:, None], w


@st.composite
def transport_problems(draw, max_side: int = 6):
    """Degenerate transportation LPs as (cost, a, b).

    The cost is one of: integers 0..3, so many cells tie; Euclidean
    distances between 2-D points on one line at half-integer steps; or the
    lifted cost |x - y| + |v - w| with positions at two sites.  Marginals
    are small integer weights, zeros included, normalized to one; either
    side may have a single atom.
    """
    m = draw(st.integers(1, max_side))
    n = draw(st.integers(1, max_side))

    def ints(k, lo, hi):
        return np.array(draw(st.lists(st.integers(lo, hi), min_size=k, max_size=k)), dtype=float)

    def marginal(k):
        w = ints(k, 0, 3)
        w[draw(st.integers(0, k - 1))] += 1.0  # at least one atom carries mass
        return w / w.sum()

    kind = draw(st.sampled_from(["ties", "line", "lifted"]))
    if kind == "ties":
        cost = ints(m * n, 0, 3).reshape(m, n)
    elif kind == "line":
        angle = draw(st.floats(0.0, np.pi))
        u = np.array([np.cos(angle), np.sin(angle)])
        xa = 0.5 * ints(m, -4, 4)[:, None] * u
        xb = 0.5 * ints(n, -4, 4)[:, None] * u
        cost = np.linalg.norm(xa[:, None, :] - xb[None, :, :], axis=2)
    else:
        pa, pb = ints(m, 0, 1), ints(n, 0, 1)
        va, vb = ints(m, -2, 2), ints(n, -2, 2)
        cost = np.abs(pa[:, None] - pb[None, :]) + np.abs(va[:, None] - vb[None, :])
    return cost, marginal(m), marginal(n)


def line_coordinates(kind: str):
    """Coordinates for the CDF kernel on the line, +0.0 for a zero as in a
    canonical measure: a small pool that both measures of a pair share, so
    their atoms tie, or any finite value in [-8, 8].  A "wide" row adds
    values near the ends of the float range, whose grid gaps overflow, and
    a "tiny" row subnormal ones, which halving would round."""
    pool = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 3.0]) | finite.map(lambda x: x + 0.0)
    if kind == "wide":
        pool |= st.sampled_from([-1.7976931348623157e308, -1e308, 1e308, 1.5e308])
    elif kind == "tiny":
        pool |= st.sampled_from([5e-324, 1.5e-323, 2.5e-320, 1e-310, -3e-318])
    return pool


def line_weights(draw, n: int) -> np.ndarray:
    """n positive weights normalized to one; some raw weights sit at 1e-15,
    so that after normalizing they land beside the weight floor."""
    w = np.array(draw(st.lists(positive_weight | st.sampled_from([1e-15, 2e-15]),
                               min_size=n, max_size=n)))
    return w / w.sum()


@st.composite
def cdf_batches(draw, max_rows: int = 5, max_atoms: int = 12):
    """A batch for the row kernel: (a, b, wa, wb) with k rows of m sorted
    atoms in ``a`` and k of n in ``b``, weights from ``line_weights``.  Each
    row draws from ``line_coordinates`` of its own kind, so a batch may
    overflow on some rows only.  Atoms of one row may repeat, as no
    canonical measure's do, so that the order of a prefix sum shows; a row
    of ``b`` may repeat the row of ``a`` bit for bit, and either side may
    have one atom.
    """
    k, m, n = (draw(st.integers(1, top)) for top in (max_rows, max_atoms, max_atoms))
    rows = []
    for _ in range(k):
        coords = line_coordinates(draw(st.sampled_from(["plain", "wide", "tiny"])))
        unique = draw(st.booleans())

        def side(size):
            xs = sorted(draw(st.lists(coords, min_size=size, max_size=size, unique=unique)))
            return xs, line_weights(draw, size)

        a, wa = side(m)
        b, wb = (a, wa) if m == n and draw(st.booleans()) else side(n)
        rows.append((a, b, wa, wb))
    a, b, wa, wb = (np.array(col, dtype=float).reshape(k, -1) for col in zip(*rows))
    return a, b, wa, wb


@st.composite
def line_sweeps(draw, max_nodes: int = 8, max_atoms: int = 4):
    """Two equally long lists of measures on the line, as a path sweep
    pairs them: atom counts from a few values, so shapes repeat, and
    plain or wide coordinates and weights as in ``cdf_batches``.  A pair may be two
    bit-equal measures, or one measure twice."""
    ms, ns = [], []
    for _ in range(draw(st.integers(1, max_nodes))):
        coords = line_coordinates(draw(st.sampled_from(["plain", "wide"])))
        pair = []
        for _ in range(2):
            n = draw(st.integers(1, max_atoms))
            xs = draw(st.lists(coords, min_size=n, max_size=n, unique=True))
            pair.append(make_measure(np.array(xs)[:, None], line_weights(draw, n)))
        mu, nu = pair
        same = draw(st.sampled_from(["no", "no", "copy", "object"]))
        if same == "copy":
            nu = make_measure(mu.atoms.copy(), mu.weights.copy())
        elif same == "object":
            nu = mu
        ms.append(mu)
        ns.append(nu)
    return ms, ns


# coordinates for the cost matrix: zero, the top of the float range, or a
# signed mantissa times a power of ten from 1e-200 to 1e200
_TOP = float(np.finfo(float).max)
spread_coordinate = st.one_of(
    st.just(0.0),
    st.sampled_from([1.7e308, -1.7e308, _TOP, -_TOP]),
    st.builds(lambda sign, mantissa, exponent: sign * mantissa * 10.0 ** exponent,
              st.sampled_from([-1.0, 1.0]), st.floats(1.0, 10.0, exclude_max=True),
              st.integers(-200, 200)),
)


@st.composite
def point_pairs(draw, max_dim: int = 12, max_points: int = 5):
    """Point sets ``X`` (m, d) and ``Y`` (n, d) of one dimension d = 1..12.

    Coordinates are seeded uniform mantissas in [1, 10) with random signs,
    times one power of ten from 1e-200 to 1e200, so a sum of squares rounds
    in the order it is taken.  Up to four of them are instead drawn by
    ``spread_coordinate``.  So squares and sums overflow to inf, differences
    of two tops overflow, and squares of 1e-200 underflow.
    """
    d = draw(st.integers(1, max_dim))
    m, n = draw(st.integers(1, max_points)), draw(st.integers(1, max_points))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.choice([-1.0, 1.0], (m + n, d)) * rng.uniform(1.0, 10.0, (m + n, d))
    points *= 10.0 ** draw(st.integers(-200, 200))
    for _ in range(draw(st.integers(0, 4))):
        points[draw(st.integers(0, m + n - 1)), draw(st.integers(0, d - 1))] = draw(spread_coordinate)
    return points[:m], points[m:]
