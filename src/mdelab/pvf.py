"""Velocity-fiber rules: maps from a measure to a lifted measure over it.

A rule V assigns to every measure mu a distribution V[mu] on
position-velocity pairs whose base is exactly mu; equivalently, it attaches
a velocity fiber to each atom.  Three concrete rules are shipped:

* ``GraphPvf``: a deterministic field, fiber delta_{v(x)} at every atom.
* ``ConstantFiberPvf``: the same velocity distribution omega at every atom.
* ``SplittingParticlePvf`` (1-D): mass strictly left of the weighted median
  moves with speed -1, mass strictly right with speed +1, and the median
  atom splits so that exactly half of the total mass travels each way.

``CustomPvf`` wraps any callable with the same contract for in-process
extensions.  What a scheme step and ``eval_pvf`` use of a rule, the size
of its lift and its rows, is one entry per kind in one table,
``_KINDS``.  The JSON fragments of rules and of measures are read here,
the measures by one parser, ``initial_from_spec``, since a constant
fiber's ``omega`` is a measure fragment too.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, DimMismatchError, EmptyInputError
from .measures import (
    DiscreteMeasure,
    LiftedMeasure,
    _derive,
    base_of,
    dirac,
    fiber_means,
    is_count,
    make_measure,
    quantile_uniform,
)
from .tolerances import AGREE_TOL, CDF_TOL


@dataclass(frozen=True)
class GraphPvf:
    """Fiber delta_{velocity(x)} at every atom: a plain velocity field."""

    velocity: Callable[[np.ndarray], np.ndarray]
    name: str = "graph"


@dataclass(frozen=True)
class ConstantFiberPvf:
    """The same velocity distribution at every atom."""

    omega: DiscreteMeasure
    name: str = "constant-fiber"


@dataclass(frozen=True)
class SplittingParticlePvf:
    """Median-splitting rule on the line; see the module docstring."""

    name: str = "splitting"


@dataclass(frozen=True)
class CustomPvf:
    """An arbitrary rule; ``evaluate`` must preserve the base measure."""

    evaluate: Callable[[DiscreteMeasure], LiftedMeasure]
    name: str = "custom"


PvfSpec = Union[GraphPvf, ConstantFiberPvf, SplittingParticlePvf, CustomPvf]


def _median(mu: DiscreteMeasure) -> tuple[int, float, float, float]:
    """The weighted median of a 1-D measure as (index, eta, mass_at_B, cdf_left_of_B).

    B = ``mu.atoms[index]`` is the smallest atom whose CDF strictly exceeds
    1/2 (up to CDF_TOL), ``eta = F(B) - 1/2`` the overshoot, ``mass_at_B``
    the weight sitting on B, and ``cdf_left_of_B = F(B) - mass_at_B`` the
    mass strictly left of B, exactly rounded when it lies within CDF_TOL of
    1/2.  These satisfy mass_at_B = eta + 1/2 - cdf_left_of_B.
    """
    cdf = mu.weights.cumsum()
    # a cumsum of positive weights never decreases, so the first index past
    # 1/2 is one binary search, capped at the last atom as a total of one
    # never needs
    idx = min(int(cdf.searchsorted(0.5 + CDF_TOL, side="right")), mu.natoms - 1)
    eta = float(cdf[idx] - 0.5)
    mass = float(mu.weights[idx])
    if mass <= 0:  # pragma: no cover - canonical measures have positive weights
        raise EmptyInputError("median atom carries no mass")
    left = float(cdf[idx] - mass)
    if left != 0.5 and abs(0.5 - left) <= CDF_TOL:
        # Near the tie the float cumsum can land a few ulps off an exact 1/2
        # (600 weights of 1/600: 2e-15 below) and leave a sliver of B moving
        # left, so there the mass left of B is summed with exact rounding.
        # A cumsum that lands on 1/2 itself is kept: equal dyadic weights
        # such as 1/256 sum exactly, and a torn block of them lands there
        # at every step, where the fsum would cost a few percent of the run.
        left = math.fsum(mu.weights[:idx].tolist())
        eta = mass - (0.5 - left)
    return idx, eta, mass, left


def eval_pvf(spec: PvfSpec, mu: DiscreteMeasure) -> LiftedMeasure:
    """Evaluate a velocity-fiber rule; the result's base is exactly ``mu``.

    A shipped rule's rows (its entry's ``rows``, see ``_Kind``) arrive in
    canonical order, and ``measures._derive`` builds the lift from them
    with no kernel pass: it runs the weight tests, and not even those where
    the weights are ``mu``'s array itself, as a graph field's are, and a
    splitting lift's whose median atom moves whole; such a splitting lift
    is built from its columns as they are, with nothing tested.  A graph
    field's velocities come from a user callable, so they are checked for
    finiteness; the constant-fiber and splitting rows are built from
    canonical measures by copying and multiplying weights, so they are not
    checked.  A custom rule's lift is returned as it is, once its base is
    checked.

    Exact rows pass ``mu`` to the constructor as the lift's base, which is
    then not computed when the lift keeps every row and weight.  Splitting
    lifts of measures that share one weights array, on which the median
    atom moves right whole with its own weight, share its velocity column,
    computed once: it is a function of the read-only weights alone (see
    ``_split``).  A split median's columns are built at every call.
    """
    kind = _kind(spec)
    if kind.size is None:
        return _custom_lift(spec, mu)
    pos, vel, w, exact = kind.rows(spec, mu)
    return _derive(pos, w, velocities=vel, ordered=True, finite=kind.finite,
                   tested=w is mu.weights, base=mu if exact else None)


class _Kind(NamedTuple):
    """What a scheme step and ``eval_pvf`` use of a kind of rule, looked up
    once per call by ``_kind``.

    ``size(spec, mu)`` is the number of atoms ``eval_pvf(spec, mu)`` builds
    before canonicalization, which a step checks against ``max_atoms``
    before it evaluates the rule: n for a graph field, n m for a constant
    fiber of m atoms, and at most n + 1 for the splitting rule (the median
    atom may split in two).  It is None for a custom rule, whose size is
    unknown until it runs and whose lift ``eval_pvf`` returns as it is.

    ``rows(spec, mu)`` gives the rows (position, velocity) of ``V[mu]``
    before canonicalization, as C-contiguous (n, d) position and velocity
    columns, their weights, and whether the rows are exact: their positions
    are ``mu``'s atoms in order, the median atom possibly twice, and their
    weights regroup to ``mu``'s bit for bit.  A graph field's rows are
    exact, and so are the splitting rule's when the median splits exactly
    or moves whole with its own weight; a custom rule supplies the rows of
    the lift ``eval_pvf`` returns.  ``eval_pvf`` builds the lift from them,
    and the lattice scheme bins them.

    The columns are what ``measures._derive`` adopts: the velocity column
    is fresh, or a read-only array; the position column is fresh or
    ``mu.atoms`` itself; the weights are fresh, read-only, or ``mu.weights``
    itself: a graph field's, and the splitting rule's when the median atom
    moves right whole with its own weight, so that its rows' weights are
    ``mu``'s bit for bit.  No column holds -0.0, except a graph field's
    velocities, which ``_derive`` checks.
    A shipped rule's rows are in canonical order, as ``_derive`` needs
    for ``ordered``: lexicographically sorted and pairwise farther than
    ``MERGE_TOL`` apart.  Their positions are ``mu``'s canonical atoms,
    which are.  A graph field gives one row per atom.  The splitting rule
    repeats only the median row, with velocities -1 < +1, which lie 2
    apart.  A constant fiber gives the rows (x_i, omega_j) in i-major
    order over two canonical measures, so the rows at one position are
    omega's atoms in order.

    ``finite`` says that the rows are finite by construction.
    """

    size: Optional[Callable[[PvfSpec, DiscreteMeasure], int]]
    rows: Callable[[PvfSpec, DiscreteMeasure], tuple[np.ndarray, np.ndarray, np.ndarray, bool]]
    finite: bool


def _kind(spec: PvfSpec) -> _Kind:
    """The entry of ``spec``'s kind of rule in ``_KINDS``."""
    for cls in type(spec).__mro__:
        kind = _KINDS.get(cls)
        if kind is not None:
            return kind
    raise TypeError(f"not a velocity-fiber rule: {spec!r}")


def _graph_rows(spec: GraphPvf, mu: DiscreteMeasure):
    vels = []
    for x in mu.atoms:
        v = np.atleast_1d(np.asarray(spec.velocity(x.copy()), dtype=float))
        if v.shape != (mu.dim,):
            raise DimMismatchError(f"field returned shape {v.shape}, expected ({mu.dim},)")
        vels.append(v)
    return mu.atoms, np.vstack(vels), mu.weights, True


def _fiber_rows(spec: ConstantFiberPvf, mu: DiscreteMeasure):
    if spec.omega.dim != mu.dim:
        raise DimMismatchError(f"fiber dim {spec.omega.dim} vs measure dim {mu.dim}")
    n, m, d = mu.natoms, spec.omega.natoms, mu.dim
    pos = np.empty((n, m, d))
    pos[:] = mu.atoms[:, None, :]
    vel = np.empty((n, m, d))
    vel[:] = spec.omega.atoms
    w = (mu.weights[:, None] * spec.omega.weights[None, :]).ravel()
    return pos.reshape(n * m, d), vel.reshape(n * m, d), w, False


def _splitting_rows(spec: SplittingParticlePvf, mu: DiscreteMeasure):
    """The splitting rule's velocity and weight columns and its exactness
    flag are functions of ``mu.weights`` alone: the median split fixes the
    velocities, and with the median's two parts the weights.  Canonical
    weights are read-only, so where the median atom moves right whole with
    its own weight ``_split`` keeps the velocity column for the last such
    weights array, by identity, and a measure on the same array (the next
    node of such a run, or the same node lifted again) reuses it,
    read-only and shared, with no median search.  A split's columns are
    not kept (see ``_split_memo``).  The dimension check runs first and
    the positions come from ``mu.atoms`` on every call."""
    if mu.dim != 1:
        raise DimMismatchError("the splitting rule needs a 1-D measure")
    i, vel, w, exact = _split(mu)
    if i is None:
        return mu.atoms, vel, w, exact
    pos = np.empty((mu.natoms + 1, 1))
    pos[:i + 1] = mu.atoms[:i + 1]
    pos[i + 1:] = mu.atoms[i:]
    return pos, vel, w, exact


def _custom_lift(spec: CustomPvf, mu: DiscreteMeasure) -> LiftedMeasure:
    out = spec.evaluate(mu)
    if not isinstance(out, LiftedMeasure):
        raise ValueError("custom rule must return a LiftedMeasure")
    base = base_of(out)  # cached: the scheme asks for the same base
    if not (
        base.natoms == mu.natoms
        and np.array_equal(base.atoms, mu.atoms)
        and np.max(np.abs(base.weights - mu.weights)) <= AGREE_TOL
    ):
        raise ValueError("custom rule must preserve the base measure")
    return out


def _custom_rows(spec: CustomPvf, mu: DiscreteMeasure):
    out = _custom_lift(spec, mu)
    return out.positions, out.velocities, out.weights, False


#: One entry per kind of rule (see ``_Kind``).
_KINDS: dict[type, _Kind] = {
    SplittingParticlePvf: _Kind(lambda spec, mu: mu.natoms + 1, _splitting_rows, True),
    GraphPvf: _Kind(lambda spec, mu: mu.natoms, _graph_rows, False),
    ConstantFiberPvf: _Kind(lambda spec, mu: mu.natoms * spec.omega.natoms, _fiber_rows, True),
    CustomPvf: _Kind(None, _custom_rows, False),
}


#: The last weights array ``_split`` saw whose median atom moves right
#: whole with its own weight, and that array's velocity column, each by
#: weak reference, so that no finished run's arrays stay alive.  Only
#: this route is kept: its lift's weights are the array itself, which a
#: run's next node holds too.  A split's columns are not kept: a run does
#: not lift a split node's array again while the lift holding them lives,
#: so no lookup found them.
_split_memo: Optional[tuple] = None


def _split(mu: DiscreteMeasure) -> tuple[Optional[int], np.ndarray, np.ndarray, bool]:
    """The splitting lift of ``mu`` as far as its weights fix it: the median
    index i when the median atom splits in two rows, None when it moves
    right whole in one, the velocity column, the weights, and whether the
    rows are exact.

    The weights are ``mu.weights`` itself, or a fresh column with the two
    parts of the median atom; both columns are read-only.  None of these
    reads ``mu.atoms``.  Where the median atom moves right whole with its
    own weight, the weights are ``mu``'s array and the rows are exact, so
    the velocity column is kept for that array, keyed by its identity:
    canonical weights are read-only, so an array seen again holds the same
    values and the column computed from them.  The nodes of such a run
    share the first node's array, so the median and the column are
    computed once per run.  A median that splits, or moves whole lighter
    than its weight, is found afresh at every call (see ``_split_memo``).
    """
    global _split_memo
    if _split_memo is not None:
        key, vel_ref = _split_memo
        vel = vel_ref()
        if key() is mu.weights and vel is not None:
            return None, vel, mu.weights, True
    i, eta, mass, left_of_B = _median(mu)
    left = max(0.5 - left_of_B, 0.0)
    # The median atom B = x_i splits into row i, its 1/2 - cdf_left
    # leftward mass, and row i + 1, its eta rightward mass.  When the mass
    # left of B reaches 1/2 (or exceeds it by roundoff below CDF_TOL) the
    # leftward part is 0, and B moves right whole in one row (s = 0), so
    # the positions are mu's atoms themselves; when its row also carries
    # B's own weight (eta == mass), the weights are mu's too, and mu's
    # array is handed over.  The rows come out in canonical order, so
    # canonicalization neither sorts nor groups them.  The split is exact
    # when the two parts add back to B's weight in floats.
    n = mu.natoms
    s = int(left > 0.0)
    vel = np.empty((n + s, 1))
    vel[:i + s] = -1.0
    vel[i + s:] = 1.0
    vel.setflags(write=False)
    if not s and eta == mass:
        _split_memo = (weakref.ref(mu.weights), weakref.ref(vel))
        return None, vel, mu.weights, True
    w = np.empty(n + s)
    w[:i + 1] = mu.weights[:i + 1]
    w[i + s:] = mu.weights[i:]
    w[i] = left
    w[i + s] = eta
    w.setflags(write=False)
    return i if s else None, vel, w, left + eta == mass


#: The default cap on the atoms of a scheme step (``SchemeConfig.max_atoms``),
#: and the most atoms a ``uniform_1d`` fragment may ask for.
MAX_ATOMS = 1_000_000


def barycentric_field(spec: PvfSpec, mu: DiscreteMeasure) -> np.ndarray:
    """Mean fiber velocity at each atom, as an (n, d) array aligned with
    ``mu.atoms``.

    Read off ``eval_pvf(spec, mu)`` by ``measures.fiber_means``: a one-atom
    fiber's velocity comes back unchanged, so graph fields are exact.
    """
    atoms, means = fiber_means(eval_pvf(spec, mu))
    if not np.array_equal(atoms, mu.atoms):  # pragma: no cover
        raise RuntimeError("fiber rule did not preserve the base support")
    return means


def sublinearity_bound(spec: PvfSpec, samples: Sequence[DiscreteMeasure]) -> float:
    """Smallest C with max |v| <= C (1 + max |x|) over the sampled measures.

    A diagnostic growth constant: evaluates the rule on each sample and
    returns the largest ratio of peak fiber speed to 1 + support radius.
    """
    samples = list(samples)
    if not samples:
        raise EmptyInputError("need at least one sample measure")
    best = 0.0
    for mu in samples:
        lifted = eval_pvf(spec, mu)
        vmax = float(np.max(np.linalg.norm(lifted.velocities, axis=1)))
        xmax = float(np.max(np.linalg.norm(mu.atoms, axis=1)))
        best = max(best, vmax / (1.0 + xmax))
    return best


# ---------------------------------------------------------------------------
# JSON fragments
# ---------------------------------------------------------------------------

def _field_zero(x: np.ndarray) -> np.ndarray:
    return np.zeros_like(x)


def _field_linear(x: np.ndarray) -> np.ndarray:
    return x


def _field_peano(x: np.ndarray) -> np.ndarray:
    return 2.0 * np.sqrt(np.abs(x))


#: Named closed-form fields available to scenario files.  "sqrt2" is an
#: alias of "peano" (the 2 sqrt(|x|) field behind the non-unique ODE runs).
GRAPH_FIELDS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "zero": _field_zero,
    "linear": _field_linear,
    "peano": _field_peano,
    "sqrt2": _field_peano,
}


#: The keys each kind of measure fragment takes besides ``kind``, by kind;
#: all are required but a ``uniform_1d`` fragment's atom count.
_MEASURE_KEYS = {"atoms": ("atoms", "weights"), "dirac": ("point",),
                 "uniform_1d": ("a", "b", "atoms")}


def initial_from_spec(obj: dict, where: str = "initial") -> DiscreteMeasure:
    """Build a measure from a JSON fragment: dirac, atoms, or uniform_1d.

    Accepted fragments::

        {"kind": "atoms", "atoms": [[...], ...], "weights": [...]}
        {"kind": "dirac", "point": [...]}
        {"kind": "uniform_1d", "a": a, "b": b, "atoms": 64}

    Every number is a JSON number, an int or a float but not a bool, and a
    key the kind does not take is an error.  Every error is a ConfigError
    whose message starts with ``where``.
    """
    kind = _fragment_kind(obj, where, _MEASURE_KEYS)
    for key in _MEASURE_KEYS[kind]:
        if kind == "uniform_1d" and key == "atoms":
            continue  # a count, 64 when left out; checked below
        if key not in obj:
            raise ConfigError(f"{where}.{key}: required for {kind}")
        _check_numbers(obj[key], f"{where}.{key}", lists=kind != "uniform_1d")
    natoms = obj.get("atoms", 64)  # read by uniform_1d only
    if kind == "uniform_1d" and not (_is_grid_size(natoms) and natoms <= MAX_ATOMS):
        raise ConfigError(f"{where}.atoms: expected an integer in [1, {MAX_ATOMS}], "
                          f"got {natoms!r}")
    try:
        if kind == "dirac":
            return dirac(obj["point"])
        if kind == "atoms":
            return make_measure(obj["atoms"], obj["weights"])
        return quantile_uniform(float(obj["a"]), float(obj["b"]), int(natoms))
    except Exception as exc:
        raise ConfigError(f"{where}{'.point' if kind == 'dirac' else ''}: {exc}") from exc


def _fragment_kind(obj: dict, where: str, keys: dict[str, tuple]) -> str:
    """The kind of the fragment ``obj``, one of ``keys``, which maps each
    kind to the keys it takes besides ``kind``.  Anything else, and a key
    the kind does not take, is a ConfigError."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    kind = obj.get("kind")
    if not (isinstance(kind, str) and kind in keys):
        raise ConfigError(f"{where}.kind: unknown kind {kind!r} (known: {', '.join(keys)})")
    for key in obj:
        if key != "kind" and key not in keys[kind]:
            known = ", ".join(("kind",) + keys[kind])
            raise ConfigError(f"{where}.{key}: unknown key (known: {known})")
    return kind


def _check_numbers(value, where: str, lists: bool = True) -> None:
    """Raise ConfigError unless ``value`` is a JSON number, an int or a
    float but not a bool, or with ``lists`` nested lists of them."""
    if lists and isinstance(value, (list, tuple)):
        for item in value:
            _check_numbers(item, where)
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")


def _is_grid_size(n) -> bool:
    """``is_count``, or an integral float such as 4.0, as JSON may write one."""
    return is_count(n) or (isinstance(n, float) and n >= 1 and n.is_integer())


#: The keys each kind of rule fragment takes besides ``kind``, by kind.
_PVF_KEYS = {"graph": ("field",), "constant_fiber": ("omega",), "splitting": ()}


def pvf_from_json(obj: dict) -> PvfSpec:
    """Build a rule from its JSON fragment.

    Accepted fragments::

        {"kind": "graph", "field": "zero" | "linear" | "peano" | "sqrt2"}
        {"kind": "constant_fiber", "omega": {"atoms": [...], "weights": [...]}}
        {"kind": "constant_fiber", "omega": {"kind": "uniform_1d", ...}}
        {"kind": "splitting"}

    ``omega`` is a measure fragment (``initial_from_spec``); without a
    ``kind`` it is an ``atoms`` fragment, as ``pvf_to_json`` writes it.  A
    key the kind does not take is a ConfigError.
    """
    kind = _fragment_kind(obj, "pvf", _PVF_KEYS)
    if kind == "graph":
        name = obj.get("field")
        if not isinstance(name, str) or name not in GRAPH_FIELDS:
            known = ", ".join(sorted(GRAPH_FIELDS))
            raise ConfigError(f"pvf.field: unknown field {name!r} (known: {known})")
        return GraphPvf(velocity=GRAPH_FIELDS[name], name=f"graph:{name}")
    if kind == "constant_fiber":
        if "omega" not in obj:
            raise ConfigError("pvf.omega: required for constant_fiber")
        omega = obj["omega"]
        if isinstance(omega, dict) and "kind" not in omega:
            omega = dict(omega, kind="atoms")
        return ConstantFiberPvf(omega=initial_from_spec(omega, "pvf.omega"))
    return SplittingParticlePvf()


def pvf_to_json(spec: PvfSpec) -> dict:
    """Inverse of ``pvf_from_json`` for the shippable rules."""
    if isinstance(spec, GraphPvf):
        field_name = spec.name.split(":", 1)[-1]
        if field_name not in GRAPH_FIELDS:
            raise ConfigError("only registry graph fields round-trip to JSON")
        return {"kind": "graph", "field": field_name}
    if isinstance(spec, ConstantFiberPvf):
        return {
            "kind": "constant_fiber",
            "omega": {
                "atoms": spec.omega.atoms.tolist(),
                "weights": spec.omega.weights.tolist(),
            },
        }
    if isinstance(spec, SplittingParticlePvf):
        return {"kind": "splitting"}
    raise ConfigError(f"cannot serialize rule {spec!r}")
