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
    _radius,
    base_of,
    dirac,
    fiber_means,
    is_count,
    is_real,
    make_measure,
    quantile_uniform,
)
from .tolerances import AGREE_TOL, CDF_TOL, WEIGHT_FLOOR


@dataclass(frozen=True)
class GraphPvf:
    """Fiber delta_{velocity(x)} at every atom: a plain velocity field.

    ``velocity`` must be a function of the positions it is given: a run
    repeats a step that returns its own node instead of evaluating the
    field again (see ``schemes.run_scheme``).
    """

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
    """An arbitrary rule; ``evaluate`` must preserve the base measure and be
    a function of the measure: a run repeats a step that returns its own
    node instead of evaluating the rule again (see ``schemes.run_scheme``),
    so a stateful ``evaluate`` is outside this contract."""

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
    left = float(cdf[idx] - mass)
    if left != 0.5 and abs(0.5 - left) <= CDF_TOL:
        # Near the tie the float cumsum can land a few ulps off an exact 1/2
        # (600 weights of 1/600: 2e-15 below) and leave a sliver of B moving
        # left, so there the mass left of B is summed with exact rounding.
        # A difference that lands on 1/2 itself is kept, and B moves right
        # whole: the exactly rounded sum can differ there by an ulp (for
        # weights 0.28106562396458823, 0.21893437603541188 and 0.5, F(B)
        # less B's weight is 1/2 and the fsum 1/2 + 1 ulp), and the seeded
        # battery's pinned digest holds the bits of the difference kept.
        left = math.fsum(mu.weights[:idx].tolist())
        eta = mass - (0.5 - left)
    return idx, eta, mass, left


def eval_pvf(spec: PvfSpec, mu: DiscreteMeasure) -> LiftedMeasure:
    """Evaluate a velocity-fiber rule; the result's base is ``mu``, less
    any atom whose lifted rows all fall below ``WEIGHT_FLOOR`` and are
    dropped, as the rows of an atom only a few times the floor can be.

    Every rule's rows (its entry's ``rows``, see ``_Kind``) are finite and
    arrive in canonical order, and ``measures._derive`` builds the lift
    from them with no kernel pass: it runs the weight tests, and not even
    those where the weights are ``mu``'s array itself, as a graph field's
    are, and a splitting lift's whose median atom moves whole; such a
    splitting lift is built from its columns as they are, with nothing
    tested.  A custom rule's lift is a new value over the arrays of the
    lift it returned, with the same base.

    Rows that name their base pass it to the constructor as the lift's
    base, which is then not computed when the lift keeps every row and
    weight.  Splitting lifts of measures that share one weights array, on
    which the median atom moves right whole with its own weight, share its
    velocity column, computed once: it is a function of the read-only
    weights alone (see ``_splitting_rows``).  A split median's columns are
    built at every call.
    """
    pos, vel, w, base = _kind(spec).rows(spec, mu)
    return _derive(pos, w, velocities=vel, ordered=True, tested=w is mu.weights, base=base)


class _Kind(NamedTuple):
    """What a scheme step and ``eval_pvf`` use of a kind of rule, looked up
    once per call by ``_kind``.

    ``size(spec, mu)`` is the number of atoms ``eval_pvf(spec, mu)`` builds
    before canonicalization, which a step checks against ``max_atoms``
    before it evaluates the rule: n for a graph field, n m for a constant
    fiber of m atoms, and at most n + 1 for the splitting rule (the median
    atom may split in two).  It is None for a custom rule, whose size is
    unknown until it runs.

    ``rows(spec, mu)`` gives the rows (position, velocity) of ``V[mu]``
    before canonicalization, as C-contiguous (n, d) position and velocity
    columns, their weights, and the lift's base where the rows prove it,
    else None.  Rows prove ``mu`` when their positions are ``mu``'s atoms
    in order, the median atom possibly twice, and their weights regroup to
    ``mu``'s bit for bit: a graph field's rows, and the splitting rule's
    when the median splits exactly or moves whole with its own weight.  A
    constant fiber's rows name no base.  A custom rule's rows are the
    columns of the lift it returned, and their base is that lift's, which
    was checked against ``mu``.  ``eval_pvf`` builds the lift from them,
    and the lattice scheme bins them.

    The columns are what ``measures._derive`` adopts: the velocity column
    is fresh, or a read-only array; the position column is fresh or
    ``mu.atoms`` itself; the weights are fresh, read-only, or ``mu.weights``
    itself: a graph field's, and the splitting rule's when the median atom
    moves right whole with its own weight, so that its rows' weights are
    ``mu``'s bit for bit.  Every rule's rows are finite and hold no -0.0:
    a graph field's velocities come from a user callable, so
    ``_graph_rows`` checks them and reads a -0.0 as +0.0; the others are
    built from canonical measures by copying and multiplying weights, or
    are a canonical lift's columns.
    The rows are in canonical order, as ``_derive`` needs for ``ordered``:
    lexicographically sorted and pairwise farther than ``MERGE_TOL``
    apart.  A shipped rule's positions are ``mu``'s canonical atoms, which
    are.  A graph field gives one row per atom.  The splitting rule
    repeats only the median row, with velocities -1 < +1, which lie 2
    apart.  A constant fiber gives the rows (x_i, omega_j) in i-major
    order over two canonical measures, so the rows at one position are
    omega's atoms in order.  A custom rule's rows are a canonical lift's.
    """

    size: Optional[Callable[[PvfSpec, DiscreteMeasure], int]]
    rows: Callable[[PvfSpec, DiscreteMeasure], tuple]


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
    vel = np.vstack(vels) + 0.0  # a -0.0 becomes +0.0, as in the canonical form
    if not np.isfinite(vel).all():
        raise ValueError("atom coordinates must be finite")
    return mu.atoms, vel, mu.weights, mu


def _fiber_rows(spec: ConstantFiberPvf, mu: DiscreteMeasure):
    if spec.omega.dim != mu.dim:
        raise DimMismatchError(f"fiber dim {spec.omega.dim} vs measure dim {mu.dim}")
    n, m, d = mu.natoms, spec.omega.natoms, mu.dim
    pos = np.empty((n, m, d))
    pos[:] = mu.atoms[:, None, :]
    vel = np.empty((n, m, d))
    vel[:] = spec.omega.atoms
    w = (mu.weights[:, None] * spec.omega.weights[None, :]).ravel()
    return pos.reshape(n * m, d), vel.reshape(n * m, d), w, None


def _custom_rows(spec: CustomPvf, mu: DiscreteMeasure):
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
    return out.positions, out.velocities, out.weights, base


#: The last weights array ``_splitting_rows`` saw whose median atom moves
#: right whole with its own weight, and that array's velocity column, each
#: by weak reference, so that no finished run's arrays stay alive.  The
#: key is the array's identity: canonical weights are read-only, so an
#: array seen again holds the same values and the column computed from
#: them, and its lift's weights and base are the array and ``mu`` itself.
#: The nodes of such a run share the first node's array, so its median
#: and column are computed once per run.  A split's columns are not kept:
#: a run does not lift a split node's array again while the lift holding
#: them lives, so no lookup found them.  A run of any scheme stops lifting
#: a torn block once a step's lift holds the node's weights array and the
#: next node keeps it (``schemes._moved_whole``), so the entry serves
#: ``residual`` and the steps a run takes before that route starts.
_split_memo: Optional[tuple] = None


def _splitting_rows(spec: SplittingParticlePvf, mu: DiscreteMeasure):
    """The splitting lift's rows.  Its velocity and weight columns, and
    whether its rows name ``mu`` their base, are functions of ``mu.weights``
    alone: the median split fixes the velocities, and with the median's
    two parts the weights.  The weights are ``mu.weights`` itself, or a
    fresh column with the two parts of the median atom; both columns are
    read-only.  The base is ``mu`` where the median splits exactly or moves
    whole with its own weight, else None.  The dimension check runs first,
    a whole median's columns come from ``_split_memo`` when it holds them,
    and the positions come from ``mu.atoms`` on every call.
    """
    global _split_memo
    if mu.dim != 1:
        raise DimMismatchError("the splitting rule needs a 1-D measure")
    if _split_memo is not None:
        key, vel_ref = _split_memo
        vel = vel_ref()
        if key() is mu.weights and vel is not None:
            return mu.atoms, vel, mu.weights, mu
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
        return mu.atoms, vel, mu.weights, mu
    w = np.empty(n + s)
    w[:i + 1] = mu.weights[:i + 1]
    w[i + s:] = mu.weights[i:]
    w[i] = left
    w[i + s] = eta
    w.setflags(write=False)
    pos = mu.atoms
    if s:
        pos = np.empty((n + 1, 1))
        pos[:i + 1] = mu.atoms[:i + 1]
        pos[i + 1:] = mu.atoms[i:]
    return pos, vel, w, mu if left + eta == mass else None


#: One entry per kind of rule (see ``_Kind``).
_KINDS: dict[type, _Kind] = {
    SplittingParticlePvf: _Kind(lambda spec, mu: mu.natoms + 1, _splitting_rows),
    GraphPvf: _Kind(lambda spec, mu: mu.natoms, _graph_rows),
    ConstantFiberPvf: _Kind(lambda spec, mu: mu.natoms * spec.omega.natoms, _fiber_rows),
    CustomPvf: _Kind(None, _custom_rows),
}


#: The default cap on the atoms of a scheme step (``SchemeConfig.max_atoms``),
#: and the most atoms a ``uniform_1d`` fragment may ask for.
MAX_ATOMS = 1_000_000


def barycentric_field(spec: PvfSpec, mu: DiscreteMeasure) -> np.ndarray:
    """Mean fiber velocity at each atom, as an (n, d) array aligned with
    ``mu.atoms``.

    Read off ``eval_pvf(spec, mu)`` by ``measures.fiber_means``: a one-atom
    fiber's velocity comes back unchanged, so graph fields are exact.
    Raises ``EmptyInputError`` when the weight floor left an atom no
    fiber: its lifted rows all fell below ``WEIGHT_FLOOR`` and were
    dropped.  The lift's positions are ``mu``'s atoms in order, so the
    atoms kept agree with ``mu``'s up to the first one lost.
    """
    atoms, means = fiber_means(eval_pvf(spec, mu))
    if not np.array_equal(atoms, mu.atoms):
        i = int(np.append((atoms != mu.atoms[:len(atoms)]).any(axis=1), True).argmax())
        raise EmptyInputError(f"the fiber of atom {i} at {mu.atoms[i].tolist()} fell below "
                              f"the weight floor WEIGHT_FLOOR = {WEIGHT_FLOOR!r}")
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
        best = max(best, _radius(lifted.velocities) / (1.0 + _radius(mu.atoms)))
    return best


# ---------------------------------------------------------------------------
# JSON fragments
# ---------------------------------------------------------------------------

def _field_linear(x: np.ndarray) -> np.ndarray:
    return x


def _field_peano(x: np.ndarray) -> np.ndarray:
    return 2.0 * np.sqrt(np.abs(x))


#: Named closed-form fields available to scenario files.  "sqrt2" is an
#: alias of "peano" (the 2 sqrt(|x|) field behind the non-unique ODE runs).
GRAPH_FIELDS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "zero": np.zeros_like,
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
    """The one test of a number in a scenario: raise ConfigError, naming
    ``where``, unless ``value`` is a number (``is_real``: a real number, not
    a bool, within the float range, so ``float`` takes it), or with
    ``lists`` nested lists of them."""
    if lists and isinstance(value, (list, tuple)):
        for item in value:
            _check_numbers(item, where)
    elif not is_real(value):
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
        # the name alone does not make the rule: its field must be the
        # registry's field of that name.  A name that is no registry key
        # (the default "graph") gives way to the first name of the field
        field_name = spec.name.split(":", 1)[-1]
        if field_name not in GRAPH_FIELDS:
            field_name = next((k for k, f in GRAPH_FIELDS.items() if f is spec.velocity), field_name)
        if GRAPH_FIELDS.get(field_name) is not spec.velocity:
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
