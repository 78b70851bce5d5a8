"""Named experiment configurations and the artifact-producing runner.

A scenario is plain JSON data (schema "mde-lab/1"): a velocity-rule
fragment, an initial-measure fragment, horizon T, one or more grid sizes,
scheme tags, and analysis flags.  ``run_scenario`` executes every
(scheme, N) combination, writes CSV paths plus any requested reports into
the output directory, and finishes with a manifest that echoes the full
normalized configuration, so re-running from the manifest reproduces the
artifacts byte for byte.  Each distinct scheme configuration is run once;
the comparison and convergence reports score the paths already computed.
Configurations whose paths are equal bit for bit share one path, and the
work downstream of it is done once (see ``run_scenario``).

Five built-ins cover the desk-scale experiments: "splitting-dirac",
"splitting-uniform", "binomial", "uniform-fiber", "peano".
"""

from __future__ import annotations

import copy
import numbers
import os
import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ConfigError, DimMismatchError, EndpointMismatchError, IoError
from .measures import (
    DiscreteMeasure,
    dirac,
    make_measure,
    quantile_uniform,
)
from .pvf import PvfSpec, pvf_from_json
from .schemes import SCHEMES, GridSpec, MeasurePath, SchemeConfig, run_scheme
from .superposition import build_representation
from .analysis import ConvergenceTable, convergence_study, residual, scheme_compare
from .tolerances import MERGE_TOL
from . import artifacts
from .artifacts import SCHEMA


def initial_from_spec(obj: dict, where: str = "initial") -> DiscreteMeasure:
    """Build a measure from a JSON fragment: dirac, atoms, or uniform_1d."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    kind = obj.get("kind")
    if kind == "dirac":
        if "point" not in obj:
            raise ConfigError(f"{where}.point: required for dirac")
        try:
            return dirac(obj["point"])
        except Exception as exc:
            raise ConfigError(f"{where}.point: {exc}") from exc
    if kind == "atoms":
        for key in ("atoms", "weights"):
            if key not in obj:
                raise ConfigError(f"{where}.{key}: required for atoms")
        try:
            return make_measure(obj["atoms"], obj["weights"])
        except Exception as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    if kind == "uniform_1d":
        for key in ("a", "b"):
            if key not in obj:
                raise ConfigError(f"{where}.{key}: required for uniform_1d")
        natoms = obj.get("atoms", 64)
        if not (_is_grid_size(natoms) and natoms <= SchemeConfig.max_atoms):
            raise ConfigError(f"{where}.atoms: expected an integer in [1, "
                              f"{SchemeConfig.max_atoms}], got {natoms!r}")
        try:
            return quantile_uniform(float(obj["a"]), float(obj["b"]), int(natoms))
        except Exception as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(
        f"{where}.kind: unknown kind {kind!r} (known: atoms, dirac, uniform_1d)"
    )


@dataclass(frozen=True)
class Scenario:
    """A complete experiment configuration, held as plain data."""

    name: str
    pvf: dict
    initial: dict
    T: float
    Ns: tuple[int, ...]
    schemes: tuple[str, ...]
    dvs: Optional[tuple[float, ...]] = None
    residual: bool = False
    converge: bool = False
    compare: bool = False
    represent: bool = False
    coalesce_tol: float = MERGE_TOL
    prune_floor: float = 0.0
    outputs: str = "out"
    description: str = ""

    def __post_init__(self):
        if not self.name:
            raise ConfigError("name: must be nonempty")
        if len(self.Ns) == 0:
            raise ConfigError("N: need at least one grid size")
        if not all(_is_grid_size(n) and n + 1 <= SchemeConfig.max_atoms for n in self.Ns):
            raise ConfigError(f"N: expected integers in [1, {SchemeConfig.max_atoms - 1}]"
                              f" (N + 1 nodes within max_atoms), got {list(self.Ns)!r}")
        if len(self.schemes) == 0:
            raise ConfigError("scheme: need at least one scheme")
        unknown = [s for s in self.schemes if s not in SCHEMES]
        if unknown:
            raise ConfigError(
                f"scheme: unknown {unknown[0]!r} (known: {', '.join(SCHEMES)}, all)"
            )
        if self.converge and any(b <= a for a, b in zip(self.Ns, self.Ns[1:])):
            raise ConfigError("N: grid sizes must strictly increase for converge")
        if self.dvs is not None and len(self.dvs) != len(self.Ns):
            raise ConfigError("dv: need one velocity step per N")
        object.__setattr__(self, "pvf", copy.deepcopy(self.pvf))
        object.__setattr__(self, "initial", copy.deepcopy(self.initial))
        object.__setattr__(self, "Ns", tuple(int(n) for n in self.Ns))
        object.__setattr__(self, "schemes", tuple(self.schemes))
        if self.dvs is not None:
            object.__setattr__(self, "dvs", tuple(float(v) for v in self.dvs))
        # T, dv, coalesce_tol and prune_floor are checked by the run configs
        # they build; those messages start with the field name
        try:
            for i in range(len(self.Ns)):
                SchemeConfig(self.schemes[0], self.grid(i), self.coalesce_tol, self.prune_floor)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def pvf_spec(self) -> PvfSpec:
        return pvf_from_json(self.pvf)

    def initial_measure(self) -> DiscreteMeasure:
        return initial_from_spec(self.initial, "initial")

    def grid(self, i: int) -> GridSpec:
        dv = None if self.dvs is None else self.dvs[i]
        return GridSpec(T=self.T, N=self.Ns[i], dv=dv)


def _is_grid_size(n) -> bool:
    """True for an integer >= 1; an integral float such as 4.0 counts, a bool does not."""
    if isinstance(n, bool):
        return False
    if isinstance(n, float):
        return n >= 1 and n.is_integer()
    return isinstance(n, numbers.Integral) and n >= 1


def scenario_to_json(scn: Scenario) -> dict:
    obj = {
        "schema": SCHEMA,
        "name": scn.name,
        "description": scn.description,
        "pvf": copy.deepcopy(scn.pvf),
        "initial": copy.deepcopy(scn.initial),
        "T": scn.T,
        "N": list(scn.Ns),
        "scheme": list(scn.schemes),
        "residual": scn.residual,
        "converge": scn.converge,
        "compare": scn.compare,
        "represent": scn.represent,
        "coalesce_tol": scn.coalesce_tol,
        "prune_floor": scn.prune_floor,
        "outputs": scn.outputs,
    }
    if scn.dvs is not None:
        obj["dv"] = list(scn.dvs)
    return obj


def _number(value, field: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{field}: {exc}") from exc


def _nonempty_string(obj: dict, field: str, default: str) -> str:
    value = obj.get(field, default)
    if not (isinstance(value, str) and value):
        raise ConfigError(f"{field}: expected a nonempty string, got {value!r}")
    return value


def scenario_from_json(obj: dict) -> Scenario:
    if not isinstance(obj, dict):
        raise ConfigError("scenario: expected a JSON object")
    schema = obj.get("schema", SCHEMA)
    if schema != SCHEMA:
        raise ConfigError(f"schema: expected {SCHEMA!r}, got {schema!r}")
    for key in ("pvf", "initial", "T", "N"):
        if key not in obj:
            raise ConfigError(f"{key}: required")
    raw_n = obj["N"]
    Ns = tuple(raw_n) if isinstance(raw_n, (list, tuple)) else (raw_n,)
    raw_scheme = obj.get("scheme", "all")
    if raw_scheme == "all":
        schemes = tuple(SCHEMES)
    elif isinstance(raw_scheme, str):
        schemes = (raw_scheme,)
    elif isinstance(raw_scheme, (list, tuple)):
        schemes = tuple(raw_scheme)
    else:
        raise ConfigError("scheme: expected a tag, a list of tags, or 'all'")
    raw_dv = obj.get("dv")
    if raw_dv is None:
        dvs = None
    elif isinstance(raw_dv, (list, tuple)):
        dvs = tuple(_number(v, "dv") for v in raw_dv)
    else:
        dvs = (_number(raw_dv, "dv"),) * len(Ns)
    T = _number(obj["T"], "T")
    flags = {}
    for key in ("residual", "converge", "compare", "represent"):
        val = obj.get(key, False)
        if not isinstance(val, bool):
            raise ConfigError(f"{key}: expected true or false")
        flags[key] = val
    return Scenario(
        name=_nonempty_string(obj, "name", "custom"),
        pvf=obj["pvf"],
        initial=obj["initial"],
        T=T,
        Ns=Ns,
        schemes=schemes,
        dvs=dvs,
        coalesce_tol=_number(obj.get("coalesce_tol", MERGE_TOL), "coalesce_tol"),
        prune_floor=_number(obj.get("prune_floor", 0.0), "prune_floor"),
        outputs=_nonempty_string(obj, "outputs", "out"),
        description=str(obj.get("description", "")),
        **flags,
    )


# ---------------------------------------------------------------------------
# built-ins
# ---------------------------------------------------------------------------

def _builtin_scenarios() -> dict[str, Scenario]:
    scns = [
        Scenario(
            name="splitting-dirac",
            description="splitting rule from a point mass; the two halves "
            "drift apart while the mean-velocity run stays put",
            pvf={"kind": "splitting"},
            initial={"kind": "dirac", "point": [0.0]},
            T=1.0,
            Ns=(4, 16, 64),
            schemes=tuple(SCHEMES),
            compare=True,
            represent=False,
            outputs=os.path.join("out", "splitting-dirac"),
        ),
        Scenario(
            name="splitting-uniform",
            description="splitting rule from a uniform block on [0,1]; the "
            "block tears into two translating halves",
            pvf={"kind": "splitting"},
            initial={"kind": "uniform_1d", "a": 0.0, "b": 1.0, "atoms": 256},
            T=1.0,
            Ns=(64,),
            schemes=("lagrangian",),
            residual=True,
            outputs=os.path.join("out", "splitting-uniform"),
        ),
        Scenario(
            name="binomial",
            description="every atom moves left or right with equal chance; "
            "node laws are binomial and concentrate at the origin",
            pvf={
                "kind": "constant_fiber",
                "omega": {
                    "kind": "atoms",
                    "atoms": [[-1.0], [1.0]],
                    "weights": [0.5, 0.5],
                },
            },
            initial={"kind": "dirac", "point": [0.0]},
            T=1.0,
            Ns=(2, 4, 8),
            schemes=tuple(SCHEMES),
            compare=True,
            converge=True,
            represent=True,
            outputs=os.path.join("out", "binomial"),
        ),
        Scenario(
            name="uniform-fiber",
            description="constant uniform velocity fiber on [-1,1] "
            "(64-point quantile discretization); mass spreads into a "
            "widening lattice",
            pvf={
                "kind": "constant_fiber",
                "omega": {"kind": "uniform_1d", "a": -1.0, "b": 1.0, "atoms": 64},
            },
            initial={"kind": "dirac", "point": [0.0]},
            T=1.0,
            Ns=(1, 2),
            schemes=tuple(SCHEMES),
            compare=True,
            outputs=os.path.join("out", "uniform-fiber"),
        ),
        Scenario(
            name="peano",
            description="graph rule v = 2 sqrt(|x|) from -1: after hitting "
            "the origin the grid scheme selects one branch of the "
            "non-unique flow",
            pvf={"kind": "graph", "field": "peano"},
            initial={"kind": "dirac", "point": [-1.0]},
            T=3.0,
            Ns=(3, 6, 9),
            dvs=(1.0, 0.5, 1.0 / 3.0),
            schemes=("las",),
            represent=True,
            outputs=os.path.join("out", "peano"),
        ),
    ]
    return {s.name: s for s in scns}


_BUILTINS = _builtin_scenarios()


def list_scenarios() -> list[tuple[str, str]]:
    """(name, description) of each built-in scenario."""
    return [(s.name, s.description) for s in _BUILTINS.values()]


def get_scenario(name: str) -> Scenario:
    if name in _BUILTINS:
        return _BUILTINS[name]
    known = ", ".join(_BUILTINS)
    raise ConfigError(f"unknown scenario {name!r} (known: {known})")


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def _safe_tag(scheme: str) -> str:
    return scheme.replace("/", "-")


def run_scenario(scn: Scenario) -> dict:
    """Execute all (scheme, N) runs and write artifacts; returns the manifest.

    Runs are memoized by their full ``SchemeConfig``, so each distinct
    configuration is run once and the reports score the memoized paths.
    Runs whose paths are equal bit for bit (``las`` and ``lagrangian`` on
    a rule whose lifts stay on the grid, for one) then share one path
    object.  The key is every array of the path (``_path_arrays``),
    compared by shape and bits with each distinct path so far; paths of
    another N part at their node times.  Everything downstream is
    memoized by that object, for the length of this call only:
    - one curve bundle, one residual, and one text per file for each
      distinct path; a text is kept only while a later scheme of the same
      N shares the path, and a repeat is written from it, all or nothing;
    - one convergence study per distinct tuple of paths, relabelled with
      each scheme's name;
    - in ``scheme_compare``, one W1 sweep per distinct pair.
    Each of these is a deterministic function of the arrays the key
    compares, so a shared result is the one a second computation would
    give, bit for bit, and every artifact is as if nothing were shared.
    Each N's runs are made before its files are written.

    A float overflow (a horizon too long) is a ConfigError naming ``T``,
    and a rule that does not fit the initial measure's dimension one
    naming ``pvf``; the first step raises it, before any file is written.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _run_all(scn)
    except FloatingPointError as exc:
        raise ConfigError(f"T: {scn.T!r} overflows floating point ({exc})") from exc
    except DimMismatchError as exc:
        raise ConfigError(f"pvf: {exc}") from exc


def _path_arrays(path: MeasurePath):
    """Every array of a path, the data its artifacts and reports read:
    node times, pruned mass, each node's atoms and weights, and each
    lift's positions, velocities and weights."""
    yield path.times
    yield np.array(path.pruned_mass)
    for mu in path.measures:
        yield mu.atoms
        yield mu.weights
    for lift in path.interp:
        yield lift.positions
        yield lift.velocities
        yield lift.weights


def _same_path(a: MeasurePath, b: MeasurePath) -> bool:
    """True if every array of ``a`` has the shape and the bits of ``b``'s.

    The node times come first, and their length fixes the number of
    arrays, so paths of different N part at once."""
    return all(
        x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in zip(_path_arrays(a), _path_arrays(b))
    )


def _represent(path: MeasurePath, T: float, radius: float):
    """``build_representation(path)``.  Where floats lie farther apart
    than ``MERGE_TOL`` (atoms at 8192 or farther out), a curve's endpoint
    can miss its node atom by roundoff; such a miss is a horizon too long
    for the absolute tolerance, a ConfigError naming ``T``."""
    try:
        return build_representation(path)
    except EndpointMismatchError as exc:
        if np.spacing(radius) > MERGE_TOL:
            raise ConfigError(
                f"T: {T!r} puts atoms at {radius:g}, where floats lie farther apart "
                f"than the merge tolerance {MERGE_TOL:g} ({exc})"
            ) from exc
        raise


def _run_all(scn: Scenario) -> dict:
    started = time.perf_counter()
    spec = scn.pvf_spec()
    mu0 = scn.initial_measure()
    out = scn.outputs
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {out!r}: {exc}") from exc
    # an earlier run's manifest must not describe the files this run writes
    try:
        os.remove(os.path.join(out, "manifest.json"))
    except FileNotFoundError:
        pass
    except OSError as exc:
        raise IoError(f"cannot remove the old manifest in {out!r}: {exc}") from exc

    written: list[str] = []
    pruned: dict[str, float] = {}
    radii: dict[str, float] = {}
    notes: list[str] = []

    def emit(name: str, writer, payload, keep: Optional[list] = None) -> None:
        text = writer(payload, os.path.join(out, name))
        if keep is not None:
            keep.append(text)
        written.append(name)

    paths: dict[SchemeConfig, MeasurePath] = {}
    distinct: list[MeasurePath] = []

    def path_for(cfg: SchemeConfig) -> MeasurePath:
        if cfg not in paths:
            path = run_scheme(spec, mu0, cfg)
            paths[cfg] = next((p for p in distinct if _same_path(p, path)), path)
            if paths[cfg] is path:
                distinct.append(path)
        return paths[cfg]

    for i, n in enumerate(scn.Ns):
        runs = [(f"{_safe_tag(scheme)}_N{n}",
                 path_for(SchemeConfig(scheme, scn.grid(i), scn.coalesce_tol, scn.prune_floor)))
                for scheme in scn.schemes]
        # the texts of a path's files, kept only while a later run of this N
        # shares the path; no run of another N has its node times
        texts: dict[int, list[str]] = {}
        for j, (tag, path) in enumerate(runs):
            pruned[tag] = path.pruned_mass
            atoms = np.concatenate([mu.atoms for mu in path.measures])
            radii[tag] = float(np.max(np.linalg.norm(atoms, axis=1)))
            names = [f"path_{tag}.csv"]
            if scn.represent:
                names.append(f"trajectories_{tag}.json")
            if scn.residual:
                names += [f"residual_{tag}.csv", f"residual_{tag}.json"]
            later = any(p is path for _, p in runs[j + 1:])
            kept = texts.pop(id(path), None)
            if kept is not None:
                for name, text in zip(names, kept):
                    artifacts._write_text(text, os.path.join(out, name))
                written.extend(names)
            else:
                kept = [] if later else None
                emit(names[0], artifacts.write_path_csv, path, kept)
                if scn.represent:
                    ens = _represent(path, scn.T, radii[tag])
                    emit(names[1], artifacts.write_trajectories_json, ens, kept)
                if scn.residual:
                    rep = residual(path, spec)
                    emit(names[-2], artifacts.write_residual_csv, rep, kept)
                    obj = artifacts.residual_to_json(rep)
                    emit(names[-1], artifacts.write_json, obj, kept)
            if later:
                texts[id(path)] = kept

    # compare and converge use standard grids (dv = 1/N), default housekeeping
    if scn.compare:
        for n in scn.Ns:
            grid = GridSpec(T=scn.T, N=n)
            table = scheme_compare({tag: path_for(SchemeConfig(tag, grid)) for tag in SCHEMES})
            emit(f"comparison_N{n}.csv", artifacts.write_comparison_csv, table)
            obj = artifacts.comparison_to_json(table)
            emit(f"comparison_N{n}.json", artifacts.write_json, obj)

    if scn.converge:
        if len(scn.Ns) < 2:
            notes.append("converge requested but only one N given; skipped")
        elif scn.dvs is not None:
            notes.append("converge uses standard grids; dv overrides ignored")
        if len(scn.Ns) >= 2:
            grids = [GridSpec(T=scn.T, N=n) for n in scn.Ns]
            studies: dict[tuple[int, ...], ConvergenceTable] = {}
            for scheme in scn.schemes:
                sweep = [path_for(SchemeConfig(scheme, g)) for g in grids]
                key = tuple(map(id, sweep))
                if key not in studies:
                    studies[key] = convergence_study(sweep, scheme)
                table = replace(studies[key], scheme=scheme)
                stag = _safe_tag(scheme)
                emit(f"convergence_{stag}.csv", artifacts.write_convergence_csv, table)
                obj = artifacts.convergence_to_json(table)
                emit(f"convergence_{stag}.json", artifacts.write_json, obj)

    manifest = {
        "schema": SCHEMA,
        "kind": "manifest",
        "scenario": scenario_to_json(scn),
        "artifacts": sorted(written),
        "pruned_mass": pruned,
        "support_radius": radii,
        "notes": notes,
        "wall_time_s": time.perf_counter() - started,
    }
    artifacts.write_json(manifest, os.path.join(out, "manifest.json"))
    return manifest
