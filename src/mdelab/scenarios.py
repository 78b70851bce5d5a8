"""Named experiment configurations and the artifact-producing runner.

A scenario is plain JSON data (schema "mde-lab/1"): a velocity-rule
fragment, an initial-measure fragment, horizon T, one or more grid sizes,
scheme tags, and analysis flags.  Each JSON key is a field of ``Scenario``
(``N``, ``scheme`` and ``dv`` stand for ``Ns``, ``schemes`` and ``dvs``),
and ``Scenario`` checks every field, however the scenario was made: a
JSON file, a CLI override or a Python call.  Numbers must be JSON numbers,
not bools or strings, and a key that names no field is an error.
``run_scenario`` executes every (scheme, N) combination and writes CSV
paths, any requested reports and a manifest that echoes the full
normalized configuration, so re-running from the manifest reproduces the
artifacts, and the manifest, byte for byte.  The files are staged and
move into the output directory only when every one is written, so a run
that fails leaves that directory as it was.  Each distinct scheme
configuration is run once; the comparison and convergence reports score
the paths already computed.  Configurations whose paths are equal bit for
bit share one path, and the work downstream of it is done once (see
``run_scenario``).

Five built-ins cover the desk-scale experiments: "splitting-dirac",
"splitting-uniform", "binomial", "uniform-fiber", "peano".
"""

from __future__ import annotations

import contextlib
import copy
import os
import shutil
import time
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .errors import ConfigError, DimMismatchError, EndpointMismatchError, IoError, OutOfRangeError
from .measures import DiscreteMeasure, _radius
from .pvf import PvfSpec, _check_numbers, _is_grid_size, initial_from_spec, pvf_from_json
from .schemes import LAGRANGIAN, SCHEMES, GridSpec, MeasurePath, SchemeConfig, run_scheme
from .superposition import build_representation
from .analysis import ConvergenceTable, convergence_study, residual, scheme_compare
from .tolerances import MERGE_TOL
from . import artifacts
from .artifacts import SCHEMA


@dataclass(frozen=True)
class Scenario:
    """A complete experiment configuration, held as plain data.

    Every field is checked here, so a JSON file, a CLI override and a
    Python caller meet the same checks; a bad field is a ConfigError that
    names it.  ``Ns``, ``schemes`` and ``dvs`` (which may be None) are
    lists or tuples.  ``T``, ``coalesce_tol``, ``prune_floor`` and each
    ``dv`` are numbers by ``pvf._check_numbers`` (real, not bools, within
    the float range), stored as floats.  ``pvf`` and ``initial`` are copied here and
    checked when a run builds them."""

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
        for key in ("name", "outputs"):
            value = getattr(self, key)
            if not (isinstance(value, str) and value):
                raise ConfigError(f"{key}: expected a nonempty string, got {value!r}")
        if not isinstance(self.description, str):
            raise ConfigError(f"description: expected a string, got {self.description!r}")
        for key in ("residual", "converge", "compare", "represent"):
            if not isinstance(getattr(self, key), bool):
                raise ConfigError(f"{key}: expected true or false")
        for key in ("T", "coalesce_tol", "prune_floor"):
            _check_numbers(getattr(self, key), key, lists=False)
            object.__setattr__(self, key, float(getattr(self, key)))
        for key, value in (("N", self.Ns), ("scheme", self.schemes),
                           ("dv", () if self.dvs is None else self.dvs)):
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{key}: expected a list, got {value!r}")
        if self.dvs is not None:
            for v in self.dvs:  # each dv alone: a list is not a number here
                _check_numbers(v, "dv", lists=False)
            object.__setattr__(self, "dvs", tuple(float(v) for v in self.dvs))
        if len(self.Ns) == 0:
            raise ConfigError("N: need at least one grid size")
        if not all(_is_grid_size(n) and n + 1 <= SchemeConfig.max_atoms for n in self.Ns):
            raise ConfigError(f"N: expected integers in [1, {SchemeConfig.max_atoms - 1}]"
                              f" (N + 1 nodes within max_atoms), got {list(self.Ns)!r}")
        if len(set(self.Ns)) != len(self.Ns):
            raise ConfigError(f"N: a grid size is repeated in {list(self.Ns)!r}")
        if len(self.schemes) == 0:
            raise ConfigError("scheme: need at least one scheme")
        unknown = [s for s in self.schemes if s not in SCHEMES]
        if unknown:
            raise ConfigError(
                f"scheme: unknown {unknown[0]!r} (known: {', '.join(SCHEMES)}, all)"
            )
        if len(set(self.schemes)) != len(self.schemes):
            raise ConfigError(f"scheme: a scheme is repeated in {list(self.schemes)!r}")
        if self.converge and any(b <= a for a, b in zip(self.Ns, self.Ns[1:])):
            raise ConfigError("N: grid sizes must strictly increase for converge")
        if self.dvs is not None and len(self.dvs) != len(self.Ns):
            raise ConfigError("dv: need one velocity step per N")
        object.__setattr__(self, "pvf", copy.deepcopy(self.pvf))
        object.__setattr__(self, "initial", copy.deepcopy(self.initial))
        object.__setattr__(self, "Ns", tuple(int(n) for n in self.Ns))
        object.__setattr__(self, "schemes", tuple(self.schemes))
        # the run configs check the numbers' ranges; their messages start
        # with the field name
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


# the JSON key of each field whose key is not its name
_JSON_KEYS = {"Ns": "N", "schemes": "scheme", "dvs": "dv"}


def scenario_to_json(scn: Scenario) -> dict:
    """The scenario as JSON data; ``dv`` is left out when it is None."""
    obj = {"schema": SCHEMA}
    for f in fields(scn):
        value = getattr(scn, f.name)
        if value is not None:
            value = list(value) if isinstance(value, tuple) else copy.deepcopy(value)
            obj[_JSON_KEYS.get(f.name, f.name)] = value
    return obj


def scenario_from_json(obj: dict) -> Scenario:
    """Read a scenario from JSON data; a single ``N``, ``dv`` or scheme tag
    stands for a list, and ``"scheme": "all"`` (the default) for every scheme.
    A key that is neither ``schema`` nor a field's key is a ConfigError."""
    if not isinstance(obj, dict):
        raise ConfigError("scenario: expected a JSON object")
    schema = obj.get("schema", SCHEMA)
    if schema != SCHEMA:
        raise ConfigError(f"schema: expected {SCHEMA!r}, got {schema!r}")
    for key in ("pvf", "initial", "T", "N"):
        if key not in obj:
            raise ConfigError(f"{key}: required")
    names = {_JSON_KEYS.get(f.name, f.name): f.name for f in fields(Scenario)}
    for key in obj:
        if key not in names and key != "schema":
            raise ConfigError(f"{key}: unknown key (known: schema, {', '.join(sorted(names))})")
    kw = {"name": "custom", "schemes": "all"}
    kw.update((names[key], value) for key, value in obj.items() if key != "schema")
    if not isinstance(kw["Ns"], (list, tuple)):
        kw["Ns"] = (kw["Ns"],)
    if kw["schemes"] == "all":
        kw["schemes"] = tuple(SCHEMES)
    elif isinstance(kw["schemes"], str):
        kw["schemes"] = (kw["schemes"],)
    elif not isinstance(kw["schemes"], (list, tuple)):
        raise ConfigError("scheme: expected a tag, a list of tags, or 'all'")
    if not isinstance(kw.get("dvs"), (list, tuple, type(None))):
        kw["dvs"] = (kw["dvs"],) * len(kw["Ns"])
    return Scenario(**kw)


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
        ),
    ]
    return {s.name: replace(s, outputs=os.path.join("out", s.name)) for s in scns}


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

def run_scenario(scn: Scenario) -> dict:
    """Execute all (scheme, N) runs and write artifacts; returns the manifest.

    Runs are memoized by their full ``SchemeConfig``, so each distinct
    configuration is run once and the reports score the memoized paths.
    Runs whose paths are equal bit for bit (``las`` and ``lagrangian`` on
    a rule whose lifts stay on the grid, for one) then share one path
    object.  A path is compared with each distinct path so far by
    ``_same_path``: node times, pruned mass, then nodes and lifts by the
    value types' ``==``, which compares the bits of canonical arrays;
    paths of another N part at their node times.  Everything downstream
    is memoized by that object, for the length of this call only:
    - one curve bundle and one residual for each distinct path; a later
      run that shares the path copies the first run's files;
    - one convergence study per distinct tuple of paths, relabelled with
      each scheme's name;
    - in ``scheme_compare``, one W1 sweep per distinct pair.
    Each of these is a deterministic function of the arrays that
    comparison reads, so a shared result is the one a second computation
    would give, bit for bit, and every artifact is as if nothing were
    shared.

    Every file, the manifest included, is written into a staging
    directory inside the output directory, ``.stage.<pid>.tmp``.  Only
    when every file is there does the run remove an earlier manifest,
    move each artifact in and the manifest last, and remove the staging
    directory.  So a run that fails before that leaves the output
    directory byte for byte as it was, or absent if the run created it.
    Files that the run does not write are left alone.  A failure while
    the files move in can only be an I/O error, and the missing manifest
    then marks the directory as partial.

    A float overflow (a horizon too long) is a ConfigError naming ``T``,
    and a rule that does not fit the initial measure's dimension one naming
    ``pvf``.  A transport cost past the float range (atoms so far apart
    that their distance overflows) is one naming ``initial`` where the
    initial measure's own atoms already lie that far apart (the sum over
    coordinates of their squared spread overflows), and ``pvf`` otherwise,
    since the rule's fibers then moved the atoms apart.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _run_all(scn)
    except FloatingPointError as exc:
        raise ConfigError(f"T: {scn.T!r} overflows floating point ({exc})") from exc
    except DimMismatchError as exc:
        raise ConfigError(f"pvf: {exc}") from exc
    except OutOfRangeError as exc:
        with np.errstate(over="ignore"):
            spread = np.ptp(scn.initial_measure().atoms, axis=0)
            field = "pvf" if np.isfinite(np.sum(spread * spread)) else "initial"
        raise ConfigError(f"{field}: {exc}") from exc


def _same_path(a: MeasurePath, b: MeasurePath) -> bool:
    """True if ``a`` and ``b`` have equal node times and pruned mass, and
    equal nodes and lifts by the value types' ``==`` (shape and bits).

    The node times come first, so paths of different N part at once."""
    return (a.times.tobytes() == b.times.tobytes() and a.pruned_mass == b.pruned_mass
            and a.measures == b.measures and a.interp == b.interp)


def _represent(path: MeasurePath, cfg: SchemeConfig, radius: float):
    """``build_representation(path)``, with a curve endpoint that misses
    its node atom mapped to a ConfigError naming the field behind it.
    Where floats lie farther apart than ``MERGE_TOL`` (atoms at 8192 or
    farther out), an endpoint can miss by roundoff: a horizon too long
    for the absolute tolerance, named ``T``.  On a ``lagrangian`` run,
    atoms that ``prune_floor`` dropped or ``coalesce_tol`` merged leave
    endpoints that no atom matches: named ``prune_floor`` when the run
    pruned mass, else ``coalesce_tol`` when it exceeds ``MERGE_TOL``."""
    try:
        return build_representation(path)
    except EndpointMismatchError as exc:
        if np.spacing(radius) > MERGE_TOL:
            raise ConfigError(
                f"T: {cfg.grid.T!r} puts atoms at {radius:g}, where floats lie farther apart "
                f"than the merge tolerance {MERGE_TOL:g} ({exc})"
            ) from exc
        if cfg.scheme == LAGRANGIAN and (path.pruned_mass > 0 or cfg.coalesce_tol > MERGE_TOL):
            key = "prune_floor" if path.pruned_mass > 0 else "coalesce_tol"
            raise ConfigError(f"{key}: {getattr(cfg, key)!r} dropped or merged atoms, so a curve "
                              f"ends where no atom is; a curve bundle needs a run that prunes "
                              f"and merges nothing ({exc})") from exc
        raise


def _run_all(scn: Scenario) -> dict:
    started = time.perf_counter()
    spec = scn.pvf_spec()
    mu0 = scn.initial_measure()
    paths: dict[SchemeConfig, MeasurePath] = {}
    distinct: list[MeasurePath] = []

    def path_for(cfg: SchemeConfig) -> MeasurePath:
        if cfg not in paths:
            path = run_scheme(spec, mu0, cfg)
            paths[cfg] = next((p for p in distinct if _same_path(p, path)), path)
            if paths[cfg] is path:
                distinct.append(path)
        return paths[cfg]

    configs = {f"{scheme}_N{n}": SchemeConfig(scheme, scn.grid(i), scn.coalesce_tol,
                                              scn.prune_floor)
               for i, n in enumerate(scn.Ns) for scheme in scn.schemes}
    runs = [(tag, cfg, path_for(cfg)) for tag, cfg in configs.items()]
    # compare and converge use standard grids (dv = 1/N) and the default
    # housekeeping; the manifest notes each override they ignore
    converge = scn.converge and len(scn.Ns) >= 2
    standard = {scheme: [path_for(SchemeConfig(scheme, GridSpec(T=scn.T, N=n))) for n in scn.Ns]
                for scheme in (SCHEMES if scn.compare else scn.schemes if converge else ())}
    housekeeping = " and ".join(key for key in ("coalesce_tol", "prune_floor")
                                if getattr(scn, key) != getattr(SchemeConfig, key))
    notes: list[str] = []
    for kind in [kind for kind, ran in (("compare", scn.compare), ("converge", converge)) if ran]:
        if scn.dvs is not None:
            notes.append(f"{kind} uses standard grids; dv overrides ignored")
        if housekeeping:
            notes.append(f"{kind} uses the default {housekeeping}; overrides ignored")
    if scn.converge and not converge:
        notes.append("converge requested but only one N given; skipped")

    written: list[str] = []
    pruned: dict[str, float] = {}
    radii: dict[str, float] = {}
    with _staged(scn.outputs, written) as stage:

        def emit(name: str, writer, payload) -> None:
            writer(payload, os.path.join(stage, name))
            written.append(name)

        def report(stem: str, write_csv, to_json, table) -> None:
            emit(f"{stem}.csv", write_csv, table)
            emit(f"{stem}.json", artifacts.write_json, to_json(table))

        first: dict[int, tuple[str, list[str]]] = {}  # each distinct path's first run: tag, files
        for tag, cfg, path in runs:
            pruned[tag] = path.pruned_mass
            if id(path) in first:
                # every file of a run is named <kind>_<tag>.<ext>
                src, names = first[id(path)]
                radii[tag] = radii[src]
                for name in names:
                    emit(name.replace(f"_{src}.", f"_{tag}."), shutil.copyfile,
                         os.path.join(stage, name))
                continue
            start = len(written)
            radii[tag] = _radius(np.concatenate([mu.atoms for mu in path.measures]))
            emit(f"path_{tag}.csv", artifacts.write_path_csv, path)
            if scn.represent:
                ens = _represent(path, cfg, radii[tag])
                emit(f"trajectories_{tag}.json", artifacts.write_trajectories_json, ens)
            if scn.residual:
                report(f"residual_{tag}", artifacts.write_residual_csv, artifacts.residual_to_json,
                       residual(path, spec))
            first[id(path)] = (tag, written[start:])

        if scn.compare:
            for k, n in enumerate(scn.Ns):
                table = scheme_compare({tag: standard[tag][k] for tag in SCHEMES})
                report(f"comparison_N{n}", artifacts.write_comparison_csv,
                       artifacts.comparison_to_json, table)

        if converge:
            studies: dict[tuple[int, ...], ConvergenceTable] = {}
            for scheme in scn.schemes:
                sweep = standard[scheme]
                key = tuple(map(id, sweep))
                if key not in studies:
                    studies[key] = convergence_study(sweep, scheme)
                report(f"convergence_{scheme}", artifacts.write_convergence_csv,
                       artifacts.convergence_to_json, replace(studies[key], scheme=scheme))

        manifest = artifacts._document(
            "manifest",
            scenario=scenario_to_json(scn),
            artifacts=sorted(written),
            pruned_mass=pruned,
            support_radius=radii,
            notes=notes,
            wall_time_s=time.perf_counter() - started,
        )
        artifacts.write_json(manifest, os.path.join(stage, "manifest.json"))
    return manifest


@contextlib.contextmanager
def _staged(out: str, written: list[str]):
    """Yield a staging directory inside ``out``, creating ``out`` if need be.

    On a normal exit the staged files commit: the earlier manifest in
    ``out`` is removed, each file named in ``written`` moves into ``out``,
    then the manifest.  On any exit the staging directory is removed, and
    so are ``out`` and its ancestors that this call created, each while it
    is empty; a directory that was there before is kept.  An OSError is an
    IoError.  The directory sits inside ``out``, not beside it, so every
    move stays on one filesystem even when ``out`` is a mount point.
    """
    stage = os.path.join(out, f".stage.{os.getpid()}.tmp")
    created = []  # the directories makedirs will create, innermost first
    head = os.path.abspath(out)
    while not os.path.isdir(head):
        created.append(head)
        head = os.path.dirname(head)
    try:
        try:
            os.makedirs(stage, exist_ok=True)
            yield stage
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(out, "manifest.json"))
            for name in written + ["manifest.json"]:
                os.replace(os.path.join(stage, name), os.path.join(out, name))
        except OSError as exc:
            raise IoError(f"cannot write the run's files to {out!r}: {exc}") from exc
    finally:
        shutil.rmtree(stage, ignore_errors=True)
        with contextlib.suppress(OSError):
            for path in created:
                os.rmdir(path)  # empty only if the run failed before a file moved in
