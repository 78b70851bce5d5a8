import dataclasses
import math
import os
import re
import shutil
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mdelab.scenarios as sc
from mdelab import ConfigError, IoError, analysis, artifacts, quantile_uniform, superposition, transport
from mdelab.scenarios import (
    Scenario,
    get_scenario,
    initial_from_spec,
    list_scenarios,
    run_scenario,
    scenario_from_json,
    scenario_to_json,
)


def tiny_scenario(outputs, **kw):
    base = dict(
        name="tiny",
        pvf={"kind": "splitting"},
        initial={"kind": "dirac", "point": [0.0]},
        T=1.0,
        Ns=(2,),
        schemes=("las",),
        outputs=str(outputs),
    )
    base.update(kw)
    return Scenario(**base)


# ---------------------------------------------------------------------------
# initial measure specs
# ---------------------------------------------------------------------------

def test_initial_from_spec_kinds():
    d = initial_from_spec({"kind": "dirac", "point": [2.0]})
    assert d.atoms[0, 0] == 2.0
    assert initial_from_spec({"kind": "dirac", "point": [2]}) == d  # an int is a JSON number

    atoms = initial_from_spec(
        {"kind": "atoms", "atoms": [[0], [1.0]], "weights": [1, 3]}
    )
    assert np.array_equal(atoms.weights, [0.25, 0.75])

    uni = initial_from_spec({"kind": "uniform_1d", "a": 0.0, "b": 1.0})
    assert uni == quantile_uniform(0.0, 1.0, 64)  # default atom count

    uni8 = initial_from_spec({"kind": "uniform_1d", "a": -1.0, "b": 1.0, "atoms": 8})
    assert uni8.natoms == 8


def test_initial_from_spec_diagnostics():
    with pytest.raises(ConfigError, match="initial.point"):
        initial_from_spec({"kind": "dirac"})
    with pytest.raises(ConfigError, match="initial.weights"):
        initial_from_spec({"kind": "atoms", "atoms": [[0.0]]})
    with pytest.raises(ConfigError, match="initial.b"):
        initial_from_spec({"kind": "uniform_1d", "a": 0.0})
    with pytest.raises(ConfigError, match="unknown"):
        initial_from_spec({"kind": "gaussian"})
    with pytest.raises(ConfigError):
        initial_from_spec("dirac")


@pytest.mark.parametrize("frag, key, known", [
    ({"kind": "uniform_1d", "a": 0, "b": 1, "atom": 256}, "atom", "kind, a, b, atoms"),
    ({"kind": "atoms", "atoms": [[0.0]], "weights": [1.0], "weight": [1.0]}, "weight",
     "kind, atoms, weights"),
    ({"kind": "dirac", "point": [0.0], "a": 0}, "a", "kind, point"),
])
def test_a_measure_fragment_refuses_a_key_its_kind_does_not_take(frag, key, known):
    with pytest.raises(ConfigError, match=rf"^initial\.{key}: unknown key \(known: {known}\)$"):
        initial_from_spec(frag)


@pytest.mark.parametrize("frag, key, bad", [
    ({"kind": "uniform_1d", "a": True, "b": 1}, "a", True),
    ({"kind": "uniform_1d", "a": 0, "b": "1"}, "b", "1"),
    ({"kind": "uniform_1d", "a": [0], "b": 1}, "a", [0]),
    ({"kind": "uniform_1d", "a": None, "b": 1}, "a", None),
    ({"kind": "dirac", "point": ["0.5"]}, "point", "0.5"),
    ({"kind": "dirac", "point": [0.0, False]}, "point", False),
    ({"kind": "atoms", "atoms": [[0.0], [1.0]], "weights": [True, "1"]}, "weights", True),
    ({"kind": "atoms", "atoms": [[0.0], [True]], "weights": [1, 1]}, "atoms", True),
    ({"kind": "atoms", "atoms": [["0"]], "weights": [1]}, "atoms", "0"),
    ({"kind": "atoms", "atoms": [[0.0]], "weights": [{}]}, "weights", {}),
])
def test_a_measure_fragment_takes_json_numbers_only(frag, key, bad):
    with pytest.raises(ConfigError) as info:
        initial_from_spec(frag)
    assert str(info.value) == f"initial.{key}: expected a number, got {bad!r}"


# ---------------------------------------------------------------------------
# scenario data and JSON forms
# ---------------------------------------------------------------------------

def test_scenario_validation():
    with pytest.raises(ConfigError, match="T"):
        tiny_scenario("out", T=0.0)
    with pytest.raises(ConfigError, match="N"):
        tiny_scenario("out", Ns=())
    with pytest.raises(ConfigError, match="^scheme: need at least one scheme$"):
        tiny_scenario("out", schemes=())
    with pytest.raises(ConfigError, match="scheme"):
        tiny_scenario("out", schemes=("rk4",))
    with pytest.raises(ConfigError, match="dv"):
        tiny_scenario("out", dvs=(1.0, 0.5))
    # a repeated N or scheme would write the same file twice, whatever the dv
    with pytest.raises(ConfigError, match="^N: a grid size is repeated"):
        tiny_scenario("out", Ns=(4, 4))
    with pytest.raises(ConfigError, match="^N: a grid size is repeated"):
        tiny_scenario("out", Ns=(2, 4, 2), dvs=(0.5, 0.25, 0.125))
    with pytest.raises(ConfigError, match="^scheme: a scheme is repeated"):
        tiny_scenario("out", schemes=("las", "lagrangian", "las"))


@pytest.mark.parametrize("field, value, key", [
    ("dvs", 0.5, "dv"), ("Ns", 4, "N"), ("Ns", None, "N"), ("schemes", "las", "scheme"),
    ("dvs", "0.5", "dv"),
], ids=["dv-number", "N-number", "N-None", "scheme-string", "dv-string"])
def test_a_list_field_that_is_not_a_list_names_its_key(field, value, key):
    # scenario_from_json and the CLI normalize these fields; a Python
    # caller's value is checked as given
    with pytest.raises(ConfigError, match=f"^{key}: expected a list, got {value!r}$"):
        dataclasses.replace(get_scenario("peano"), **{field: value})


def test_scenario_deep_copies_config_dicts():
    pvf = {"kind": "splitting"}
    scn = tiny_scenario("out")
    pvf["kind"] = "mutated"
    assert scn.pvf["kind"] == "splitting"


def round_trip_scenario(name):
    if name == "tiny":
        return tiny_scenario("out/x", Ns=(3, 6), dvs=(1.0, 0.5),
                             schemes=("las", "lagrangian"), residual=True, compare=True)
    if name == "peano-ints":
        return dataclasses.replace(get_scenario("peano"), T=3, coalesce_tol=0, prune_floor=0)
    return get_scenario(name)


@pytest.mark.parametrize("name", ["tiny", "peano-ints"] + sorted(sc._BUILTINS))
def test_scenario_json_round_trip(name):
    """A scenario's JSON text is a fixed point of one more read and write,
    so a manifest re-run writes the manifest it was read from."""
    scn = round_trip_scenario(name)
    text = artifacts._json_text(scenario_to_json(scn))
    again = scenario_from_json(scenario_to_json(scn))
    assert again == scn
    assert artifacts._json_text(scenario_to_json(again)) == text


def test_every_field_round_trips_through_json():
    """Every field is set away from its default, so a field that the JSON
    form drops, or maps to no key, comes back changed."""
    scn = Scenario(
        name="all-fields", pvf={"kind": "graph", "field": "peano"},
        initial={"kind": "dirac", "point": [-1.0]}, T=2.0, Ns=(2, 4),
        schemes=("lagrangian", "las"), dvs=(0.5, 0.25), residual=True,
        converge=True, compare=True, represent=True, coalesce_tol=1e-9,
        prune_floor=1e-12, outputs="o/all", description="every field set",
    )
    for f in dataclasses.fields(Scenario):
        assert getattr(scn, f.name) != f.default, f.name
    obj = scenario_to_json(scn)
    assert len(obj) == 1 + len(dataclasses.fields(Scenario))  # "schema" and one key per field
    assert scenario_from_json(obj) == scn


def test_scenario_from_json_forms():
    base = {
        "name": "t",
        "pvf": {"kind": "splitting"},
        "initial": {"kind": "dirac", "point": [0.0]},
        "T": 1.0,
        "N": 4,
        "scheme": "all",
    }
    scn = scenario_from_json(base)
    assert scn.Ns == (4,)
    assert scn.schemes == ("las", "lagrangian", "mean-velocity")

    scn2 = scenario_from_json({**base, "N": [2, 4], "scheme": "las", "dv": 0.5})
    assert scn2.Ns == (2, 4)
    assert scn2.dvs == (0.5, 0.5)  # scalar broadcast


def test_scenario_from_json_diagnostics():
    with pytest.raises(ConfigError):
        scenario_from_json({})
    with pytest.raises(ConfigError, match="^scenario: expected a JSON object$"):
        scenario_from_json([1, 2])
    with pytest.raises(ConfigError, match="schema"):
        scenario_from_json({"schema": "mde-lab/999"})
    good = scenario_to_json(tiny_scenario("out"))
    with pytest.raises(ConfigError, match="N"):
        scenario_from_json({**good, "N": "four"})
    with pytest.raises(ConfigError, match="residual"):
        scenario_from_json({**good, "residual": "yes"})
    with pytest.raises(ConfigError, match="scheme"):
        scenario_from_json({**good, "scheme": 3})
    # a field's own name is not its JSON key
    with pytest.raises(ConfigError, match="^Ns: unknown key"):
        scenario_from_json({**good, "Ns": [2]})


def field_paths(obj: dict) -> list[tuple[str, ...]]:
    """Every top-level field, and every field of pvf, initial and pvf.omega."""
    paths = [(key,) for key in obj]
    paths += [("pvf", key) for key in obj["pvf"]]
    paths += [("initial", key) for key in obj["initial"]]
    paths += [("pvf", "omega", key) for key in obj["pvf"].get("omega", {})]
    return paths


BUILTIN_FIELDS = [
    (name, path)
    for name in sorted(sc._BUILTINS)
    for path in field_paths(scenario_to_json(get_scenario(name)))
]

# bounded numbers, so that no fuzzed uniform_1d asks for a huge array
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-64, 64),
    st.floats(-64.0, 64.0),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.text(max_size=6),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=9,
)


@settings(max_examples=400)
@given(st.sampled_from(BUILTIN_FIELDS), json_values)
@example(("peano", ("pvf", "field")), ["peano"])
def test_fuzzed_scenario_field_parses_or_names_the_field(target, value):
    name, path = target
    obj = scenario_to_json(get_scenario(name))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    try:
        scn = scenario_from_json(obj)
        scn.pvf_spec()
        scn.initial_measure()
    except ConfigError as exc:
        assert path[0] in str(exc)


# ---------------------------------------------------------------------------
# built-ins
# ---------------------------------------------------------------------------

def test_builtin_listing():
    names = [name for name, _ in list_scenarios()]
    assert sorted(names) == [
        "binomial",
        "peano",
        "splitting-dirac",
        "splitting-uniform",
        "uniform-fiber",
    ]


def test_every_builtin_writes_to_out_slash_its_name():
    for name, _ in list_scenarios():
        assert get_scenario(name).outputs == os.path.join("out", name)


def test_get_scenario_unknown():
    with pytest.raises(ConfigError, match="unknown scenario"):
        get_scenario("does-not-exist")


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def test_run_scenario_artifacts_and_manifest(tmp_path):
    scn = tiny_scenario(tmp_path / "o", residual=True, represent=True, compare=True)
    manifest = run_scenario(scn)
    files = set(manifest["artifacts"])
    assert "path_las_N2.csv" in files
    assert "trajectories_las_N2.json" in files
    assert "residual_las_N2.csv" in files
    assert "comparison_N2.csv" in files
    assert manifest["schema"] == "mde-lab/1"
    assert manifest["kind"] == "manifest"
    assert manifest["wall_time_s"] >= 0.0
    for name in files:
        assert (tmp_path / "o" / name).is_file()
    assert (tmp_path / "o" / "manifest.json").is_file()


def test_a_far_start_that_nothing_moves_is_no_overflow(tmp_path):
    # the manifest's support radius squared 1e200, so the run failed with
    # the ConfigError naming T, though no atom moved
    scn = tiny_scenario(tmp_path / "o", pvf={"kind": "graph", "field": "zero"},
                        initial={"kind": "dirac", "point": [1e200]}, schemes=tuple(sc.SCHEMES),
                        residual=True, represent=True)
    manifest = run_scenario(scn)
    assert manifest["support_radius"] == {f"{s}_N2": 1e200 for s in sc.SCHEMES}
    assert manifest["pruned_mass"] == {f"{s}_N2": 0.0 for s in sc.SCHEMES}


def test_run_scenario_convergence_needs_two_grids(tmp_path):
    one = tiny_scenario(tmp_path / "a", converge=True)
    m1 = run_scenario(one)
    assert not any(n.startswith("convergence") for n in m1["artifacts"])
    assert any("only one N" in note for note in m1["notes"])

    two = tiny_scenario(tmp_path / "b", Ns=(2, 4), converge=True)
    m2 = run_scenario(two)
    assert "convergence_las.csv" in m2["artifacts"]


def test_run_scenario_determinism_and_manifest_round_trip(tmp_path):
    scn = tiny_scenario(tmp_path / "r1", Ns=(2, 4), compare=True, represent=True)
    manifest = run_scenario(scn)

    echoed = scenario_from_json(manifest["scenario"])
    rerun = dataclasses.replace(echoed, outputs=str(tmp_path / "r2"))
    manifest2 = run_scenario(rerun)

    assert manifest["artifacts"] == manifest2["artifacts"]
    for name in manifest["artifacts"]:
        a = (tmp_path / "r1" / name).read_bytes()
        b = (tmp_path / "r2" / name).read_bytes()
        assert a == b, name
    # manifests agree except for the wall clock and output location
    trimmed = {k: v for k, v in manifest.items() if k != "wall_time_s"}
    trimmed2 = {k: v for k, v in manifest2.items() if k != "wall_time_s"}
    trimmed["scenario"] = {k: v for k, v in trimmed["scenario"].items() if k != "outputs"}
    trimmed2["scenario"] = {k: v for k, v in trimmed2["scenario"].items() if k != "outputs"}
    assert trimmed == trimmed2


def test_run_scenario_unwritable_output(tmp_path):
    blocker = tmp_path / "file.txt"
    blocker.write_text("x")
    scn = tiny_scenario(blocker / "sub")
    with pytest.raises(IoError):
        run_scenario(scn)


def count_runs(monkeypatch, scn):
    """Run ``scn``; return the number of run_scheme calls and distinct configs."""
    calls = []
    real = sc.run_scheme

    def counting(spec, mu0, cfg):
        calls.append(cfg)
        return real(spec, mu0, cfg)

    # patch every module that holds the function, not just the runner's
    for name, mod in list(sys.modules.items()):
        if name.startswith("mdelab") and getattr(mod, "run_scheme", None) is real:
            monkeypatch.setattr(mod, "run_scheme", counting)
    run_scenario(scn)
    return len(calls), len(set(calls))


@pytest.mark.parametrize(
    "name, expected",
    [
        ("splitting-dirac", 9),
        ("binomial", 9),
        ("uniform-fiber", 6),
        ("splitting-uniform", 1),
        ("peano", 3),
    ],
)
def test_run_scenario_runs_each_configuration_once(tmp_path, monkeypatch, name, expected):
    scn = dataclasses.replace(get_scenario(name), outputs=str(tmp_path))
    assert count_runs(monkeypatch, scn) == (expected, expected)


def test_run_scenario_takes_each_distinct_path_s_support_radius_once(tmp_path, monkeypatch):
    # binomial's 9 tags hold 6 distinct paths: a tag that shares an earlier
    # tag's path shares its radius too, and the manifest still names every tag
    scn = dataclasses.replace(get_scenario("binomial"), outputs=str(tmp_path))
    calls = []
    radius = sc._radius
    monkeypatch.setattr(sc, "_radius", lambda atoms: calls.append(atoms) or radius(atoms))
    manifest = run_scenario(scn)
    assert len(calls) == 6 and len(manifest["support_radius"]) == 9


def test_run_scenario_dv_override_still_compares_standard_grids(tmp_path, monkeypatch):
    # the las main run uses dv = 0.25, not the standard 1/2, so compare
    # needs its own standard-grid run of every scheme
    scn = tiny_scenario(tmp_path, dvs=(0.25,), compare=True)
    assert count_runs(monkeypatch, scn) == (4, 4)
    assert (tmp_path / "comparison_N2.csv").is_file()
    manifest = artifacts.read_json(tmp_path / "manifest.json")
    assert manifest["notes"] == ["compare uses standard grids; dv overrides ignored"]


def test_run_scenario_dv_override_converges_on_standard_grids(tmp_path):
    # the built-in peano run sets dv for each N; a convergence study reads
    # the standard grids, and the manifest says so
    scn = dataclasses.replace(get_scenario("peano"), outputs=str(tmp_path), converge=True)
    manifest = run_scenario(scn)
    assert manifest["notes"] == ["converge uses standard grids; dv overrides ignored"]
    assert manifest == artifacts.read_json(tmp_path / "manifest.json")


def test_compare_and_converge_note_the_housekeeping_they_ignore(tmp_path):
    # the binomial runs merge at coalesce_tol; compare and converge run the
    # standard grids with the default housekeeping, and the manifest says so
    scn = dataclasses.replace(get_scenario("binomial"), outputs=str(tmp_path), represent=False,
                              coalesce_tol=0.3)
    assert run_scenario(scn)["notes"] == [
        "compare uses the default coalesce_tol; overrides ignored",
        "converge uses the default coalesce_tol; overrides ignored",
    ]
    scn = tiny_scenario(tmp_path / "o", dvs=(0.25,), compare=True, prune_floor=1e-9)
    assert run_scenario(scn)["notes"] == [
        "compare uses standard grids; dv overrides ignored",
        "compare uses the default prune_floor; overrides ignored",
    ]


def test_represent_after_a_prune_is_a_config_error_naming_prune_floor(tmp_path):
    # the lagrangian run drops the two light atoms at node 3, so a curve
    # ends where no atom is; nothing is written
    scn = Scenario(
        name="pruned",
        pvf={"kind": "constant_fiber",
             "omega": {"atoms": [[-1.0], [0.0], [1.0]], "weights": [0.001, 0.998, 0.001]}},
        initial={"kind": "dirac", "point": [0.0]},
        T=1.0, Ns=(4,), schemes=("lagrangian",), represent=True, prune_floor=1e-6,
        outputs=str(tmp_path / "o"),
    )
    with pytest.raises(ConfigError, match="^prune_floor: "):
        run_scenario(scn)
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# shared work: runs whose paths are equal bit for bit share one path object
# ---------------------------------------------------------------------------

# the constant fiber 1/4 (d_{+-e1} + d_{+-e2}) from d_0: under las and
# lagrangian every node is the multinomial law, bit for bit
WALK = scenario_from_json({
    "name": "walk-2d",
    "pvf": {"kind": "constant_fiber", "omega": {
        "kind": "atoms", "atoms": [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
        "weights": [0.25] * 4}},
    "initial": {"kind": "dirac", "point": [0.0, 0.0]},
    "T": 1.0, "N": [4, 8, 16], "scheme": "all", "compare": True, "converge": True,
})


def seeded_scenario(seed: int) -> Scenario:
    """A 1-D constant fiber of three off-grid velocities from three atoms,
    every report on: no two schemes give one path."""
    rng = np.random.default_rng(seed)
    return scenario_from_json({
        "name": f"seeded-{seed}",
        "pvf": {"kind": "constant_fiber", "omega": {
            "kind": "atoms", "atoms": rng.uniform(-1, 1, (3, 1)).tolist(),
            "weights": rng.uniform(0.5, 1.5, 3).tolist()}},
        "initial": {"kind": "atoms", "atoms": rng.uniform(-1, 1, (3, 1)).tolist(),
                    "weights": rng.uniform(0.5, 1.5, 3).tolist()},
        "T": 1.0, "N": [2, 4], "scheme": "all",
        "compare": True, "converge": True, "represent": True, "residual": True,
    })


def count_calls(scn, *fns) -> list[int]:
    """Run ``scn``; the number of calls to each of ``fns``, counted in every
    mdelab module that holds the function.  An entry may be a pair (fn,
    size) instead, and then each call counts ``size(*args)``."""
    counts = [0] * len(fns)

    def counting(i, fn, size):
        def wrapper(*args, **kwargs):
            counts[i] += size(*args)
            return fn(*args, **kwargs)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for i, entry in enumerate(fns):
            fn, size = entry if isinstance(entry, tuple) else (entry, lambda *args: 1)
            wrapper = counting(i, fn, size)
            for name, mod in list(sys.modules.items()):
                if name.startswith("mdelab"):
                    for attr in [a for a, v in vars(mod).items() if v is fn]:
                        mp.setattr(mod, attr, wrapper)
        run_scenario(scn)
    return counts


@pytest.mark.parametrize(
    "name, expected",
    [
        # node pairs swept for W1, curve bundles and residuals; unshared,
        # splitting-dirac sweeps 261 node pairs and binomial 75 node pairs
        # and builds 9 bundles
        ("splitting-dirac", [87, 0, 0]),
        ("binomial", [33, 6, 0]),
        # no two schemes give one path: as unshared
        ("uniform-fiber", [15, 0, 0]),
        ("peano", [0, 3, 0]),
        ("splitting-uniform", [0, 0, 1]),
    ],
)
def test_shared_paths_share_their_work(tmp_path, name, expected):
    scn = dataclasses.replace(get_scenario(name), outputs=str(tmp_path))
    pairs = (transport._w1_sweep, lambda ms, ns: len(ms))
    fns = (pairs, superposition.build_representation, analysis.residual)
    # the memos live for one call: a second run in the process repeats the work
    assert [count_calls(scn, *fns) for _ in range(2)] == [expected] * 2


def test_the_walk_makes_half_the_lp_solves(tmp_path):
    # unshared, the walk at N = (4, 8, 16) makes 80 solves: las and lagrangian
    # each solve the same converge and compare pairs
    scn = dataclasses.replace(WALK, outputs=str(tmp_path))
    assert count_calls(scn, transport._simplex) == [40]


def artifact_bytes(scn, out) -> dict[str, bytes]:
    """Every file a run of ``scn`` writes into ``out``, the manifest's wall time
    dropped; ``out`` is removed after."""
    run_scenario(dataclasses.replace(scn, outputs=str(out)))
    files = {path.name: path.read_bytes() for path in out.iterdir()}
    files["manifest.json"] = re.sub(rb'"wall_time_s": [^\n]*\n', b"", files["manifest.json"])
    shutil.rmtree(out)
    return files


@pytest.mark.parametrize(
    "scn, shares",
    [(get_scenario(name), name in ("splitting-dirac", "binomial")) for name in sorted(sc._BUILTINS)]
    + [(WALK, True)]
    + [(seeded_scenario(seed), False) for seed in range(3)],
    ids=lambda x: x.name if isinstance(x, Scenario) else None,
)
def test_a_shared_run_writes_the_artifacts_of_an_unshared_one(tmp_path, monkeypatch, scn, shares):
    hits = []
    same_path = sc._same_path

    def recording(a, b):
        hits.append(same_path(a, b))
        return hits[-1]

    monkeypatch.setattr(sc, "_same_path", recording)
    shared = artifact_bytes(scn, tmp_path / "out")
    assert any(hits) == shares
    monkeypatch.setattr(sc, "_same_path", lambda a, b: False)  # every path its own
    assert artifact_bytes(scn, tmp_path / "out") == shared


def changed(path, field: str, k: int, attr: str):
    """A copy of ``path`` whose ``field[k]`` (a node or a lift) has the first
    entry of its ``attr`` array moved 1 ulp up."""
    items = list(getattr(path, field))
    names = ("atoms", "weights") if field == "measures" else ("positions", "velocities", "weights")
    arrays = [getattr(items[k], name).copy() for name in names]
    a = arrays[names.index(attr)]
    a.flat[0] = np.nextafter(a.flat[0], np.inf)
    items[k] = object.__new__(type(items[k]))
    items[k]._set(*arrays)
    return dataclasses.replace(path, **{field: tuple(items)})


def test_a_path_copy_that_differs_in_one_array_is_not_shared():
    scn = get_scenario("binomial")
    cfg = sc.SchemeConfig("lagrangian", sc.GridSpec(T=1.0, N=4))
    path = sc.run_scheme(scn.pvf_spec(), scn.initial_measure(), cfg)
    copy = sc.run_scheme(scn.pvf_spec(), scn.initial_measure(), cfg)
    assert copy is not path
    assert sc._same_path(copy, path)
    others = [
        changed(path, "interp", 2, "weights"),  # a lift's weight, 1 ulp up
        changed(path, "measures", 2, "weights"),  # a node's weight
        dataclasses.replace(path, pruned_mass=np.nextafter(path.pruned_mass, 1.0)),
        changed(path, "measures", 2, "atoms"),  # a node moved by 1 ulp, lifts equal
        changed(path, "interp", 2, "positions"),
        changed(path, "interp", 2, "velocities"),
    ]
    for other in others:
        assert not sc._same_path(other, path) and not sc._same_path(path, other)


def test_the_same_bytes_in_another_shape_are_not_shared():
    # a 2-atom measure on the line and a 1-atom one in the plane: their
    # atoms hold the same bytes, and nothing moves, so every lift does too
    cfg = sc.SchemeConfig("lagrangian", sc.GridSpec(T=1.0, N=1))
    zero = sc.pvf_from_json({"kind": "graph", "field": "zero"})
    line = sc.run_scheme(zero, quantile_uniform(-0.5, 1.5, 2), cfg)
    plane = sc.run_scheme(zero, sc.DiscreteMeasure([[0.0, 1.0]], [1.0]), cfg)
    assert line.measures[0].atoms.tobytes() == plane.measures[0].atoms.tobytes()
    assert line.interp[0].positions.tobytes() == plane.interp[0].positions.tobytes()
    assert not sc._same_path(line, plane) and not sc._same_path(plane, line)


def test_the_memos_live_for_one_call(tmp_path):
    """A run, a failed one included, leaves no module-level state behind."""
    def state():
        return {(name, attr): len(value)
                for name, mod in list(sys.modules.items()) if name.startswith("mdelab")
                for attr, value in vars(mod).items() if isinstance(value, (dict, list, set))}

    # lagrangian's files are copied from las's; the run fails on mean-velocity's first file
    scn = dataclasses.replace(get_scenario("binomial"), Ns=(2,),
                              schemes=("las", "mean-velocity", "lagrangian"))
    clean = artifact_bytes(scn, tmp_path / "out")
    before = state()
    writes = []
    real = sc.artifacts._write_text

    def failing(text, file_path):
        writes.append(file_path)
        if len(writes) == 3:
            raise IoError("disk full")
        return real(text, file_path)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sc.artifacts, "_write_text", failing)
        with pytest.raises(IoError):
            run_scenario(dataclasses.replace(scn, outputs=str(tmp_path / "failed")))
    assert writes[-1].endswith("path_mean-velocity_N2.csv")
    assert state() == before
    assert artifact_bytes(scn, tmp_path / "out") == clean
