import dataclasses
import errno
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

import mdelab.scenarios as sc
import oracles
from mdelab import (
    ComparisonTable,
    ConfigError,
    ConvergenceTable,
    ConstantFiberPvf,
    GridSpec,
    IoError,
    LAS,
    LiftedMeasure,
    MeasurePath,
    ResidualReport,
    SCHEMES,
    SchemeConfig,
    SplittingParticlePvf,
    build_representation,
    convergence_study,
    dirac,
    get_scenario,
    make_measure,
    residual,
    run_scheme,
    run_scenario,
    scheme_compare,
    TrajectoryEnsemble,
    TransportPlan,
    w1_plan,
)
from mdelab import artifacts
from mdelab.artifacts import (
    SCHEMA,
    comparison_to_json,
    convergence_to_json,
    read_json,
    read_trajectories_json,
    residual_to_json,
    trajectories_from_json,
    write_comparison_csv,
    write_convergence_csv,
    write_json,
    write_path_csv,
    write_plan_csv,
    write_residual_csv,
    write_trajectories_json,
)

SPLIT = SplittingParticlePvf()
BINOMIAL = ConstantFiberPvf(make_measure([[-1.0], [1.0]], [0.5, 0.5]))


def cfg(scheme, N, T=1.0):
    return SchemeConfig(scheme=scheme, grid=GridSpec(T=T, N=N))


def las_path(N=4, T=1.0):
    return run_scheme(SPLIT, dirac(0.0), cfg(LAS, N, T))


def all_schemes(spec, N):
    return {tag: run_scheme(spec, dirac(0.0), cfg(tag, N)) for tag in SCHEMES}


def test_fmt_round_trips_floats():
    for x in (0.1, 1 / 3, -1.0, 0.0, 2.0**-40, 6.02e23, np.pi, 5e-324):
        assert float(artifacts._F % x) == x


def test_write_json_is_sorted_and_newline_terminated(tmp_path):
    p = tmp_path / "a.json"
    write_json({"b": 1, "a": [1.5, 2]}, p)
    text = p.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert read_json(p) == {"a": [1.5, 2], "b": 1}


def test_read_json_errors(tmp_path):
    with pytest.raises(IoError):
        read_json(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError):
        read_json(bad)


def test_write_into_directory_raises_io_error(tmp_path):
    with pytest.raises(IoError):
        write_json({}, tmp_path)  # a directory, not a file


def test_path_csv_layout(tmp_path):
    path = las_path(N=2)
    p = tmp_path / "path.csv"
    write_path_csv(path, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "t,x1,weight"
    assert len(lines) == 1 + sum(mu.natoms for mu in path.measures)
    # parse back the node at t=1: atoms -1, 1 with weights 1/2
    last = [ln.split(",") for ln in lines[1:] if float(ln.split(",")[0]) == 1.0]
    assert [float(r[1]) for r in last] == [-1.0, 1.0]
    assert [float(r[2]) for r in last] == [0.5, 0.5]


def test_path_csv_2d_header(tmp_path):
    from mdelab import GraphPvf, LAGRANGIAN

    mu0 = make_measure([[0.0, 1.0]], [1.0])
    path = run_scheme(
        GraphPvf(lambda x: 0.0 * x),
        mu0,
        SchemeConfig(scheme=LAGRANGIAN, grid=GridSpec(T=1.0, N=2)),
    )
    p = tmp_path / "path2.csv"
    write_path_csv(path, p)
    assert p.read_text().splitlines()[0] == "t,x1,x2,weight"


def test_plan_csv_matches_nonzeros(tmp_path):
    mu = make_measure([[0.0], [2.0]], [0.5, 0.5])
    nu = make_measure([[1.0]], [1.0])
    plan, _ = w1_plan(mu, nu)
    p = tmp_path / "plan.csv"
    write_plan_csv(plan, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "i,j,mass"
    rows = [ln.split(",") for ln in lines[1:]]
    got = [(int(i), int(j), float(m)) for i, j, m in rows]
    assert got == list(plan.nonzeros())


def test_residual_csv_and_json(tmp_path):
    report = residual(las_path(N=2), SPLIT)
    p = tmp_path / "res.csv"
    write_residual_csv(report, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "function,t,defect"
    assert len(lines) == 1 + report.defects.size

    from mdelab.artifacts import residual_to_json

    obj = residual_to_json(report)
    assert obj["schema"] == SCHEMA
    assert obj["kind"] == "residual"
    assert np.asarray(obj["defects"]).shape == report.defects.shape


def test_convergence_csv_and_json(tmp_path):
    paths = [run_scheme(BINOMIAL, dirac(0.0), cfg(LAS, n)) for n in (2, 4)]
    table = convergence_study(paths, LAS, reference=lambda t: dirac(0.0))
    p = tmp_path / "conv.csv"
    write_convergence_csv(table, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "N,error"
    assert [int(ln.split(",")[0]) for ln in lines[1:]] == [2, 4]

    from mdelab.artifacts import convergence_to_json

    obj = convergence_to_json(table)
    assert obj["schema"] == SCHEMA
    assert obj["kind"] == "convergence"
    assert obj["mode"] == "reference"


def test_comparison_csv_and_json(tmp_path):
    table = scheme_compare(all_schemes(SPLIT, N=2))
    p = tmp_path / "cmp.csv"
    write_comparison_csv(table, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "scheme_a,scheme_b,gap"
    assert len(lines) == 4

    from mdelab.artifacts import comparison_to_json

    obj = comparison_to_json(table)
    assert obj["schema"] == SCHEMA
    assert obj["kind"] == "comparison"


def test_trajectories_json_round_trip(tmp_path):
    ens = build_representation(las_path(N=2))
    obj = oracles.trajectories_doc(SCHEMA, ens.times, ens.weights, ens.knots)
    assert obj["schema"] == SCHEMA and obj["kind"] == "trajectories"
    back = trajectories_from_json(obj)
    assert np.array_equal(back.times, ens.times)
    assert np.array_equal(back.knots, ens.knots)
    assert np.array_equal(back.weights, ens.weights)

    p = tmp_path / "traj.json"
    write_trajectories_json(ens, p)
    disk = read_trajectories_json(p)
    assert np.array_equal(disk.knots, ens.knots)


def test_trajectories_from_json_diagnostics():
    with pytest.raises(ConfigError):
        trajectories_from_json({"kind": "trajectories"})
    with pytest.raises(ConfigError):
        trajectories_from_json({"times": [0.0, 1.0], "curves": "nope"})
    with pytest.raises(ConfigError):
        trajectories_from_json(
            {"times": [0.0, 1.0], "curves": [{"weight": 1.0}]}
        )


@pytest.mark.parametrize("doc", [
    {"times": [0.0, 1.0], "curves": [{"weight": 1.0, "knots": [[0.0], [1.0], [2.0]]}]},
    {"times": [1.0, 0.0], "curves": [{"weight": 1.0, "knots": [[0.0], [1.0]]}]},
    {"times": [0.0, 1.0], "curves": []},
    {"times": [0.0, 1.0], "curves": [{"weight": -1.0, "knots": [[0.0], [1.0]]},
                                     {"weight": 2.0, "knots": [[1.0], [1.0]]}]},
    {"times": [0.0, 1.0], "curves": [{"weight": True, "knots": [[0.0], [1.0]]}]},
    {"times": [0.0, 1.0], "curves": [{"weight": [1.0], "knots": [[0.0], [1.0]]}]},
    {"times": [[0, 1]], "curves": [{"weight": 1.0, "knots": [[0.0], [1.0]]}]},
    {"times": [0.0, 1.0], "curves": [{"weight": 1.0, "knots": [[0.0], [False]]}]},
    {"times": [0.0, 1.0], "curves": [{"weight": 1.0, "knots": [[0.0], ["1"]]}]},
    {"times": [0.0, 1.0], "curves": [{"weight": 1.0, "knots": [[0.0], [1.0, 2.0]]}]},
    {"times": [0.0, 1.0], "curves": [{"weight": 1.0, "knots": [0.0, 1.0]}]},
    {"times": [0.0, 1.0], "curves": [{"weight": 0.5, "knots": [[0.0], [1.0]]},
                                     {"weight": 0.5, "knots": [[0.0, 1.0], [1.0, 2.0]]}]},
    {"times": [0.0, 10**400], "curves": [{"weight": 1.0, "knots": [[0.0], [1.0]]}]},
], ids=["knots-per-time", "decreasing-times", "no-curves", "negative-weight", "bool-weight",
        "list-weight", "nested-times", "bool-knot", "string-knot", "ragged-knots",
        "flat-knots", "mixed-dims", "huge-int"])
def test_a_malformed_trajectories_document_is_a_config_error(doc):
    with pytest.raises(ConfigError, match="trajectories document malformed"):
        trajectories_from_json(doc)


def test_a_trajectories_document_may_hold_json_integers():
    ens = trajectories_from_json(
        {"times": [0, 1], "curves": [{"weight": 1, "knots": [[0, 2], [1, -3]]}]})
    assert ens.times.tolist() == [0.0, 1.0] and ens.weights.tolist() == [1.0]
    assert ens.knots.tolist() == [[[0.0, 2.0], [1.0, -3.0]]]


def test_artifact_writes_are_deterministic(tmp_path):
    path = las_path(N=3)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_path_csv(path, a)
    write_path_csv(path, b)
    assert a.read_bytes() == b.read_bytes()

    ja, jb = tmp_path / "a.json", tmp_path / "b.json"
    ens = build_representation(path)
    write_trajectories_json(ens, ja)
    write_trajectories_json(ens, jb)
    assert ja.read_bytes() == jb.read_bytes()


def test_json_list_values_round_trip_exactly(tmp_path):
    table = scheme_compare(all_schemes(BINOMIAL, N=3))
    from mdelab.artifacts import comparison_to_json

    p = tmp_path / "cmp.json"
    write_json(comparison_to_json(table), p)
    again = json.loads(p.read_text())
    assert tuple(entry["gap"] for entry in again["gaps"]) == table.gaps


# ---------------------------------------------------------------------------
# whole-table formatting against the per-value writers
# ---------------------------------------------------------------------------

# signed zeros, the smallest subnormal, a decimal with no short binary
# form, the ends of the range and integral floats
EDGE = [-0.0, 0.0, 5e-324, -5e-324, 0.1, -0.1, 1e308, -1e308, 1.0, 2.0, -3.0, 1e16, 1 / 3]
csv_floats = st.sampled_from(EDGE) | st.floats(allow_nan=False, allow_infinity=False)
json_floats = st.sampled_from(EDGE + [math.nan, math.inf, -math.inf]) | st.floats()
steps = st.sampled_from([0.1, 1.0, 2.0, 1 / 3]) | st.floats(1e-3, 10.0)


@st.composite
def measure_paths(draw, dim):
    times = np.cumsum([0.0] + draw(st.lists(steps, min_size=1, max_size=3)))
    measures = []
    for _ in times:
        n = draw(st.integers(1, 5))
        atoms = draw(st.lists(st.lists(csv_floats, min_size=dim, max_size=dim),
                              min_size=n, max_size=n))
        weights = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
        measures.append(make_measure(atoms, weights))
    interp = [LiftedMeasure(mu.atoms, np.zeros_like(mu.atoms), mu.weights) for mu in measures]
    return MeasurePath(times, tuple(measures), tuple(interp[:-1]))


def float_arrays(elements, shape):
    return st.lists(elements, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))).map(
        lambda v: np.array(v, dtype=float).reshape(shape))


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    """One directory for a whole hypothesis test: each example overwrites its file."""
    return tmp_path_factory.mktemp("artifacts")


def written(writer, payload, out_dir) -> bytes:
    p = out_dir / "artifact"
    writer(payload, p)
    return p.read_bytes()


def test_csv_text_joins_cells_and_writes_an_empty_table_as_its_header():
    assert artifacts._csv_text("i,mass", [[], np.array([])]) == "i,mass\n"
    text = artifacts._csv_text("i,name,mass", [[0, 12], ["las", "lagrangian"], np.array([0.5, -0.0])])
    assert text == "i,name,mass\n0,las,0.5\n12,lagrangian,-0\n"


@pytest.mark.parametrize("dim", [1, 2])
@given(data=st.data())
def test_path_csv_matches_per_value_writer(dim, data, out_dir):
    path = data.draw(measure_paths(dim))
    expected = oracles.path_csv_text(path.times, [(mu.atoms, mu.weights) for mu in path.measures])
    assert written(write_path_csv, path, out_dir) == expected.encode()


@given(data=st.data())
def test_plan_csv_matches_per_value_writer(data, out_dir):
    shape = data.draw(st.tuples(st.integers(1, 5), st.integers(1, 5)))
    masses = st.sampled_from([0.0, -0.0, 5e-324, 0.1, 1e308, 2.0, 1 / 3]) | st.floats(0.0, 1e308)
    plan = TransportPlan(data.draw(float_arrays(masses, shape)))
    assert written(write_plan_csv, plan, out_dir) == oracles.plan_csv_text(plan.mass).encode()


@given(data=st.data())
def test_residual_csv_and_json_match_per_value_writers(data, out_dir):
    nf, nt = data.draw(st.tuples(st.integers(1, 4), st.integers(1, 6)))
    report = ResidualReport(
        times=data.draw(float_arrays(json_floats, (nt,))),
        defects=data.draw(float_arrays(json_floats, (nf, nt))),
        max_defect=data.draw(json_floats.map(np.float64)),
        dt=data.draw(json_floats),
        family_description=data.draw(st.text(max_size=8)),
    )
    expected = oracles.residual_csv_text(report.times, report.defects)
    assert written(write_residual_csv, report, out_dir) == expected.encode()
    doc = residual_to_json(report)
    assert written(write_json, doc, out_dir) == oracles.json_text(doc).encode()


@given(data=st.data())
def test_convergence_csv_and_json_match_per_value_writers(data, out_dir):
    n = data.draw(st.integers(0, 5))
    table = ConvergenceTable(
        scheme=data.draw(st.text(max_size=8)),
        T=data.draw(json_floats),
        Ns=tuple(data.draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n))),
        errors=tuple(data.draw(st.lists(json_floats | json_floats.map(np.float64),
                                        min_size=n, max_size=n))),
        mode=data.draw(st.sampled_from(["reference", "successive"])),
    )
    assert written(write_convergence_csv, table, out_dir) == (
        oracles.convergence_csv_text(table.rows()).encode())
    doc = convergence_to_json(table)
    assert written(write_json, doc, out_dir) == oracles.json_text(doc).encode()


@given(data=st.data())
def test_comparison_csv_and_json_match_per_value_writers(data, out_dir):
    n = data.draw(st.integers(0, 4))
    names = st.text(max_size=6)
    table = ComparisonTable(
        N=data.draw(st.integers(1, 1000)),
        T=data.draw(json_floats | json_floats.map(np.float64)),
        pairs=tuple(data.draw(st.lists(st.tuples(names, names), min_size=n, max_size=n))),
        gaps=tuple(data.draw(st.lists(json_floats | json_floats.map(np.float64),
                                      min_size=n, max_size=n))),
    )
    assert written(write_comparison_csv, table, out_dir) == (
        oracles.comparison_csv_text(table.rows()).encode())
    doc = comparison_to_json(table)
    assert written(write_json, doc, out_dir) == oracles.json_text(doc).encode()


@given(data=st.data())
def test_trajectories_json_matches_per_value_writer(data, out_dir):
    ncurves, nt, d = data.draw(st.tuples(st.integers(1, 4), st.integers(2, 4), st.integers(1, 2)))
    ens = TrajectoryEnsemble(
        times=np.cumsum([0.0] + data.draw(st.lists(steps, min_size=nt - 1, max_size=nt - 1))),
        weights=data.draw(float_arrays(st.floats(0.01, 1.0), (ncurves,))),
        knots=data.draw(float_arrays(csv_floats, (ncurves, nt, d))),
    )
    doc = oracles.trajectories_doc(SCHEMA, ens.times, ens.weights, ens.knots)
    assert written(write_trajectories_json, ens, out_dir) == oracles.json_text(doc).encode()
    back = read_trajectories_json(out_dir / "artifact")
    for name in ("times", "weights", "knots"):
        assert np.array_equal(getattr(back, name), getattr(ens, name))


json_scalars = (st.none() | st.booleans() | st.integers() | json_floats
                | json_floats.map(np.float64) | st.text(max_size=6))
json_float_lists = (
    st.lists(json_floats, max_size=5)
    | st.integers(1, 3).flatmap(lambda m: st.lists(
        st.lists(json_floats, min_size=m, max_size=m), min_size=1, max_size=4))
    | st.lists(st.lists(json_floats, max_size=3), max_size=4)
    | st.lists(json_floats, max_size=4).map(tuple)
)
# lists of records such as the curves of a trajectories document; their
# shapes differ across records only now and then
json_records = st.lists(st.fixed_dictionaries({
    "knots": st.lists(st.lists(json_floats, min_size=1, max_size=2), min_size=1, max_size=3),
    "weight": json_floats | json_floats.map(np.float64),
    "%": json_floats,
}), min_size=1, max_size=4)
json_values = st.recursive(
    json_scalars | json_float_lists | json_records,
    lambda kids: st.lists(kids, max_size=4) | st.one_of(
        [st.dictionaries(keys, kids, max_size=4)
         for keys in (st.text(max_size=5), st.integers(-3, 3), json_floats)]),
    max_leaves=12,
)


@given(obj=json_values)
def test_write_json_matches_json_dump(obj, out_dir):
    assert written(write_json, obj, out_dir) == oracles.json_text(obj).encode()


def test_manifest_matches_json_dump(tmp_path):
    scn = dataclasses.replace(get_scenario("peano"), outputs=str(tmp_path / "peano"))
    manifest = run_scenario(scn)
    assert (tmp_path / "peano" / "manifest.json").read_text() == oracles.json_text(manifest)


def test_write_json_rejects_what_json_rejects(tmp_path):
    for obj in ({"a": np.int64(3)}, [np.arange(2.0)], {(1, 2): 2.0}):
        with pytest.raises(TypeError):
            write_json(obj, tmp_path / "x.json")
    assert os.listdir(tmp_path) == []


class _NoList(np.ndarray):
    """An array whose ``tolist`` refuses: nested lists are not on the write path."""

    def tolist(self):
        raise AssertionError("tolist on the write path")


def test_writers_format_whole_arrays(tmp_path, monkeypatch):
    """A curve bundle is written from its arrays: no stdlib encoder, no
    nested lists and no document of per-curve dicts."""
    ens = build_representation(run_scheme(BINOMIAL, dirac(0.0), cfg(LAS, 10)))
    assert ens.ncurves == 1024
    expected_text = oracles.json_text(
        oracles.trajectories_doc(SCHEMA, ens.times, ens.weights, ens.knots))

    def refuse(*args, **kwargs):
        raise AssertionError("per-value formatting on the write path")

    with monkeypatch.context() as bundle_only:
        bundle_only.setattr(json.JSONEncoder, "iterencode", refuse)
        for name in ("times", "weights", "knots"):
            object.__setattr__(ens, name, getattr(ens, name).view(_NoList))
        with pytest.raises(AssertionError):
            ens.knots.ravel().tolist()
        with pytest.raises(AssertionError):
            json.dumps([1.0], indent=2)
        write_trajectories_json(ens, tmp_path / "bundle.json")
    assert (tmp_path / "bundle.json").read_text() == expected_text


# ---------------------------------------------------------------------------
# all-or-nothing writes
# ---------------------------------------------------------------------------

class _FullDisk:
    """``open`` whose k-th file takes half of its text and then fails as a full disk does."""

    def __init__(self, k: int):
        self.k = k
        self.opened = 0

    def __call__(self, file, *args, **kwargs):
        fh = open(file, *args, **kwargs)
        self.opened += 1
        return _HalfWritten(fh) if self.opened == self.k + 1 else fh


class _HalfWritten:
    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def tree(path) -> dict[str, bytes]:
    """Every entry of the directory ``path``, by name: a file's bytes, or
    None for a directory."""
    return {p.name: None if p.is_dir() else p.read_bytes() for p in path.iterdir()}


def test_failed_write_in_a_run_leaves_only_whole_files(tmp_path, monkeypatch):
    """The k-th write of a run fails, for every k: a fresh target is not
    made, and an earlier run's tree is left byte for byte, manifest included."""
    base = dataclasses.replace(
        get_scenario("binomial"), Ns=(2, 4), schemes=(LAS,), compare=False, residual=True,
    )
    clean = tmp_path / "clean"
    run_scenario(dataclasses.replace(base, outputs=str(clean)))
    whole = tree(clean)
    assert len(whole) == 11 and "manifest.json" in whole

    # the earlier run shares some file names with the failing one, not all
    earlier = tmp_path / "earlier"
    run_scenario(dataclasses.replace(get_scenario("binomial"), Ns=(2, 4), T=2.0,
                                     outputs=str(earlier)))
    before = tree(earlier)
    assert "path_las_N2.csv" in before and "residual_las_N2.csv" not in before
    for k in range(len(whole)):
        for out in (tmp_path / f"fresh{k}", earlier):
            monkeypatch.setattr(artifacts, "open", _FullDisk(k), raising=False)
            with pytest.raises(IoError):
                run_scenario(dataclasses.replace(base, outputs=str(out)))
            monkeypatch.undo()
        assert not (tmp_path / f"fresh{k}").exists()
        assert tree(earlier) == before


class Boom(Exception):
    pass


@pytest.mark.parametrize("stage", ["_represent", "residual", "scheme_compare", "convergence_study"])
def test_a_run_that_fails_in_any_stage_leaves_the_target_as_it_was(tmp_path, monkeypatch, stage):
    scn = dataclasses.replace(get_scenario("binomial"), Ns=(2, 4), residual=True)
    earlier = tmp_path / "d"
    run_scenario(dataclasses.replace(scn, outputs=str(earlier)))
    before = tree(earlier)
    calls = []
    real = getattr(sc, stage)

    def failing(*args):
        calls.append(stage)
        if len(calls) == 2:  # after the first call's files are staged
            raise Boom(stage)
        return real(*args)

    monkeypatch.setattr(sc, stage, failing)
    for out in (earlier, tmp_path / "fresh"):
        calls.clear()
        with pytest.raises(Boom):
            run_scenario(dataclasses.replace(scn, T=2.0, outputs=str(out)))
    assert tree(earlier) == before
    assert not (tmp_path / "fresh").exists()


def test_a_run_keeps_files_it_does_not_write(tmp_path):
    out = tmp_path / "d"
    out.mkdir()
    (out / "notes.txt").write_text("mine")
    stale = out / f".stage.{os.getpid()}.tmp"  # left by a killed run with this pid
    stale.mkdir()
    (stale / "path_las_N9.csv").write_text("stale")
    manifest = run_scenario(dataclasses.replace(get_scenario("peano"), outputs=str(out)))
    assert sorted(tree(out)) == sorted(manifest["artifacts"] + ["manifest.json", "notes.txt"])
    assert (out / "notes.txt").read_text() == "mine"


def test_a_failed_run_removes_only_the_directories_it_made(tmp_path, monkeypatch):
    # binomial's curve bundles fail at T = 1e30, after the first files are staged
    scn = dataclasses.replace(get_scenario("binomial"), T=1e30)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigError):
        run_scenario(dataclasses.replace(scn, outputs=os.path.join("a", "b", "d")))
    assert os.listdir(tmp_path) == []
    (tmp_path / "a").mkdir()  # an empty directory that was there before
    with pytest.raises(ConfigError):
        run_scenario(dataclasses.replace(scn, outputs=str(tmp_path / "a" / "b" / "d")))
    assert os.listdir(tmp_path) == ["a"] and os.listdir(tmp_path / "a") == []


def test_failed_write_leaves_no_temporary_file(tmp_path):
    target = tmp_path / "target"
    target.mkdir()
    with pytest.raises(IoError):
        write_json({}, target)
    assert os.listdir(tmp_path) == ["target"] and os.listdir(target) == []
