import json

import numpy as np
import pytest

from mdelab import (
    ConfigError,
    ConstantFiberPvf,
    GridSpec,
    IoError,
    LAS,
    SCHEMES,
    SchemeConfig,
    SplittingParticlePvf,
    build_representation,
    convergence_study,
    dirac,
    las_run,
    make_measure,
    residual,
    run_scheme,
    scheme_compare,
    w1_plan,
)
from mdelab.artifacts import (
    SCHEMA,
    fmt,
    read_json,
    read_trajectories_json,
    trajectories_from_json,
    trajectories_to_json,
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
    return las_run(SPLIT, dirac(0.0), cfg(LAS, N, T))


def all_schemes(spec, N):
    return {tag: run_scheme(spec, dirac(0.0), cfg(tag, N)) for tag in SCHEMES}


def test_fmt_round_trips_floats():
    for x in (0.1, 1 / 3, -1.0, 0.0, 2.0**-40, 6.02e23, np.pi, 5e-324):
        assert float(fmt(x)) == x


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
    from mdelab import GraphPvf, lagrangian_run, LAGRANGIAN

    mu0 = make_measure([[0.0, 1.0]], [1.0])
    path = lagrangian_run(
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
    paths = [las_run(BINOMIAL, dirac(0.0), cfg(LAS, n)) for n in (2, 4)]
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
    obj = trajectories_to_json(ens)
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
