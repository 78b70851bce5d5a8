import json
import subprocess
import sys

import pytest

from mdelab.artifacts import read_json, write_json
from mdelab.cli import main
from mdelab.scenarios import get_scenario, scenario_to_json


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_names_builtins(capsys):
    code, out, err = run_cli(["list"], capsys)
    assert code == 0
    assert err == ""
    for name in ("binomial", "peano", "splitting-dirac"):
        assert name in out


def test_run_builtin_with_overrides(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, out, err = run_cli(
        ["run", "splitting-dirac", "--out", str(out_dir), "--n", "2", "--scheme", "las"],
        capsys,
    )
    assert code == 0
    assert f"splitting-dirac: wrote" in out and str(out_dir) in out
    manifest = read_json(out_dir / "manifest.json")
    assert manifest["scenario"]["N"] == [2]
    assert manifest["scenario"]["scheme"] == ["las"]
    # count in the status line includes the manifest itself
    assert f"wrote {len(manifest['artifacts']) + 1} files" in out


def test_scheme_all_expands(tmp_path, capsys):
    code, _, _ = run_cli(
        ["run", "splitting-dirac", "--out", str(tmp_path), "--n", "2", "--scheme", "all"],
        capsys,
    )
    assert code == 0
    manifest = read_json(tmp_path / "manifest.json")
    assert manifest["scenario"]["scheme"] == ["las", "lagrangian", "mean-velocity"]


def test_shorthand_commands_force_flags(tmp_path, capsys):
    code, _, _ = run_cli(
        ["residual", "splitting-dirac", "--out", str(tmp_path), "--n", "2", "--scheme", "las"],
        capsys,
    )
    assert code == 0
    manifest = read_json(tmp_path / "manifest.json")
    names = manifest["artifacts"]
    assert any(n.startswith("residual") for n in names)
    assert not any(n.startswith("comparison") for n in names)
    assert not any(n.startswith("trajectories") for n in names)
    scn = manifest["scenario"]
    assert scn["residual"] is True
    assert scn["compare"] is False and scn["represent"] is False


def test_compare_command_needs_two_schemes(tmp_path, capsys):
    code, _, _ = run_cli(
        ["compare", "splitting-dirac", "--out", str(tmp_path), "--n", "2"],
        capsys,
    )
    assert code == 0
    manifest = read_json(tmp_path / "manifest.json")
    assert "comparison_N2.csv" in manifest["artifacts"]


def test_converge_command(tmp_path, capsys):
    code, _, _ = run_cli(
        ["converge", "splitting-dirac", "--out", str(tmp_path), "--n", "2,4", "--scheme", "las"],
        capsys,
    )
    assert code == 0
    manifest = read_json(tmp_path / "manifest.json")
    assert "convergence_las.csv" in manifest["artifacts"]


def test_run_from_json_file(tmp_path, capsys):
    spec = scenario_to_json(get_scenario("splitting-dirac"))
    spec["name"] = "from-file"
    path = tmp_path / "scn.json"
    write_json(spec, path)
    code, out, _ = run_cli(
        ["run", str(path), "--out", str(tmp_path / "o"), "--n", "2", "--scheme", "las"],
        capsys,
    )
    assert code == 0
    assert "from-file:" in out


def test_missing_scenario_file(tmp_path, capsys):
    code, out, err = run_cli(["run", str(tmp_path / "nope.json")], capsys)
    assert code == 1
    assert "error:" in err and "nope.json" in err
    assert out == ""


def test_unknown_builtin_name(capsys):
    code, _, err = run_cli(["run", "no-such-scenario"], capsys)
    assert code == 2
    assert err.startswith("configuration error:")


@pytest.mark.parametrize(
    "content",
    [b"{}\n", b'{"name": "caf\xff"}\n', b"[" * 100000 + b"]" * 100000],
    ids=["empty-object", "non-utf8", "deep-nesting"],
)
def test_bad_scenario_file(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, _, err = run_cli(["run", str(path)], capsys)
    assert code == 2
    assert err.startswith("configuration error:")


def test_bad_grid_override(capsys):
    code, _, err = run_cli(["run", "splitting-dirac", "--n", "four"], capsys)
    assert code == 2
    assert "--n" in err


def test_repeated_grid_override_is_a_config_error(tmp_path, capsys):
    code, out, err = run_cli(["run", "splitting-dirac", "--out", str(tmp_path / "o"), "--n", "4,4"],
                             capsys)
    assert code == 2 and out == ""
    assert err.startswith("configuration error: N: a grid size is repeated")
    assert not (tmp_path / "o").exists()


def test_unwritable_output_dir(tmp_path, capsys):
    blocker = tmp_path / "file.txt"
    blocker.write_text("x")
    code, _, err = run_cli(
        ["run", "splitting-dirac", "--out", str(blocker / "sub"), "--n", "2", "--scheme", "las"],
        capsys,
    )
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "field, bad",
    [
        ("dv", {"dv": "abc"}),
        ("dv", {"dv": [0.0]}),
        ("coalesce_tol", {"coalesce_tol": "x"}),
        ("coalesce_tol", {"coalesce_tol": -1}),
        ("prune_floor", {"prune_floor": 0.5}),
        ("N", {"N": [4, 2], "converge": True}),
        ("N", {"N": [4, 4]}),
        ("N", {"N": [2, 2], "dv": [0.5, 0.25]}),
        ("scheme", {"scheme": ["las", "las"]}),
        ("N", {"N": [2.7]}),
        ("N", {"N": [True]}),
        ("T", {"T": float("inf")}),
        ("T", {"T": float("nan")}),
        ("pvf.field", {"pvf": {"kind": "graph", "field": ["peano"]}}),
        ("initial.atoms", {"initial": {"kind": "uniform_1d", "a": 0, "b": 1, "atoms": 2.5}}),
        ("initial.atoms", {"initial": {"kind": "uniform_1d", "a": 0, "b": 1, "atoms": True}}),
        ("initial.atoms", {"initial": {"kind": "uniform_1d", "a": 0, "b": 1, "atoms": "7"}}),
        ("initial.atoms", {"initial": {"kind": "uniform_1d", "a": 0, "b": 1, "atoms": 1000001}}),
        ("N", {"N": [1e12]}),
        ("N", {"N": [1000000]}),
        ("T", {"T": 1.7e308}),
    ],
)
def test_malformed_scenario_field_is_a_config_error(tmp_path, capsys, field, bad):
    spec = scenario_to_json(get_scenario("splitting-dirac"))
    spec.update(N=[2], scheme="las", outputs=str(tmp_path / "o"))
    spec.update(bad)
    path = tmp_path / "bad.json"
    write_json(spec, path)
    code, _, err = run_cli(["run", str(path)], capsys)
    assert code == 2
    assert err.startswith("configuration error:")
    assert field in err


@pytest.mark.parametrize(
    "bad",
    [
        {"initial": {"kind": "dirac", "point": [0.0, 0.0]}},
        {"pvf": {"kind": "constant_fiber", "omega": {"atoms": [[-1.0, 1.0]], "weights": [1.0]}}},
    ],
    ids=["splitting-2d", "fiber-2d-over-1d"],
)
def test_rule_and_measure_of_other_dimensions_are_a_config_error(tmp_path, capsys, bad):
    spec = scenario_to_json(get_scenario("splitting-dirac"))
    spec.update(N=[2], outputs=str(tmp_path / "o"))
    spec.update(bad)
    path = tmp_path / "dims.json"
    write_json(spec, path)
    code, out, err = run_cli(["run", str(path)], capsys)
    assert code == 2
    assert err.startswith("configuration error: pvf:")
    assert out == ""
    assert not (tmp_path / "o").exists()  # the failed run made no directory


@pytest.mark.parametrize(
    "where, bad",
    [
        ("initial.atom", {"initial": {"kind": "uniform_1d", "a": 0, "b": 1, "atom": 256}}),
        ("pvf.rate", {"pvf": {"kind": "splitting", "rate": 2}}),
        ("pvf.feild", {"pvf": {"kind": "graph", "field": "linear", "feild": "peano"}}),
        ("pvf.omega.atom", {"pvf": {"kind": "constant_fiber",
                                    "omega": {"atoms": [[1.0]], "weights": [1.0], "atom": 1}}}),
        ("initial.a", {"initial": {"kind": "uniform_1d", "a": True, "b": 1}}),
        ("initial.weights", {"initial": {"kind": "atoms", "atoms": [[0.0]], "weights": ["1"]}}),
    ],
)
def test_a_fragment_typo_or_a_non_number_is_a_config_error(tmp_path, capsys, where, bad):
    spec = scenario_to_json(get_scenario("splitting-dirac"))
    spec.update(N=[2], outputs=str(tmp_path / "o"))
    spec.update(bad)
    write_json(spec, tmp_path / "typo.json")
    code, out, err = run_cli(["run", str(tmp_path / "typo.json")], capsys)
    assert code == 2
    assert err.startswith(f"configuration error: {where}: ")
    assert out == ""
    assert not (tmp_path / "o").exists()


def test_failed_run_leaves_an_earlier_run_as_it_was(tmp_path, capsys):
    out = tmp_path / "d"
    spec = scenario_to_json(get_scenario("splitting-dirac"))
    spec.update(N=[2], scheme="las", outputs=str(out))
    write_json(spec, tmp_path / "good.json")
    assert run_cli(["run", str(tmp_path / "good.json")], capsys)[0] == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert "manifest.json" in before and "path_las_N2.csv" in before

    spec["initial"] = {"kind": "dirac", "point": [0.0, 0.0]}
    write_json(spec, tmp_path / "bad.json")
    code, _, err = run_cli(["run", str(tmp_path / "bad.json")], capsys)
    assert code == 2
    assert err.startswith("configuration error: pvf:")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize(
    "field, value",
    [("outputs", None), ("outputs", []), ("outputs", ""), ("outputs", 7),
     ("name", None), ("name", ""), ("name", ["x"]),
     ("T", True), ("T", "1"), ("coalesce_tol", False), ("prune_floor", "0"),
     ("dv", [True, True, True]), ("description", None), ("description", ["a"])],
    ids=["outputs-null", "outputs-list", "outputs-empty", "outputs-number",
         "name-null", "name-empty", "name-list",
         "T-true", "T-string", "coalesce_tol-false", "prune_floor-string",
         "dv-bools", "description-null", "description-list"],
)
def test_name_and_outputs_must_be_nonempty_strings(tmp_path, capsys, monkeypatch, field, value):
    monkeypatch.chdir(tmp_path)
    spec = scenario_to_json(get_scenario("splitting-dirac"))
    spec.update(N=[2], scheme="las", outputs="o")
    spec[field] = value
    write_json(spec, tmp_path / "bad.json")
    code, _, err = run_cli(["run", "bad.json"], capsys)
    assert code == 2
    assert err.startswith(f"configuration error: {field}: expected")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]  # no directory made


def test_empty_output_override_is_a_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(["run", "peano", "--out", ""], capsys)
    assert code == 2
    assert err.startswith("configuration error: outputs:")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("T, code", [(1e30, 2), (1e20, 0)])
def test_binomial_far_out_is_a_config_error_naming_T_or_runs(tmp_path, capsys, T, code):
    # at T = 1e30 a curve's endpoint misses its node atom by roundoff, since
    # floats there lie much farther apart than the absolute merge tolerance
    spec = scenario_to_json(get_scenario("binomial"))
    spec.update(T=T, outputs=str(tmp_path / "o"))
    path = tmp_path / "far.json"
    write_json(spec, path)
    got, out, err = run_cli(["run", str(path)], capsys)
    assert got == code
    if code == 2:
        assert err.startswith("configuration error: T:")
    else:
        assert err == "" and "binomial: wrote" in out


def test_far_out_run_leaves_an_earlier_run_as_it_was(tmp_path, capsys):
    # the curve bundles fail after the first files are written
    out = tmp_path / "d"
    spec = scenario_to_json(get_scenario("binomial"))
    spec.update(outputs=str(out))
    write_json(spec, tmp_path / "good.json")
    assert run_cli(["run", str(tmp_path / "good.json")], capsys)[0] == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(before) == 31 and "manifest.json" in before

    spec.update(T=1e30)
    write_json(spec, tmp_path / "far.json")
    code, _, err = run_cli(["run", str(tmp_path / "far.json")], capsys)
    assert code == 2 and err.startswith("configuration error: T:")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_a_misspelt_key_is_a_config_error_naming_it(tmp_path, capsys):
    spec = scenario_to_json(get_scenario("peano"))
    spec.update(residul=True, outputs=str(tmp_path / "o"))
    write_json(spec, tmp_path / "typo.json")
    code, out, err = run_cli(["run", str(tmp_path / "typo.json")], capsys)
    assert code == 2 and out == ""
    assert err.startswith("configuration error: residul: unknown key")
    assert "residual" in err  # the known keys are listed
    assert not (tmp_path / "o").exists()


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "mdelab", "list"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "binomial" in proc.stdout
