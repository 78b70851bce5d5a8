"""Self-test of the benchmark: corrupted results fail, tracing unwraps.

    python3 perfbench/selftest.py

Runs one genuine pass of every workload (seed 1).  Then, for each output
check, it replays the operation with a corrupted copy of its result
through the benchmark's own ``run_op`` and requires the operation to count
as failed.  An untouched copy must still pass, so the failure comes from
the corruption.  It also checks the tracer and that ``BENCHMARK.json``
names exactly the metrics the runs print.  Exits 0 when every case holds.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import sys
from dataclasses import replace

import run  # first: it pins the BLAS threads before numpy loads

import numpy as np

import tracing
from workloads import WORK_DIR, WORKLOADS


def edit_csv(files, name, row, col, value):
    """Copy of an artifact tree with one CSV cell replaced."""
    lines = files[name].decode().splitlines()
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    return {**files, name: ("\n".join(lines) + "\n").encode()}


def flip_byte(files, name):
    data = bytearray(files[name])
    data[len(data) // 2] ^= 0x01
    return {**files, name: bytes(data)}


def with_manifest(files, **changes):
    manifest = json.loads(files["manifest.json"])
    manifest.update(changes)
    return {**files, "manifest.json": json.dumps(manifest, indent=2, sort_keys=True).encode()}


def shifted(nodes, k, dx):
    nodes = copy.deepcopy(nodes)
    atoms = np.array(nodes[k][0])
    atoms[0, 0] += dx
    nodes[k] = (atoms, nodes[k][1])
    return nodes


def reweighted(pair, factor):
    atoms, weights = pair
    return atoms, np.asarray(weights) * factor


def bump(array, delta):
    out = np.array(array)
    out.flat[0] += delta
    return out


# op name prefix -> [(case, corruption of the digested data, should fail)]
CORRUPTIONS = {
    "run_scenario:splitting-dirac": [
        ("final las node moved", lambda f: edit_csv(f, "path_las_N64.csv", -1, 1, "1.5"), True),
        ("final lagrangian weight", lambda f: edit_csv(f, "path_lagrangian_N4.csv", -1, 2, "0.25"), True),
        ("comparison bytes", lambda f: flip_byte(f, "comparison_N16.csv"), True),
        ("only wall_time_s differs", lambda f: with_manifest(f, wall_time_s=123.0), False),
    ],
    "run_scenario:binomial": [
        ("las node weight", lambda f: edit_csv(f, "path_las_N8.csv", 3, 2, "0.375"), True),
        ("trajectory bytes", lambda f: flip_byte(f, "trajectories_las_N8.json"), True),
        ("manifest notes", lambda f: with_manifest(f, notes=["edited"]), True),
        ("artifact missing", lambda f: {k: v for k, v in f.items() if k != "convergence_las.csv"}, True),
    ],
    "run_scenario:splitting-uniform": [
        ("final atom moved", lambda f: edit_csv(f, "path_lagrangian_N64.csv", -1, 1, "2.5"), True),
        ("residual bytes", lambda f: flip_byte(f, "residual_lagrangian_N64.csv"), True),
    ],
    "run_scenario:uniform-fiber": [
        ("atom off the grid", lambda f: edit_csv(f, "path_las_N2.csv", -1, 1, "0.3"), True),
        ("comparison bytes", lambda f: flip_byte(f, "comparison_N2.csv"), True),
    ],
    "run_scenario:peano": [
        ("unit-grid position", lambda f: edit_csv(f, "path_las_N3.csv", -1, 1, "5"), True),
    ],
    "cli:run-binomial": [
        ("exit code", lambda d: (2, d[1], d[2]), True),
        ("las node weight", lambda d: (d[0], d[1], edit_csv(d[2], "path_las_N4.csv", 2, 2, "0.375")), True),
        ("comparison bytes", lambda d: (d[0], d[1], flip_byte(d[2], "comparison_N8.csv")), True),
    ],
    "w1_2d_lp": [
        ("below the projection bound", lambda w: -0.5, True),
        ("above the independent coupling", lambda w: w + 10.0, True),
    ],
    "w1_2d_line": [("LP off the quantile route", lambda r: (r[0] + 1e-7, r[1]), True)],
    "w1_1d_lp": [("LP off the quantile route", lambda r: (r[0], r[1] - 1e-7), True)],
    "lifted": [
        ("lifted below W1(base)", lambda r: (-0.1, r[1]), True),
        ("lifted above W1(base) + fiber", lambda r: (r[0] + r[1] + 1.0, r[1]), True),
        ("negative fiber pseudometric", lambda r: (r[0], -1e-3), True),
    ],
    "las:uniform-fiber": [
        ("atom off the grid", lambda n: shifted(n, 3, 0.5 / 36), True),
        ("mass not one", lambda n: n[:2] + [reweighted(n[2], 1.001)] + n[3:], True),
        ("atom dropped", lambda n: n[:2] + [(n[2][0][1:], n[2][1][1:] / n[2][1][1:].sum())] + n[3:], True),
    ],
    "las:binomial": [
        ("node weight", lambda n: n[:5] + [reweighted(n[5], 1.0 + 1e-6)] + n[6:], True),
        ("node moved", lambda n: shifted(n, 10, 0.01), True),
    ],
    "build_representation:binomial": [
        ("curve lost", lambda d: (d[0] - 1, d[1], d[2]), True),
        ("pushforward weight", lambda d: (d[0], d[1], bump(d[2], 1e-6)), True),
    ],
    "write_trajectories_json": [("empty file", lambda size: 0, True)],
    "read_trajectories_json": [
        ("knot changed", lambda d: (d[0], d[1], bump(d[2], 1e-12)), True),
        ("curve weight changed", lambda d: (d[0], bump(d[1], 1e-15), d[2]), True),
    ],
    "lagrangian:splitting-uniform": [
        ("final atom moved", lambda d: (bump(d[0], 1e-6), d[1]), True),
    ],
    "residual:splitting-uniform": [
        ("defect at t=0", lambda d: (bump(d[0], 1e-3), d[1]), True),
        ("not finite", lambda d: (bump(d[0], np.nan), d[1]), True),
        ("max_defect misreported", lambda d: (d[0], d[1] * 0.5), True),
    ],
}


def corruptions_for(name):
    for prefix, cases in CORRUPTIONS.items():
        if name == prefix or name.startswith(prefix + ":"):
            return cases
    return []


def check_workload(M, cls) -> list[str]:
    problems = []
    workload = cls(M, 1, 1)
    captured = {}
    for op in workload.pass_ops(0):
        def capture(raw, op=op):
            data = op.digest(raw)
            captured[op.name] = data
            return data

        record = run.run_op(replace(op, digest=capture), 0)
        if record.error is not None:
            problems.append(f"{cls.name}/{op.name}: genuine result failed: {record.error}")
            continue
        cases = corruptions_for(op.name)
        if not cases:
            problems.append(f"{cls.name}/{op.name}: no corrupted result is tried")
        for case, corrupt, should_fail in cases:
            data = corrupt(copy.deepcopy(captured[op.name]))
            bad = replace(op, before=None, run=lambda: None, digest=lambda _, data=data: data)
            failed = run.run_op(bad, 0).error is not None
            if failed != should_fail:
                problems.append(f"{cls.name}/{op.name}: '{case}' "
                                f"{'passed' if should_fail else 'failed'} its check")
        # the same operation replayed with its untouched result still passes
        good = replace(op, before=None, run=lambda: None,
                       digest=lambda _, data=copy.deepcopy(captured[op.name]): data)
        if run.run_op(good, 0).error is not None:
            problems.append(f"{cls.name}/{op.name}: replayed genuine result failed")
    raised = replace(op, before=None, run=lambda: 1 / 0)
    if run.run_op(raised, 0).error is None:
        problems.append(f"{cls.name}: an operation that raised did not count as failed")
    return problems


def check_tracer(M) -> list[str]:
    """Every binding of a wrapped function is wrapped, then restored."""
    problems = []
    bindings = {
        "canonical_support": ("mdelab.measures", "mdelab.superposition"),
        "w1_distance": ("mdelab.transport", "mdelab.analysis", "mdelab.superposition", "mdelab"),
        "read_json": ("mdelab.artifacts", "mdelab.cli"),
    }
    originals = {fn: getattr(sys.modules[mods[0]], fn) for fn, mods in bindings.items()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for fn, mods in bindings.items():
            for mod in mods:
                if getattr(sys.modules[mod], fn) is originals[fn]:
                    problems.append(f"{mod}.{fn} was not wrapped")
        mu, nu = M.dirac([0.0]), M.dirac([1.0])
        tracer.op = (0, 0)
        M.w1_distance(mu, nu)
        tracer.op = None
        M.w1_distance(mu, nu)  # outside an operation: no span
    finally:
        tracer.remove()
    for fn, mods in bindings.items():
        for mod in mods:
            if getattr(sys.modules[mod], fn) is not originals[fn]:
                problems.append(f"{mod}.{fn} was not restored")
    labels = [span[0] for span in tracer.spans]
    if labels != ["transport.w1_distance"]:
        problems.append(f"expected one w1_distance span, got {labels}")
    return problems


def check_benchmark_json() -> list[str]:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    names = [m["name"] for m in spec["per_layer"]]
    if names != [name for name, _ in tracing.metric_names()]:
        problems.append("BENCHMARK.json per_layer differs from tracing.metric_names()")
    e2e = [m["name"] for m in spec["end_to_end"]]
    records = [run.OpRecord("x", 1, 0.1 * i, 0.1 * i, 2 * run.REF_NOMINAL_S, None) for i in range(1, 12)]
    run.scale_to_reference(records)
    if not all(math.isclose(r.seconds, 0.05 * i) for i, r in enumerate(records, 1)):
        problems.append("scale_to_reference does not halve times on a host at half the speed")
    metrics, _ = run.end_to_end(records, 1.0)
    if sorted(e2e) != sorted(metrics):
        problems.append(f"BENCHMARK.json end_to_end {e2e} differs from {list(metrics)}")
    if {w["name"]: w["why"] for w in spec["workloads"]} != {n: c.why for n, c in WORKLOADS.items()}:
        problems.append("BENCHMARK.json workloads or their why differ from workloads.WORKLOADS")
    if run.tail([float(i) for i in range(1, 31)]) != (20.0, 100.0 * 20 / 30):
        problems.append("tail() does not leave ten operations beyond it")
    return problems


def main() -> int:
    os.chdir(run.ROOT)
    sys.dont_write_bytecode = True
    M = run.import_mdelab()
    problems = check_benchmark_json() + check_tracer(M)
    for cls in WORKLOADS.values():
        problems += check_workload(M, cls)
        print(f"{cls.name}: checked", flush=True)
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    for p in problems:
        print(f"SELFTEST FAIL {p}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
