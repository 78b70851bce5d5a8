"""Deterministic file artifacts: CSV tables and JSON documents.

Every float is written so that it reads back exactly: CSV writes 17
significant digits (%.17g), which round-trips exactly but is not always
the shortest form (0.1 is written 0.10000000000000001), and JSON writes
repr.  Rows follow canonical atom order, and newlines are fixed to "\\n",
so identical inputs produce byte-identical files on any platform.  All
OS failures surface as IoError.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Union

import numpy as np

from .errors import ConfigError, IoError
from .analysis import ComparisonTable, ConvergenceTable, ResidualReport
from .schemes import MeasurePath
from .superposition import TrajectoryEnsemble
from .transport import TransportPlan

PathLike = Union[str, os.PathLike]

SCHEMA = "mde-lab/1"


def fmt(x: float) -> str:
    """The double in 17 significant digits, which round-trips exactly.

    Not the shortest such string: 0.1 comes out as 0.10000000000000001.
    """
    return format(float(x), ".17g")


def _write_lines(file_path: PathLike, lines: Iterable[str]) -> None:
    try:
        with open(file_path, "w", encoding="utf-8", newline="\n") as fh:
            for line in lines:
                fh.write(line)
                fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {os.fspath(file_path)!r}: {exc}") from exc


def write_json(obj, file_path: PathLike) -> None:
    try:
        with open(file_path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {os.fspath(file_path)!r}: {exc}") from exc


def read_json(file_path: PathLike):
    try:
        with open(file_path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read {os.fspath(file_path)!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{os.fspath(file_path)}: invalid JSON ({exc})") from exc


# ---------------------------------------------------------------------------
# CSV tables
# ---------------------------------------------------------------------------

def write_path_csv(path: MeasurePath, file_path: PathLike) -> None:
    """One row per (node time, atom): t, coordinates, weight."""
    d = path.dim
    header = "t," + ",".join(f"x{i + 1}" for i in range(d)) + ",weight"

    def rows():
        yield header
        for t, mu in zip(path.times, path.measures):
            for atom, w in zip(mu.atoms, mu.weights):
                coords = ",".join(fmt(c) for c in atom)
                yield f"{fmt(t)},{coords},{fmt(w)}"

    _write_lines(file_path, rows())


def write_plan_csv(plan: TransportPlan, file_path: PathLike) -> None:
    """Sparse transport plan rows i,j,mass in row-major order."""

    def rows():
        yield "i,j,mass"
        for i, j, mass in plan.nonzeros():
            yield f"{i},{j},{fmt(mass)}"

    _write_lines(file_path, rows())


def write_residual_csv(report: ResidualReport, file_path: PathLike) -> None:
    """Long-form rows: test-function index, node time, defect."""

    def rows():
        yield "function,t,defect"
        for fi in range(report.nfunctions):
            for t, dval in zip(report.times, report.defects[fi]):
                yield f"{fi},{fmt(t)},{fmt(dval)}"

    _write_lines(file_path, rows())


def write_convergence_csv(table: ConvergenceTable, file_path: PathLike) -> None:
    """Plot-ready rows: N, error."""

    def rows():
        yield "N,error"
        for n, err in table.rows():
            yield f"{n},{fmt(err)}"

    _write_lines(file_path, rows())


def write_comparison_csv(table: ComparisonTable, file_path: PathLike) -> None:
    def rows():
        yield "scheme_a,scheme_b,gap"
        for a, b, gap in table.rows():
            yield f"{a},{b},{fmt(gap)}"

    _write_lines(file_path, rows())


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------

def residual_to_json(report: ResidualReport) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "residual",
        "dt": report.dt,
        "max_defect": report.max_defect,
        "family": report.family_description,
        "times": [float(t) for t in report.times],
        "defects": [[float(v) for v in row] for row in report.defects],
    }


def convergence_to_json(table: ConvergenceTable) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "convergence",
        "scheme": table.scheme,
        "T": table.T,
        "mode": table.mode,
        "Ns": list(table.Ns),
        "errors": list(table.errors),
    }


def comparison_to_json(table: ComparisonTable) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "comparison",
        "N": table.N,
        "T": table.T,
        "gaps": [
            {"scheme_a": a, "scheme_b": b, "gap": g} for a, b, g in table.rows()
        ],
    }


def trajectories_to_json(ens: TrajectoryEnsemble) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "trajectories",
        "times": [float(t) for t in ens.times],
        "curves": [
            {
                "weight": float(w),
                "knots": [[float(c) for c in knot] for knot in curve],
            }
            for w, curve in zip(ens.weights, ens.knots)
        ],
    }


def trajectories_from_json(obj: dict) -> TrajectoryEnsemble:
    try:
        times = np.asarray(obj["times"], dtype=float)
        curves = obj["curves"]
        weights = np.asarray([c["weight"] for c in curves], dtype=float)
        knots = np.asarray([c["knots"] for c in curves], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"trajectories document malformed: {exc}") from exc
    return TrajectoryEnsemble(times=times, weights=weights, knots=knots)


def write_trajectories_json(ens: TrajectoryEnsemble, file_path: PathLike) -> None:
    write_json(trajectories_to_json(ens), file_path)


def read_trajectories_json(file_path: PathLike) -> TrajectoryEnsemble:
    return trajectories_from_json(read_json(file_path))
