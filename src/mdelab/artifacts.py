"""Deterministic file artifacts: CSV tables and JSON documents.

Every float is written so that it reads back exactly: CSV writes 17
significant digits (``_F``, %.17g), which round-trips exactly but is
not always the shortest form (0.1 is written 0.10000000000000001), and
JSON writes repr.  Rows follow canonical atom order, and newlines are
fixed to "\\n", so identical inputs produce byte-identical files on any
platform.

A CSV is formatted as one string from whole arrays, and each distinct
float in it is formatted once (runs repeat their node times, lattice
sites and weights), by one ``%`` over a template that holds a ``%s`` per
distinct float; the cells of each row are joined with ",".  A JSON
document is ``json.dumps(obj, indent=2, sort_keys=True)`` plus a final
newline, and every document's ``schema`` and ``kind`` header comes from
``_document``.  The one exception is the trajectories document, whose curve
bundle can hold thousands of curves: ``write_trajectories_json`` writes
the same text from one template over the bundle's arrays, with no nested
lists and no dict per curve.

Each write is all or nothing.  The finished text goes to a temporary file
beside the target (``.<name>.<pid>.tmp``), which ``os.replace`` then renames
over it, so a reader sees the old file or the new one, never a partial
one.  On any OSError the temporary file is removed and IoError is raised.
There is no fsync: the rename guards against a failed or killed process,
not against a power cut.  ``scenarios.run_scenario`` makes a whole run of
files all or nothing in the same way: it writes them into a staging
directory and moves them in only once every one is there.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
from typing import Union

import numpy as np

from .errors import ConfigError, IoError, MdeLabError
from .analysis import ComparisonTable, ConvergenceTable, ResidualReport
from .schemes import MeasurePath
from .superposition import TrajectoryEnsemble
from .transport import TransportPlan

PathLike = Union[str, os.PathLike]

SCHEMA = "mde-lab/1"

# The CSV float format, applied once to each distinct float of a file:
# 17 significant digits, which round-trip exactly.
_F = "%.17g"


def _write_text(text: str, file_path: PathLike) -> None:
    """Write ``text`` to a temporary file beside ``file_path``, then rename it there."""
    path = os.fspath(file_path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        try:
            with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise
    except OSError as exc:
        raise IoError(f"cannot write {path!r}: {exc}") from exc


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_json(obj, file_path: PathLike) -> None:
    """``obj`` as indented JSON with sorted keys."""
    _write_text(_json_text(obj), file_path)


def read_json(file_path: PathLike):
    try:
        with open(file_path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read {os.fspath(file_path)!r}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"{os.fspath(file_path)}: invalid JSON ({exc})") from exc


# ---------------------------------------------------------------------------
# whole-array formatting
# ---------------------------------------------------------------------------

def _float_texts(values, template: str) -> list:
    """``template % v`` for each float of ``values``, each distinct value formatted once.

    Runs repeat their values: node times, lattice sites, equal weights.  The
    path CSVs of the five built-ins hold 52,548 floats, of which 1,744 are
    distinct within their file.  Values are told apart by their bits, so
    -0.0 and 0.0 keep their own text.
    """
    bits, inverse = np.unique(np.asarray(values, dtype=float).ravel().view(np.int64),
                              return_inverse=True)
    distinct = bits.view(float).tolist()
    texts = ((template + "\n") * len(distinct) % tuple(distinct)).split("\n")[:-1]
    return np.array(texts, dtype=object)[inverse].tolist()


def _float_template(shape: tuple[int, ...], nl: str) -> str:
    """The indented text of a float array of ``shape``, one ``%s`` per float."""
    inner = nl + "  "
    item = "%s" if len(shape) == 1 else _float_template(shape[1:], inner)
    return "[" + inner + ("," + inner).join([item] * shape[0]) + nl + "]"


def _csv_text(header: str, columns: list) -> str:
    """The header line, then one line per row of ``columns``, cells joined by commas.

    A float array column is written in ``_F``, the CSV float format; any other
    column is a list written with str().
    """
    cells = [_float_texts(c, _F) if isinstance(c, np.ndarray) else map(str, c) for c in columns]
    return "\n".join([header, *map(",".join, zip(*cells))]) + "\n"


# ---------------------------------------------------------------------------
# CSV tables
# ---------------------------------------------------------------------------

def write_path_csv(path: MeasurePath, file_path: PathLike) -> None:
    """One row per (node time, atom): t, coordinates, weight."""
    header = "t," + ",".join(f"x{i + 1}" for i in range(path.dim)) + ",weight"
    times = np.repeat(path.times, [mu.natoms for mu in path.measures])
    atoms = np.concatenate([mu.atoms for mu in path.measures])
    weights = np.concatenate([mu.weights for mu in path.measures])
    _write_text(_csv_text(header, [times, *atoms.T, weights]), file_path)


def write_plan_csv(plan: TransportPlan, file_path: PathLike) -> None:
    """Sparse transport plan rows i,j,mass in row-major order."""
    rows, cols = np.nonzero(plan.mass > 0)
    columns = [rows.tolist(), cols.tolist(), plan.mass[rows, cols]]
    _write_text(_csv_text("i,j,mass", columns), file_path)


def write_residual_csv(report: ResidualReport, file_path: PathLike) -> None:
    """Long-form rows: test-function index, node time, defect."""
    nf, nt = report.defects.shape
    columns = [np.repeat(np.arange(nf), nt).tolist(), np.tile(report.times, nf),
               report.defects.ravel()]
    _write_text(_csv_text("function,t,defect", columns), file_path)


def write_convergence_csv(table: ConvergenceTable, file_path: PathLike) -> None:
    """Plot-ready rows: N, error."""
    columns = [list(table.Ns), np.array(table.errors, dtype=float)]
    _write_text(_csv_text("N,error", columns), file_path)


def write_comparison_csv(table: ComparisonTable, file_path: PathLike) -> None:
    """One row per scheme pair: scheme_a, scheme_b, gap."""
    columns = [[a for a, _ in table.pairs], [b for _, b in table.pairs],
               np.array(table.gaps, dtype=float)]
    _write_text(_csv_text("scheme_a,scheme_b,gap", columns), file_path)


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------

def _document(kind: str, **fields) -> dict:
    """A JSON document of ``kind``: the schema and kind header, then ``fields``."""
    return {"schema": SCHEMA, "kind": kind, **fields}


def residual_to_json(report: ResidualReport) -> dict:
    return _document(
        "residual",
        dt=report.dt,
        max_defect=report.max_defect,
        family=report.family_description,
        times=report.times.tolist(),
        defects=report.defects.tolist(),
    )


def convergence_to_json(table: ConvergenceTable) -> dict:
    return _document(
        "convergence",
        scheme=table.scheme,
        T=table.T,
        mode=table.mode,
        Ns=list(table.Ns),
        errors=list(table.errors),
    )


def comparison_to_json(table: ComparisonTable) -> dict:
    return _document(
        "comparison",
        N=table.N,
        T=table.T,
        gaps=[{"scheme_a": a, "scheme_b": b, "gap": g} for a, b, g in table.rows()],
    )


def trajectories_from_json(obj: dict) -> TrajectoryEnsemble:
    """The ensemble of a trajectories document; every number in it is a
    JSON number, an int or a float (not a bool)."""
    try:
        curves = obj["curves"]
        times = _json_floats(obj["times"], "times", 1)
        weights = _json_floats([c["weight"] for c in curves], "weight", 1)
        knots = _json_floats([c["knots"] for c in curves], "knots", 3)
        return TrajectoryEnsemble(times=times, weights=weights, knots=knots)
    except (KeyError, TypeError, ValueError, OverflowError, MdeLabError) as exc:
        raise ConfigError(f"trajectories document malformed: {exc}") from exc


def _json_floats(items, what: str, ndim: int) -> np.ndarray:
    """Nested JSON lists of numbers, ``ndim`` deep and rectangular, as a
    float array, from one ``np.fromiter``."""
    level, shape = [items], []
    for _ in range(ndim):
        lengths = set(map(len, level))  # a number where a list belongs is a TypeError
        if len(lengths) > 1:
            raise ValueError(f"{what}: lists of unequal lengths")
        shape.append(lengths.pop() if lengths else 0)
        level = list(itertools.chain.from_iterable(level))
    if set(map(type, level)) - {int, float}:
        raise TypeError(f"{what}: expected numbers")
    return np.fromiter(level, float, len(level)).reshape(shape)


def write_trajectories_json(ens: TrajectoryEnsemble, file_path: PathLike) -> None:
    """The trajectories document of ``ens``, formatted from one template
    over the bundle's arrays.

    The document is ``{"curves", "kind", "schema", "times"}``, with kind
    ``"trajectories"``, the node times, and one ``{"knots", "weight"}``
    per curve, its knots one position list per node time.  Its text is
    what ``write_json`` writes: keys sorted, indent 2, a final newline.
    The ensemble's floats are finite, so repr is their JSON text, and no
    user text enters the template, so it needs no ``%`` escaping.
    """
    n, nt, d = ens.knots.shape
    curve = ('{\n      "knots": ' + _float_template((nt, d), "\n      ")
             + ',\n      "weight": %s\n    }')
    template = ('{\n  "curves": [\n    ' + ",\n    ".join([curve] * n)
                + '\n  ],\n  "kind": "trajectories",\n  "schema": ' + json.dumps(SCHEMA)
                + ',\n  "times": ' + _float_template((nt,), "\n  ") + "\n}\n")
    values = np.concatenate([np.hstack([ens.knots.reshape(n, -1), ens.weights[:, None]]).ravel(),
                             ens.times])
    _write_text(template % tuple(_float_texts(values, "%r")), file_path)


def read_trajectories_json(file_path: PathLike) -> TrajectoryEnsemble:
    return trajectories_from_json(read_json(file_path))
