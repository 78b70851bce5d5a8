"""Command-line entry point: run scenarios and emit CSV/JSON artifacts.

Commands:
  run <scenario>        execute a scenario as configured
  list                  show available scenario names
  compare <scenario>    run with only the scheme-comparison report
  converge <scenario>   run with only the convergence report
  represent <scenario>  run with only trajectory-ensemble output
  residual <scenario>   run with only the weak-residual report

<scenario> is a JSON file path or a built-in name.  Flags --out, --n and
--scheme override the scenario's directory, grid sizes and scheme list.
Exit codes: 0 success, 1 runtime/IO failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import Optional, Sequence

from .errors import ConfigError, IoError, MdeLabError
from .schemes import SCHEMES
from .scenarios import (
    Scenario,
    get_scenario,
    list_scenarios,
    run_scenario,
    scenario_from_json,
)
from .artifacts import read_json

_FLAG_COMMANDS = ("compare", "converge", "represent", "residual")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdelab",
        description="measure-evolution laboratory: run scenarios, emit artifacts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_command(name: str, helptext: str):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("scenario", help="JSON file path or built-in name")
        p.add_argument("--out", help="output directory override")
        p.add_argument(
            "--n",
            help="comma-separated grid sizes, e.g. 4,16,64 (uses standard dv)",
        )
        p.add_argument(
            "--scheme",
            choices=list(SCHEMES) + ["all"],
            help="scheme override",
        )
        return p

    add_scenario_command("run", "execute a scenario as configured")
    for name in _FLAG_COMMANDS:
        add_scenario_command(name, f"run with only the {name} output enabled")
    sub.add_parser("list", help="list available scenarios")
    return parser


def _load_scenario(ref: str) -> Scenario:
    if os.path.exists(ref):
        return scenario_from_json(read_json(ref))
    if ref.endswith(".json"):
        raise IoError(f"scenario file not found: {ref!r}")
    return get_scenario(ref)


def _apply_overrides(scn: Scenario, args: argparse.Namespace) -> Scenario:
    changes = {}
    if args.out is not None:
        changes["outputs"] = args.out
    if args.n is not None:
        try:
            ns = tuple(int(part) for part in args.n.split(",") if part != "")
        except ValueError as exc:
            raise ConfigError(f"--n: {exc}") from exc
        if not ns:
            raise ConfigError("--n: need at least one grid size")
        changes["Ns"] = ns
        changes["dvs"] = None
    if args.scheme is not None:
        changes["schemes"] = tuple(SCHEMES) if args.scheme == "all" else (args.scheme,)
    if args.command in _FLAG_COMMANDS:
        flags = {name: name == args.command for name in _FLAG_COMMANDS}
        changes.update(flags)
    return replace(scn, **changes) if changes else scn


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            for name, desc in list_scenarios():
                print(f"{name}: {desc}" if desc else name)
            return 0
        scn = _apply_overrides(_load_scenario(args.scenario), args)
        manifest = run_scenario(scn)
        nfiles = len(manifest["artifacts"]) + 1
        print(f"{scn.name}: wrote {nfiles} files to {scn.outputs}")
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except MdeLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
