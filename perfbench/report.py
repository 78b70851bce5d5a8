"""Every metric of every workload, timed and traced, in one table.

    python3 perfbench/report.py --seed 1

Runs ``run.py`` once per workload of ``BENCHMARK.json`` with ``--trace 0``
and once with ``--trace 1``, for that file's ``run_seconds``, each in a
process of its own (``peak_rss_mb`` is per process), one after the other.
Prints every metric by name with its unit, ``failed_frac`` per workload,
and whether the traced runs confirm the predictions that README.md lists
as checkable.  Exits 1 when an operation failed or a run did not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def predictions(traced: dict[str, dict]) -> list[tuple[str, bool]]:
    def value(workload, name):
        return traced[workload]["metrics"][name]["value"]

    out = []
    for workload in ("scenarios", "long-runs"):
        if workload in traced:
            out.append((f"transport.lp_solve.calls = 0 on {workload}",
                        value(workload, "transport.lp_solve.calls") == 0))
    if "scenarios" in traced:
        out.append(("schemes.run_scheme.calls > .distinct on scenarios",
                    value("scenarios", "schemes.run_scheme.calls")
                    > value("scenarios", "schemes.run_scheme.distinct")))
        self_times = {name: m["value"] for name, m in traced["scenarios"]["metrics"].items()
                      if name.endswith(".self_s") and not name.startswith("trace.")
                      and name.count(".") == 2}
        out.append(("measures.canonical_support.self_s is the largest self time on scenarios",
                    max(self_times, key=self_times.get) == "measures.canonical_support.self_s"))
    return out


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    ok = True
    traced = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            try:
                result = run_one(workload, args.seed, spec["run_seconds"], trace)
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                print(f"{workload} trace {trace}: {exc}")
                ok = False
                continue
            if trace:
                traced[workload] = result
            print(f"\n== {workload}, seed {args.seed}, trace {trace}")
            for name, m in result["metrics"].items():
                print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
            frac = result["failed"] / result["attempted"]
            print(f"  {'failed_frac':48s} {frac:>14.6g} ({result['failed']} of {result['attempted']})")
            ok = ok and result["correct"]
    print("\n== predictions")
    for claim, held in predictions(traced):
        print(f"  {'confirmed' if held else 'NOT MET  '}  {claim}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
