#!/usr/bin/env python3
"""The repo benchmark: one command, seven workloads, every metric by name.

Driver contract (one workload per process)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

prints human-readable ``check``/``metric`` lines and, last, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A failed
correctness check names the workload and the check on stderr, prints no
metrics, and exits 1.

Without ``--workload`` the whole set runs, each workload in its own child
process (peak RSS and import cost are per process)::

    python3 benchmarks/e2e/run.py --seed 1              # untraced set
    python3 benchmarks/e2e/run.py --seed 1 --traced     # per-layer + ledgers
    python3 benchmarks/e2e/run.py --seed 1 --sets 2     # repeatability gate
    python3 benchmarks/e2e/run.py --seed 1 --record benchmarks/e2e/baseline.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

from spec import END_TO_END, RUN_SECONDS, SIZES, UNITS, WORKLOADS  # noqa: E402

NAMES = [name for name, _why in WORKLOADS]


def run_workload(args: argparse.Namespace) -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program to measure ({src}/repro is missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from harness import run_one

    outcome = asyncio.run(
        run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    )
    for text in outcome["failed_checks"]:
        print(f"benchmark: workload {args.workload} failed check: {text}",
              file=sys.stderr)
    print(json.dumps({"exact": outcome["exact"]}, sort_keys=True))
    print(json.dumps(outcome["result"]))
    return 1 if outcome["failed_checks"] else 0


# ----------------------------------------------------------------- set mode


def run_set(args: argparse.Namespace, trace: int) -> Dict[str, Dict[str, Any]]:
    """Every selected workload, one child process each."""
    outcomes: Dict[str, Dict[str, Any]] = {}
    for name in NAMES:
        command = [
            sys.executable, str(HERE / "run.py"),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(trace),
        ]
        child = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, timeout=600
        )
        lines = child.stdout.splitlines()
        for line in lines[:-2]:
            print(line)
        if child.returncode != 0 or len(lines) < 2:
            raise SystemExit(
                f"benchmark: workload {name} failed "
                f"(exit {child.returncode}); see the checks above"
            )
        outcomes[name] = {
            "exact": json.loads(lines[-2])["exact"],
            **json.loads(lines[-1]),
        }
    return outcomes


def compare_sets(first, second) -> List[str]:
    """Print the two-set table; return one line per breach."""
    bounds = {name: (better, bound) for name, _u, better, bound in END_TO_END}
    breaches: List[str] = []
    print(f"{'workload':<14}{'metric':<16}{'set 1':>14}{'set 2':>14}"
          f"{'diff':>9}{'bound':>8}")
    for workload in first:
        for metric, (better, bound) in bounds.items():
            a = first[workload]["metrics"][metric]["value"]
            b = second[workload]["metrics"][metric]["value"]
            worse = (b - a) / a if better == "lower" else (a - b) / a
            flag = ""
            if worse > bound:
                flag = "  BREACH"
                breaches.append(f"{workload} {metric} worse by {worse:.1%}")
            print(f"{workload:<14}{metric:<16}{a:>14.6g}{b:>14.6g}"
                  f"{worse:>+9.1%}{bound:>8.0%}{flag}")
        if first[workload]["exact"] != second[workload]["exact"]:
            breaches.append(
                f"{workload} exact counts differ: "
                f"{first[workload]['exact']} != {second[workload]['exact']}"
            )
    return breaches


def record(args: argparse.Namespace) -> None:
    """One untraced and one traced set, written as the committed baseline."""
    untraced = run_set(args, 0)
    traced = run_set(args, 1)

    def values(outcomes):
        return {
            workload: {n: m["value"] for n, m in outcome["metrics"].items()}
            for workload, outcome in outcomes.items()
        }

    document = {
        "claim": None,
        "recorded_on": {
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "seed": args.seed,
        "run_seconds": args.seconds,
        "sizes": SIZES,
        "op_and_result": UNITS,
        "end_to_end": values(untraced),
        "per_layer": values(traced),
        "exact": {w: outcome["exact"] for w, outcome in untraced.items()},
    }
    Path(args.record).write_text(json.dumps(document, indent=2) + "\n")


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_const", const=1,
                        dest="trace", help="same as --trace 1")
    parser.add_argument("--sets", type=int, default=1,
                        help="run the untraced set this many times on the "
                        "same code and seed and gate their agreement")
    parser.add_argument("--record", metavar="PATH",
                        help="set mode: run the untraced and the traced set "
                        "and write their numbers, with the sizes, to PATH")
    args = parser.parse_args(argv)
    if args.workload:
        return run_workload(args)
    if args.record:
        record(args)
        return 0
    if args.trace:
        run_set(args, 1)
        return 0
    sets = [run_set(args, 0) for _ in range(max(1, args.sets))]
    breaches: List[str] = []
    for later in sets[1:]:
        breaches += compare_sets(sets[0], later)
    for breach in breaches:
        print(f"benchmark: sets disagree: {breach}", file=sys.stderr)
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
