"""The whole benchmark in one command, for people.

``python3 benchmarks/e2e --seed 2015`` (or ``python -m benchmarks.e2e``)
runs every workload ``--reps`` times as fresh ``run.py`` processes,
interleaved w1,w2,w3,w4,w1,..., then once more traced, and prints every
metric by name with unit, direction and bound: the median of the reps
with their spread beside it.  It exits non-zero when a run's outputs
were wrong, an operation failed, or the change stream or work counters
differ between runs of one seed.  ``out/last_run.json`` keeps every raw
value.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> Dict:
    """One ``run.py`` process; returns its detail record."""
    done = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    if done.returncode not in (0, 1):
        raise SystemExit(f"{workload}: run.py exited with {done.returncode}")
    with open(os.path.join(OUT_DIR, f"run-{workload}-trace{trace}.json")) as handle:
        detail = json.load(handle)
    detail["exit_code"] = done.returncode
    return detail


def spread_of(values: List[float]) -> float:
    """Quartile distance over the median (range over it below 4 values)."""
    median = statistics.median(values)
    if len(values) >= 4:
        low, _, high = statistics.quantiles(values, n=4)
    else:
        low, high = min(values), max(values)
    return (high - low) / median if median else 0.0


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument(
        "--quick", action="store_true",
        help="1 rep and a quarter of the documents (same query counts)",
    )
    parser.add_argument(
        "--vary-seed", action="store_true",
        help="rep i uses seed + i: the spread the driver measures",
    )
    args = parser.parse_args(argv)
    seconds = float(contract["run_seconds"])
    if args.quick:
        args.reps, seconds = 1, seconds / 4
    selected = args.workload or names

    problems: List[str] = []
    reps: Dict[str, List[Dict]] = {name: [] for name in selected}
    for rep in range(args.reps):
        for name in selected:
            seed = args.seed + rep if args.vary_seed else args.seed
            detail = run_once(name, seed, seconds, trace=0)
            reps[name].append(detail)
            print(
                f"rep {rep} {name} seed {seed}: "
                f"digest {detail['stream_digest'][:12]} "
                f"rounds {[round(r, 1) for r in detail['round_rates']]}",
                file=sys.stderr,
            )
    traced = {name: run_once(name, args.seed, seconds, trace=1) for name in selected}

    for name in selected:
        for detail in reps[name] + [traced[name]]:
            result = detail["result"]
            if not result["correct"]:
                problems.append(f"{name}: {detail['errors']}")
            if result["failed"]:
                problems.append(f"{name}: {result['failed']} operations failed")
        same_seed = [d for d in reps[name] if d["seed"] == args.seed] + [traced[name]]
        if len({d["stream_digest"] for d in same_seed}) > 1:
            problems.append(f"{name}: change stream differs between runs of one seed")
        if len({json.dumps(d["counters"], sort_keys=True) for d in same_seed}) > 1:
            problems.append(f"{name}: work counters differ between runs of one seed")

    print("\nEnd-to-end (median of reps, spread beside it)")
    report: Dict[str, Dict] = {}
    for metric in contract["end_to_end"]:
        print(
            f"{metric['name']} [{metric['unit']}, {metric['better']} is better, "
            f"bound {metric['bound']:.0%}]"
        )
        for name in selected:
            values = [
                d["result"]["metrics"][metric["name"]]["value"] for d in reps[name]
            ]
            spread = spread_of(values)
            unresolved = spread > metric["bound"]
            report.setdefault(name, {})[metric["name"]] = {
                "values": values, "median": statistics.median(values),
                "spread": spread, "unresolved": unresolved,
            }
            print(
                f"  {name:18} {statistics.median(values):12.4f}  "
                f"spread {spread:6.1%}{'  unresolved' if unresolved else ''}"
            )
    print("\nPer layer (one traced run)")
    print(f"{'':44}" + "".join(f"{name:>18}" for name in selected))
    for metric in contract["per_layer"]:
        cells = "".join(
            f"{traced[name]['result']['metrics'][metric['name']]['value']:18.4f}"
            for name in selected
        )
        print(f"{metric['name'] + ' [' + metric['unit'] + ']':44}{cells}")
    for name in selected:
        untraced = report[name]["docs_per_s"]["median"]
        slowdown = untraced / traced[name]["end_to_end"]["docs_per_s"] - 1.0
        raw = [d["notes"]["raw"] for d in reps[name]]
        print(
            f"{name}: the traced run's measured phase was {slowdown:+.1%} slower "
            f"(serve: it also hosts the server in this process); "
            f"raw wall clock: set-up {statistics.median(r['setup_s'] for r in raw):.2f} s, "
            f"{statistics.median(r['docs_per_s'] for r in raw):.1f} docs/s, "
            f"publish p50 {statistics.median(r['publish_ms']['p50'] for r in raw):.3f} ms, "
            f"machine at {statistics.median(d['notes']['speed_factor_p50'] for d in reps[name]):.2f}x reference speed"
        )

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "last_run.json"), "w") as handle:
        json.dump(
            {"seed": args.seed, "seconds": seconds, "summary": report,
             "reps": reps, "traced": traced, "problems": problems},
            handle, indent=1,
        )
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
