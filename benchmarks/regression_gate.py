"""Benchmark regression gate (ISSUE 4 satellite e).

Compares a freshly generated bench JSON against the committed baseline
and fails when any throughput rate dropped by more than the tolerance
(default 20 %, overridable via ``REPRO_BENCH_TOLERANCE`` or
``--tolerance``).  Only *rates* are gated — they are per-second, so they
stay comparable when CI runs the benches at reduced document counts
(``REPRO_BENCH_SCALE``); absolute counters such as batch sizes are not.

Usage (pairs of baseline/fresh paths)::

    python -m benchmarks.regression_gate \
        bench-baseline/BENCH_server.json BENCH_server.json \
        bench-baseline/BENCH_throughput.json BENCH_throughput.json

Exit status is non-zero if any rate regressed beyond tolerance or went
missing from the fresh payload.  New keys in the fresh payload (a bench
that grew a dimension) are reported but never fail the gate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Sequence, Tuple

#: Default fractional drop tolerated before the gate fails.
DEFAULT_TOLERANCE = 0.20

#: Top-level payload sections that hold gated rates.
RATE_SECTIONS = ("results", "parallel_workers", "cluster", "modes")


def derive_rates(payload: dict) -> Dict[str, float]:
    """Cross-variant ratios gated alongside the raw rates (ISSUE 6).

    Raw docs/sec rows can all drift together with machine noise; these
    ratios are what the fast paths are *for*, so they get their own
    no-regression rows:

    ``derived.kernel_speedup``
        GIFilter ``auto`` over ``python`` (publish-throughput schema) —
        the adaptive backend must not lose to the backend it replaces.
    ``derived.parallel_speedup``
        Two worker processes over the in-process engine
        (server-throughput schema).
    ``derived.wire_reduction``
        Pipe bytes/doc with the pickle transport over the same with the
        shared-memory wire (server-throughput schema) — how many times
        less the parent serializes per published document.
    ``derived.cluster_overhead``
        Cluster-tier docs/sec over the in-process engine
        (server-throughput schema): throughput retention of the TCP
        coordinator path, <= 1 — a drop means the tier got relatively
        more expensive.
    ``derived.window_overhead``
        Window-mode over decay-mode GIFilter throughput (ISSUE 10,
        DESIGN.md §16) — the sliding-window strategy's term/expiry
        indexing must keep it within 2x of the paper's decay hot path.
    """
    derived: Dict[str, float] = {}
    gifilter = payload.get("results", {}).get("GIFilter")
    if isinstance(gifilter, dict):
        auto, python = gifilter.get("auto"), gifilter.get("python")
        if auto and python:
            derived["derived.kernel_speedup"] = float(auto) / float(python)
    window_overhead = payload.get("window_overhead")
    if window_overhead:
        derived["derived.window_overhead"] = float(window_overhead)
    two_workers = payload.get("parallel_workers", {}).get("2", {})
    speedup = two_workers.get("speedup_vs_inprocess")
    if speedup:
        derived["derived.parallel_speedup"] = float(speedup)
    reduction = payload.get("wire", {}).get("pipe_reduction_factor")
    if reduction:
        derived["derived.wire_reduction"] = float(reduction)
    retention = payload.get("cluster", {}).get("throughput_vs_inprocess")
    if retention:
        derived["derived.cluster_overhead"] = float(retention)
    return derived


def collect_rates(payload: dict) -> Dict[str, float]:
    """Flatten every throughput rate to a dotted key -> docs/sec.

    A rate is a ``docs_per_sec`` entry, or — in payloads whose
    ``results`` section maps variant labels straight to numbers (the
    publish-throughput schema) — any numeric leaf under a rate section.
    Derived cross-variant ratios (see :func:`derive_rates`) ride along
    under ``derived.*`` keys.
    """
    rates: Dict[str, float] = dict(derive_rates(payload))

    def walk(node, path: Tuple[str, ...]) -> None:
        if isinstance(node, dict):
            if "docs_per_sec" in node:
                rates[".".join(path)] = float(node["docs_per_sec"])
                return
            for key in node:
                if path or key in RATE_SECTIONS:
                    walk(node[key], path + (str(key),))
            return
        if isinstance(node, bool) or not isinstance(node, (int, float)):
            return
        rates[".".join(path)] = float(node)

    walk(payload, ())
    return rates


def compare(
    baseline: dict, fresh: dict, tolerance: float
) -> List[Tuple[str, float, float, str]]:
    """Entries of (key, baseline rate, fresh rate, status).

    Status is ``ok``, ``regressed`` (fresh below ``(1 - tolerance) *
    baseline``), ``missing`` (key gone from fresh) or ``new`` (key only
    in fresh; informational, never a failure).
    """
    base_rates = collect_rates(baseline)
    fresh_rates = collect_rates(fresh)
    entries = []
    for key in sorted(base_rates):
        base = base_rates[key]
        if key not in fresh_rates:
            entries.append((key, base, float("nan"), "missing"))
            continue
        value = fresh_rates[key]
        regressed = base > 0 and value < (1.0 - tolerance) * base
        entries.append((key, base, value, "regressed" if regressed else "ok"))
    for key in sorted(set(fresh_rates) - set(base_rates)):
        entries.append((key, float("nan"), fresh_rates[key], "new"))
    return entries


def default_tolerance() -> float:
    """Tolerance from ``REPRO_BENCH_TOLERANCE``, else 20 %."""
    try:
        tolerance = float(
            os.environ.get("REPRO_BENCH_TOLERANCE", str(DEFAULT_TOLERANCE))
        )
    except ValueError:
        return DEFAULT_TOLERANCE
    return tolerance if 0.0 <= tolerance < 1.0 else DEFAULT_TOLERANCE


def format_entries(
    label: str, entries: Sequence[Tuple[str, float, float, str]]
) -> str:
    width = max([len(entry[0]) for entry in entries] + [len("rate")])
    lines = [
        f"== {label}",
        f"{'rate':<{width}} {'baseline':>12} {'fresh':>12} {'ratio':>7}  status",
    ]
    for key, base, value, status in entries:
        ratio = f"{value / base:7.2f}" if base == base and base > 0 else "      -"
        base_text = f"{base:12.1f}" if base == base else "           -"
        value_text = f"{value:12.1f}" if value == value else "           -"
        lines.append(f"{key:<{width}} {base_text} {value_text} {ratio}  {status}")
    return "\n".join(lines)


def run_gate(
    pairs: Sequence[Tuple[str, str]], tolerance: float
) -> Tuple[str, bool]:
    """Gate every (baseline, fresh) file pair; returns (report, ok)."""
    blocks = []
    ok = True
    for baseline_path, fresh_path in pairs:
        with open(baseline_path) as handle:
            baseline = json.load(handle)
        with open(fresh_path) as handle:
            fresh = json.load(handle)
        entries = compare(baseline, fresh, tolerance)
        ok = ok and not any(
            status in ("regressed", "missing") for _, _, _, status in entries
        )
        blocks.append(format_entries(fresh_path, entries))
    verdict = "PASS" if ok else "FAIL"
    blocks.append(f"gate: {verdict} (tolerance {tolerance:.0%})")
    return "\n\n".join(blocks), ok


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="regression-gate",
        description=(
            "Fail when a fresh bench JSON's docs/sec rates dropped more "
            "than the tolerance below the committed baseline."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="+",
        help="alternating baseline/fresh JSON paths (pairs)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help=(
            "fractional drop tolerated (default: REPRO_BENCH_TOLERANCE "
            f"or {DEFAULT_TOLERANCE})"
        ),
    )
    args = parser.parse_args(argv)
    if len(args.paths) % 2:
        parser.error("paths must come in baseline/fresh pairs")
    tolerance = (
        args.tolerance if args.tolerance is not None else default_tolerance()
    )
    pairs = list(zip(args.paths[::2], args.paths[1::2]))
    report, ok = run_gate(pairs, tolerance)
    print(report)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
