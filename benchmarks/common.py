"""Shared plumbing for the benchmark suite.

Every benchmark regenerates one of the paper's tables/figures at a scale
a pure-Python run can afford (DESIGN.md §2 and §4).  Each bench:

* runs the figure's sweep once under ``benchmark.pedantic`` so
  pytest-benchmark records the regeneration cost;
* writes the paper-style series table to ``benchmarks/out/<figure>.txt``
  and echoes it to stdout;
* asserts only structural validity (every method measured at every
  parameter) — the *shapes* are recorded in EXPERIMENTS.md, not asserted,
  because tiny-scale wall-clock orderings are noisy.
"""

from __future__ import annotations

import os
from typing import Iterable

from repro.experiments.results import FigureResult, UserStudyResult
from repro.experiments.workload import WorkloadSpec

#: Benchmark-scale workload (see module docstring).
BENCH_SPEC = WorkloadSpec(
    n_queries=2000,
    n_history=2500,
    n_settle=100,
    n_measure=150,
    k=20,
)

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


def write_output(name: str, text: str) -> None:
    """Persist a figure table under benchmarks/out/ and echo it."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{name}.txt")
    with open(path, "w") as handle:
        handle.write(text + "\n")
    print()
    print(text)


def check_figure(result: FigureResult, methods: Iterable[str]) -> None:
    """Structural validity: every method measured at every parameter."""
    for method in methods:
        assert method in result.series, f"{method} missing from {result.figure}"
        for param in result.param_values:
            value = result.series[method].get(param)
            assert value is not None, (
                f"{result.figure}: {method} missing value at {param}"
            )
            assert value >= 0.0


def save_figure(result: FigureResult) -> None:
    name = result.figure.lower().replace(" ", "").replace("(", "_").replace(")", "")
    write_output(name, result.format_table())


def save_user_study(result: UserStudyResult) -> None:
    write_output("table6_user_study", result.format_table())
