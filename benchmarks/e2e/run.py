"""One run of one workload: the command ``BENCHMARK.json`` names.

``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S
--trace 0|1`` generates the inputs from the seed, sets up, measures,
checks the outputs and prints one JSON object as its last line of
standard output: every end-to-end metric with ``--trace 0``, every
per-layer metric with ``--trace 1``.  Everything else a run learned goes
to ``out/run-<workload>-trace<0|1>.json`` for the noise report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"no program to measure: {src}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)

    try:
        from numpy import __version__ as numpy_version
    except ImportError:  # the package runs without it (backend="auto")
        numpy_version = None

    import inprocess
    import layers
    import serve
    from tracing import Tracer, install
    from workloads import BY_NAME, build_inputs

    if args.workload not in BY_NAME:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(BY_NAME)}")
    w = BY_NAME[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    inputs = build_inputs(w, args.seed, args.seconds)
    tracer = span_cost = None
    if args.trace:
        tracer = Tracer()
        span_cost = tracer.span_cost()
        install(tracer)
    runner = serve if w.served else inprocess
    try:
        record = runner.run(w, inputs, OUT_DIR, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    if args.trace:
        values = layers.derive(record, w, len(inputs.steps), span_cost)
        declared = contract["per_layer"]
        with open(os.path.join(OUT_DIR, f"trace-{w.name}.json"), "w") as handle:
            json.dump(
                {
                    "workload": w.name,
                    "seed": args.seed,
                    "span_cost_s": span_cost,
                    "columns": ["calls", "total_s", "self_s"],
                    "setup": record.notes.pop("setup_spans"),
                    "measured": record.notes.pop("measured_spans"),
                    "spans": tracer.sampled_spans(),
                },
                handle,
            )
    else:
        values = record.metrics
        declared = contract["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 3
    result = {
        "correct": not record.errors,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }
    for name in ("stats_before", "stats_after", "changes"):
        record.notes.pop(name, None)
    detail = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "result": result,
        # Every end-to-end value the run computed, traced or not; a traced
        # run's are only good for judging what tracing cost.
        "end_to_end": record.metrics,
        "errors": record.errors,
        "stream_digest": record.digest,
        "counters": record.counters,
        "round_rates": record.round_rates,
        "measured_wall_s": record.measured_wall_s,
        "measured_cpu_s": record.measured_cpu_s,
        "notes": record.notes,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy_version,
        },
    }
    with open(
        os.path.join(OUT_DIR, f"run-{w.name}-trace{args.trace}.json"), "w"
    ) as handle:
        json.dump(detail, handle, indent=1)
    for error in record.errors:
        print(f"WRONG: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not record.errors and not record.failed else 1


if __name__ == "__main__":
    sys.exit(main())
