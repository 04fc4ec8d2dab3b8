"""Command-line interface: regenerate figures, or serve the engine.

Usage::

    python -m repro.experiments.cli list
    python -m repro.experiments.cli run fig6 fig10
    python -m repro.experiments.cli run all --scale tiny --out results/
    python -m repro.experiments.cli serve --port 8765 --method GIFilter
    python -m repro.experiments.cli metrics --port 8765
    python -m repro.experiments.cli simulate --seed 42
    python -m repro.experiments.cli simulate --seed 7 --plan 'engine.doc@5:raise'
    python -m repro.experiments.cli serve --eventlog-dir /var/lib/repro
    python -m repro.experiments.cli simulate --scenario kill9-load
    python -m repro.experiments.cli dlq --dir /var/lib/repro
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
from typing import Dict, List, Sequence

from repro.config import (
    FSYNC_POLICIES,
    METHOD_CONFIGS,
    SLOW_CONSUMER_POLICIES,
    ServerConfig,
)
from repro.experiments.sweeps import FIGURES, SCALES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables/figures of Chen & Cong, SIGMOD 2015.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list available figures")

    run = commands.add_parser("run", help="run one or more figures")
    run.add_argument(
        "figures",
        nargs="+",
        help="figure keys (see `list`), or 'all'",
    )
    run.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="tiny",
        help="workload scale (default: tiny)",
    )
    run.add_argument(
        "--out",
        default=None,
        help="directory to write tables to (default: stdout only)",
    )

    # Every serve setting's default is the ServerConfig field's.
    defaults = ServerConfig()
    serve = commands.add_parser(
        "serve",
        help="run the NDJSON-over-TCP pub/sub server",
        description=(
            "Start the asyncio serving runtime around a DAS engine and "
            "expose it as newline-delimited JSON over TCP "
            "(subscribe/unsubscribe/publish/results/stats)."
        ),
    )
    serve.add_argument("--host", default=defaults.host, help="bind address")
    serve.add_argument(
        "--port",
        type=int,
        default=defaults.port,
        help="bind port (0 = ephemeral)",
    )
    serve.add_argument(
        "--method",
        choices=sorted(METHOD_CONFIGS),
        default="GIFilter",
        help="engine method (default: GIFilter)",
    )
    serve.add_argument(
        "--k", type=int, default=30, help="results per query (default: 30)"
    )
    serve.add_argument(
        "--mode",
        choices=("decay", "window", "spatial"),
        default="decay",
        help=(
            "ranking/expiry strategy (DESIGN.md §16): decay-diversity "
            "(the paper), count-based sliding window (subscribe option "
            "'window'), or spatial-keyword (subscribe/publish option "
            "'location') (default: decay)"
        ),
    )
    serve.add_argument(
        "--policy",
        choices=SLOW_CONSUMER_POLICIES,
        default=defaults.slow_consumer_policy,
        help=(
            "slow-consumer policy for subscriber sessions "
            "(default: %(default)s)"
        ),
    )
    serve.add_argument(
        "--ingest-capacity",
        type=int,
        default=defaults.ingest_capacity,
        help="bound of the publish ingestion queue (default: %(default)s)",
    )
    serve.add_argument(
        "--outbound-capacity",
        type=int,
        default=defaults.outbound_capacity,
        help="bound of each subscriber delivery queue (default: %(default)s)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=defaults.max_batch_size,
        help=(
            "cap on a micro-batch, and on one connection's read-ahead "
            "window (default: %(default)s)"
        ),
    )
    serve.add_argument(
        "--eventlog-dir",
        default=defaults.eventlog_dir,
        help=(
            "enable the durability tier: write-ahead event log, replay "
            "recovery, resume/ack/dlq ops (default: disabled)"
        ),
    )
    serve.add_argument(
        "--eventlog-fsync",
        choices=FSYNC_POLICIES,
        default=defaults.eventlog_fsync,
        help="event-log fsync policy (default: %(default)s)",
    )
    serve.add_argument(
        "--eventlog-segment-entries",
        type=int,
        default=defaults.eventlog_segment_entries,
        help="entries per event-log segment file (default: %(default)s)",
    )
    serve.add_argument(
        "--eventlog-checkpoint-every",
        type=int,
        default=defaults.eventlog_checkpoint_every,
        help=(
            "checkpoint + truncate the log every N appends, 0 = never "
            "(recovery replays the whole log) (default: %(default)s)"
        ),
    )
    serve.add_argument(
        "--outbox-capacity",
        type=int,
        default=defaults.outbox_capacity,
        help=(
            "retained notifications per durable subscriber before the "
            "oldest is dead-lettered (default: %(default)s)"
        ),
    )
    serve.add_argument(
        "--dlq-max-attempts",
        type=int,
        default=defaults.dlq_max_attempts,
        help=(
            "redeliveries before a notification is dead-lettered "
            "(default: %(default)s)"
        ),
    )
    serve.add_argument(
        "--throttle-rate",
        type=float,
        default=defaults.throttle_rate,
        help=(
            "per-client publish token-bucket refill rate per second, "
            "0 = unthrottled (default: %(default)s)"
        ),
    )
    serve.add_argument(
        "--throttle-burst",
        type=int,
        default=defaults.throttle_burst,
        help="token-bucket burst capacity (default: %(default)s)",
    )

    metrics = commands.add_parser(
        "metrics",
        help="scrape a running server's metrics (Prometheus text)",
        description=(
            "Connect to a running serve instance, issue one 'metrics' "
            "request, and print the Prometheus text exposition: engine "
            "work counters, per-stage latency histograms, span "
            "accounting, and filtering-effectiveness gauges."
        ),
    )
    metrics.add_argument(
        "--host", default=defaults.host, help="server address"
    )
    metrics.add_argument(
        "--port",
        type=int,
        default=defaults.port,
        help="server port (default: %(default)s)",
    )

    simulate = commands.add_parser(
        "simulate",
        help="run the deterministic fault-injection harness",
        description=(
            "Run seeded chaos simulations against the serving runtime with "
            "per-op invariant checking (result-set size, Lemma 1 replacement "
            "ordering, filtering-bound soundness, oracle equivalence, "
            "recovery from the event log after a crash).  Output is a JSON "
            "report that is byte-for-byte identical across invocations "
            "with the same arguments."
        ),
    )
    simulate.add_argument(
        "--seed", type=int, default=0, help="simulation seed (default: 0)"
    )
    simulate.add_argument(
        "--ops",
        type=int,
        default=80,
        help="operations per scenario (default: 80)",
    )
    simulate.add_argument(
        "--mode",
        choices=("decay", "window", "spatial"),
        default="decay",
        help=(
            "engine ranking/expiry mode the chaos run exercises: 'decay' "
            "(the paper's recency-decayed DR score), 'window' (count-based "
            "sliding window with re-selection on expiry) or 'spatial' "
            "(grid-pruned spatial-keyword scoring); default: decay"
        ),
    )
    simulate.add_argument(
        "--plan",
        default=None,
        help=(
            "run one scenario with this fault plan instead of the default "
            "suite, e.g. 'engine.doc@5:raise; consumer.pull@2:stall(4)'"
        ),
    )
    simulate.add_argument(
        "--scenario",
        choices=("kill9-load",),
        default=None,
        help=(
            "instead of the default suite, run one named chaos "
            "scenario; 'kill9-load' SIGKILLs a real serve process "
            "under publish load and proves zero accepted-op loss "
            "from the event log"
        ),
    )
    simulate.add_argument(
        "--kills",
        type=int,
        default=2,
        help="SIGKILL/restart cycles for --scenario kill9-load (default: 2)",
    )
    simulate.add_argument(
        "--report",
        default=None,
        help="also write the JSON report to this path",
    )

    dlq = commands.add_parser(
        "dlq",
        help="inspect a server's dead-letter queue offline",
        description=(
            "Read the dead-letter segment of an event-log directory "
            "(no server required) and print per-reason/per-subscriber "
            "counts plus the newest entries."
        ),
    )
    dlq.add_argument(
        "--dir",
        required=True,
        help="event-log directory (the serve --eventlog-dir value)",
    )
    dlq.add_argument(
        "--limit",
        type=int,
        default=10,
        help="newest entries to print in full (default: 10)",
    )
    return parser


def build_serve_runtime(args):
    """Build the (runtime, tcp server) pair for the ``serve`` command
    from :func:`build_parser` output."""
    from repro.core.engine import DasEngine
    from repro.server import NdjsonTcpServer, ServerRuntime

    engine = DasEngine.for_method(args.method, k=args.k, mode=args.mode)
    config = ServerConfig(
        ingest_capacity=args.ingest_capacity,
        outbound_capacity=args.outbound_capacity,
        max_batch_size=args.max_batch,
        slow_consumer_policy=args.policy,
        host=args.host,
        port=args.port,
        eventlog_dir=args.eventlog_dir,
        eventlog_fsync=args.eventlog_fsync,
        eventlog_segment_entries=args.eventlog_segment_entries,
        eventlog_checkpoint_every=args.eventlog_checkpoint_every,
        outbox_capacity=args.outbox_capacity,
        dlq_max_attempts=args.dlq_max_attempts,
        throttle_rate=args.throttle_rate,
        throttle_burst=args.throttle_burst,
    )
    runtime = ServerRuntime(engine, config)
    return runtime, NdjsonTcpServer(runtime)


async def _serve(args) -> None:
    runtime, server = build_serve_runtime(args)
    await runtime.start()
    host, port = await server.start()
    print(f"serving {args.method} (k={args.k}) on {host}:{port}", flush=True)
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.stop()
        await runtime.stop()


def run_serve(args) -> int:
    try:
        asyncio.run(_serve(args))
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    return 0


async def _metrics(args) -> str:
    from repro.server import NdjsonTcpClient

    client = await NdjsonTcpClient.connect(args.host, args.port)
    try:
        return await client.metrics()
    finally:
        await client.close()


def run_metrics(args) -> int:
    text = asyncio.run(_metrics(args))
    print(text, end="" if text.endswith("\n") else "\n")
    return 0


def run_simulate(args) -> int:
    """Run the fault-injection harness; exit non-zero on any violation."""
    import json

    from repro.simulation import SimulationHarness, run_default_suite
    from repro.simulation.harness import default_engine_config

    engine_config = None
    if args.mode != "decay":
        # Small strategy-mode engine mirroring the decay default's scale:
        # a 16-document window / 4x4 grid keeps expiries and cell skips
        # frequent within an 80-op schedule.
        engine_config = default_engine_config(
            mode=args.mode, window_size=16, spatial_cells=4
        )

    if args.scenario == "kill9-load":
        from repro.simulation.eventlog import run_kill9_suite

        report = run_kill9_suite(
            args.seed, ops=args.ops, kills=args.kills
        )
    elif args.plan is not None:
        report = SimulationHarness(
            args.seed,
            ops=args.ops,
            fault_plan=args.plan,
            engine_config=engine_config,
        ).run()
    else:
        report = run_default_suite(
            args.seed, ops=args.ops, engine_config=engine_config
        )
    text = json.dumps(report, sort_keys=True, indent=2)
    print(text)
    if args.report:
        directory = os.path.dirname(args.report)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(args.report, "w") as handle:
            handle.write(text + "\n")
    return 0 if report["ok"] else 1


def run_dlq(args) -> int:
    """Offline DLQ inspection: counts plus the newest entries."""
    import json

    from repro.eventlog import read_dlq

    entries = read_dlq(args.dir)
    by_reason: Dict[str, int] = {}
    by_subscriber: Dict[str, int] = {}
    for entry in entries:
        by_reason[entry["reason"]] = by_reason.get(entry["reason"], 0) + 1
        by_subscriber[entry["subscriber"]] = (
            by_subscriber.get(entry["subscriber"], 0) + 1
        )
    print(
        json.dumps(
            {
                "directory": args.dir,
                "entries": len(entries),
                "by_reason": by_reason,
                "by_subscriber": by_subscriber,
                "newest": entries[-max(0, args.limit) :]
                if args.limit > 0
                else [],
            },
            sort_keys=True,
            indent=2,
        )
    )
    return 0


def run_figures(
    keys: Sequence[str], scale: str, out_dir: str = None
) -> List[object]:
    """Run the requested figures; print each table, write it to
    ``out_dir/<figure>.txt`` when given, and return the result objects."""
    if "all" in keys:
        keys = list(FIGURES)
    unknown = [key for key in keys if key not in FIGURES]
    if unknown:
        raise SystemExit(
            f"unknown figure(s): {', '.join(unknown)} "
            f"(available: {', '.join(FIGURES)})"
        )
    spec = SCALES[scale]
    results: List[object] = []
    for key in keys:
        _description, runner = FIGURES[key]
        for result in runner(spec):
            table = result.format_table()
            results.append(result)
            print(table)
            print()
            if out_dir:
                os.makedirs(out_dir, exist_ok=True)
                path = os.path.join(out_dir, record_name(result))
                with open(path, "w") as handle:
                    handle.write(table + "\n")
    return results


def record_name(result) -> str:
    """File name of a result's table: ``Figure 7(a)`` -> ``figure7_a.txt``."""
    name = result.figure.lower().replace(" ", "")
    return name.replace("(", "_").replace(")", "") + ".txt"


def main(argv: Sequence[str] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        width = max(len(key) for key in FIGURES)
        for key, (description, _runner) in FIGURES.items():
            print(f"{key:<{width}}  {description}")
        return 0
    if args.command == "serve":
        return run_serve(args)
    if args.command == "metrics":
        return run_metrics(args)
    if args.command == "simulate":
        return run_simulate(args)
    if args.command == "dlq":
        return run_dlq(args)
    run_figures(args.figures, args.scale, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
