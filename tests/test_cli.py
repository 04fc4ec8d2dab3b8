"""Tests for the experiments CLI."""

from __future__ import annotations

import pytest

from repro.experiments.cli import FIGURES, SCALES, build_parser, main, run_figures


def test_every_figure_key_registered():
    expected = {
        "fig4", "fig5", "fig6", "fig7", "tab6", "fig9", "fig10", "fig11",
        "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
        "abl-aw",
    }
    assert expected <= set(FIGURES)


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for key in FIGURES:
        assert key in out


def test_run_single_figure_micro(micro_figure):
    results, written = micro_figure("fig6")
    assert [result.figure for result in results] == ["Figure 6"]
    assert written == ["figure6.txt"], "table files should be written"


def test_run_unknown_figure_exits():
    with pytest.raises(SystemExit):
        run_figures(["nope"], "micro")


def test_parser_defaults():
    args = build_parser().parse_args(["run", "fig6"])
    assert args.scale == "tiny"
    assert args.out is None
    assert args.figures == ["fig6"]


def test_scales_available():
    assert {"micro", "tiny", "small"} <= set(SCALES)


def test_main_run_micro(capsys):
    assert main(["run", "fig15", "--scale", "micro"]) == 0
    out = capsys.readouterr().out
    assert "Figure 15" in out


# -- serve command (ISSUE 2) --------------------------------------------------


def test_serve_parser_defaults():
    from repro.experiments.cli import build_parser

    args = build_parser().parse_args(["serve"])
    assert args.command == "serve"
    assert args.method == "GIFilter"
    assert args.port == 8765
    assert args.policy == "block"


def test_serve_parser_rejects_bad_policy():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["serve", "--policy", "yolo"])


def test_build_serve_runtime():
    from repro.core.engine import DasEngine
    from repro.experiments.cli import build_serve_runtime
    from repro.server import NdjsonTcpServer, ServerRuntime

    args = build_parser().parse_args(
        ["serve", "--port", "0", "--k", "5", "--policy", "coalesce"]
    )
    runtime, server = build_serve_runtime(args)
    assert isinstance(runtime, ServerRuntime)
    assert isinstance(server, NdjsonTcpServer)
    assert isinstance(runtime.engine, DasEngine)
    assert runtime.config.slow_consumer_policy == "coalesce"
    assert runtime.config.port == 0
    assert runtime.engine.config.k == 5


def test_restart_under_other_engine_flags_refuses_the_checkpoint(tmp_path):
    """``serve --k 3 --eventlog-dir D``: subscribe, checkpoint, stop.  A
    restart with ``--k 5`` must not serve the checkpoint's k = 3 in
    silence: start raises naming the field.  A restart with the same
    flags recovers as before."""
    import asyncio

    from repro.errors import ConfigurationError
    from repro.experiments.cli import build_serve_runtime
    from repro.server import InProcessClient

    def runtime(k):
        argv = ["serve", "--port", "0", "--k", str(k)]
        argv += ["--eventlog-dir", str(tmp_path)]
        return build_serve_runtime(build_parser().parse_args(argv))[0]

    async def scenario():
        first = runtime(3)
        await first.start()
        await InProcessClient(first).subscribe(["coffee"])
        await first.checkpoint_eventlog()
        await first.stop()

        with pytest.raises(
            ConfigurationError, match=r"k \(checkpoint 3, engine 5\)"
        ):
            await runtime(5).start()

        same = runtime(3)
        await same.start()
        assert same.engine.config.k == 3
        assert same.engine.query_count == 1
        await same.stop()

    asyncio.run(asyncio.wait_for(scenario(), 60.0))


def test_serve_command_starts_and_stops(capsys):
    """`cli serve` binds an ephemeral port and shuts down cleanly."""
    import asyncio

    from repro.experiments.cli import build_parser, build_serve_runtime

    async def scenario():
        args = build_parser().parse_args(["serve", "--port", "0"])
        runtime, server = build_serve_runtime(args)
        await runtime.start()
        host, port = await server.start()
        assert port > 0
        await server.stop()
        await runtime.stop()

    asyncio.run(asyncio.wait_for(scenario(), 30.0))
