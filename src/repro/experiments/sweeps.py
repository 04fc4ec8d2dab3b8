"""Parameter sweeps reproducing every table and figure of Section 8.

Each function regenerates one figure/table at a configurable scale.  The
``TINY`` spec keeps the whole suite runnable in minutes of pure Python;
``SMALL`` is roughly 4x larger for overnight runs.  DESIGN.md §4 maps
figures to these functions; EXPERIMENTS.md records measured shapes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.disc import tune_radius
from repro.experiments.results import FigureResult, UserStudyResult
from repro.experiments.runner import MethodRun, run_das_methods, run_method
from repro.experiments.workload import DAS_METHODS, Workload, WorkloadSpec, build_workload
from repro.metrics.quality import (
    QualityReport,
    evaluate_result_set,
    mean_report,
    user_study_table,
)

#: Scaled-down default spec for the benchmark suite (pure Python).
TINY = WorkloadSpec(
    n_queries=1500, n_history=2000, n_settle=100, n_measure=100, k=20
)
#: A larger spec for longer runs.
SMALL = WorkloadSpec(
    n_queries=6000, n_history=6000, n_settle=300, n_measure=300, k=30
)


def _merge(into: Dict[str, Dict], fresh: Dict[str, Dict]) -> None:
    for method, values in fresh.items():
        into.setdefault(method, {}).update(values)


def _sims_per_doc(run: MethodRun) -> float:
    return run.counters.sim_evaluations / max(1, run.counters.docs_published)


def _evals_per_doc(run: MethodRun) -> float:
    return run.counters.queries_evaluated / max(1, run.counters.docs_published)


def work_companions(
    figure: str,
    param_name: str,
    values: Sequence,
    runs_by_value: Dict[object, Dict[str, MethodRun]],
) -> List[FigureResult]:
    """Deterministic work-counter tables attached to a wall-clock figure."""
    sims: Dict[str, Dict[object, float]] = {}
    evals: Dict[str, Dict[object, float]] = {}
    skips: Dict[str, Dict[object, float]] = {}
    for value, runs in runs_by_value.items():
        _merge(sims, {m: {value: _sims_per_doc(r)} for m, r in runs.items()})
        _merge(evals, {m: {value: _evals_per_doc(r)} for m, r in runs.items()})
        _merge(
            skips,
            {
                m: {value: 100.0 * r.blocks_skipped_ratio}
                for m, r in runs.items()
            },
        )
    return [
        FigureResult(
            figure=f"{figure} [work]",
            title="similarity evaluations per document",
            param_name=param_name,
            param_values=list(values),
            series=sims,
            unit="sims/doc",
        ),
        FigureResult(
            figure=f"{figure} [work]",
            title="queries evaluated per document",
            param_name=param_name,
            param_values=list(values),
            series=evals,
            unit="evals/doc",
        ),
        FigureResult(
            figure=f"{figure} [work]",
            title="blocks skipped by group filtering",
            param_name=param_name,
            param_values=list(values),
            series=skips,
            unit="% of blocks",
        ),
    ]


def _sweep(
    base: WorkloadSpec,
    param_name: str,
    values: Sequence,
    spec_for,
    methods: Sequence[str] = DAS_METHODS,
    measure=lambda run: run.doc_ms,
    unit: str = "ms/doc",
    figure: str = "",
    title: str = "",
    notes: str = "",
) -> FigureResult:
    """Generic sweep: rebuild the workload per value, run all methods."""
    series: Dict[str, Dict[object, float]] = {}
    runs_by_value: Dict[object, Dict[str, MethodRun]] = {}
    for value in values:
        workload = build_workload(spec_for(base, value))
        runs = run_das_methods(workload, methods)
        runs_by_value[value] = runs
        _merge(
            series,
            {method: {value: measure(run)} for method, run in runs.items()},
        )
    return FigureResult(
        figure=figure,
        title=title,
        param_name=param_name,
        param_values=list(values),
        series=series,
        unit=unit,
        notes=notes,
        companions=work_companions(figure, param_name, values, runs_by_value),
    )


# -- Figure 4: time effect -----------------------------------------------------


def time_effect(
    spec: WorkloadSpec = TINY, n_intervals: int = 6
) -> Tuple[FigureResult, FigureResult]:
    """Figure 4(a, b): doc-processing and insertion cost over time."""
    workload = build_workload(spec)
    runs = run_das_methods(workload, DAS_METHODS, n_intervals=n_intervals)
    intervals = list(range(1, n_intervals + 1))
    doc_series = {
        method: {
            i: run.interval_doc_ms[i - 1]
            for i in intervals
            if i - 1 < len(run.interval_doc_ms)
        }
        for method, run in runs.items()
    }
    insert_series = {
        method: {i: run.insert_ms for i in intervals}
        for method, run in runs.items()
    }
    fig_a = FigureResult(
        figure="Figure 4(a)",
        title="Document processing over time (LQD)",
        param_name="interval",
        param_values=intervals,
        series=doc_series,
        companions=work_companions(
            "Figure 4(a)", "segment", ["measured"], {"measured": runs}
        ),
    )
    fig_b = FigureResult(
        figure="Figure 4(b)",
        title="Query insertion over time (LQD)",
        param_name="interval",
        param_values=intervals,
        series=insert_series,
        unit="ms/query",
        notes="insertion cost is flat over time; reported per interval",
    )
    return fig_a, fig_b


# -- Figure 5: number of query keywords ---------------------------------------


def query_keywords(
    spec: WorkloadSpec = TINY, values: Sequence[int] = (1, 3, 5, 8)
) -> Tuple[FigureResult, FigureResult]:
    """Figure 5(a, b): effect of |q.ψ| on processing and insertion."""
    doc_series: Dict[str, Dict[object, float]] = {}
    insert_series: Dict[str, Dict[object, float]] = {}
    runs_by_value: Dict[object, Dict[str, MethodRun]] = {}
    for value in values:
        workload = build_workload(
            spec.evolve(min_query_terms=1, max_query_terms=value)
        )
        runs = run_das_methods(workload, DAS_METHODS)
        runs_by_value[value] = runs
        _merge(doc_series, {m: {value: r.doc_ms} for m, r in runs.items()})
        _merge(insert_series, {m: {value: r.insert_ms} for m, r in runs.items()})
    fig_a = FigureResult(
        figure="Figure 5(a)",
        title="Effect of # query keywords on document processing",
        param_name="max |q.psi|",
        param_values=list(values),
        series=doc_series,
        companions=work_companions(
            "Figure 5(a)", "max |q.psi|", values, runs_by_value
        ),
    )
    fig_b = FigureResult(
        figure="Figure 5(b)",
        title="Effect of # query keywords on query insertion",
        param_name="max |q.psi|",
        param_values=list(values),
        series=insert_series,
        unit="ms/query",
    )
    return fig_a, fig_b


# -- Figure 6: number of maintained results ------------------------------------


def result_count(
    spec: WorkloadSpec = TINY, values: Sequence[int] = (5, 10, 20, 30)
) -> FigureResult:
    """Figure 6: effect of k on document processing."""
    return _sweep(
        spec,
        "k",
        values,
        lambda base, k: base.evolve(k=k),
        figure="Figure 6",
        title="Effect of # maintained results (k)",
    )


# -- Figures 7-8: number of indexed queries ------------------------------------


def query_scale(
    spec: WorkloadSpec = TINY,
    values: Sequence[int] = (500, 1000, 2000, 4000),
) -> Tuple[FigureResult, FigureResult, FigureResult]:
    """Figures 7(a, b) and 8: scaling the number of indexed queries."""
    doc_series: Dict[str, Dict[object, float]] = {}
    insert_series: Dict[str, Dict[object, float]] = {}
    size_series: Dict[str, Dict[object, float]] = {}
    runs_by_value: Dict[object, Dict[str, MethodRun]] = {}
    for value in values:
        workload = build_workload(spec.evolve(n_queries=value))
        runs = run_das_methods(workload, DAS_METHODS)
        runs_by_value[value] = runs
        _merge(doc_series, {m: {value: r.doc_ms} for m, r in runs.items()})
        _merge(insert_series, {m: {value: r.insert_ms} for m, r in runs.items()})
        _merge(
            size_series,
            {
                m: {value: (r.index_report or {}).get("approx_bytes", 0) / 1e6}
                for m, r in runs.items()
            },
        )
    fig_a = FigureResult(
        figure="Figure 7(a)",
        title="Document processing vs # indexed queries",
        param_name="# queries",
        param_values=list(values),
        series=doc_series,
        companions=work_companions(
            "Figure 7(a)", "# queries", values, runs_by_value
        ),
    )
    fig_b = FigureResult(
        figure="Figure 7(b)",
        title="Query insertion vs # indexed queries",
        param_name="# queries",
        param_values=list(values),
        series=insert_series,
        unit="ms/query",
    )
    fig_c = FigureResult(
        figure="Figure 8",
        title="Index size vs # indexed queries",
        param_name="# queries",
        param_values=list(values),
        series=size_series,
        unit="MB (approx)",
    )
    return fig_a, fig_b, fig_c


# -- Table 6: user study ---------------------------------------------------------


def user_study(
    spec: Optional[WorkloadSpec] = None,
    n_queries: int = 50,
    snapshots: int = 3,
    k: int = 5,
) -> UserStudyResult:
    """Table 6: quality proxies for GIFilter/MSInc (α=0.3, 0.7) and DisC.

    Mirrors Section 8.4.1: trending-topic queries, result sets recorded
    at several timestamps, rated per aspect.  Ratings are automatic
    proxies rescaled to 1-5 across methods (DESIGN.md §2).
    """
    # "We generate 50 subscription queries by choosing 50 trending topics
    # as query keywords": one topic per query.
    base = (spec if spec is not None else TINY).evolve(
        query_set="sqd",
        n_queries=n_queries,
        k=k,
        min_query_terms=1,
        max_query_terms=1,
    )
    workload = build_workload(base)
    reports: Dict[str, List[QualityReport]] = {}

    def record(label, engine, scorer, decay, now):
        for query in workload.queries:
            documents = engine.results(query.query_id)
            if not documents:
                continue
            reports.setdefault(label, []).append(
                evaluate_result_set(query.terms, documents, scorer, decay, now)
            )

    snapshot_points = [
        len(workload.measure) * (i + 1) // snapshots for i in range(snapshots)
    ]

    def drive(label, engine, scorer, decay):
        for document in workload.history:
            engine.publish(document)
        for query in workload.queries:
            engine.subscribe(query)
        for document in workload.settle:
            engine.publish(document)
        for index, document in enumerate(workload.measure, start=1):
            engine.publish(document)
            if index in snapshot_points:
                record(label, engine, scorer, decay, engine.clock.now)

    for alpha in (0.3, 0.7):
        engine = Workload(
            spec=base.evolve(alpha=alpha),
            corpus=workload.corpus,
            history=workload.history,
            settle=workload.settle,
            measure=workload.measure,
            queries=workload.queries,
        ).make_engine("GIFilter")
        drive(f"GIFilter a={alpha}", engine, engine.scorer, engine.decay)

        msinc = Workload(
            spec=base.evolve(alpha=alpha),
            corpus=workload.corpus,
            history=workload.history,
            settle=workload.settle,
            measure=workload.measure,
            queries=workload.queries,
        ).make_msinc()
        drive(f"MSInc a={alpha}", msinc, msinc._scorer, msinc._decay)

    # DisC: tune the radius so queries return ~k results (Sec 8.4.1).
    # Tuning must happen on per-query candidate pools (documents sharing
    # a keyword), not random documents — cross-topic distances are nearly
    # uniform and would push the radius to a degenerate value.
    radii = []
    recent = workload.history[-800:]
    for query in workload.queries:
        matched = [
            document
            for document in recent
            if any(term in document.vector for term in query.terms)
        ][:80]
        if len(matched) >= 2 * k:
            radii.append(tune_radius(matched, target_size=k, algorithm="greedy"))
        if len(radii) >= 8:
            break
    radii.sort()
    radius = radii[len(radii) // 2] if radii else 0.45
    disc = workload.make_disc(radius=radius, algorithm="greedy")
    reference = workload.make_engine("GIFilter")
    drive("DisC", disc, reference.scorer, reference.decay)

    means = {label: mean_report(rs) for label, rs in reports.items()}
    raw = {
        label: {
            "Relevance": report.relevance,
            "Recency": report.recency,
            "Range of Int.": report.range_of_interests,
        }
        for label, report in means.items()
    }
    return UserStudyResult(table=user_study_table(means), raw=raw)


# -- Figure 9: comparison with DisC / MSInc -------------------------------------


def other_systems(
    spec: Optional[WorkloadSpec] = None,
) -> Tuple[FigureResult, FigureResult]:
    """Figure 9(a, b): efficiency vs DisC and MSInc on SQD."""
    if spec is None:
        base = TINY.evolve(query_set="sqd", n_queries=max(200, TINY.n_queries // 4))
    else:
        base = spec.evolve(query_set="sqd")
    workload = build_workload(base)
    runs = run_das_methods(workload, DAS_METHODS)
    runs["DisC"] = run_method(workload, workload.make_disc, "DisC")
    runs["MSInc"] = run_method(workload, workload.make_msinc, "MSInc")
    label = base.n_queries
    fig_a = FigureResult(
        figure="Figure 9(a)",
        title="Document processing vs other diversity-aware systems (SQD)",
        param_name="# queries",
        param_values=[label],
        series={m: {label: r.doc_ms} for m, r in runs.items()},
        notes="DisC amortises periodic re-evaluation over documents",
        companions=work_companions(
            "Figure 9(a)", "# queries", [label], {label: runs}
        ),
    )
    fig_b = FigureResult(
        figure="Figure 9(b)",
        title="Query insertion vs other diversity-aware systems (SQD)",
        param_name="# queries",
        param_values=[label],
        series={m: {label: r.insert_ms} for m, r in runs.items()},
        unit="ms/query",
    )
    return fig_a, fig_b


# -- Figure 10: block size -------------------------------------------------------


def block_size(
    spec: WorkloadSpec = TINY,
    values: Sequence[int] = (16, 64, 256, 1024),
) -> FigureResult:
    """Figure 10: effect of the number of postings per block."""
    return _sweep(
        spec,
        "p_max",
        values,
        lambda base, p: base.evolve(block_size=p),
        methods=("BIRT", "IFilter", "GIFilter"),
        figure="Figure 10",
        title="Effect of block size (postings per block)",
    )


# -- Figure 11: arrival rate -----------------------------------------------------


def arrival_rate(
    spec: WorkloadSpec = TINY,
    values: Sequence[int] = (25, 50, 100, 200),
) -> Tuple[FigureResult, FigureResult]:
    """Figure 11(a, b): total per-minute cost vs arrival rates.

    Processing cost per document is rate-independent, so the per-minute
    cost is rate × per-doc cost; the figure reports the measured total
    time of publishing `rate` documents (a) and inserting `rate` queries
    (b).
    """
    workload = build_workload(spec)
    doc_series: Dict[str, Dict[object, float]] = {}
    insert_series: Dict[str, Dict[object, float]] = {}
    runs = run_das_methods(workload, DAS_METHODS)
    for value in values:
        _merge(
            doc_series,
            {m: {value: r.doc_ms * value / 1000.0} for m, r in runs.items()},
        )
        _merge(
            insert_series,
            {m: {value: r.insert_ms * value / 1000.0} for m, r in runs.items()},
        )
    fig_a = FigureResult(
        figure="Figure 11(a)",
        title="Total document-processing time per minute vs arrival rate",
        param_name="docs/minute",
        param_values=list(values),
        series=doc_series,
        unit="s/minute",
    )
    fig_b = FigureResult(
        figure="Figure 11(b)",
        title="Total query-insertion time per minute vs arrival rate",
        param_name="queries/minute",
        param_values=list(values),
        series=insert_series,
        unit="s/minute",
    )
    return fig_a, fig_b


# -- Figure 12: alpha ------------------------------------------------------------


def alpha_effect(
    spec: WorkloadSpec = TINY,
    values: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
) -> FigureResult:
    """Figure 12: effect of the relevance/diversity trade-off α."""
    return _sweep(
        spec,
        "alpha",
        values,
        lambda base, a: base.evolve(alpha=a),
        figure="Figure 12",
        title="Effect of alpha (relevance weight)",
    )


# -- Figure 13: decaying scale ----------------------------------------------------


def decay_scale(
    spec: WorkloadSpec = TINY,
    values: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
) -> FigureResult:
    """Figure 13: effect of the recency decaying scale."""
    return _sweep(
        spec,
        "decay scale",
        values,
        lambda base, s: base.evolve(decay_scale=s),
        figure="Figure 13",
        title="Effect of the decaying scale",
    )


# -- Figure 14: phi_max -----------------------------------------------------------


def phi_max(
    spec: WorkloadSpec = TINY,
    values: Sequence[int] = (2_000, 10_000, 50_000, -1),
) -> FigureResult:
    """Figure 14: effect of the aggregated-weight memory budget."""
    return _sweep(
        spec,
        "phi_max entries",
        values,
        lambda base, p: base.evolve(phi_max=p),
        methods=("IFilter", "GIFilter"),
        figure="Figure 14",
        title="Effect of Phi_max (AW summary budget; -1 = unlimited)",
    )


# -- Figure 15: delta_s -----------------------------------------------------------


def delta_s(
    spec: WorkloadSpec = TINY,
    values: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
) -> FigureResult:
    """Figure 15: effect of the MCS rebuild threshold δ_s."""
    return _sweep(
        spec,
        "delta_s",
        values,
        lambda base, d: base.evolve(delta_s=d),
        methods=("GIFilter",),
        figure="Figure 15",
        title="Effect of delta_s (MCS rebuild threshold)",
    )


# -- Figure 16: distinct document terms ---------------------------------------------


def doc_terms(
    spec: WorkloadSpec = TINY,
    values: Sequence[int] = (5, 10, 15, 20),
) -> FigureResult:
    """Figure 16: effect of the number of distinct document terms."""
    return _sweep(
        spec,
        "# doc terms",
        values,
        lambda base, n: base.evolve(doc_length=(max(2, n - 2), n + 2)),
        figure="Figure 16",
        title="Effect of # distinct document terms",
    )


# -- Figure 17: SQD scalability ------------------------------------------------------


def sqd_scale(
    spec: WorkloadSpec = TINY,
    values: Sequence[int] = (250, 500, 1000, 2000),
) -> FigureResult:
    """Figure 17: scalability on the SQD query set."""
    return _sweep(
        spec.evolve(query_set="sqd"),
        "# queries",
        values,
        lambda base, n: base.evolve(n_queries=n),
        figure="Figure 17",
        title="Scalability on SQD",
    )


# -- Figure 18: DisC window size -------------------------------------------------------


def window_size(
    spec: Optional[WorkloadSpec] = None,
    values: Sequence[int] = (250, 500, 1000, 2000),
) -> FigureResult:
    """Figure 18: DisC runtime vs sliding window size |W_f|."""
    base = (spec if spec is not None else TINY).evolve(
        query_set="sqd", n_queries=200
    )
    workload = build_workload(base)
    series: Dict[str, Dict[object, float]] = {"DisC": {}}
    for value in values:
        run = run_method(
            workload,
            lambda v=value: workload.make_disc(window_size=v),
            "DisC",
        )
        series["DisC"][value] = run.doc_ms
    return FigureResult(
        figure="Figure 18",
        title="DisC: effect of sliding window size |W_f|",
        param_name="|W_f|",
        param_values=list(values),
        series=series,
    )


# -- Ablations (DESIGN.md §5) ------------------------------------------------------------


def init_strategy_ablation(spec: WorkloadSpec = TINY) -> FigureResult:
    """Result-bootstrap strategies (DESIGN.md §6): recent / relevant / greedy.

    Measures subscription cost and the post-settle match rate — a weaker
    bootstrap leaves weak thresholds, so more stream documents displace
    results.
    """
    from repro.core.engine import DasEngine

    workload = build_workload(spec)
    series: Dict[str, Dict[object, float]] = {}
    for strategy in ("recent", "relevant", "greedy"):
        base_engine = workload.make_engine("GIFilter")
        engine = DasEngine(base_engine.config, init_strategy=strategy)
        run = run_method(workload, lambda e=engine: e, strategy)
        series[strategy] = {
            "insert ms/q": run.insert_ms,
            "matches/doc": run.counters.matches
            / max(1, run.counters.docs_published),
            "ms/doc": run.doc_ms,
        }
    return FigureResult(
        figure="Ablation A3",
        title="Result-set initialisation strategy",
        param_name="metric",
        param_values=["insert ms/q", "matches/doc", "ms/doc"],
        series=series,
        unit="mixed",
    )


def agg_weights_ablation(spec: WorkloadSpec = TINY) -> FigureResult:
    """Aggregated term weights on/off at fixed block structure."""
    workload = build_workload(spec)
    runs = {
        "BIRT (no AW)": run_method(
            workload, lambda: workload.make_engine("BIRT"), "BIRT"
        ),
        "IFilter (AW)": run_method(
            workload, lambda: workload.make_engine("IFilter"), "IFilter"
        ),
    }
    series = {
        label: {
            "ms/doc": run.doc_ms,
            "sims/doc": run.counters.sim_evaluations
            / max(1, run.counters.docs_published),
        }
        for label, run in runs.items()
    }
    return FigureResult(
        figure="Ablation A2",
        title="Aggregated term weight summaries on/off",
        param_name="metric",
        param_values=["ms/doc", "sims/doc"],
        series=series,
        unit="mixed",
    )
