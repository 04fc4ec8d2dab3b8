"""Every table and figure of Section 8, as one registry.

``FIGURES`` maps a figure key (``repro run <key>``) to a description and
a runner that returns the figure's result tables for a base spec from
``SCALES``.  Ten figures vary one ``WorkloadSpec`` field over a list of
values and compare methods at each value: each is one row of ``SWEEPS``,
and ``_sweep`` runs any row.  Figures 4, 9, 11 and 18, Table 6 and the
two ablations are not one-parameter sweeps and keep their own functions.
DESIGN.md §4 maps figures to keys; EXPERIMENTS.md records measured
shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Dict, List, Sequence, Tuple

from repro.baselines.disc import tune_radius
from repro.experiments.quality import (
    QualityReport,
    evaluate_result_set,
    mean_report,
    user_study_table,
)
from repro.experiments.results import FigureResult, UserStudyResult
from repro.experiments.runner import MethodRun, run_das_methods, run_method
from repro.experiments.workload import DAS_METHODS, WorkloadSpec, build_workload

#: Base specs by scale name.  ``micro`` keeps a whole figure to about a
#: second (tests); ``tiny`` is the recorded scale (``benchmarks/out``);
#: ``small`` is roughly 4x larger for longer runs.
SCALES: Dict[str, WorkloadSpec] = {
    "micro": WorkloadSpec(
        n_queries=300,
        n_history=300,
        n_settle=40,
        n_measure=50,
        k=10,
        vocab_size=3000,
        n_topics=30,
    ),
    "tiny": WorkloadSpec(
        n_queries=1500, n_history=2000, n_settle=100, n_measure=100, k=20
    ),
    "small": WorkloadSpec(
        n_queries=6000, n_history=6000, n_settle=300, n_measure=300, k=30
    ),
}


def _sims_per_doc(run: MethodRun) -> float:
    return run.counters.sim_evaluations / max(1, run.counters.docs_published)


def _evals_per_doc(run: MethodRun) -> float:
    return run.counters.queries_evaluated / max(1, run.counters.docs_published)


def work_companions(
    figure: str,
    param_name: str,
    runs_by_value: Dict[object, Dict[str, MethodRun]],
) -> List[FigureResult]:
    """Deterministic work-counter tables attached to a wall-clock figure."""
    tables = (
        ("similarity evaluations per document", "sims/doc", _sims_per_doc),
        ("queries evaluated per document", "evals/doc", _evals_per_doc),
        (
            "blocks skipped by group filtering",
            "% of blocks",
            lambda run: 100.0 * run.blocks_skipped_ratio,
        ),
    )
    return [
        FigureResult(
            figure=f"{figure} [work]",
            title=title,
            param_name=param_name,
            param_values=list(runs_by_value),
            series=_series(runs_by_value, measure),
            unit=unit,
        )
        for title, unit, measure in tables
    ]


def _series(
    runs_by_value: Dict[object, Dict[str, MethodRun]],
    measure: Callable[[MethodRun], float],
) -> Dict[str, Dict[object, float]]:
    """``{method: {value: measure(run)}}`` in method order."""
    series: Dict[str, Dict[object, float]] = {}
    for value, runs in runs_by_value.items():
        for method, run in runs.items():
            series.setdefault(method, {})[value] = measure(run)
    return series


# -- One-parameter sweeps -------------------------------------------------------

#: What a sweep table reports per (value, method): unit and reader.
MEASURES: Dict[str, Tuple[str, Callable[[MethodRun], float]]] = {
    "doc": ("ms/doc", lambda run: run.doc_ms),
    "insert": ("ms/query", lambda run: run.insert_ms),
    "index": (
        "MB (approx)",
        lambda run: (run.index_report or {}).get("approx_bytes", 0) / 1e6,
    ),
}


@dataclass(frozen=True)
class Sweep:
    """A figure family that varies one ``WorkloadSpec`` field.

    Each value rebuilds the workload and runs every method once; each
    entry of ``tables`` (figure id, title, ``MEASURES`` key) selects one
    table from those runs, and the first also carries the ``[work]``
    companions.
    """

    param: str
    field: str
    values: Tuple
    tables: Tuple[Tuple[str, str, str], ...]
    methods: Tuple[str, ...] = DAS_METHODS
    #: Fixed overrides applied to the scale's spec before sweeping.
    base: Tuple[Tuple[str, object], ...] = ()
    #: Maps a tabled value to the field's value (identity by default).
    field_value: Callable = lambda value: value


SWEEPS: Dict[str, Sweep] = {
    "fig5": Sweep(
        param="max |q.psi|",
        field="max_query_terms",
        values=(1, 3, 5, 8),
        tables=(
            (
                "Figure 5(a)",
                "Effect of # query keywords on document processing",
                "doc",
            ),
            (
                "Figure 5(b)",
                "Effect of # query keywords on query insertion",
                "insert",
            ),
        ),
    ),
    "fig6": Sweep(
        param="k",
        field="k",
        values=(5, 10, 20, 30),
        tables=(("Figure 6", "Effect of # maintained results (k)", "doc"),),
    ),
    "fig7": Sweep(
        param="# queries",
        field="n_queries",
        values=(500, 1000, 2000, 4000),
        tables=(
            ("Figure 7(a)", "Document processing vs # indexed queries", "doc"),
            ("Figure 7(b)", "Query insertion vs # indexed queries", "insert"),
            ("Figure 8", "Index size vs # indexed queries", "index"),
        ),
    ),
    "fig10": Sweep(
        param="p_max",
        field="block_size",
        values=(16, 64, 256, 1024),
        tables=(
            ("Figure 10", "Effect of block size (postings per block)", "doc"),
        ),
        methods=("BIRT", "IFilter", "GIFilter"),
    ),
    "fig12": Sweep(
        param="alpha",
        field="alpha",
        values=(0.1, 0.3, 0.5, 0.7, 0.9),
        tables=(("Figure 12", "Effect of alpha (relevance weight)", "doc"),),
    ),
    "fig13": Sweep(
        param="decay scale",
        field="decay_scale",
        values=(0.1, 0.3, 0.5, 0.7, 0.9),
        tables=(("Figure 13", "Effect of the decaying scale", "doc"),),
    ),
    "fig14": Sweep(
        param="phi_max entries",
        field="phi_max",
        values=(2_000, 10_000, 50_000, -1),
        tables=(
            (
                "Figure 14",
                "Effect of Phi_max (AW summary budget; -1 = unlimited)",
                "doc",
            ),
        ),
        methods=("IFilter", "GIFilter"),
    ),
    "fig15": Sweep(
        param="delta_s",
        field="delta_s",
        values=(0.1, 0.3, 0.5, 0.7, 0.9),
        tables=(
            ("Figure 15", "Effect of delta_s (MCS rebuild threshold)", "doc"),
        ),
        methods=("GIFilter",),
    ),
    "fig16": Sweep(
        param="# doc terms",
        field="doc_length",
        values=(5, 10, 15, 20),
        tables=(("Figure 16", "Effect of # distinct document terms", "doc"),),
        field_value=lambda n: (max(2, n - 2), n + 2),
    ),
    "fig17": Sweep(
        param="# queries",
        field="n_queries",
        values=(250, 500, 1000, 2000),
        tables=(("Figure 17", "Scalability on SQD", "doc"),),
        base=(("query_set", "sqd"),),
    ),
}


def _sweep(sweep: Sweep, spec: WorkloadSpec) -> List[FigureResult]:
    """Run every method at every value of ``sweep``; return its tables."""
    base = spec.evolve(**dict(sweep.base))
    runs_by_value: Dict[object, Dict[str, MethodRun]] = {}
    for value in sweep.values:
        changes = {sweep.field: sweep.field_value(value)}
        workload = build_workload(base.evolve(**changes))
        runs_by_value[value] = run_das_methods(workload, sweep.methods)
    results = []
    for figure, title, measure in sweep.tables:
        unit, read = MEASURES[measure]
        results.append(
            FigureResult(
                figure=figure,
                title=title,
                param_name=sweep.param,
                param_values=list(sweep.values),
                series=_series(runs_by_value, read),
                unit=unit,
            )
        )
    results[0].companions = work_companions(
        results[0].figure, sweep.param, runs_by_value
    )
    return results


# -- Figure 4: time effect -----------------------------------------------------


def time_effect(spec: WorkloadSpec) -> List[FigureResult]:
    """Figure 4(a, b): doc-processing and insertion cost over time."""
    n_intervals = 6
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
            "Figure 4(a)", "segment", {"measured": runs}
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
    return [fig_a, fig_b]


# -- Table 6: user study ---------------------------------------------------------


def user_study(spec: WorkloadSpec) -> List[UserStudyResult]:
    """Table 6: quality proxies for GIFilter/MSInc (α=0.3, 0.7) and DisC.

    Mirrors Section 8.4.1: trending-topic queries, result sets recorded
    at several timestamps, rated per aspect.  Ratings are automatic
    proxies rescaled to 1-5 across methods (DESIGN.md §2).
    """
    snapshots = 3
    k = 5
    # "We generate 50 subscription queries by choosing 50 trending topics
    # as query keywords": one topic per query.
    base = spec.evolve(
        query_set="sqd",
        n_queries=50,
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
        variant = replace(workload, spec=base.evolve(alpha=alpha))
        engine = variant.make_engine("GIFilter")
        drive(f"GIFilter a={alpha}", engine, engine.scorer, engine.decay)

        msinc = variant.make_msinc()
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
    return [UserStudyResult(table=user_study_table(means), raw=raw)]


# -- Figure 9: comparison with DisC / MSInc -------------------------------------


def other_systems(spec: WorkloadSpec) -> List[FigureResult]:
    """Figure 9(a, b): efficiency vs DisC and MSInc on SQD."""
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
        companions=work_companions("Figure 9(a)", "# queries", {label: runs}),
    )
    fig_b = FigureResult(
        figure="Figure 9(b)",
        title="Query insertion vs other diversity-aware systems (SQD)",
        param_name="# queries",
        param_values=[label],
        series={m: {label: r.insert_ms} for m, r in runs.items()},
        unit="ms/query",
    )
    return [fig_a, fig_b]


# -- Figure 11: arrival rate -----------------------------------------------------


def arrival_rate(spec: WorkloadSpec) -> List[FigureResult]:
    """Figure 11(a, b): total per-minute cost vs arrival rates.

    Processing cost per document is rate-independent, so the per-minute
    cost is rate × per-doc cost; the figure reports the measured total
    time of publishing `rate` documents (a) and inserting `rate` queries
    (b).
    """
    values = (25, 50, 100, 200)
    runs = run_das_methods(build_workload(spec), DAS_METHODS)
    doc_series = {
        m: {value: r.doc_ms * value / 1000.0 for value in values}
        for m, r in runs.items()
    }
    insert_series = {
        m: {value: r.insert_ms * value / 1000.0 for value in values}
        for m, r in runs.items()
    }
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
    return [fig_a, fig_b]


# -- Figure 18: DisC window size -------------------------------------------------------


def window_size(spec: WorkloadSpec) -> List[FigureResult]:
    """Figure 18: DisC runtime vs sliding window size |W_f|."""
    values = (250, 500, 1000, 2000)
    workload = build_workload(spec.evolve(query_set="sqd", n_queries=200))
    series: Dict[str, Dict[object, float]] = {"DisC": {}}
    for value in values:
        run = run_method(
            workload,
            lambda v=value: workload.make_disc(window_size=v),
            "DisC",
        )
        series["DisC"][value] = run.doc_ms
    return [
        FigureResult(
            figure="Figure 18",
            title="DisC: effect of sliding window size |W_f|",
            param_name="|W_f|",
            param_values=list(values),
            series=series,
        )
    ]


# -- Ablations (DESIGN.md §5) ------------------------------------------------------------


def agg_weights_ablation(spec: WorkloadSpec) -> List[FigureResult]:
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
        label: {"ms/doc": run.doc_ms, "sims/doc": _sims_per_doc(run)}
        for label, run in runs.items()
    }
    return [
        FigureResult(
            figure="Ablation A2",
            title="Aggregated term weight summaries on/off",
            param_name="metric",
            param_values=["ms/doc", "sims/doc"],
            series=series,
            unit="mixed",
        )
    ]


Runner = Callable[[WorkloadSpec], Sequence]

#: figure key -> (description, runner returning the figure's tables)
FIGURES: Dict[str, Tuple[str, Runner]] = {
    "fig4": ("doc processing & insertion over time (LQD)", time_effect),
    "fig5": ("effect of # query keywords", partial(_sweep, SWEEPS["fig5"])),
    "fig6": ("effect of k", partial(_sweep, SWEEPS["fig6"])),
    "fig7": (
        "scaling # queries (+ fig8 index size)",
        partial(_sweep, SWEEPS["fig7"]),
    ),
    "tab6": ("user study proxies", user_study),
    "fig9": ("vs DisC / MSInc on SQD", other_systems),
    "fig10": ("effect of block size", partial(_sweep, SWEEPS["fig10"])),
    "fig11": ("effect of arrival rate", arrival_rate),
    "fig12": ("effect of alpha", partial(_sweep, SWEEPS["fig12"])),
    "fig13": ("effect of decaying scale", partial(_sweep, SWEEPS["fig13"])),
    "fig14": ("effect of Phi_max", partial(_sweep, SWEEPS["fig14"])),
    "fig15": ("effect of delta_s", partial(_sweep, SWEEPS["fig15"])),
    "fig16": ("effect of # document terms", partial(_sweep, SWEEPS["fig16"])),
    "fig17": ("scalability on SQD", partial(_sweep, SWEEPS["fig17"])),
    "fig18": ("DisC window size", window_size),
    "abl-aw": ("ablation: aggregated weights", agg_weights_ablation),
}
