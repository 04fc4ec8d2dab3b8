"""Placeholder for the deleted columnar summary mirror (DESIGN.md §12).

``benchmarks/e2e/tracing.py`` imports :class:`QuerySummaryColumns` and
patches its ``update``; the benchmark PR (ROADMAP 4(b)) deletes this
module together with that tracer row.
"""


class QuerySummaryColumns:
    """Nothing builds it; only the tracer's import and patch resolve."""

    def update(self, *args, **kwargs):
        raise NotImplementedError("the columnar summary mirror was deleted")
