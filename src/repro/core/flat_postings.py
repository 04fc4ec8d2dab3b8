"""Placeholder for the deleted flat-postings mirror (DESIGN.md §15).

``benchmarks/e2e/tracing.py`` imports :class:`FlatPostingsIndex` and
patches its ``prepare``; the benchmark PR (ROADMAP 4(b)) deletes this
module together with that tracer row.
"""


class FlatPostingsIndex:
    """Nothing builds it; only the tracer's import and patch resolve."""

    def prepare(self, *args, **kwargs):
        raise NotImplementedError("the flat-postings mirror was deleted")
