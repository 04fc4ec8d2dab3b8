"""Stress workloads for the strategy modes: flash crowds and churn storms.

Two pathological-but-realistic stream shapes the sliding-window and
spatial-keyword modes must survive:

* **Flash crowd** — a sudden burst of near-duplicate documents about one
  topic, concentrated at one location.  For the window mode this forces
  mass expiry (the burst flushes the whole sliding window); for the
  spatial mode it creates one red-hot grid cell whose cached thresholds
  rise rapidly while every other cell stays prunable.

* **Churn storm** — rapid subscribe/unsubscribe cycling interleaved with
  publications.  This stresses the re-selection bookkeeping: candidate
  buffers, per-cell query lists, and threshold caches must stay
  consistent while the query population turns over faster than the
  document stream.

Both generators emit plain op dicts (the simulation harness's schedule
shape) so any engine — the incremental one or an oracle — can
replay the same workload:

``{"op": "publish", "tokens": [...], "location": [x, y] | None}``
``{"op": "subscribe", "keywords": [...], "location": ..., "window": ...}``
``{"op": "unsubscribe", "index": j}``  (j-th live subscription)

Generation is fully deterministic given the corpus seed and ``salt``.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.workloads.corpus import SyntheticTweetCorpus


def flash_crowd(
    corpus: SyntheticTweetCorpus,
    n_background: int = 30,
    n_crowd: int = 25,
    crowd_topic: int = 0,
    crowd_spread: float = 0.02,
    mode: str = "spatial",
    salt: int = 0,
) -> List[Dict[str, Any]]:
    """A background stream with a dense topical burst in the middle.

    The burst documents all draw their tokens from ``crowd_topic``'s term
    distribution and (in spatial mode) their locations from a tight
    Gaussian around that topic's centre, mimicking an event where many
    users post about the same thing from the same place.
    """
    if not 0 <= crowd_topic < corpus.n_topics:
        raise ValueError(
            f"crowd_topic must be in [0, {corpus.n_topics}), got {crowd_topic}"
        )
    if mode not in ("window", "spatial"):
        raise ValueError(f"unknown storm mode {mode!r}")
    rng = corpus.fresh_rng(salt=1000 + salt)
    spatial = mode == "spatial"

    def background_publish() -> Dict[str, Any]:
        op: Dict[str, Any] = {"op": "publish", "tokens": corpus.generate_tokens(rng)}
        op["location"] = (
            list(corpus.generate_location(rng)) if spatial else None
        )
        return op

    def crowd_publish() -> Dict[str, Any]:
        # Crowd documents are built purely from the hot topic's head terms,
        # so they score highly against each other's subscriptions and
        # against one another in the result sets — maximal churn.
        terms = corpus.topic_terms[crowd_topic]
        length = rng.randint(*corpus.doc_length)
        tokens = [terms[rng.randrange(min(len(terms), 8))] for _ in range(length)]
        op: Dict[str, Any] = {"op": "publish", "tokens": tokens}
        op["location"] = (
            list(
                corpus.generate_location(
                    rng, topic=crowd_topic, spread=crowd_spread
                )
            )
            if spatial
            else None
        )
        return op

    lead = n_background // 2
    ops = [background_publish() for _ in range(lead)]
    ops.extend(crowd_publish() for _ in range(n_crowd))
    ops.extend(background_publish() for _ in range(n_background - lead))
    return ops


def churn_storm(
    corpus: SyntheticTweetCorpus,
    n_ops: int = 120,
    subscribe_ratio: float = 0.25,
    unsubscribe_ratio: float = 0.20,
    mode: str = "window",
    salt: int = 0,
) -> List[Dict[str, Any]]:
    """Rapid subscription turnover interleaved with publications.

    Roughly ``subscribe_ratio`` of ops register a new query and
    ``unsubscribe_ratio`` drop a random live one; the rest publish.  The
    generator tracks the live count so unsubscribe indices always refer
    to a registered query, and it front-loads a few subscriptions so the
    stream never runs matcher-idle.
    """
    if subscribe_ratio + unsubscribe_ratio >= 1.0:
        raise ValueError("subscribe_ratio + unsubscribe_ratio must be < 1")
    if mode not in ("window", "spatial"):
        raise ValueError(f"unknown storm mode {mode!r}")
    rng = corpus.fresh_rng(salt=2000 + salt)
    spatial = mode == "spatial"
    trending = corpus.trending_terms(per_topic=2)

    def subscribe_op() -> Dict[str, Any]:
        n_terms = rng.randint(1, 3)
        op: Dict[str, Any] = {
            "op": "subscribe",
            "keywords": rng.sample(trending, n_terms),
        }
        if spatial:
            op["location"] = list(corpus.generate_location(rng))
        elif rng.random() < 0.5:
            op["window"] = rng.randint(2, 10)
        return op

    ops: List[Dict[str, Any]] = [subscribe_op() for _ in range(3)]
    live = 3
    for _ in range(n_ops):
        roll = rng.random()
        if roll < subscribe_ratio:
            ops.append(subscribe_op())
            live += 1
        elif roll < subscribe_ratio + unsubscribe_ratio and live > 1:
            ops.append({"op": "unsubscribe", "index": rng.randrange(live)})
            live -= 1
        else:
            op: Dict[str, Any] = {
                "op": "publish",
                "tokens": corpus.generate_tokens(rng),
            }
            op["location"] = (
                list(corpus.generate_location(rng)) if spatial else None
            )
            ops.append(op)
    return ops
