"""Exponential decay recency (Eq. 4).

``T(d) = B^{-(t_cur - d.t_c)}`` with base ``B >= 1``.  The paper's
experiments parameterise the decay by the *decaying scale*
``B^{-Δt_sim}`` — the recency a document retains after the whole
simulation — which :meth:`ExponentialDecay.from_scale` reproduces.
"""

from __future__ import annotations


class ExponentialDecay:
    """Monotone exponential recency function."""

    __slots__ = ("base",)

    def __init__(self, base: float) -> None:
        if base < 1.0:
            raise ValueError(f"decay base must be >= 1, got {base}")
        self.base = float(base)

    @classmethod
    def from_scale(cls, scale: float, horizon: float) -> "ExponentialDecay":
        """Build a decay whose value after ``horizon`` seconds is ``scale``."""
        if not 0.0 < scale <= 1.0:
            raise ValueError(f"scale must be in (0, 1], got {scale}")
        if horizon <= 0.0:
            raise ValueError(f"horizon must be > 0, got {horizon}")
        return cls(scale ** (-1.0 / horizon))

    def at_age(self, age: float) -> float:
        """``T`` for a document ``age`` seconds old (clamped at age 0)."""
        if age <= 0.0:
            return 1.0
        return self.base ** (-age)

    def at(self, created_at: float, now: float) -> float:
        """``T(d)`` for a document created at ``created_at``."""
        return self.at_age(now - created_at)

    def __repr__(self) -> str:
        return f"ExponentialDecay(base={self.base!r})"


class CachedDecay:
    """Memoising view over an :class:`ExponentialDecay`.

    ``base ** (-age)`` is a pure function of the age gap, but the pow is
    expensive and document-processing evaluates it for the same handful
    of gaps (the distinct ``q.d_e`` timestamps) thousands of times per
    published document.  The engine clears the cache at the start of
    every publish, so entries never outlive one document's processing.

    Exposes the same ``at`` / ``at_age`` interface as the wrapped decay
    and returns bit-identical values (each power is computed by the
    wrapped decay exactly once per cache lifetime).  ``powers`` is the
    memo itself, ``{age: T}``; the engine's run loop reads it directly
    and calls :meth:`at_age` only on a miss.
    """

    __slots__ = ("_decay", "powers")

    def __init__(self, decay: ExponentialDecay) -> None:
        self._decay = decay
        self.powers: dict = {}

    @property
    def base(self) -> float:
        return self._decay.base

    def clear(self) -> None:
        self.powers.clear()

    def at_age(self, age: float) -> float:
        value = self.powers.get(age)
        if value is None:
            value = self._decay.at_age(age)
            self.powers[age] = value
        return value

    def at(self, created_at: float, now: float) -> float:
        return self.at_age(now - created_at)


#: Decay that ignores time entirely (``T(d) == 1`` always).
NO_DECAY = ExponentialDecay(1.0)
