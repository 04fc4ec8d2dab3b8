"""Hot-path scoring kernels with interchangeable backends.

Every piece of per-document arithmetic the engine executes at stream
rate — cosine similarities of a document against a query's k member
vectors (Eq. 6), the direct-similarity tail of the Lemma 6 sum, and the
per-cover minimum similarities of the group bound (Eq. 19) — is routed
through one of two backends sharing a single interface:

``python``
    Pure-Python reference.  Exactly the arithmetic (and float summation
    order) of the original engine, with no dependencies.

``numpy``
    Batched sparse-dot kernels over packed term-id/weight matrices.
    Each :class:`~repro.text.vectors.TermVector` carries an interned id
    array (built once via the shared
    :data:`~repro.text.vocabulary.GLOBAL_VOCABULARY`); a result set's k
    member vectors are packed into one dense ``k × |union terms|``
    matrix so all k similarities are a single mat-vec.

Backends are *decision-equivalent*: floating-point sums may differ in
the last bits (different association order), but every engine decision
is guarded by ``TIE_EPSILON`` so the notification streams are identical
(asserted by ``tests/test_backend_equivalence.py``).

:func:`resolve_backend` maps the ``EngineConfig.backend`` setting
(``"auto" | "python" | "numpy"``) to a backend singleton; ``"auto"``
resolves to the shape-adaptive dispatcher
(:class:`~repro.kernels.adaptive.AdaptiveKernels`) when NumPy is
importable — per call, small operand shapes take the Python loops and
large ones the vectorised path — and to pure Python otherwise.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.kernels.adaptive import AdaptiveKernels, measure_crossover
from repro.kernels.python_backend import PythonKernels, SimCache

#: Names accepted by ``EngineConfig.backend``.
BACKEND_CHOICES = ("auto", "python", "numpy")

_PYTHON_SINGLETON = PythonKernels()
_NUMPY_SINGLETON: Optional[object] = None
_NUMPY_FAILED = False
_ADAPTIVE_SINGLETON: Optional[AdaptiveKernels] = None


def numpy_available() -> bool:
    """True if the NumPy backend can be constructed in this process."""
    return _load_numpy_backend() is not None


def _load_numpy_backend():
    global _NUMPY_SINGLETON, _NUMPY_FAILED
    if _NUMPY_SINGLETON is None and not _NUMPY_FAILED:
        try:
            from repro.kernels.numpy_backend import NumpyKernels
        except ImportError:
            _NUMPY_FAILED = True
        else:
            _NUMPY_SINGLETON = NumpyKernels()
    return _NUMPY_SINGLETON


def default_kernels() -> PythonKernels:
    """The pure-Python backend (used where no engine config is in play)."""
    return _PYTHON_SINGLETON


def resolve_backend(name: str = "auto"):
    """Return the kernel backend for a config ``backend`` setting.

    ``"auto"`` resolves to the shape-adaptive dispatcher (python below
    the measured crossover shape, numpy above) and silently falls back
    to pure Python when NumPy is not importable; asking for ``"numpy"``
    explicitly without NumPy is a
    :class:`~repro.errors.ConfigurationError`.
    """
    global _ADAPTIVE_SINGLETON
    if name == "python":
        return _PYTHON_SINGLETON
    if name == "numpy":
        backend = _load_numpy_backend()
        if backend is None:
            raise ConfigurationError(
                "backend 'numpy' requested but NumPy is not importable; "
                "install numpy or use backend='auto'/'python'"
            )
        return backend
    if name == "auto":
        backend = _load_numpy_backend()
        if backend is None:
            return _PYTHON_SINGLETON
        if _ADAPTIVE_SINGLETON is None:
            _ADAPTIVE_SINGLETON = AdaptiveKernels(_PYTHON_SINGLETON, backend)
        return _ADAPTIVE_SINGLETON
    raise ConfigurationError(
        f"unknown kernel backend {name!r}; expected one of {BACKEND_CHOICES}"
    )


__all__ = [
    "AdaptiveKernels",
    "BACKEND_CHOICES",
    "PythonKernels",
    "SimCache",
    "default_kernels",
    "measure_crossover",
    "numpy_available",
    "resolve_backend",
]
