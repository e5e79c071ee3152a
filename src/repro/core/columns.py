"""Column-backend selection: numpy arrays or pure-python lists.

The columnar pipeline keeps per-packet data in flat columns. Where a
consumer batches whole spans — the vectorized OPT surrogates' congested
prefilter, fed through
:meth:`repro.traffic.columnar.ColumnarTrace.array_columns` — the
columns are int64/float64 ndarrays; everywhere else (the canonical
trace columns, the vectorized engine's per-port state) they are plain
Python lists, because CPython list indexing beats ndarray scalar access
and the hot loops touch one element at a time.

This module decides, once per process, whether numpy is used at all,
controlled by the ``REPRO_VECTOR_BACKEND`` environment variable:
``auto`` (default; numpy when importable), ``numpy`` (require numpy,
raise otherwise), or ``python`` (treat numpy as absent: ``array_columns``
then returns ``None`` and every consumer runs on the list columns; the
traffic generators still draw with numpy, their RNG is pinned to it).
"""

from __future__ import annotations

import os
from typing import Any

from repro.core.errors import ConfigError

#: Environment variable controlling backend selection.
BACKEND_ENV = "REPRO_VECTOR_BACKEND"

_VALID = ("auto", "numpy", "python")

_backend: str | None = None
_np: Any = None


def _resolve() -> str:
    raw = os.environ.get(BACKEND_ENV, "auto").strip().lower() or "auto"
    if raw not in _VALID:
        raise ConfigError(
            f"{BACKEND_ENV}={raw!r} invalid; expected one of {_VALID}"
        )
    if raw == "python":
        return "python"
    global _np
    try:
        import numpy
    except ImportError:
        if raw == "numpy":
            raise ConfigError(
                f"{BACKEND_ENV}=numpy but numpy is not importable"
            ) from None
        return "python"
    _np = numpy
    return "numpy"


def backend() -> str:
    """The resolved column backend: ``"numpy"`` or ``"python"``.

    Resolved lazily on first use and cached for the process lifetime, so
    tests may set ``REPRO_VECTOR_BACKEND`` before touching the engine.
    """
    global _backend
    if _backend is None:
        _backend = _resolve()
    return _backend


def reset_backend_cache() -> None:
    """Forget the cached backend choice (test hook)."""
    global _backend, _np
    _backend = None
    _np = None


def numpy_module() -> Any:
    """The numpy module when the backend is ``numpy``, else ``None``."""
    backend()
    return _np
