"""Cross-cell trace reuse: a content-keyed store of columnar traces.

Many sweep cells share one arrival trace. A Fig. 5 buffer sweep (panels
2, 5, 8) varies only ``B``, which no MMPP generator consumes — every
``B`` value at a given seed replays byte-identical arrivals. Without
reuse the sweep regenerates that trace once per cell; at paper scale
(2*10^6 slots) generation rivals simulation, so a six-value B-sweep
pays the dominant cost six times over.

A :class:`TraceStore` memoizes traces under caller-supplied *content
keys*: strings that encode everything the generator consumed (recipe,
its parameters, the seed) and nothing it ignored. The key contract is
the same as the sweep cache's ``cache_token`` — two cells may share a
key only when their generators provably produce identical packet
streams. Keys are computed per cell by a ``trace_key`` callable (see
:func:`repro.analysis.sweep.run_sweep`); returning ``None`` for a cell
opts it out of reuse.

The store is a per-process LRU memo of live :class:`ColumnarTrace`
objects: within one sweep (and within each forked worker of a
``jobs=N`` sweep) a given trace is generated at most once while it
stays in the memo.

Reuse is an execution optimization, never an identity: store and key
appear in **no** cache key and **no** journal identity, and a sweep
with reuse enabled is ``cmp``-identical to the same sweep without it
(pinned by the tier-1 suite, serial and parallel).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Optional

from repro.core.config import SwitchConfig
from repro.core.errors import ConfigError
from repro.traffic.columnar import ColumnarTrace

__all__ = ["TraceKeyFn", "TraceStore"]

#: Per-cell content-key function: maps ``(config, value, seed)`` to the
#: trace's content key, or ``None`` to disable reuse for that cell.
TraceKeyFn = Callable[[SwitchConfig, float, int], Optional[str]]


class TraceStore:
    """Content-keyed LRU memo of columnar traces.

    Parameters
    ----------
    memo_size:
        Live traces kept in the memo. Sized for the sweep iteration
        order (values outer, seeds inner): a B-sweep revisits a seed's
        trace every ``len(seeds)`` cells, so the default comfortably
        covers realistic seed counts.
    """

    def __init__(self, *, memo_size: int = 16) -> None:
        if memo_size < 1:
            raise ConfigError(f"memo_size must be >= 1, got {memo_size}")
        self._memo: "OrderedDict[str, ColumnarTrace]" = OrderedDict()
        self._memo_size = memo_size
        #: Telemetry: memo hits / generator invocations.
        self.memo_hits = 0
        self.builds = 0

    def get_or_build(
        self,
        key: str,
        builder: Callable[[], ColumnarTrace],
    ) -> ColumnarTrace:
        """Return the trace stored under ``key``, building it at most once
        while it stays in the memo."""
        if not key:
            raise ConfigError("trace store key must be a non-empty string")
        memo = self._memo
        trace = memo.get(key)
        if trace is not None:
            memo.move_to_end(key)
            self.memo_hits += 1
            return trace
        trace = builder()
        self.builds += 1
        memo[key] = trace
        while len(memo) > self._memo_size:
            memo.popitem(last=False)
        return trace

    def summary(self) -> str:
        """One line of reuse telemetry for CLI footers."""
        return f"trace store: {self.builds} built, {self.memo_hits} memo hits"
