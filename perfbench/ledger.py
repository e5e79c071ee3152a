"""Per-layer ledger for the traced benchmark run.

Every span and count here is taken from outside the program: the
ledger patches a few public module attributes for the duration of a
traced pass and restores them afterwards. Nothing under ``src/`` knows
it is being measured.

Layer boundaries hooked (see README.md for the metric table):

* ``traffic``    -- the MMPP generators Fig. 5 looks up in
  :mod:`repro.experiments.fig5`'s namespace;
* ``tracestore`` -- :meth:`repro.analysis.tracestore.TraceStore.get_or_build`;
* ``engine``     -- a delegating wrapper around
  :class:`repro.analysis.competitive.PolicySystem`, which the public
  ``run_system`` drives slot by slot;
* ``opt``        -- ``run_system`` calls on systems that are not policy
  systems (the OPT surrogates).

Spans keep a parent index so a layer's self time can be derived from the
written trace; the per-layer metrics only need the aggregate seconds and
counts, which the ledger folds as it goes.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Generators Fig. 5 may call; whichever the running tree still has
#: are hooked, so deleting a twin family does not break the ledger.
GENERATOR_NAMES = (
    "columnar_processing_workload",
    "columnar_value_uniform_workload",
    "columnar_value_port_workload",
    "processing_workload",
    "value_uniform_workload",
    "value_port_workload",
)

Span = Tuple[str, float, float, int]  # name, start, end, parent index


class Ledger:
    """In-memory spans, seconds and counts of one traced pass."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)
            self.seconds[name] += end - start

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount


class TracedSystem:
    """Delegating wrapper that times one policy system slot by slot.

    It exposes exactly the optional methods the wrapped system has
    (``run_system`` probes them with ``getattr``), so the replay takes
    the same path with and without the wrapper. Slots are split by
    whether the burst exceeded the free buffer at slot start.
    """

    def __init__(self, ledger: Ledger, inner: Any, config: Any) -> None:
        self._ledger = ledger
        self._inner = inner
        self._buffer = config.buffer_size
        policy = inner.policy
        name = getattr(policy, "name", type(policy).__name__)
        self.layer = f"engine.{name}"
        if hasattr(inner, "run_slot_columns"):
            self.run_slot_columns = self._run_slot_columns

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def _slot(self, burst: int, call: Callable[[], Any]) -> Any:
        congested = burst > self._buffer - self._inner.backlog
        start = time.perf_counter()
        out = call()
        elapsed = time.perf_counter() - start
        kind = "congested" if congested else "free"
        ledger = self._ledger
        ledger.seconds[f"slot.{kind}"] += elapsed
        ledger.add(f"slot.{kind}")
        ledger.add("engine.slots")
        ledger.add("engine.arrivals", burst)
        return out

    def _run_slot_columns(self, ports, works, values, arrivals, lo, hi):
        return self._slot(
            hi - lo,
            lambda: self._inner.run_slot_columns(
                ports, works, values, arrivals, lo, hi
            ),
        )

    def run_slot(self, arrivals):
        return self._slot(
            len(arrivals), lambda: self._inner.run_slot(arrivals)
        )

    def fast_forward(self, n_slots: int) -> None:
        self._ledger.add("engine.ff_slots", n_slots)
        with self._ledger.span("fast_forward"):
            self._inner.fast_forward(n_slots)

    def flush(self) -> int:
        with self._ledger.span("flush"):
            return self._inner.flush()


@contextmanager
def patched(target: Any, name: str, value: Any) -> Iterator[None]:
    original = getattr(target, name)
    setattr(target, name, value)
    try:
        yield
    finally:
        setattr(target, name, original)


@contextmanager
def installed(ledger: Ledger) -> Iterator[None]:
    """Hook every layer boundary for the duration of the block."""
    from contextlib import ExitStack

    from repro.analysis import competitive, tracestore
    from repro.experiments import fig5

    policy_system = competitive.PolicySystem
    run_system = competitive.run_system
    get_or_build = tracestore.TraceStore.get_or_build

    def make_system(config, policy, *args, **kwargs):
        inner = policy_system(config, policy, *args, **kwargs)
        return TracedSystem(ledger, inner, config)

    def traced_run_system(system, trace, *args, **kwargs):
        if isinstance(system, TracedSystem):
            layer = system.layer
        else:
            layer = "opt"
            ledger.add("opt.runs")
        with ledger.span(layer):
            return run_system(system, trace, *args, **kwargs)

    def traced_get_or_build(store, key, builder, *args, **kwargs):
        built = []

        def counted():
            built.append(True)
            return builder()

        with ledger.span("tracestore"):
            trace = get_or_build(store, key, counted, *args, **kwargs)
        ledger.add("tracestore.builds" if built else "tracestore.hits")
        return trace

    def traced_generator(generate):
        @functools.wraps(generate)
        def traced(*args, **kwargs):
            with ledger.span("traffic"):
                trace = generate(*args, **kwargs)
            ledger.add("traffic.traces")
            ledger.add("traffic.packets", trace.total_packets)
            return trace

        return traced

    with ExitStack() as stack:
        stack.enter_context(patched(competitive, "PolicySystem", make_system))
        stack.enter_context(
            patched(competitive, "run_system", traced_run_system)
        )
        stack.enter_context(
            patched(tracestore.TraceStore, "get_or_build", traced_get_or_build)
        )
        for name in GENERATOR_NAMES:
            generate: Optional[Callable] = getattr(fig5, name, None)
            if generate is not None:
                stack.enter_context(
                    patched(fig5, name, traced_generator(generate))
                )
        yield
