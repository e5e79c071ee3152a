"""Columnar arrival traces: CSR-style per-slot packet columns.

A :class:`ColumnarTrace` stores the same arrival sequence as
:class:`repro.traffic.trace.Trace` without one object per packet: a slot
``offsets`` array (CSR row pointers, length ``n_slots + 1``) plus flat
``ports`` / ``works`` / ``values`` columns, and optional ``opts`` /
``arrivals`` columns for the rare traces that carry scripted-OPT tags or
out-of-line arrival slots (repeated adversarial rounds). Slot ``s``'s
burst is the column span ``offsets[s]:offsets[s + 1]``.

The canonical column representation is plain Python lists — the one
buffer type both column backends share and the fastest thing the
ingestion loops (:meth:`repro.core.columnar.VectorizedSwitch.
run_slot_columns`, the vectorized OPT surrogates) can index packet by
packet. The :mod:`repro.core.columns` backend seam is used where arrays
pay: the batched numpy sampling inside the generators below, and the
typed int64/float64 buffers of :meth:`as_columns` that the on-disk trace
store serializes.

**One generator per recipe.** Each traffic recipe — MMPP processing,
MMPP value-uniform, MMPP value-port, Poisson and saturating — has
exactly one function body that draws from the RNG. The MMPP recipes are
per-slot column generators (:func:`processing_slots`,
:func:`value_uniform_slots`, :func:`value_port_slots`) yielding one
slot's ``(ports, works, values)`` arrays at a time; every
``columnar_*_workload`` function collects such a stream into a
:class:`ColumnarTrace` through one shared collector, and
:func:`repro.analysis.streaming.stream_competitive` consumes the same
stream directly for bounded-memory paper-scale runs. The packet streams
are pinned by the golden per-panel trace digests (``repro golden``) and
the sweep-level ``cmp`` identity checks in CI.

For consumers that need objects (the reference engine, observers,
scripted-OPT replays) :meth:`ColumnarTrace.to_trace` materializes the
packets lazily and caches the result, so replaying one trace through
many reference systems pays materialization once.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

try:  # pure-stdlib installs can still import the module
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    np = None  # type: ignore[assignment]

from repro.core.config import QueueDiscipline, SwitchConfig
from repro.core.errors import ConfigError, TraceError
from repro.core.packet import Packet
from repro.traffic.mmpp import MmppFleet
from repro.traffic.trace import PortStateEvent, Trace
from repro.traffic.workloads import (
    DEFAULT_SOURCES,
    _fleet,
    processing_capacity,
    value_capacity,
)

__all__ = [
    "ColumnarTrace",
    "SlotColumns",
    "processing_slots",
    "value_uniform_slots",
    "value_port_slots",
    "columnar_processing_workload",
    "columnar_value_uniform_workload",
    "columnar_value_port_workload",
    "columnar_poisson_workload",
    "columnar_saturating_workload",
]


class ColumnarTrace:
    """A trace as flat CSR columns instead of per-packet objects.

    Parameters
    ----------
    offsets:
        CSR row pointers: ``offsets[s]`` is the column index of slot
        ``s``'s first packet; length ``n_slots + 1``; ``offsets[-1]``
        is the total packet count.
    ports / works / values:
        One entry per packet, in arrival order.
    opts:
        Optional scripted-OPT tags per packet: ``-1`` for untagged
        (``opt_accept is None``), ``0``/``1`` for tagged. ``None`` when
        no packet is tagged (the common case).
    arrivals:
        Optional explicit ``arrival_slot`` per packet. ``None`` means
        every packet's arrival slot is its own slot index (true for all
        generated workloads; repeated adversarial rounds reuse
        within-round slots and need the explicit column).
    port_events:
        Optional port churn, same shape as :attr:`Trace.port_events`
        (slot -> ordered :class:`PortStateEvent` list). Empty for the
        static traces all generators emit.
    """

    __slots__ = (
        "offsets",
        "ports",
        "works",
        "values",
        "opts",
        "arrivals",
        "port_events",
        "_trace",
        "_arrays",
    )

    def __init__(
        self,
        offsets: List[int],
        ports: List[int],
        works: List[int],
        values: List[float],
        opts: Optional[List[int]] = None,
        arrivals: Optional[List[int]] = None,
        port_events: Optional[Dict[int, List[PortStateEvent]]] = None,
    ) -> None:
        if not offsets or offsets[0] != 0:
            raise TraceError("offsets must start at 0")
        total = offsets[-1]
        if not (len(ports) == len(works) == len(values) == total):
            raise TraceError(
                f"column lengths {len(ports)}/{len(works)}/{len(values)} "
                f"do not match offsets[-1]={total}"
            )
        for extra in (opts, arrivals):
            if extra is not None and len(extra) != total:
                raise TraceError(
                    f"optional column length {len(extra)} != {total}"
                )
        self.offsets = offsets
        self.ports = ports
        self.works = works
        self.values = values
        self.opts = opts
        self.arrivals = arrivals
        self.port_events: Dict[int, List[PortStateEvent]] = (
            port_events if port_events is not None else {}
        )
        self._trace: Optional[Trace] = None
        self._arrays: Optional[Tuple[Any, Any, Any]] = None

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------

    @property
    def n_slots(self) -> int:
        return len(self.offsets) - 1

    @property
    def total_packets(self) -> int:
        return self.offsets[-1]

    def __len__(self) -> int:
        return self.n_slots

    def slot_bounds(self, slot: int) -> Tuple[int, int]:
        """Column span ``[lo, hi)`` of ``slot``'s burst."""
        return self.offsets[slot], self.offsets[slot + 1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnarTrace):
            return NotImplemented
        return self._canonical() == other._canonical()

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("ColumnarTrace is mutable column data; unhashable")

    def _canonical(
        self,
    ) -> Tuple[
        List[int], List[int], List[int], List[float], List[int], List[int]
    ]:
        total = self.total_packets
        opts = self.opts if self.opts is not None else [-1] * total
        if self.arrivals is not None:
            arrivals = self.arrivals
        else:
            arrivals = []
            for slot in range(self.n_slots):
                arrivals.extend(
                    [slot] * (self.offsets[slot + 1] - self.offsets[slot])
                )
        return (
            self.offsets,
            self.ports,
            self.works,
            self.values,
            opts,
            arrivals,
            self.port_events,
        )

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------

    @classmethod
    def from_trace(cls, trace: Trace) -> "ColumnarTrace":
        """Convert an object trace; packet order and content preserved.

        The ``arrivals`` column is emitted only when some packet's
        ``arrival_slot`` differs from its slot index, and ``opts`` only
        when some packet carries a scripted-OPT tag — so conversion
        round-trips normalize to the compact form.
        """
        offsets = [0]
        ports: List[int] = []
        works: List[int] = []
        values: List[float] = []
        opts: List[int] = []
        arrivals: List[int] = []
        tagged = False
        out_of_line = False
        for slot, burst in enumerate(trace.slots):
            for packet in burst:
                ports.append(packet.port)
                works.append(packet.work)
                values.append(packet.value)
                if packet.opt_accept is None:
                    opts.append(-1)
                else:
                    tagged = True
                    opts.append(1 if packet.opt_accept else 0)
                arrivals.append(packet.arrival_slot)
                if packet.arrival_slot != slot:
                    out_of_line = True
            offsets.append(len(ports))
        return cls(
            offsets,
            ports,
            works,
            values,
            opts if tagged else None,
            arrivals if out_of_line else None,
            (
                {s: list(ev) for s, ev in trace.port_events.items()}
                if trace.port_events
                else None
            ),
        )

    def to_trace(self) -> Trace:
        """Materialize (and cache) the equivalent object trace.

        The cached trace is shared between callers — packets are
        templates (the engines admit fresh copies), so sharing is safe
        exactly as it is for any other replayed :class:`Trace`.
        """
        if self._trace is not None:
            return self._trace
        offsets = self.offsets
        ports = self.ports
        works = self.works
        values = self.values
        opts = self.opts
        arrivals = self.arrivals
        trace = Trace()
        for slot in range(self.n_slots):
            lo, hi = offsets[slot], offsets[slot + 1]
            burst = []
            for i in range(lo, hi):
                opt: Optional[bool] = None
                if opts is not None and opts[i] >= 0:
                    opt = bool(opts[i])
                burst.append(
                    Packet(
                        port=ports[i],
                        work=works[i],
                        value=values[i],
                        arrival_slot=(
                            arrivals[i] if arrivals is not None else slot
                        ),
                        opt_accept=opt,
                    )
                )
            trace.append_slot(burst)
        for slot, events in self.port_events.items():
            trace.port_events[slot] = list(events)
        self._trace = trace
        return trace

    @property
    def slots(self) -> List[List[Packet]]:
        """Materialized per-slot bursts (object-engine compatibility)."""
        return self.to_trace().slots

    def packets(self) -> Iterator[Packet]:
        """All packets in arrival order (materializes)."""
        return self.to_trace().packets()

    def array_columns(self) -> Optional[Tuple[Any, Any, Any]]:
        """Cached ``(ports, works, values)`` as numpy arrays.

        Consumers that batch whole slot spans (the vectorized OPT
        surrogates — see their ``prefers_array_columns`` handshake in
        :func:`repro.analysis.competitive.run_system`) want contiguous
        int64/float64 arrays instead of the canonical lists. The
        conversion is cached on the trace, so a trace reused across
        sweep cells pays it once. Returns ``None`` without numpy or
        under ``REPRO_VECTOR_BACKEND=python`` — callers fall back to
        the list columns, which keeps the forced-python leg honest
        end to end.
        """
        from repro.core.columns import numpy_module

        if np is None or numpy_module() is None:
            return None
        cached = self._arrays
        if cached is None:
            cached = (
                np.asarray(self.ports, dtype=np.int64),
                np.asarray(self.works, dtype=np.int64),
                np.asarray(self.values, dtype=np.float64),
            )
            self._arrays = cached
        return cached

    def as_columns(self) -> Dict[str, Any]:
        """Typed int64/float64 backend columns (artifact serialization)."""
        from repro.core import columns

        out: Dict[str, Any] = {
            "offsets": columns.int_column_from(self.offsets),
            "ports": columns.int_column_from(self.ports),
            "works": columns.int_column_from(self.works),
            "values": columns.float_column_from(self.values),
        }
        if self.opts is not None:
            out["opts"] = columns.int_column_from(self.opts)
        if self.arrivals is not None:
            out["arrivals"] = columns.int_column_from(self.arrivals)
        return out

    # ------------------------------------------------------------------
    # Inspection / validation (Trace-compatible)
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """Aggregate statistics; same keys as :meth:`Trace.stats`."""
        total = self.total_packets
        return {
            "n_slots": self.n_slots,
            "total_packets": total,
            "mean_burst": total / self.n_slots if self.n_slots else 0.0,
            "max_work": max(self.works) if total else 0,
            "total_value": sum(self.values),
        }

    def per_port_counts(self, n_ports: int) -> List[int]:
        """Arrival counts per destination port."""
        counts = [0] * n_ports
        for port in self.ports:
            if port >= n_ports:
                raise TraceError(
                    f"packet for port {port} but n_ports={n_ports}"
                )
            counts[port] += 1
        return counts

    def validate_for(self, config: SwitchConfig) -> None:
        """Raise :class:`TraceError` unless the trace fits the switch.

        Same contract as :meth:`Trace.validate_for`, over columns: port
        ranges, and the Section III per-port work requirement under the
        FIFO discipline.
        """
        n_ports = config.n_ports
        fifo = config.discipline is QueueDiscipline.FIFO
        works = config.works if fifo else None
        for port, work in zip(self.ports, self.works):
            if not 0 <= port < n_ports:
                raise TraceError(
                    f"packet port {port} out of range 0..{n_ports - 1}"
                )
            if works is not None and work != works[port]:
                raise TraceError(
                    f"packet work {work} != w_{port}={works[port]}"
                )
        for slot, events in self.port_events.items():
            if not 0 <= slot < self.n_slots:
                raise TraceError(
                    f"port event at slot {slot} outside trace of "
                    f"{self.n_slots} slots"
                )
            for event in events:
                if not 0 <= event.port < n_ports:
                    raise TraceError(
                        f"port event for port {event.port} out of range "
                        f"0..{n_ports - 1}"
                    )


# ----------------------------------------------------------------------
# Generators: one per traffic recipe
# ----------------------------------------------------------------------

#: One slot's arrivals as ``(ports, works, values)`` numpy arrays.
SlotColumns = Tuple[Any, Any, Any]


def _collect(slots: Iterable[SlotColumns]) -> ColumnarTrace:
    """Gather a per-slot column stream into one trace."""
    offsets = [0]
    chunks: List[SlotColumns] = []
    total = 0
    for columns in slots:
        size = len(columns[0])
        if size:
            chunks.append(columns)
            total += size
        offsets.append(total)
    if chunks:
        ports, works, values = (np.concatenate(c) for c in zip(*chunks))
    else:
        ports = np.empty(0, dtype=np.int64)
        works = np.empty(0, dtype=np.int64)
        values = np.empty(0, dtype=np.float64)
    # One float object per distinct value: recipes draw few distinct
    # values, and a fresh float per packet would dominate the lists.
    distinct, index = np.unique(values, return_inverse=True)
    trace = ColumnarTrace(
        offsets,
        ports.tolist(),
        works.tolist(),
        list(map(distinct.tolist().__getitem__, index.tolist())),
    )
    # The sampled arrays *are* the array view — donate them so
    # array-preferring consumers skip the list -> ndarray round trip.
    trace._arrays = (ports, works, values)
    return trace


def _check_slots(n_slots: int) -> None:
    """Validate a generator's horizon; the draws also need numpy."""
    if n_slots < 1:
        raise ConfigError(f"need >= 1 slot, got {n_slots}")
    if np is None:
        raise ConfigError(
            "the traffic generators need numpy (their draws are "
            "pinned to numpy.random.default_rng); install numpy to use "
            "them"
        )


def _by_port(
    fleet: MmppFleet,
    ports_of_source: Any,
    n_slots: int,
    works: Any,
    values: Any,
) -> Iterator[SlotColumns]:
    """Port-bound sources: each slot's burst is ports ascending, each
    repeated by the packets its sources emitted; ``works``/``values``
    are per-port lookup arrays."""
    n_ports = len(works)
    port_ix = np.arange(n_ports)
    for _slot in range(n_slots):
        per_port = np.bincount(
            ports_of_source, weights=fleet.step(), minlength=n_ports
        ).astype(np.int64)
        ports = np.repeat(port_ix, per_port)
        yield ports, works[ports], values[ports]


def processing_slots(
    config: SwitchConfig,
    n_slots: int,
    *,
    load: float = 2.0,
    absolute_rate: Optional[float] = None,
    n_sources: int = DEFAULT_SOURCES,
    mean_on_slots: float = 20.0,
    mean_off_slots: float = 1980.0,
    seed: int = 0,
) -> Iterator[SlotColumns]:
    """MMPP traffic for the heterogeneous-processing model, slot by slot.

    Each source is bound to a destination port chosen uniformly at
    construction time; while ON it emits Poisson packets for that port,
    each requiring the port's configured work (value 1).
    """
    _check_slots(n_slots)
    rng = np.random.default_rng(seed)
    ports_of_source = rng.integers(0, config.n_ports, size=n_sources)
    mean_per_slot = (
        absolute_rate
        if absolute_rate is not None
        else load * processing_capacity(config)
    )
    fleet = _fleet(
        n_sources, mean_per_slot, rng, mean_on_slots, mean_off_slots
    )
    yield from _by_port(
        fleet,
        ports_of_source,
        n_slots,
        np.asarray(config.works, dtype=np.int64),
        np.ones(config.n_ports),
    )


def value_uniform_slots(
    config: SwitchConfig,
    n_slots: int,
    max_value: int,
    *,
    load: float = 2.0,
    absolute_rate: Optional[float] = None,
    n_sources: int = DEFAULT_SOURCES,
    mean_on_slots: float = 20.0,
    mean_off_slots: float = 380.0,
    seed: int = 0,
    port_bound_sources: bool = True,
) -> Iterator[SlotColumns]:
    """Value-model MMPP traffic with uniform port and value, slot by slot.

    Matches Fig. 5 panels 4-6: "both output port and value chosen
    uniformly at random, so the distribution of values in each queue is
    also uniform". ``max_value`` is the paper's ``k``; every packet's
    value is uniform on ``1..max_value`` independent of its port.

    With ``port_bound_sources`` (default) each source is bound to a
    uniformly chosen port, so a source's on-burst floods one port — the
    interleaving-of-sources structure of Section V-A — and its values
    are drawn source by source. With ``port_bound_sources=False`` each
    *packet* picks a port independently, which spreads bursts across all
    queues and (because no port can then starve) compresses the
    differences between policies.
    """
    _check_slots(n_slots)
    if max_value < 1:
        raise ConfigError(f"max_value must be >= 1, got {max_value}")
    rng = np.random.default_rng(seed)
    ports_of_source = rng.integers(0, config.n_ports, size=n_sources)
    mean_per_slot = (
        absolute_rate
        if absolute_rate is not None
        else load * value_capacity(config)
    )
    fleet = _fleet(
        n_sources, mean_per_slot, rng, mean_on_slots, mean_off_slots
    )
    empty = np.empty(0, dtype=np.int64)
    for _slot in range(n_slots):
        counts = fleet.step()
        if port_bound_sources:
            sources = np.nonzero(counts)[0]
            sizes = counts[sources]
            ports = np.repeat(ports_of_source[sources], sizes)
            drawn = [
                rng.integers(1, max_value + 1, size=int(size))
                for size in sizes
            ]
            values = np.concatenate(drawn) if drawn else empty
        else:
            total = int(counts.sum())
            ports = values = empty
            if total:
                ports = rng.integers(0, config.n_ports, size=total)
                values = rng.integers(1, max_value + 1, size=total)
        yield (
            ports,
            np.ones(ports.size, dtype=np.int64),
            values.astype(np.float64),
        )


def value_port_slots(
    config: SwitchConfig,
    n_slots: int,
    *,
    load: float = 2.0,
    absolute_rate: Optional[float] = None,
    n_sources: int = DEFAULT_SOURCES,
    mean_on_slots: float = 20.0,
    mean_off_slots: float = 1980.0,
    seed: int = 0,
    port_weights: Optional[Any] = None,
) -> Iterator[SlotColumns]:
    """Value-model MMPP traffic where value is set by the port, slot by slot.

    Matches Fig. 5 panels 7-9. Each source is bound to a port; a
    packet's value is the port's configured value (e.g. value = port
    label for :meth:`repro.core.SwitchConfig.value_contiguous`).
    ``port_weights`` optionally skews how sources are assigned to ports,
    for studying "distributions that prioritize certain values at
    specific queues" (Section V-C).
    """
    _check_slots(n_slots)
    rng = np.random.default_rng(seed)
    if port_weights is None:
        ports_of_source = rng.integers(0, config.n_ports, size=n_sources)
    else:
        weights = np.asarray(port_weights, dtype=float)
        if weights.shape != (config.n_ports,) or weights.sum() <= 0:
            raise ConfigError("port_weights must be positive, one per port")
        probs = weights / weights.sum()
        ports_of_source = rng.choice(config.n_ports, size=n_sources, p=probs)
    mean_per_slot = (
        absolute_rate
        if absolute_rate is not None
        else load * value_capacity(config)
    )
    fleet = _fleet(
        n_sources, mean_per_slot, rng, mean_on_slots, mean_off_slots
    )
    yield from _by_port(
        fleet,
        ports_of_source,
        n_slots,
        np.ones(config.n_ports, dtype=np.int64),
        np.asarray(config.values, dtype=np.float64),
    )


def columnar_processing_workload(
    config: SwitchConfig, n_slots: int, **kwargs: Any
) -> ColumnarTrace:
    """:func:`processing_slots` collected into one trace."""
    return _collect(processing_slots(config, n_slots, **kwargs))


def columnar_value_uniform_workload(
    config: SwitchConfig, n_slots: int, max_value: int, **kwargs: Any
) -> ColumnarTrace:
    """:func:`value_uniform_slots` collected into one trace."""
    return _collect(value_uniform_slots(config, n_slots, max_value, **kwargs))


def columnar_value_port_workload(
    config: SwitchConfig, n_slots: int, **kwargs: Any
) -> ColumnarTrace:
    """:func:`value_port_slots` collected into one trace."""
    return _collect(value_port_slots(config, n_slots, **kwargs))


def columnar_poisson_workload(
    config: SwitchConfig,
    n_slots: int,
    *,
    load: float = 2.0,
    seed: int = 0,
) -> ColumnarTrace:
    """Memoryless arrivals: each slot each port draws an independent
    Poisson count; total mean rate = ``load x`` processing capacity.

    The smoothest traffic at a given rate — a *negative control*: under
    smooth overload all work-conserving policies tie (see the
    burstiness ablation).
    """
    _check_slots(n_slots)
    rng = np.random.default_rng(seed)
    rate = load * processing_capacity(config) / config.n_ports
    works = np.asarray(config.works, dtype=np.int64)
    port_ix = np.arange(config.n_ports)

    def slots() -> Iterator[SlotColumns]:
        for _slot in range(n_slots):
            counts = rng.poisson(rate, size=config.n_ports)
            ports = np.repeat(port_ix, counts)
            yield ports, works[ports], np.ones(ports.size)

    return _collect(slots())


def columnar_saturating_workload(
    config: SwitchConfig, n_slots: int, *, seed: int = 0
) -> ColumnarTrace:
    """Adversarial congestion: ~1.5n uniformly-addressed packets per slot.

    Offered load is far above any service rate, so after a couple of
    slots the buffer is permanently full and every single arrival goes
    through the policy's congested-path victim search. Value-model
    packets draw small integer values so exact value ties (the hard
    tie-breaking cases) occur constantly.
    """
    _check_slots(n_slots)
    rng = np.random.default_rng(seed)
    n = config.n_ports
    per_slot = max(2, (3 * n) // 2)
    by_value = config.discipline is QueueDiscipline.PRIORITY
    works = np.asarray(config.works, dtype=np.int64)
    values = np.asarray(config.values, dtype=np.float64)
    unit = np.ones(per_slot, dtype=np.int64)

    def slots() -> Iterator[SlotColumns]:
        for _slot in range(n_slots):
            ports = rng.integers(0, n, size=per_slot)
            if by_value:
                drawn = rng.integers(1, 17, size=per_slot)
                yield ports, unit, drawn.astype(np.float64)
            else:
                yield ports, works[ports], values[ports]

    return _collect(slots())
