"""The shared-memory switch simulation engine.

Implements the slotted-time model of Sections III-A / IV-A of the paper:

* **Arrival phase.** A burst of packets arrives (traces linearize the
  paper's fixed input-port service order into a single sequence). For each
  packet, the buffer-management policy returns a :class:`~repro.core.
  decisions.Decision`; the switch validates and applies it. Push-out drops
  the *tail* packet of the victim queue before enqueuing the arrival.

* **Transmission phase.** Every non-empty output queue hands one processing
  cycle to each of its first ``min(C, |Q|)`` packets, where ``C`` is the
  configured speedup; packets whose residual work reaches zero are
  transmitted. Queues are served in increasing port order, which matches
  the well-defined per-port processing order the paper's Theorem 7 proof
  relies on.

The engine enforces model invariants — buffer occupancy never exceeds
``B``, per-port work constraints hold, push-out is only meaningful when it
frees space — and raises :class:`~repro.core.errors.PolicyError` when a
policy violates the contract, rather than silently producing wrong
competitive ratios.

Fast path
---------
The switch maintains two acceleration structures, both invisible at the
model level (simulation output is decision-for-decision identical with
them on or off):

* an **active set** — the sorted list of non-empty ports. The
  transmission phase walks only active queues, so a large-``n`` switch
  with a handful of busy ports pays for the busy ports, not for ``n``.
* an :class:`~repro.core.aggregates.AggregateIndex` of incremental
  per-port aggregate orderings, which turns the push-out policies'
  O(n) victim rescans into O(log n) top-of-ordering reads. Constructing
  the switch with ``fast_path=False`` omits the index; policies then
  fall back to their naive :class:`SwitchView`-only reference scans —
  the configuration the differential test suite compares against.

Every queue mutation funnels through :meth:`SharedMemorySwitch.
_queue_changed`, which updates the active set, invalidates the cached
read views handed to policies, and notifies the index.

Observability
-------------
The switch carries a *nullable observer slot* (:attr:`SharedMemorySwitch.
observer`). When set to a :class:`~repro.obs.observer.SlotObserver`, the
engine emits structured events — slot framing, arrivals, decisions,
push-outs, transmissions, flushes, and explicit idle frames for
fast-forwarded stretches — as frozen snapshots that observers cannot
mutate the simulation through. When the slot is ``None`` (the default)
the arrival hot path pays exactly one ``is None`` check per packet; the
overhead contract is fenced by ``benchmarks/test_fastpath_perf.py`` and
documented in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Iterable, List, Optional, Protocol, Sequence, Tuple

from repro.core.aggregates import AggregateIndex
from repro.core.config import QueueDiscipline, SwitchConfig
from repro.core.decisions import DROP, Action, Decision
from repro.core.errors import PolicyError, TraceError
from repro.core.hotpath import hot_path
from repro.core.metrics import SwitchMetrics
from repro.core.packet import Packet
from repro.core.queues import FifoQueue, OutputQueue, ValuePriorityQueue
from repro.obs.observer import PacketEvent, SlotObserver


class SwitchView:
    """Read-only facade over a switch, handed to policies.

    Policies must base decisions only on observable state: queue contents,
    occupancy, and the static configuration. The view exposes exactly
    that — it holds the switch privately and forwards queries. On
    fast-path switches it additionally exposes the aggregate index
    (:attr:`index`); policies treat it as an accelerated way to read the
    same observable state.
    """

    __slots__ = ("_switch",)

    def __init__(self, switch: "SharedMemorySwitch") -> None:
        self._switch = switch

    @property
    def config(self) -> SwitchConfig:
        return self._switch.config

    @property
    def n_ports(self) -> int:
        return self._switch.config.n_ports

    @property
    def buffer_size(self) -> int:
        return self._switch.config.buffer_size

    @property
    def occupancy(self) -> int:
        return self._switch.occupancy

    @property
    def is_full(self) -> bool:
        return self._switch.occupancy >= self._switch.config.buffer_size

    @property
    def free_space(self) -> int:
        return self._switch.config.buffer_size - self._switch.occupancy

    @hot_path
    def can_accept(self, port: int) -> bool:
        """Whether an arrival to ``port`` has a usable free slot.

        On the purely shared model this is exactly ``not is_full``. Under
        a reserved + shared :class:`~repro.core.config.BufferModel` split
        a packet fits while its queue is below its reservation or the
        shared pool (plus any reclaimed down-port reservations) has room.
        A reservation is usable only while the buffer has a free slot: a
        port that comes back up can find other ports' shared overflow
        still holding its reserved slots (the pool is over-committed
        until that overflow drains).
        """
        switch = self._switch
        reserved = switch._reserved
        if reserved is None:
            return switch.occupancy < switch.config.buffer_size
        if len(switch.queues[port]) < reserved[port]:
            return switch.occupancy < switch.config.buffer_size
        return switch._shared_occ < switch._shared_pool + switch._down_reserved

    @property
    def shared_occupancy(self) -> int:
        """Packets occupying *shared* slots (== ``occupancy`` when purely
        shared; under a split, each queue's overflow past its reservation)."""
        switch = self._switch
        if switch._reserved is None:
            return switch.occupancy
        return switch._shared_occ

    @property
    def shared_capacity(self) -> int:
        """Usable shared slots: the pool plus reclaimed down-port
        reservations (== ``buffer_size`` when purely shared)."""
        switch = self._switch
        if switch._reserved is None:
            return switch.config.buffer_size
        return switch._shared_pool + switch._down_reserved

    @property
    def shared_free(self) -> int:
        """Free shared slots, ``shared_capacity - shared_occupancy``."""
        return self.shared_capacity - self.shared_occupancy

    def reserved(self, port: int) -> int:
        """Reserved slots of ``port`` (0 on the purely shared model)."""
        reserved = self._switch._reserved
        return 0 if reserved is None else reserved[port]

    def shared_queue_len(self, port: int) -> int:
        """Packets of queue ``port`` occupying shared slots,
        ``max(0, queue_len - reserved)``."""
        switch = self._switch
        qlen = len(switch.queues[port])
        reserved = switch._reserved
        if reserved is None:
            return qlen
        over = qlen - reserved[port]
        return over if over > 0 else 0

    def is_port_up(self, port: int) -> bool:
        """Whether ``port`` is admin-up (arrivals to down ports are
        dropped by the engine before the policy is consulted)."""
        return self._switch._port_up[port]

    @property
    def index(self) -> Optional[AggregateIndex]:
        """The switch's aggregate index, or ``None`` on naive switches."""
        return self._switch.index

    def _queue(self, port: int) -> OutputQueue:
        """The queue at ``port``; :class:`PolicyError` when out of range."""
        queues = self._switch.queues
        if not 0 <= port < len(queues):
            raise PolicyError(
                f"port {port} out of range 0..{len(queues) - 1}"
            )
        return queues[port]

    def queue_len(self, port: int) -> int:
        return len(self._switch.queues[port])

    def total_work(self, port: int) -> int:
        """The paper's ``W_i``: sum of residual work in queue ``port``."""
        return self._switch.queues[port].total_work

    def total_value(self, port: int) -> float:
        return self._switch.queues[port].total_value

    def avg_value(self, port: int) -> float:
        """The paper's ``a_j``: average value in queue ``port``."""
        return self._switch.queues[port].avg_value

    def min_value(self, port: int) -> float:
        return self._switch.queues[port].min_value

    def peek_tail(self, port: int) -> Packet:
        """The packet a push-out at ``port`` would evict.

        Raises :class:`PolicyError` naming the port when the queue is
        empty or the port is out of range (never a bare ``IndexError``).
        """
        queue = self._queue(port)
        if len(queue) == 0:
            raise PolicyError(f"peek_tail of empty queue {port}")
        return queue.peek_tail()

    def tail_value(self, port: int) -> float:
        """Value of the packet a push-out at ``port`` would evict."""
        return self.peek_tail(port).value

    def work_of(self, port: int) -> int:
        return self._switch.config.work_of(port)

    @hot_path
    def nonempty_ports(self) -> Tuple[int, ...]:
        """Ports with at least one buffered packet, ascending.

        Returns a cached tuple view maintained by the switch's
        change-notification hooks — O(1) on the hot path instead of an
        O(n) scan-and-allocate per call.
        """
        switch = self._switch
        cached = switch._nonempty_cache
        if cached is None:
            cached = switch._nonempty_cache = tuple(switch._active_ports)
        return cached

    @hot_path
    def queue_packets(self, port: int) -> Tuple[Packet, ...]:
        """Snapshot of queue contents head-to-tail (tests and debugging).

        The tuple is cached until the queue next changes; packets are the
        live objects, so residuals reflect processing as they always did.
        """
        switch = self._switch
        cached = switch._packets_cache[port]
        if cached is None:
            cached = tuple(switch.queues[port])
            switch._packets_cache[port] = cached
        return cached

    @hot_path
    def buffer_min_value(self) -> Optional[float]:
        """The minimal value over all buffered packets, or ``None`` when
        the buffer is empty. Used by MVD/MRD admission tests."""
        index = self._switch.index
        if index is not None:
            top = index.ordering("min_value").best()
            return None if top is None else -top[0]
        best: Optional[float] = None
        for queue in self._switch.queues:
            if len(queue) == 0:
                continue
            candidate = queue.min_value
            if best is None or candidate < best:
                best = candidate
        return best


class AdmissionPolicy(Protocol):
    """Structural interface every buffer-management policy satisfies."""

    name: str

    def admit(self, view: SwitchView, packet: Packet) -> Decision:
        """Decide the fate of one arriving packet."""
        ...


class SharedMemorySwitch:
    """An ``n``-port output-queued switch with a shared buffer of ``B`` slots.

    The switch is policy-agnostic: it owns state (queues, occupancy,
    metrics) and mechanics (arrival application, transmission), while all
    admission intelligence lives in the policy object passed to
    :meth:`arrival_phase` / :meth:`run_slot`.

    ``fast_path`` controls the aggregate index behind indexed victim
    selection. ``False`` builds a reference switch on which policies use
    their naive O(n) scans; simulation output is identical either way
    (the differential suite enforces this).
    """

    def __init__(
        self,
        config: SwitchConfig,
        *,
        fast_path: bool = True,
        observer: Optional[SlotObserver] = None,
    ) -> None:
        self.config = config
        self.observer = observer
        queue_cls = (
            FifoQueue
            if config.discipline is QueueDiscipline.FIFO
            else ValuePriorityQueue
        )
        self.queues: List[OutputQueue] = [
            queue_cls(port) for port in range(config.n_ports)
        ]
        self.occupancy = 0
        self.metrics = SwitchMetrics(n_ports=config.n_ports)
        self.view = SwitchView(self)
        self.current_slot = 0
        self.fast_path = fast_path
        self.index: Optional[AggregateIndex] = (
            AggregateIndex(self.queues, config.works) if fast_path else None
        )
        # Acceleration state, maintained by _queue_changed: the sorted
        # active (non-empty) port list, and the cached read views.
        self._active_ports: List[int] = []
        self._is_active: List[bool] = [False] * config.n_ports
        self._nonempty_cache: Optional[Tuple[int, ...]] = None
        self._packets_cache: List[Optional[Tuple[Packet, ...]]] = (
            [None] * config.n_ports
        )
        # Buffer-model state. ``_reserved is None`` marks the purely
        # shared model and keeps its hot path free of split accounting.
        model = config.buffer_model
        if model is None or model.is_purely_shared:
            self._reserved: Optional[Tuple[int, ...]] = None
            self._shared_pool = config.buffer_size
        else:
            self._reserved = model.reserved
            self._shared_pool = model.shared_pool
        self._shared_used: List[int] = [0] * config.n_ports
        self._shared_occ = 0
        # Port admin state (churn). All ports start up; ``_n_down`` gates
        # the per-arrival check so static runs pay one int test.
        self._port_up: List[bool] = [True] * config.n_ports
        self._n_down = 0
        self._down_reserved = 0

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def attach_observer(self, observer: Optional[SlotObserver]) -> None:
        """Set (or clear, with ``None``) the switch's observer slot."""
        self.observer = observer

    # ------------------------------------------------------------------
    # Change notification (the single funnel for queue mutations)
    # ------------------------------------------------------------------

    @hot_path
    def _queue_changed(self, port: int) -> None:
        """Refresh acceleration state after ``queues[port]`` mutated."""
        qlen = len(self.queues[port])
        reserved = self._reserved
        if reserved is not None:
            shared = qlen - reserved[port]
            if shared < 0:
                shared = 0
            delta = shared - self._shared_used[port]
            if delta:
                self._shared_used[port] = shared
                self._shared_occ += delta
        nonempty = qlen > 0
        if nonempty != self._is_active[port]:
            self._is_active[port] = nonempty
            if nonempty:
                insort(self._active_ports, port)
            else:
                del self._active_ports[bisect_left(self._active_ports, port)]
            self._nonempty_cache = None
        self._packets_cache[port] = None
        if self.index is not None:
            self.index.update(port)

    def _reset_runtime_state(self) -> None:
        """Rebuild acceleration state from scratch (after a flush)."""
        self._active_ports = [
            q.port for q in self.queues if len(q) > 0
        ]
        self._is_active = [len(q) > 0 for q in self.queues]
        self._nonempty_cache = None
        self._packets_cache = [None] * self.config.n_ports
        reserved = self._reserved
        if reserved is not None:
            self._shared_used = [
                max(0, len(q) - r) for q, r in zip(self.queues, reserved)
            ]
            self._shared_occ = sum(self._shared_used)
        if self.index is not None:
            self.index.rebuild()

    # ------------------------------------------------------------------
    # Arrival phase
    # ------------------------------------------------------------------

    def arrival_phase(
        self, arrivals: Iterable[Packet], policy: AdmissionPolicy
    ) -> None:
        """Offer each arriving packet to ``policy`` and apply its decision.

        Packets are considered strictly in iteration order, one at a time,
        exactly as the paper's model serves input ports in a fixed order.
        """
        for packet in arrivals:
            self.offer(packet, policy)

    @hot_path
    def offer(self, packet: Packet, policy: AdmissionPolicy) -> Decision:
        """Process a single arrival; returns the decision for observability."""
        self._validate_arrival(packet)
        self.metrics.record_arrival(packet)
        observer = self.observer
        if self._n_down and not self._port_up[packet.port]:
            # Arrivals to an admin-down port are dropped by the engine
            # before the policy sees them; the decision stream still
            # records the drop so replays stay conservation-complete.
            self.metrics.record_drop(packet)
            if observer is not None:
                observer.on_arrival(self.current_slot, PacketEvent.of(packet))
                observer.on_decision(
                    self.current_slot, Action.DROP.value, None
                )
            return DROP
        if observer is None:
            decision = policy.admit(self.view, packet)
            self.apply(packet, decision)
            return decision
        observer.on_arrival(self.current_slot, PacketEvent.of(packet))
        decision = policy.admit(self.view, packet)
        self.apply(packet, decision)
        observer.on_decision(
            self.current_slot, decision.action.value, decision.victim_port
        )
        return decision

    @hot_path
    def apply(self, packet: Packet, decision: Decision) -> None:
        """Validate and execute a policy decision for ``packet``."""
        if decision.action is Action.DROP:
            self.metrics.record_drop(packet)
            return

        if decision.action is Action.PUSH_OUT:
            victim_port = decision.victim_port
            assert victim_port is not None  # enforced by Decision
            if not 0 <= victim_port < self.config.n_ports:
                raise PolicyError(
                    f"push-out victim port {victim_port} out of range"
                )
            victim_queue = self.queues[victim_port]
            if len(victim_queue) == 0:
                raise PolicyError(
                    f"policy pushed out from empty queue {victim_port}"
                )
            victim = victim_queue.drop_tail()
            self.occupancy -= 1
            self._queue_changed(victim_port)
            self.metrics.record_push_out(victim)
            if self.observer is not None:
                self.observer.on_push_out(
                    self.current_slot, PacketEvent.of(victim)
                )
            # Fall through to accept the arriving packet.

        if self._reserved is None:
            if self.occupancy >= self.config.buffer_size:
                raise PolicyError(
                    "policy accepted a packet into a full buffer "
                    f"(occupancy={self.occupancy}, B={self.config.buffer_size})"
                )
        elif not self._fits(packet.port):
            raise PolicyError(
                f"policy accepted a packet for port {packet.port} with no "
                f"usable slot (queue={len(self.queues[packet.port])}, "
                f"reserved={self._reserved[packet.port]}, "
                f"shared={self._shared_occ}/"
                f"{self._shared_pool + self._down_reserved})"
            )
        admitted = packet.fresh_copy()
        self.queues[packet.port].admit(admitted)
        self.occupancy += 1
        self._queue_changed(packet.port)
        self.metrics.record_accept(admitted)

    def _fits(self, port: int) -> bool:
        """Whether an arrival to ``port`` has a usable free slot
        (same rule as :meth:`SwitchView.can_accept`)."""
        reserved = self._reserved
        if reserved is None:
            return self.occupancy < self.config.buffer_size
        if len(self.queues[port]) < reserved[port]:
            return self.occupancy < self.config.buffer_size
        return self._shared_occ < self._shared_pool + self._down_reserved

    def _validate_arrival(self, packet: Packet) -> None:
        if not 0 <= packet.port < self.config.n_ports:
            raise TraceError(
                f"packet destined to port {packet.port}, switch has "
                f"{self.config.n_ports} ports"
            )
        if (
            self.config.discipline is QueueDiscipline.FIFO
            and packet.work != self.config.work_of(packet.port)
        ):
            raise TraceError(
                f"packet work {packet.work} violates per-port requirement "
                f"w_{packet.port}={self.config.work_of(packet.port)} "
                "(Section III model constraint)"
            )

    # ------------------------------------------------------------------
    # Transmission phase
    # ------------------------------------------------------------------

    @hot_path
    def transmission_phase(self) -> List[Packet]:
        """Process every non-empty queue once and collect transmissions.

        Walks the active set (ascending port order — the same service
        order as scanning all queues) so idle ports cost nothing.
        """
        transmitted: List[Packet] = []
        if self._active_ports:
            speedup = self.config.speedup
            queues = self.queues
            # Snapshot: process() may empty a queue and shrink the set.
            for port in tuple(self._active_ports):
                done = queues[port].process(speedup)
                if done:
                    self.occupancy -= len(done)
                    transmitted.extend(done)
                self._queue_changed(port)
        self.metrics.record_transmissions(transmitted, slot=self.current_slot)
        observer = self.observer
        if observer is not None and transmitted:
            slot = self.current_slot
            for packet in transmitted:
                observer.on_transmit(slot, PacketEvent.of(packet))
        return transmitted

    # ------------------------------------------------------------------
    # Whole slots and maintenance
    # ------------------------------------------------------------------

    def run_slot(
        self, arrivals: Sequence[Packet], policy: AdmissionPolicy
    ) -> List[Packet]:
        """One full time slot: arrival phase then transmission phase."""
        observer = self.observer
        if observer is not None:
            observer.on_slot_begin(self.current_slot, len(arrivals))
        self.arrival_phase(arrivals, policy)
        transmitted = self.transmission_phase()
        self.metrics.record_slot(self.occupancy)
        if observer is not None:
            observer.on_slot_end(self.current_slot, self.occupancy)
        self.current_slot += 1
        return transmitted

    def fast_forward(self, n_slots: int) -> None:
        """Advance over ``n_slots`` idle slots without simulating them.

        Valid only while the buffer is empty: an empty switch with no
        arrivals is a fixed point of :meth:`run_slot`, so the only
        observable effects of those slots are the clock and the per-slot
        metrics counters — both applied here in one step, byte-identical
        to running the slots one by one.
        """
        if n_slots < 0:
            raise TraceError(f"cannot fast-forward {n_slots} slots")
        if self.occupancy != 0:
            raise PolicyError(
                "fast_forward requires an empty buffer "
                f"(occupancy={self.occupancy})"
            )
        if self.observer is not None:
            self.observer.on_idle(self.current_slot, n_slots)
        self.metrics.record_idle_slots(n_slots)
        self.current_slot += n_slots

    def flush(self) -> int:
        """Clear all queues without transmission credit; returns the count.

        Implements the paper's periodic "flushouts" (Section V-A).
        """
        dropped: List[Packet] = []
        for queue in self.queues:
            dropped.extend(queue.clear())
        self.occupancy = 0
        self._reset_runtime_state()
        self.metrics.record_flush(dropped)
        if self.observer is not None:
            self.observer.on_flush(
                self.current_slot,
                tuple(PacketEvent.of(packet) for packet in dropped),
            )
        return len(dropped)

    # ------------------------------------------------------------------
    # Port churn (admin-up/down)
    # ------------------------------------------------------------------

    def set_port_state(self, port: int, up: bool) -> int:
        """Admin-up/down ``port``; returns the packets reclaimed.

        Taking a port *down* deterministically reclaims its buffer: the
        queue is cleared without transmission credit (the packets are
        accounted as flushed, exactly like :meth:`flush`), subsequent
        arrivals to the port are dropped by the engine before the policy
        is consulted, and — under a split buffer model — the port's
        reserved slots join the shared pool until the port comes back up.
        Redundant transitions are trace errors: churn traces must be
        well-formed so replays stay deterministic.
        """
        if not 0 <= port < self.config.n_ports:
            raise TraceError(
                f"port-state event for port {port}, switch has "
                f"{self.config.n_ports} ports"
            )
        up = bool(up)
        if up == self._port_up[port]:
            state = "up" if up else "down"
            raise TraceError(
                f"port {port} is already {state} at slot {self.current_slot}"
            )
        observer = self.observer
        if up:
            self._port_up[port] = True
            self._n_down -= 1
            if self._reserved is not None:
                self._down_reserved -= self._reserved[port]
            if observer is not None:
                observer.on_port_state(self.current_slot, port, True, ())
            return 0
        self._port_up[port] = False
        self._n_down += 1
        reclaimed = self.queues[port].clear()
        if reclaimed:
            self.occupancy -= len(reclaimed)
            self._queue_changed(port)
        self.metrics.record_flush(reclaimed)
        if self._reserved is not None:
            self._down_reserved += self._reserved[port]
        if observer is not None:
            observer.on_port_state(
                self.current_slot,
                port,
                False,
                tuple(PacketEvent.of(packet) for packet in reclaimed),
            )
        return len(reclaimed)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` if internal accounting is inconsistent.

        Called liberally by the test suite. Long simulations can opt in
        periodically via ``REPRO_CHECK_INVARIANTS`` (see
        :func:`repro.analysis.competitive.run_system`) — the scan is
        O(B + n), which is why it is not run per slot by default.
        """
        total = sum(len(q) for q in self.queues)
        assert total == self.occupancy, (
            f"occupancy {self.occupancy} != queued packets {total}"
        )
        assert 0 <= self.occupancy <= self.config.buffer_size
        for queue in self.queues:
            expect_work = sum(p.residual for p in queue)
            assert expect_work == queue.total_work, (
                f"queue {queue.port}: tracked work {queue.total_work} != "
                f"actual {expect_work}"
            )
            expect_value = sum(p.value for p in queue)
            assert abs(expect_value - queue.total_value) < 1e-9
            for packet in queue:
                assert packet.residual >= 1
        # Acceleration state mirrors the queues exactly.
        expect_active = [q.port for q in self.queues if len(q) > 0]
        assert self._active_ports == expect_active, (
            f"active set {self._active_ports} != {expect_active}"
        )
        assert self._is_active == [len(q) > 0 for q in self.queues]
        if self._nonempty_cache is not None:
            assert list(self._nonempty_cache) == expect_active
        for port, cached in enumerate(self._packets_cache):
            assert cached is None or list(cached) == list(self.queues[port])
        # Buffer-model and churn accounting.
        assert self._n_down == self._port_up.count(False)
        for port, port_up in enumerate(self._port_up):
            if not port_up:
                assert len(self.queues[port]) == 0, (
                    f"admin-down port {port} has buffered packets"
                )
        reserved = self._reserved
        if reserved is not None:
            expect_used = [
                max(0, len(q) - r) for q, r in zip(self.queues, reserved)
            ]
            assert self._shared_used == expect_used, (
                f"shared slot use {self._shared_used} != {expect_used}"
            )
            assert self._shared_occ == sum(expect_used)
            assert self._shared_occ <= self._shared_pool + self._down_reserved
            expect_down = sum(
                r for r, port_up in zip(reserved, self._port_up) if not port_up
            )
            assert self._down_reserved == expect_down
        if self.index is not None:
            self.index.check()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lens = ",".join(str(len(q)) for q in self.queues)
        return (
            f"SharedMemorySwitch(slot={self.current_slot}, "
            f"occupancy={self.occupancy}/{self.config.buffer_size}, "
            f"queues=[{lens}])"
        )
