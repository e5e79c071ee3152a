"""Vectorized batch-slot switch engine over flat per-port columns.

:class:`VectorizedSwitch` is a drop-in replacement for
:class:`repro.core.switch.SharedMemorySwitch` that keeps switch state as
struct-of-arrays columns indexed by output port (queue length, head
residual, value total, static work) instead of per-packet objects in
per-queue containers. The reference engine stays the *oracle*: for every
valid trace the two engines produce byte-identical decision streams,
metrics, and buffer contents — including every tie-break — which the
differential and golden-stream suites enforce.

Batching structure
------------------
There is one ingestion path. The arrival phase is processed per slot
as one batch over flat columns (port, work, value, arrival slot):
:meth:`VectorizedSwitch.run_slot_columns` takes a span of a
:class:`repro.traffic.columnar.ColumnarTrace` directly, and
:meth:`VectorizedSwitch.run_slot` converts a ``Packet`` burst to the
same columns at entry, so both reach the same kernels. While the buffer
has free space every push-out policy is greedy (``PushOutPolicy.admit``
returns ``ACCEPT`` without consulting ``congested``), so the leading
run of a burst that fits in the free space is bulk-accepted without a
policy call. Once the buffer is full, victim selection for the paper's
processing-model policies reduces to an argmax over per-port aggregate
columns; three specialized kernels evaluate it in O(1)-ish time per
arrival using integer victim codes with the tie-break baked in:

* **LQD** — per-length rank bitsets: ``masks[L]`` holds a bitmask of
  the *static ranks* of ports at queue length ``L``; the running
  maximum ``(maxl, topr)`` is the victim key ``(|Q_j|, w_j, j)``.
* **LWD** — a sorted list of integer codes ``(W_j + off) * n + r_j``
  whose order equals the lexicographic ``(W_j, w_j, j)`` order. The
  ``off`` counter absorbs the uniform one-unit work decrement every
  active queue receives per transmission phase, so codes stay valid
  without per-slot rewrites.
* **BPD** — a single bitmask of the static ranks of non-empty ports;
  the victim is its highest bit.

The *static rank* ``r_p`` of port ``p`` is its position in the
ascending ``(w_p, p)`` order, so comparing ranks compares the paper's
``(w_j, j)`` tie-break exactly; ranks are unique, hence no kernel ever
faces an unresolved tie.

The transmission phase is batched as well. Single-core FIFO heads
decrement uniformly, so on narrow switches the engine keeps an
*expiry-tick calendar*: each armed head is scheduled once at the
absolute phase tick where it completes, advancing the tick is the
whole decrement, and a phase costs O(completions) — one dict pop —
instead of O(active ports). Wide switches (``ARRAY_TRANSMIT_MIN_PORTS``
and up, with numpy) use the whole-array decrement over the
head-residual column instead.

Every other policy (value-model, thresholds, extensions) runs its own
*naive* selector unmodified against :class:`ColumnarView`, a
``SwitchView``-compatible facade over the columns — decision parity is
then automatic rather than re-proved per policy.

Oracle contract and deviations
------------------------------
On valid traces the engine is observationally identical to the
reference. Three documented deviations exist:

* ``run_slot`` returns ``[]`` in fast mode (no observer attached):
  transmitted packets are accounted in metrics but not materialized as
  objects. ``repro.analysis.competitive.run_system`` ignores the
  return value; attach an observer to capture per-packet streams.
* Trace validation is batched per burst (and cached across replays of
  the same burst object or trace column), so an *invalid* trace raises
  before any packet of the offending burst is processed, whereas the
  reference raises mid-burst. Valid traces are unaffected.
* Fast-mode admissions do not draw global packet sequence numbers:
  for every policy and both entry points their store entries carry
  ``seq 0``, while the reference consumes one per admitted copy.
  Sequence numbers are debugging identity only — every
  decision-relevant and metrics-relevant quantity is seq-free — and
  the slow path keeps drawing real ones.

With an observer attached the engine switches to a per-packet slow
path with full event parity (arrival/decision/push-out/transmit/flush
order identical to the reference), at reference-like speed.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import OrderedDict, deque
from itertools import islice
from typing import (
    Any,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core import columns as _columns
from repro.core.config import QueueDiscipline, SwitchConfig
from repro.core.decisions import DROP, Action, Decision
from repro.core.errors import PolicyError, TraceError
from repro.core.hotpath import hot_path
from repro.core.metrics import SwitchMetrics
from repro.core.packet import Packet, packet_seq_source
from repro.obs.observer import PacketEvent, SlotObserver

#: Kernel identifiers (0 = generic per-packet policy dispatch).
K_GENERIC = 0
K_LQD = 1
K_LWD = 2
K_BPD = 3

#: Minimum switch width at which the whole-array transmission update
#: (ndarray ``hr -= amask`` + ``flatnonzero``) is used instead of the
#: expiry-tick calendar. The array form costs a fixed few microseconds
#: of numpy dispatch per slot regardless of width; the calendar costs
#: O(completions) per slot plus a small per-(re)arm constant.
ARRAY_TRANSMIT_MIN_PORTS = 128

#: Burst-validation memo: (id(burst), id(config)) -> strong refs.
#: Strong references pin both objects, so ids cannot be recycled while
#: an entry lives; bursts are treated as immutable (they are replayed
#: verbatim across policies, never edited in place).
_VALIDATED: "OrderedDict[Tuple[int, int], Tuple[Any, Any]]" = OrderedDict()
_VALIDATED_CAP = 1024

_policy_classes: Optional[Tuple[type, type, type, type, type]] = None


def _load_policy_classes() -> Tuple[type, type, type, type, type]:
    """Late import of policy classes (avoids a core->policies cycle)."""
    global _policy_classes
    if _policy_classes is None:
        from repro.policies.base import PushOutPolicy, ThresholdPolicy
        from repro.policies.processing import BPD, LQD, LWD

        _policy_classes = (LQD, LWD, BPD, PushOutPolicy, ThresholdPolicy)
    return _policy_classes


def _new_packet(
    port: int,
    work: int,
    value: float,
    arrival_slot: int,
    seq: int,
    residual: int,
) -> Packet:
    """Materialize a Packet from column fields without re-validation."""
    packet = object.__new__(Packet)
    packet.port = port
    packet.work = work
    packet.value = value
    packet.arrival_slot = arrival_slot
    packet.opt_accept = None
    packet.seq = seq
    packet.residual = residual
    return packet


class ColumnarView:
    """``SwitchView``-compatible read facade over columnar state.

    Policies treat it exactly like a ``fast_path=False`` view: ``index``
    is ``None``, so every policy runs its naive reference selector. All
    aggregate reads return the same values (bit-for-bit for the floats,
    which are maintained with the reference operation order) as a
    ``SwitchView`` over a reference switch in the same state.
    """

    __slots__ = ("_s",)

    def __init__(self, switch: "VectorizedSwitch") -> None:
        self._s = switch

    @property
    def config(self) -> SwitchConfig:
        return self._s.config

    @property
    def n_ports(self) -> int:
        return self._s.config.n_ports

    @property
    def buffer_size(self) -> int:
        return self._s.config.buffer_size

    @property
    def occupancy(self) -> int:
        return self._s.occupancy

    @property
    def is_full(self) -> bool:
        return self._s.occupancy >= self._s.config.buffer_size

    @property
    def free_space(self) -> int:
        return self._s.config.buffer_size - self._s.occupancy

    def can_accept(self, port: int) -> bool:
        """Whether an arrival to ``port`` has a usable free slot
        (mirrors ``SwitchView.can_accept`` exactly)."""
        s = self._s
        reserved = s._reserved
        if reserved is None:
            return s.occupancy < s._B
        if s._lens[port] < reserved[port]:
            return s.occupancy < s._B
        return s._shared_occupancy() < s._shared_pool + s._down_reserved

    @property
    def shared_occupancy(self) -> int:
        s = self._s
        if s._reserved is None:
            return s.occupancy
        return s._shared_occupancy()

    @property
    def shared_capacity(self) -> int:
        s = self._s
        if s._reserved is None:
            return s.config.buffer_size
        return s._shared_pool + s._down_reserved

    @property
    def shared_free(self) -> int:
        return self.shared_capacity - self.shared_occupancy

    def reserved(self, port: int) -> int:
        reserved = self._s._reserved
        return 0 if reserved is None else reserved[port]

    def shared_queue_len(self, port: int) -> int:
        s = self._s
        qlen = s._lens[port]
        reserved = s._reserved
        if reserved is None:
            return qlen
        over = qlen - reserved[port]
        return over if over > 0 else 0

    def is_port_up(self, port: int) -> bool:
        return self._s._port_up[port]

    @property
    def index(self) -> None:
        """Always ``None``: policies use their naive selectors here."""
        return None

    def queue_len(self, port: int) -> int:
        return self._s._lens[port]

    def total_work(self, port: int) -> int:
        return self._s.queue_work(port)

    def total_value(self, port: int) -> float:
        return self._s._tv[port]

    def avg_value(self, port: int) -> float:
        n = self._s._lens[port]
        if n == 0:
            raise PolicyError(f"avg_value of empty queue {port}")
        return self._s._tv[port] / n

    def min_value(self, port: int) -> float:
        s = self._s
        if s._lens[port] == 0:
            raise PolicyError(f"min_value of empty queue {port}")
        if s._by_value:
            return s._vals[port][0]
        best: Optional[float] = None
        for rec in s._stores[port]:
            value = rec[0]
            if best is None or value < best:
                best = value
        assert best is not None
        return best

    def peek_tail(self, port: int) -> Packet:
        s = self._s
        length = s._lens[port]
        if length == 0:
            raise PolicyError(f"peek_tail of empty queue {port}")
        if s._by_value:
            # Tail = least valuable packet = index 0 of the ascending
            # record store (mirrors ValuePriorityQueue.peek_tail).
            rec = s._recs[port][0]
            return _new_packet(port, rec[4], rec[0], rec[1], rec[2], rec[3])
        work = s._works[port]
        if s._fast_fifo:
            value, arr, seq = s._stores[port][-1]
            residual = s._head_residual(port) if length == 1 else work
            return _new_packet(port, work, value, arr, seq, residual)
        rec = s._stores[port][-1]
        return _new_packet(port, work, rec[0], rec[1], rec[2], rec[3])

    def tail_value(self, port: int) -> float:
        s = self._s
        if s._lens[port] == 0:
            raise PolicyError(f"peek_tail of empty queue {port}")
        if s._by_value:
            return s._vals[port][0]
        return s._stores[port][-1][0]

    def work_of(self, port: int) -> int:
        return self._s.config.work_of(port)

    def nonempty_ports(self) -> Tuple[int, ...]:
        return tuple(self._s._active)

    def queue_packets(self, port: int) -> Tuple[Packet, ...]:
        return tuple(self._s.queue_packets(port))

    def buffer_min_value(self) -> Optional[float]:
        s = self._s
        best: Optional[float] = None
        for port in range(s.config.n_ports):
            if s._lens[port] == 0:
                continue
            candidate = self.min_value(port)
            if best is None or candidate < best:
                best = candidate
        return best


class VectorizedSwitch:
    """Columnar batch-slot engine, decision-identical to the reference.

    State lives in flat per-port columns:

    * ``_lens`` — queue lengths (list; scalar-hot).
    * ``_hr`` / ``_amask`` — FIFO head residual work and 0/1 active
      mask (wide switches only: ndarray columns consumed by the
      whole-array transmission decrement).
    * ``_hexp`` / ``_sched`` / ``_tick`` — head expiry-tick column and
      transmission calendar (narrow switches): the head of port ``p``
      completes during the transmission phase whose tick equals
      ``_hexp[p]``, so advancing ``_tick`` decrements every active
      head at once and a phase costs O(completions).
    * ``_tv`` — per-port buffered value totals, maintained with the
      reference float operation order.
    * ``_works`` — static per-port work requirements.
    * ``_tw`` — per-port residual work totals (only where it cannot be
      derived: generic FIFO with speedup > 1, and priority queues).

    Packet payloads (value, arrival slot, sequence number, and — off
    the single-core FIFO fast representation — residual) live in flat
    per-port record stores, because push-out needs the victim's tail
    payload and metrics need per-packet value/delay on transmit.
    """

    def __init__(
        self,
        config: SwitchConfig,
        *,
        observer: Optional[SlotObserver] = None,
    ) -> None:
        self.config = config
        self.observer = observer
        self.metrics = SwitchMetrics(n_ports=config.n_ports)
        self.current_slot = 0
        self.occupancy = 0
        self.view = ColumnarView(self)

        n = config.n_ports
        self._B = config.buffer_size
        self._by_value = config.discipline is QueueDiscipline.PRIORITY
        # Single-core FIFO admits the compact head-residual layout:
        # only the head of a FIFO queue ever holds partial work.
        self._fast_fifo = not self._by_value and config.speedup == 1
        self._works: List[int] = list(config.works)
        self._lens: List[int] = _columns.scalar_int_column(n)
        self._tv: List[float] = _columns.scalar_float_column(n)
        self._active: List[int] = []
        self._is_act: List[bool] = [False] * n
        self._seq = packet_seq_source()

        self._np = _columns.numpy_module()
        self._tick = 0
        if self._fast_fifo:
            # Two head-residual representations, fixed per instance:
            # wide switches use ndarray columns so the transmission
            # decrement is one whole-array op (hr -= amask); narrow
            # switches keep an expiry-tick calendar (_hexp/_sched), so
            # a transmission phase costs O(completions) — one dict pop
            # — instead of O(active ports). The whole-array form only
            # amortizes its fixed numpy dispatch cost past ~128 ports.
            wide = (
                self._np is not None and n >= ARRAY_TRANSMIT_MIN_PORTS
            )
            if wide:
                self._hr: Any = _columns.int_column(n, fill=1)
                self._amask: Any = _columns.int_column(n)
                self._hexp: Optional[List[int]] = None
                self._sched: Optional[Dict[int, List[int]]] = None
            else:
                self._hr = None
                self._amask = None
                self._hexp = _columns.scalar_int_column(n)
                self._sched = {}
            self._tw: Optional[List[int]] = None
        else:
            self._hr = None
            self._amask = None
            self._hexp = None
            self._sched = None
            self._tw = _columns.scalar_int_column(n)

        if self._by_value:
            self._vals: List[List[float]] = [[] for _ in range(n)]
            self._recs: List[List[List[Any]]] = [[] for _ in range(n)]
            self._stores: List[Deque[Any]] = []
        else:
            self._vals = []
            self._recs = []
            self._stores = [deque() for _ in range(n)]

        # Static rank r_p = position of p in ascending (w_p, p) order;
        # comparing ranks compares the paper's (w_j, j) tie-break.
        order = sorted(range(n), key=lambda p: (self._works[p], p))
        self._porder: List[int] = order
        self._rank: List[int] = _columns.scalar_int_column(n)
        for r, p in enumerate(order):
            self._rank[p] = r
        self._bit: List[int] = [1 << r for r in range(n)]
        self._nr = n

        # Kernel binding: which specialized arrival kernel (if any) is
        # active for the current policy object, and whether its derived
        # structures are in sync with the columns.
        self._kpolicy: Optional[Any] = None
        self._kkind = K_GENERIC
        self._kclean = False
        self._greedy = False
        self._threshold = False

        # LQD kernel state.
        self._masks: List[int] = []
        self._maxl = 0
        self._topr = -1
        # LWD kernel state. _ncode caches, per active port, the code
        # its queue would carry after accepting one more own-port
        # packet (pcode + w*n), so the congested drop test is a single
        # column read.
        self._codes: List[int] = []
        self._pcode: List[int] = _columns.scalar_int_column(n)
        self._ncode: List[int] = _columns.scalar_int_column(n)
        self._off = 0
        # BPD kernel state.
        self._nm = 0

        # Buffer-model and churn state (mirrors the reference switch).
        # ``_shared_occupancy`` is computed on demand from the length
        # columns: split mode always classifies to the generic kernel,
        # so no incremental accounting is threaded through the kernels.
        model = config.buffer_model
        if model is None or model.is_purely_shared:
            self._reserved: Optional[Tuple[int, ...]] = None
            self._shared_pool = config.buffer_size
        else:
            self._reserved = model.reserved
            self._shared_pool = model.shared_pool
        self._port_up: List[bool] = [True] * n
        self._n_down = 0
        self._down_reserved = 0

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def attach_observer(self, observer: Optional[SlotObserver]) -> None:
        """Set (or clear, with ``None``) the switch's observer slot."""
        self.observer = observer

    # ------------------------------------------------------------------
    # Column reads shared by the view, diagnostics, and tests
    # ------------------------------------------------------------------

    def _head_residual(self, port: int) -> int:
        """Residual work of the head packet of a non-empty FIFO queue.

        Reads whichever head representation this instance uses: the
        residual column directly (wide switches) or the head's expiry
        tick relative to the current phase tick (narrow switches).
        """
        if self._sched is None:
            return int(self._hr[port])
        return self._hexp[port] - self._tick  # type: ignore[index]

    def _rearm_head(self, port: int, residual: int) -> None:
        """(Re)arm ``port``'s head residual after an admit/completion."""
        if self._sched is None:
            self._hr[port] = residual
            return
        expiry = self._tick + residual
        self._hexp[port] = expiry  # type: ignore[index]
        bucket = self._sched.get(expiry)
        if bucket is None:
            self._sched[expiry] = [port]
        else:
            bucket.append(port)

    def queue_work(self, port: int) -> int:
        """The paper's ``W_i`` for ``port``, from columns.

        On the single-core FIFO layout only the head packet holds
        partial work, so the total derives from the length column and
        the head residual; elsewhere an explicit total is maintained.
        """
        length = self._lens[port]
        if self._tw is not None:
            return self._tw[port]
        if length == 0:
            return 0
        return self._head_residual(port) + (length - 1) * self._works[port]

    def queue_state(self, port: int) -> List[Tuple[int, float, int]]:
        """Queue contents head-to-tail as ``(port, value, residual)``.

        The observable packet state used by the differential suite —
        identical to mapping packets of the reference engine's queue
        (sequence numbers excluded; they depend on engine interleaving).
        """
        if not 0 <= port < self.config.n_ports:
            raise PolicyError(f"queue_state of invalid port {port}")
        out: List[Tuple[int, float, int]] = []
        if self._by_value:
            for rec in reversed(self._recs[port]):
                out.append((port, rec[0], rec[3]))
            return out
        if not self._fast_fifo:
            for rec in self._stores[port]:
                out.append((port, rec[0], rec[3]))
            return out
        work = self._works[port]
        residual = self._head_residual(port) if self._lens[port] else 0
        for rec in self._stores[port]:
            out.append((port, rec[0], residual))
            residual = work
        return out

    def queue_packets(self, port: int) -> List[Packet]:
        """Materialized queue contents head-to-tail (tests, debugging)."""
        out: List[Packet] = []
        if self._by_value:
            for rec in reversed(self._recs[port]):
                out.append(
                    _new_packet(port, rec[4], rec[0], rec[1], rec[2], rec[3])
                )
            return out
        work = self._works[port]
        if not self._fast_fifo:
            for rec in self._stores[port]:
                out.append(
                    _new_packet(port, work, rec[0], rec[1], rec[2], rec[3])
                )
            return out
        residual = self._head_residual(port) if self._lens[port] else 0
        for rec in self._stores[port]:
            out.append(
                _new_packet(port, work, rec[0], rec[1], rec[2], residual)
            )
            residual = work
        return out

    # ------------------------------------------------------------------
    # Validation and kernel binding
    # ------------------------------------------------------------------

    @hot_path
    def _validate_columns(
        self,
        ports: Sequence[int],
        works: Sequence[int],
        values: Sequence[float],
        source: Any,
    ) -> None:
        """Validate whole columns before any packet of them lands.

        Columns carry no ``Packet.__post_init__`` guarding field ranges,
        so this also enforces the lower bounds (``port >= 0``,
        ``work >= 1``, ``value > 0``). Unlike the reference (which
        validates as it offers), an invalid burst raises before any of
        it is processed. Memoized on the identity of ``source`` — the
        trace's ``ports`` column, or the ``Packet`` burst the columns
        were converted from — so replays of one trace or burst across
        policies validate once, and per-call temporaries never enter
        the memo.
        """
        if not ports:
            return
        key = (id(source), id(self.config))
        if key in _VALIDATED:
            return
        n = self._nr
        if self._by_value:
            for p, w, v in zip(ports, works, values):
                if not 0 <= p < n:
                    raise TraceError(
                        f"packet destined to port {p}, switch has "
                        f"{n} ports"
                    )
                if w < 1:
                    raise TraceError(f"packet work must be >= 1, got {w}")
                if v <= 0:
                    raise TraceError(f"packet value must be > 0, got {v}")
        else:
            wcol = self._works
            p = 0
            try:
                for p, w, v in zip(ports, works, values):
                    if p < 0:
                        raise IndexError
                    if w != wcol[p]:
                        raise TraceError(
                            f"packet work {w} violates per-port "
                            f"requirement w_{p}={wcol[p]} "
                            "(Section III model constraint)"
                        )
                    if v <= 0:
                        raise TraceError(
                            f"packet value must be > 0, got {v}"
                        )
            except IndexError:
                raise TraceError(
                    f"packet destined to port {p}, switch has "
                    f"{n} ports"
                ) from None
        _VALIDATED[key] = (source, self.config)
        if len(_VALIDATED) > _VALIDATED_CAP:
            _VALIDATED.popitem(last=False)

    def _classify(self, policy: Any) -> int:
        lqd, lwd, bpd, pushout, threshold = _load_policy_classes()
        self._greedy = isinstance(policy, pushout)
        self._threshold = isinstance(policy, threshold)
        if self._reserved is not None or self._n_down:
            # Split buffer models and active churn change admissibility
            # per port; the specialized kernels assume the purely shared
            # full-buffer predicate, so everything runs generically.
            return K_GENERIC
        if not self._fast_fifo:
            return K_GENERIC
        # Exact types only: subclasses (e.g. BPD1's min-victim-length
        # refinement) change the selection rule and take the generic
        # path, which runs their own naive selector.
        kind = type(policy)
        if kind is lqd:
            return K_LQD
        if kind is lwd:
            return K_LWD
        if kind is bpd:
            return K_BPD
        return K_GENERIC

    def _kernel_for(self, policy: Any) -> int:
        if policy is not self._kpolicy:
            self._kkind = self._classify(policy)
            self._kpolicy = policy
            self._kclean = False
        kind = self._kkind
        if kind != K_GENERIC and not self._kclean:
            self._rebuild_kernel(kind)
            self._kclean = True
        return kind

    def _rebuild_kernel(self, kind: int) -> None:
        """Recompute derived kernel structures from the primary columns.

        Runs after any slow-path mutation (``offer``, public
        ``transmission_phase``, ``flush``) or a policy change; the fast
        path keeps the structures incrementally synchronized.
        """
        lens = self._lens
        rank = self._rank
        bit = self._bit
        if kind == K_LQD:
            self._masks = [0] * (self._B + 2)
            masks = self._masks
            maxl = 0
            for p in self._active:
                length = lens[p]
                masks[length] |= bit[rank[p]]
                if length > maxl:
                    maxl = length
            self._maxl = maxl
            self._topr = (
                masks[maxl].bit_length() - 1 if maxl > 0 else -1
            )
        elif kind == K_LWD:
            self._off = 0
            nr = self._nr
            pcode = self._pcode
            ncode = self._ncode
            works = self._works
            codes: List[int] = []
            for p in self._active:
                code = self.queue_work(p) * nr + rank[p]
                pcode[p] = code
                ncode[p] = code + works[p] * nr
                codes.append(code)
            codes.sort()
            self._codes = codes
        elif kind == K_BPD:
            nm = 0
            for p in self._active:
                nm |= bit[rank[p]]
            self._nm = nm

    # ------------------------------------------------------------------
    # Whole slots
    # ------------------------------------------------------------------

    @hot_path
    def run_slot(
        self, arrivals: Sequence[Packet], policy: Any
    ) -> List[Packet]:
        """One full time slot: batched arrival phase then transmission.

        Fast mode (no observer) converts the burst to columns and runs
        the same kernels as :meth:`run_slot_columns`, returning ``[]``;
        transmissions are accounted in metrics only. With an observer
        attached, falls back to the per-packet slow path and returns
        the transmitted packets like the reference engine.
        """
        if self.observer is not None:
            return self._run_slot_slow(arrivals, policy)
        if not arrivals:
            return self._run_columns(policy, (), (), (), None, 0, 0, None)
        ports = [pk.port for pk in arrivals]
        works = [pk.work for pk in arrivals]
        values = [pk.value for pk in arrivals]
        slots = [pk.arrival_slot for pk in arrivals]
        self._validate_columns(ports, works, values, arrivals)
        return self._run_columns(
            policy, ports, works, values, slots, 0, len(ports), arrivals
        )

    def _run_slot_slow(
        self, arrivals: Sequence[Packet], policy: Any
    ) -> List[Packet]:
        observer = self.observer
        assert observer is not None
        observer.on_slot_begin(self.current_slot, len(arrivals))
        for packet in arrivals:
            self.offer(packet, policy)
        transmitted = self.transmission_phase()
        self.metrics.record_slot(self.occupancy)
        observer.on_slot_end(self.current_slot, self.occupancy)
        self.current_slot += 1
        return transmitted

    @hot_path
    def run_slot_columns(
        self,
        policy: Any,
        ports: Sequence[int],
        works: Sequence[int],
        values: Sequence[float],
        arrivals: Optional[Sequence[int]],
        lo: int,
        hi: int,
    ) -> List[Packet]:
        """One full slot ingested straight from flat trace columns.

        The burst is the column span ``[lo, hi)`` of a
        :class:`repro.traffic.columnar.ColumnarTrace`: no ``Packet``
        objects are constructed on the fast path (the generic kernel
        materializes one transient template per *policy-consulted*
        arrival only). ``arrivals`` is ``None`` when every packet's
        arrival slot is the current slot. :meth:`run_slot` feeds
        ``Packet`` bursts through the same kernels; with an observer
        attached the burst is materialized and run through the
        per-packet slow path.
        """
        if self.observer is not None:
            slot = self.current_slot
            burst = [
                _new_packet(
                    ports[i],
                    works[i],
                    values[i],
                    arrivals[i] if arrivals is not None else slot,
                    next(self._seq),
                    works[i],
                )
                for i in range(lo, hi)
            ]
            return self._run_slot_slow(burst, policy)
        self._validate_columns(ports, works, values, ports)
        return self._run_columns(
            policy, ports, works, values, arrivals, lo, hi, None
        )

    @hot_path
    def _run_columns(
        self,
        policy: Any,
        ports: Sequence[int],
        works: Sequence[int],
        values: Sequence[float],
        arrivals: Optional[Sequence[int]],
        lo: int,
        hi: int,
        packets: Optional[Sequence[Packet]],
    ) -> List[Packet]:
        """One fast-mode slot over validated columns.

        The single arrival dispatch (kernel or generic) followed by the
        transmission phase. ``packets`` is the source burst when the
        slot arrived as ``Packet`` objects, else ``None``.
        """
        if hi > lo:
            self.metrics.arrived += hi - lo
            kind = self._kernel_for(policy)
            if kind == K_LQD:
                self._arrive_lqd_cols(ports, values, arrivals, lo, hi)
            elif kind == K_LWD:
                self._arrive_lwd_cols(ports, values, arrivals, lo, hi)
            elif kind == K_BPD:
                self._arrive_bpd_cols(ports, values, arrivals, lo, hi)
            else:
                self._arrive_generic_cols(
                    policy, ports, works, values, arrivals, lo, hi, packets
                )
        if self._fast_fifo:
            self._transmit_fifo_fast()
        elif self._by_value:
            self._transmit_priority()
        else:
            self._transmit_fifo_generic()
        self.metrics.record_slot(self.occupancy)
        self.current_slot += 1
        return []

    def fast_forward(self, n_slots: int) -> None:
        """Advance over ``n_slots`` idle slots (empty buffer required)."""
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
        """Clear all queues without transmission credit; returns count."""
        count = self.occupancy
        events: Optional[List[PacketEvent]] = None
        if self.observer is not None:
            events = []
            for port in range(self.config.n_ports):
                for packet in self.queue_packets(port):
                    events.append(PacketEvent.of(packet))
        # Reset every port, not just active ones: the reference flush
        # clears all queues, zeroing float value totals exactly even on
        # queues that drained earlier and carry rounding residue.
        for port in range(self.config.n_ports):
            self._lens[port] = 0
            self._tv[port] = 0.0
            self._is_act[port] = False
            if self._tw is not None:
                self._tw[port] = 0
            if self._by_value:
                self._vals[port].clear()
                self._recs[port].clear()
            else:
                self._stores[port].clear()
            if self._amask is not None:
                self._amask[port] = 0
                self._hr[port] = 1
        # Narrow fast-FIFO calendar entries are left in place: every
        # flushed port is now inactive, so its entries fail the
        # validity check when their tick pops.
        self._active = []
        self.occupancy = 0
        self._kclean = False
        self.metrics.flushed += count
        if self.observer is not None and events is not None:
            self.observer.on_flush(self.current_slot, tuple(events))
        return count

    # ------------------------------------------------------------------
    # Slow path: per-packet offers with full event parity
    # ------------------------------------------------------------------

    def offer(self, packet: Packet, policy: Any) -> Decision:
        """Process a single arrival through the policy (slow path).

        Mirrors the reference ``offer`` exactly — per-packet
        validation, metrics, observer events, and decision application
        — over columnar state. Marks derived kernel structures dirty;
        the next fast ``run_slot`` rebuilds them.
        """
        self._validate_one(packet)
        self.metrics.record_arrival(packet)
        self._kclean = False
        observer = self.observer
        if self._n_down and not self._port_up[packet.port]:
            # Engine-level drop for admin-down ports, before the policy
            # is consulted (mirrors the reference ``offer``).
            self.metrics.record_drop(packet)
            if observer is not None:
                observer.on_arrival(self.current_slot, PacketEvent.of(packet))
                observer.on_decision(
                    self.current_slot, Action.DROP.value, None
                )
            return DROP
        if observer is None:
            decision: Decision = policy.admit(self.view, packet)
            self.apply(packet, decision)
            return decision
        observer.on_arrival(self.current_slot, PacketEvent.of(packet))
        decision = policy.admit(self.view, packet)
        self.apply(packet, decision)
        observer.on_decision(
            self.current_slot, decision.action.value, decision.victim_port
        )
        return decision

    def _validate_one(self, packet: Packet) -> None:
        config = self.config
        if not 0 <= packet.port < config.n_ports:
            raise TraceError(
                f"packet destined to port {packet.port}, switch has "
                f"{config.n_ports} ports"
            )
        if (
            config.discipline is QueueDiscipline.FIFO
            and packet.work != config.work_of(packet.port)
        ):
            raise TraceError(
                f"packet work {packet.work} violates per-port requirement "
                f"w_{packet.port}={config.work_of(packet.port)} "
                "(Section III model constraint)"
            )

    def apply(self, packet: Packet, decision: Decision) -> None:
        """Validate and execute a policy decision (slow path)."""
        self._kclean = False
        metrics = self.metrics
        if decision.action is Action.DROP:
            metrics.record_drop(packet)
            return
        if decision.action is Action.PUSH_OUT:
            victim_port = decision.victim_port
            assert victim_port is not None  # enforced by Decision
            if not 0 <= victim_port < self.config.n_ports:
                raise PolicyError(
                    f"push-out victim port {victim_port} out of range"
                )
            if self._lens[victim_port] == 0:
                raise PolicyError(
                    f"policy pushed out from empty queue {victim_port}"
                )
            victim = self._pop_tail(victim_port)
            self.occupancy -= 1
            metrics.record_push_out(victim)
            if self.observer is not None:
                self.observer.on_push_out(
                    self.current_slot, PacketEvent.of(victim)
                )
        if self._reserved is None:
            if self.occupancy >= self.config.buffer_size:
                raise PolicyError(
                    "policy accepted a packet into a full buffer "
                    f"(occupancy={self.occupancy}, "
                    f"B={self.config.buffer_size})"
                )
        elif not self._fits(packet.port):
            raise PolicyError(
                f"policy accepted a packet for port {packet.port} with no "
                f"usable slot (queue={self._lens[packet.port]}, "
                f"reserved={self._reserved[packet.port]}, "
                f"shared={self._shared_occupancy()}/"
                f"{self._shared_pool + self._down_reserved})"
            )
        self._admit(
            packet.port,
            packet.work,
            packet.value,
            packet.arrival_slot,
            next(self._seq),
        )
        self.occupancy += 1
        metrics.record_accept(packet)

    def _shared_occupancy(self) -> int:
        """Packets in shared slots, from the length columns (O(active))."""
        reserved = self._reserved
        assert reserved is not None
        lens = self._lens
        total = 0
        for port in self._active:
            over = lens[port] - reserved[port]
            if over > 0:
                total += over
        return total

    def _fits(self, port: int) -> bool:
        """Whether an arrival to ``port`` has a usable free slot."""
        reserved = self._reserved
        if reserved is None:
            return self.occupancy < self._B
        if self._lens[port] < reserved[port]:
            return self.occupancy < self._B
        return self._shared_occupancy() < self._shared_pool + self._down_reserved

    def set_port_state(self, port: int, up: bool) -> int:
        """Admin-up/down ``port``; returns the packets reclaimed.

        Mirrors the reference engine exactly: down flushes the port's
        queue (accounted as flushed), reclaims its reserved slots into
        the shared pool, and engine-drops subsequent arrivals; redundant
        transitions are trace errors. Invalidates the kernel binding —
        churn changes per-port admissibility, so classification reruns.
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
        self._kpolicy = None
        self._kclean = False
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
        if self._reserved is not None:
            self._down_reserved += self._reserved[port]
        count = self._lens[port]
        events: Optional[Tuple[PacketEvent, ...]] = None
        if observer is not None:
            events = tuple(
                PacketEvent.of(packet) for packet in self.queue_packets(port)
            )
        if count:
            self._lens[port] = 0
            self._tv[port] = 0.0
            if self._tw is not None:
                self._tw[port] = 0
            if self._by_value:
                self._vals[port].clear()
                self._recs[port].clear()
            else:
                self._stores[port].clear()
            self._deactivate(port)
            self.occupancy -= count
        self.metrics.flushed += count
        if observer is not None:
            assert events is not None
            observer.on_port_state(self.current_slot, port, False, events)
        return count

    def _pop_tail(self, port: int) -> Packet:
        """Remove the tail of ``port``'s queue; returns the victim."""
        lens = self._lens
        length = lens[port]
        if self._by_value:
            value = self._vals[port].pop(0)
            rec = self._recs[port].pop(0)
            victim = _new_packet(port, rec[4], value, rec[1], rec[2], rec[3])
            self._tw[port] -= rec[3]  # type: ignore[index]
        elif not self._fast_fifo:
            rec = self._stores[port].pop()
            work = self._works[port]
            victim = _new_packet(port, work, rec[0], rec[1], rec[2], rec[3])
            self._tw[port] -= rec[3]  # type: ignore[index]
        else:
            rec = self._stores[port].pop()
            work = self._works[port]
            residual = self._head_residual(port) if length == 1 else work
            victim = _new_packet(port, work, rec[0], rec[1], rec[2], residual)
        self._tv[port] -= victim.value
        lens[port] = length - 1
        if length == 1:
            self._deactivate(port)
        return victim

    @hot_path
    def _admit(
        self,
        port: int,
        work: int,
        value: float,
        arrival_slot: int,
        seq: int = 0,
    ) -> None:
        """Enqueue one packet, given as fields, into the columns.

        Fast-mode admissions keep the default ``seq`` 0; the per-packet
        slow path passes a freshly drawn sequence number.
        """
        was_empty = self._lens[port] == 0
        if self._by_value:
            vals = self._vals[port]
            pos = bisect_left(vals, value)
            vals.insert(pos, value)
            self._recs[port].insert(
                pos, [value, arrival_slot, seq, work, work]
            )
            self._tw[port] += work  # type: ignore[index]
        elif not self._fast_fifo:
            self._stores[port].append([value, arrival_slot, seq, work])
            self._tw[port] += work  # type: ignore[index]
        else:
            self._stores[port].append((value, arrival_slot, seq))
            if was_empty:
                self._rearm_head(port, self._works[port])
        self._tv[port] += value
        self._lens[port] += 1
        if was_empty:
            self._activate(port)

    def _activate(self, port: int) -> None:
        insort(self._active, port)
        self._is_act[port] = True
        if self._amask is not None:
            self._amask[port] = 1

    def _deactivate(self, port: int) -> None:
        del self._active[bisect_left(self._active, port)]
        self._is_act[port] = False
        if self._amask is not None:
            # Wide fast-FIFO: park the residual at 1 so the whole-array
            # decrement of inactive ports never reaches zero. Narrow
            # fast-FIFO needs nothing — stale calendar entries fail the
            # is-active/expiry validity check when their tick pops.
            self._amask[port] = 0
            self._hr[port] = 1

    def transmission_phase(self) -> List[Packet]:
        """Process every non-empty queue once (slow path).

        Returns the transmitted packets in the reference order and
        fires observer events; marks kernel structures dirty.
        """
        self._kclean = False
        transmitted: List[Packet] = []
        speedup = self.config.speedup
        works = self._works
        if self._active:
            tick = 0
            if self._sched is not None:
                # Narrow fast-FIFO: one tick advance decrements every
                # active head at once; heads complete when their stored
                # expiry equals the new tick.
                tick = self._tick + 1
                self._tick = tick
            for port in tuple(self._active):
                if self._by_value:
                    recs = self._recs[port]
                    vals = self._vals[port]
                    active = min(speedup, len(recs))
                    for idx in range(len(recs) - active, len(recs)):
                        recs[idx][3] -= 1
                    self._tw[port] -= active  # type: ignore[index]
                    while recs and recs[-1][3] == 0:
                        rec = recs.pop()
                        vals.pop()
                        self._tv[port] -= rec[0]
                        self._lens[port] -= 1
                        self.occupancy -= 1
                        transmitted.append(
                            _new_packet(
                                port, rec[4], rec[0], rec[1], rec[2], 0
                            )
                        )
                    if not recs:
                        self._deactivate(port)
                elif not self._fast_fifo:
                    store = self._stores[port]
                    active = min(speedup, len(store))
                    for rec in islice(store, active):
                        rec[3] -= 1
                    self._tw[port] -= active  # type: ignore[index]
                    while store and store[0][3] == 0:
                        rec = store.popleft()
                        self._tv[port] -= rec[0]
                        self._lens[port] -= 1
                        self.occupancy -= 1
                        transmitted.append(
                            _new_packet(
                                port, works[port], rec[0], rec[1], rec[2], 0
                            )
                        )
                    if not store:
                        self._deactivate(port)
                else:
                    if self._sched is not None:
                        complete = self._hexp[port] == tick  # type: ignore[index]
                    else:
                        self._hr[port] -= 1
                        complete = not self._hr[port]
                    if complete:
                        rec = self._stores[port].popleft()
                        self._tv[port] -= rec[0]
                        length = self._lens[port] - 1
                        self._lens[port] = length
                        self.occupancy -= 1
                        transmitted.append(
                            _new_packet(
                                port, works[port], rec[0], rec[1], rec[2], 0
                            )
                        )
                        if length:
                            self._rearm_head(port, works[port])
                        else:
                            self._deactivate(port)
        self.metrics.record_transmissions(
            transmitted, slot=self.current_slot
        )
        observer = self.observer
        if observer is not None and transmitted:
            slot = self.current_slot
            for packet in transmitted:
                observer.on_transmit(slot, PacketEvent.of(packet))
        return transmitted

    # ------------------------------------------------------------------
    # Fast arrival kernels (no observer attached; trace columns in)
    # ------------------------------------------------------------------

    def _pop_tail_fast(self, port: int) -> None:
        """Drop the tail of ``port``'s queue without materializing it."""
        lens = self._lens
        length = lens[port]
        if self._by_value:
            value = self._vals[port].pop(0)
            rec = self._recs[port].pop(0)
            self._tw[port] -= rec[3]  # type: ignore[index]
        elif not self._fast_fifo:
            rec = self._stores[port].pop()
            value = rec[0]
            self._tw[port] -= rec[3]  # type: ignore[index]
        else:
            value = self._stores[port].pop()[0]
        self._tv[port] -= value
        lens[port] = length - 1
        if length == 1:
            self._deactivate(port)

    @hot_path
    def _arrive_lqd_cols(
        self,
        ports: Sequence[int],
        values: Sequence[float],
        arrivals: Optional[Sequence[int]],
        lo: int,
        hi: int,
    ) -> None:
        """Batched LQD arrival phase over the length columns.

        Victim key: ``(|Q_j| + [j = i], w_j, j)`` argmax, realized as
        the running maximum ``(maxl, topr)`` over per-length rank
        bitsets. The arrival's own queue counts virtually one longer;
        a strict win for the own queue means DROP (keys are unique, so
        the naive first-strict-max scan agrees exactly).
        """
        metrics = self.metrics
        dropped_by_port = metrics.dropped_by_port
        lens = self._lens
        tv = self._tv
        stores = self._stores
        hr = self._hr
        amask = self._amask
        sched = self._sched
        hexp = self._hexp
        tick = self._tick
        active = self._active
        is_act = self._is_act
        works = self._works
        rank = self._rank
        porder = self._porder
        bit = self._bit
        masks = self._masks
        maxl = self._maxl
        topr = self._topr
        occ = self.occupancy
        cap = self._B
        slot = self.current_slot
        accepted = 0
        dropped = 0
        pushed = 0
        # Bulk-accept the leading run that fits in free space: every
        # push-out policy is greedy below capacity, and a congested
        # kernel never shrinks occupancy, so the split needs no
        # per-packet occupancy check in either loop.
        free = cap - occ
        split = lo
        if free > 0:
            nb = hi - lo
            take = free if free < nb else nb
            split = lo + take
            occ += take
            accepted += take
            for i in range(lo, split):
                p = ports[i]
                v = values[i]
                a = arrivals[i] if arrivals is not None else slot
                r = rank[p]
                ol = lens[p]
                nl = ol + 1
                stores[p].append((v, a, 0))
                tv[p] += v
                lens[p] = nl
                if ol:
                    masks[ol] ^= bit[r]
                else:
                    insort(active, p)
                    is_act[p] = True
                    if sched is None:
                        hr[p] = works[p]
                        amask[p] = 1
                    else:
                        e = tick + works[p]
                        hexp[p] = e
                        b = sched.get(e)
                        if b is None:
                            sched[e] = [p]
                        else:
                            b.append(p)
                masks[nl] |= bit[r]
                # No queue shrank: the maximum can only move up to nl
                # (then the arrival's rank is alone there) or gain the
                # arrival's bit at the same level.
                if nl > maxl:
                    maxl = nl
                    topr = r
                elif nl == maxl and r > topr:
                    topr = r
        for i in range(split, hi):
            p = ports[i]
            r = rank[p]
            ol = lens[p]
            nl = ol + 1
            if nl > maxl or (nl == maxl and r > topr):
                dropped += 1
                dropped_by_port[p] += 1
                continue
            # Push out the tail of the max-key queue. The own queue
            # cannot be the victim here: had (nl, r) matched
            # (maxl, topr) the arrival would have been dropped above.
            t = porder[topr]
            masks[maxl] ^= bit[topr]
            vl = maxl - 1
            lens[t] = vl
            vv = stores[t].pop()[0]
            tv[t] -= vv
            if vl:
                masks[vl] |= bit[topr]
            else:
                del active[bisect_left(active, t)]
                is_act[t] = False
                if sched is None:
                    hr[t] = 1
                    amask[t] = 0
            pushed += 1
            dropped_by_port[t] += 1
            v = values[i]
            a = arrivals[i] if arrivals is not None else slot
            stores[p].append((v, a, 0))
            tv[p] += v
            lens[p] = nl
            accepted += 1
            if ol:
                masks[ol] ^= bit[r]
            else:
                insort(active, p)
                is_act[p] = True
                if sched is None:
                    hr[p] = works[p]
                    amask[p] = 1
                else:
                    e = tick + works[p]
                    hexp[p] = e
                    b = sched.get(e)
                    if b is None:
                        sched[e] = [p]
                    else:
                        b.append(p)
            masks[nl] |= bit[r]
            # The old maximum lost its top rank and the arrival
            # entered at nl <= maxl; recompute downward (the own
            # bit at nl bounds the scan, so maxl stays >= 1).
            while not masks[maxl]:
                maxl -= 1
            topr = masks[maxl].bit_length() - 1
        self.occupancy = occ
        self._maxl = maxl
        self._topr = topr
        metrics.accepted += accepted
        metrics.dropped += dropped
        metrics.pushed_out += pushed

    @hot_path
    def _arrive_lwd_cols(
        self,
        ports: Sequence[int],
        values: Sequence[float],
        arrivals: Optional[Sequence[int]],
        lo: int,
        hi: int,
    ) -> None:
        """Batched LWD arrival phase over integer work codes.

        Victim key: ``(W_j + [j = i] w_i, w_j, j)`` argmax. Codes
        ``(W_j + off) * n + r_j`` preserve the lexicographic order
        because ranks are unique below ``n``; ``codes`` stays sorted
        ascending so its last element is the current victim key.
        """
        metrics = self.metrics
        dropped_by_port = metrics.dropped_by_port
        lens = self._lens
        tv = self._tv
        stores = self._stores
        hr = self._hr
        amask = self._amask
        sched = self._sched
        hexp = self._hexp
        tick = self._tick
        active = self._active
        is_act = self._is_act
        works = self._works
        rank = self._rank
        porder = self._porder
        codes = self._codes
        pcode = self._pcode
        ncode = self._ncode
        off = self._off
        nr = self._nr
        occ = self.occupancy
        cap = self._B
        slot = self.current_slot
        accepted = 0
        dropped = 0
        pushed = 0
        # Split exactly like the LQD kernel: greedy bulk-accept of the
        # run that fits, then a congested loop with no occupancy check.
        free = cap - occ
        split = lo
        if free > 0:
            nb = hi - lo
            take = free if free < nb else nb
            split = lo + take
            occ += take
            accepted += take
            for i in range(lo, split):
                p = ports[i]
                w = works[p]
                ol = lens[p]
                if ol:
                    nc = ncode[p]
                    del codes[bisect_left(codes, pcode[p])]
                else:
                    nc = (w + off) * nr + rank[p]
                    insort(active, p)
                    is_act[p] = True
                    if sched is None:
                        hr[p] = w
                        amask[p] = 1
                    else:
                        e = tick + w
                        hexp[p] = e
                        b = sched.get(e)
                        if b is None:
                            sched[e] = [p]
                        else:
                            b.append(p)
                insort(codes, nc)
                pcode[p] = nc
                ncode[p] = nc + w * nr
                stores[p].append(
                    (
                        values[i],
                        arrivals[i] if arrivals is not None else slot,
                        0,
                    )
                )
                tv[p] += values[i]
                lens[p] = ol + 1
        for i in range(split, hi):
            p = ports[i]
            ol = lens[p]
            if ol:
                nc = ncode[p]
            else:
                nc = (works[p] + off) * nr + rank[p]
            top = codes[-1]
            if nc > top:
                dropped += 1
                dropped_by_port[p] += 1
                continue
            t = porder[top % nr]
            codes.pop()
            vl = lens[t] - 1
            lens[t] = vl
            vv = stores[t].pop()[0]
            tv[t] -= vv
            if vl:
                tc = top - works[t] * nr
                pcode[t] = tc
                # tc + works[t]*nr == top: the popped key is exactly
                # the victim queue's next-accept code.
                ncode[t] = top
                insort(codes, tc)
            else:
                del active[bisect_left(active, t)]
                is_act[t] = False
                if sched is None:
                    hr[t] = 1
                    amask[t] = 0
            pushed += 1
            dropped_by_port[t] += 1
            w = works[p]
            if ol:
                del codes[bisect_left(codes, pcode[p])]
            else:
                insort(active, p)
                is_act[p] = True
                if sched is None:
                    hr[p] = w
                    amask[p] = 1
                else:
                    e = tick + w
                    hexp[p] = e
                    b = sched.get(e)
                    if b is None:
                        sched[e] = [p]
                    else:
                        b.append(p)
            insort(codes, nc)
            pcode[p] = nc
            ncode[p] = nc + w * nr
            stores[p].append(
                (
                    values[i],
                    arrivals[i] if arrivals is not None else slot,
                    0,
                )
            )
            tv[p] += values[i]
            lens[p] = ol + 1
            accepted += 1
        self.occupancy = occ
        metrics.accepted += accepted
        metrics.dropped += dropped
        metrics.pushed_out += pushed

    @hot_path
    def _arrive_bpd_cols(
        self,
        ports: Sequence[int],
        values: Sequence[float],
        arrivals: Optional[Sequence[int]],
        lo: int,
        hi: int,
    ) -> None:
        """Batched BPD arrival phase over the non-empty rank bitmask.

        Victim key: ``(w_j, j)`` argmax over non-empty queues — the
        highest set rank bit. Accept iff the arrival's own static key
        is <= the victim's (equality means the arrival raids its own
        queue's tail, exactly like the reference).
        """
        metrics = self.metrics
        dropped_by_port = metrics.dropped_by_port
        lens = self._lens
        tv = self._tv
        stores = self._stores
        hr = self._hr
        amask = self._amask
        sched = self._sched
        hexp = self._hexp
        tick = self._tick
        active = self._active
        is_act = self._is_act
        works = self._works
        rank = self._rank
        porder = self._porder
        bit = self._bit
        nm = self._nm
        occ = self.occupancy
        cap = self._B
        slot = self.current_slot
        accepted = 0
        dropped = 0
        pushed = 0
        # Split exactly like the LQD kernel: greedy bulk-accept of the
        # run that fits, then a congested loop with no occupancy check.
        free = cap - occ
        split = lo
        if free > 0:
            nb = hi - lo
            take = free if free < nb else nb
            split = lo + take
            occ += take
            accepted += take
            for i in range(lo, split):
                p = ports[i]
                ol = lens[p]
                stores[p].append(
                    (
                        values[i],
                        arrivals[i] if arrivals is not None else slot,
                        0,
                    )
                )
                tv[p] += values[i]
                lens[p] = ol + 1
                if not ol:
                    nm |= bit[rank[p]]
                    insort(active, p)
                    is_act[p] = True
                    if sched is None:
                        hr[p] = works[p]
                        amask[p] = 1
                    else:
                        e = tick + works[p]
                        hexp[p] = e
                        b = sched.get(e)
                        if b is None:
                            sched[e] = [p]
                        else:
                            b.append(p)
        for i in range(split, hi):
            p = ports[i]
            r = rank[p]
            vr = nm.bit_length() - 1
            if r > vr:
                dropped += 1
                dropped_by_port[p] += 1
                continue
            t = porder[vr]
            vl = lens[t] - 1
            lens[t] = vl
            vv = stores[t].pop()[0]
            tv[t] -= vv
            if not vl:
                nm ^= bit[vr]
                del active[bisect_left(active, t)]
                is_act[t] = False
                if sched is None:
                    hr[t] = 1
                    amask[t] = 0
            pushed += 1
            dropped_by_port[t] += 1
            # Read the own length only now: when r == vr the arrival
            # raided its own queue's tail, shortening it by one.
            ol = lens[p]
            stores[p].append(
                (
                    values[i],
                    arrivals[i] if arrivals is not None else slot,
                    0,
                )
            )
            tv[p] += values[i]
            lens[p] = ol + 1
            accepted += 1
            if not ol:
                nm |= bit[r]
                insort(active, p)
                is_act[p] = True
                if sched is None:
                    hr[p] = works[p]
                    amask[p] = 1
                else:
                    e = tick + works[p]
                    hexp[p] = e
                    b = sched.get(e)
                    if b is None:
                        sched[e] = [p]
                    else:
                        b.append(p)
        self.occupancy = occ
        self._nm = nm
        metrics.accepted += accepted
        metrics.dropped += dropped
        metrics.pushed_out += pushed

    @hot_path
    def _arrive_generic_cols(
        self,
        policy: Any,
        ports: Sequence[int],
        works: Sequence[int],
        values: Sequence[float],
        arrivals: Optional[Sequence[int]],
        lo: int,
        hi: int,
        packets: Optional[Sequence[Packet]],
    ) -> None:
        """Batched arrival phase for policies without a kernel.

        Greedy (push-out) policies bulk-accept while space remains —
        their ``admit`` returns ``ACCEPT`` without touching policy
        state when the buffer is not full, and the occupancy never
        shrinks during an arrival phase. Threshold policies bulk-drop
        once full for the symmetric reason. Everything else (and every
        congested arrival) runs the policy's own ``admit`` against the
        columnar view, so decisions match the reference by
        construction. The policy sees the caller's own packet when the
        slot came in as a ``Packet`` burst (so tags such as
        ``opt_accept`` reach it), else a transient template built from
        the columns.
        """
        view = self.view
        metrics = self.metrics
        dropped_by_port = metrics.dropped_by_port
        simple = self._reserved is None
        # Split models gate admissibility per port, so the greedy
        # bulk-accept shortcut only holds on the purely shared model
        # (churn alone is fine: down-port arrivals are filtered first).
        greedy = self._greedy and simple
        threshold = self._threshold
        n_down = self._n_down
        port_up = self._port_up
        cap = self._B
        slot = self.current_slot
        for i in range(lo, hi):
            p = ports[i]
            if n_down and not port_up[p]:
                metrics.dropped += 1
                dropped_by_port[p] += 1
                continue
            if self.occupancy < cap:
                if greedy:
                    self._admit(
                        p,
                        works[i],
                        values[i],
                        arrivals[i] if arrivals is not None else slot,
                    )
                    self.occupancy += 1
                    metrics.accepted += 1
                    continue
            elif threshold:
                # Full buffer: can_accept is false for every up port
                # under both models, so thresholds drop unconditionally.
                metrics.dropped += 1
                dropped_by_port[p] += 1
                continue
            w = works[i]
            v = values[i]
            a = arrivals[i] if arrivals is not None else slot
            if packets is None:
                pk = _new_packet(p, w, v, a, 0, w)
            else:
                pk = packets[i]
            decision = policy.admit(view, pk)
            action = decision.action
            if action is Action.DROP:
                metrics.dropped += 1
                dropped_by_port[p] += 1
                continue
            if action is Action.PUSH_OUT:
                victim_port = decision.victim_port
                assert victim_port is not None  # enforced by Decision
                if not 0 <= victim_port < self._nr:
                    raise PolicyError(
                        f"push-out victim port {victim_port} out of range"
                    )
                if self._lens[victim_port] == 0:
                    raise PolicyError(
                        f"policy pushed out from empty queue {victim_port}"
                    )
                self._pop_tail_fast(victim_port)
                self.occupancy -= 1
                metrics.pushed_out += 1
                dropped_by_port[victim_port] += 1
            if simple:
                if self.occupancy >= cap:
                    raise PolicyError(
                        "policy accepted a packet into a full buffer "
                        f"(occupancy={self.occupancy}, B={cap})"
                    )
            elif not self._fits(p):
                raise PolicyError(
                    f"policy accepted a packet for port {p} with no "
                    "usable slot"
                )
            self._admit(p, w, v, a)
            self.occupancy += 1
            metrics.accepted += 1

    # ------------------------------------------------------------------
    # Fast transmission phases
    # ------------------------------------------------------------------

    @hot_path
    def _transmit_fifo_fast(self) -> None:
        """Single-core FIFO transmission phase, fast mode.

        Narrow switches pop the current tick's calendar bucket: the
        phase costs O(completions), because advancing the tick *is* the
        uniform head decrement. Bucket entries can be stale (the head
        they were armed for was pushed out or flushed), so each is
        validated against the port's live expiry before completing;
        survivors are processed in ascending port order exactly like
        the reference's active-set walk. Wide switches decrement the
        whole residual column at once (``hr -= amask``) and complete
        the zero entries.
        """
        active = self._active
        if not active:
            return
        kind = self._kkind if self._kclean else K_GENERIC
        hr = self._hr
        amask = self._amask
        sched = self._sched
        hexp = self._hexp
        is_act = self._is_act
        tick = 0
        done: List[int]
        if sched is None:
            np = self._np
            hr -= amask
            done = np.flatnonzero(hr == 0).tolist()
        else:
            tick = self._tick + 1
            self._tick = tick
            bucket = sched.pop(tick, None)
            if bucket is None:
                done = []
            elif len(bucket) == 1:
                p = bucket[0]
                if is_act[p] and hexp[p] == tick:
                    done = bucket
                else:
                    done = []
            else:
                bucket.sort()
                done = []
                last = -1
                for p in bucket:
                    if p != last and is_act[p] and hexp[p] == tick:
                        done.append(p)
                    last = p
        if not done:
            if kind == K_LWD:
                self._off += 1
            return
        metrics = self.metrics
        slot = self.current_slot
        stores = self._stores
        lens = self._lens
        tv = self._tv
        works = self._works
        rank = self._rank
        bit = self._bit
        masks = self._masks
        tx_by_port = metrics.transmitted_by_port
        txv_by_port = metrics.transmitted_value_by_port
        delay_sum = metrics.delay_sum_by_port
        delay_count = metrics.delay_count_by_port
        nm = self._nm
        drained: List[int] = []
        for p in done:
            value, arr, _sq = stores[p].popleft()
            tv[p] -= value
            nl = lens[p] - 1
            lens[p] = nl
            metrics.transmitted_value += value
            tx_by_port[p] += 1
            txv_by_port[p] += value
            if slot >= arr:
                delay_sum[p] += slot - arr
                delay_count[p] += 1
            if nl:
                if sched is None:
                    hr[p] = works[p]
                else:
                    e = tick + works[p]
                    hexp[p] = e
                    b = sched.get(e)
                    if b is None:
                        sched[e] = [p]
                    else:
                        b.append(p)
            else:
                del active[bisect_left(active, p)]
                is_act[p] = False
                if sched is None:
                    hr[p] = 1
                    amask[p] = 0
            if kind == K_LQD:
                r = rank[p]
                masks[nl + 1] ^= bit[r]
                if nl:
                    masks[nl] |= bit[r]
            elif kind == K_LWD:
                if not nl:
                    drained.append(p)
            elif kind == K_BPD:
                if not nl:
                    nm ^= bit[rank[p]]
        metrics.transmitted_packets += len(done)
        self.occupancy -= len(done)
        if kind == K_LQD:
            maxl = self._maxl
            while maxl and not masks[maxl]:
                maxl -= 1
            self._maxl = maxl
            self._topr = (
                masks[maxl].bit_length() - 1 if maxl else -1
            )
        elif kind == K_LWD:
            codes = self._codes
            pcode = self._pcode
            for p in drained:
                del codes[bisect_left(codes, pcode[p])]
            self._off += 1
        elif kind == K_BPD:
            self._nm = nm

    @hot_path
    def _transmit_priority(self) -> None:
        """Priority-queue transmission phase (value model), fast mode."""
        active = self._active
        if not active:
            return
        metrics = self.metrics
        slot = self.current_slot
        speedup = self.config.speedup
        all_vals = self._vals
        all_recs = self._recs
        lens = self._lens
        tv = self._tv
        tw = self._tw
        is_act = self._is_act
        amask = self._amask
        tx_by_port = metrics.transmitted_by_port
        txv_by_port = metrics.transmitted_value_by_port
        delay_sum = metrics.delay_sum_by_port
        delay_count = metrics.delay_count_by_port
        occ = self.occupancy
        for p in tuple(active):
            recs = all_recs[p]
            vals = all_vals[p]
            n = len(recs)
            cores = speedup if speedup < n else n
            for idx in range(n - cores, n):
                recs[idx][3] -= 1
            tw[p] -= cores  # type: ignore[index]
            while recs and recs[-1][3] == 0:
                rec = recs.pop()
                vals.pop()
                value = rec[0]
                tv[p] -= value
                lens[p] -= 1
                occ -= 1
                metrics.transmitted_packets += 1
                metrics.transmitted_value += value
                tx_by_port[p] += 1
                txv_by_port[p] += value
                arr = rec[1]
                if slot >= arr:
                    delay_sum[p] += slot - arr
                    delay_count[p] += 1
            if not recs:
                del active[bisect_left(active, p)]
                is_act[p] = False
                if amask is not None:
                    amask[p] = 0
        self.occupancy = occ

    @hot_path
    def _transmit_fifo_generic(self) -> None:
        """Multi-core FIFO transmission phase, fast mode."""
        active = self._active
        if not active:
            return
        metrics = self.metrics
        slot = self.current_slot
        speedup = self.config.speedup
        stores = self._stores
        lens = self._lens
        tv = self._tv
        tw = self._tw
        works = self._works
        is_act = self._is_act
        amask = self._amask
        tx_by_port = metrics.transmitted_by_port
        txv_by_port = metrics.transmitted_value_by_port
        delay_sum = metrics.delay_sum_by_port
        delay_count = metrics.delay_count_by_port
        occ = self.occupancy
        for p in tuple(active):
            store = stores[p]
            n = len(store)
            cores = speedup if speedup < n else n
            for rec in islice(store, cores):
                rec[3] -= 1
            tw[p] -= cores  # type: ignore[index]
            while store and store[0][3] == 0:
                rec = store.popleft()
                value = rec[0]
                tv[p] -= value
                lens[p] -= 1
                occ -= 1
                metrics.transmitted_packets += 1
                metrics.transmitted_value += value
                tx_by_port[p] += 1
                txv_by_port[p] += value
                arr = rec[1]
                if slot >= arr:
                    delay_sum[p] += slot - arr
                    delay_count[p] += 1
            if not store:
                del active[bisect_left(active, p)]
                is_act[p] = False
                if amask is not None:
                    amask[p] = 0
            _ = works
        self.occupancy = occ

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` on any column/store inconsistency.

        Validates the columnar state against the per-packet record
        stores (the object view): lengths, occupancy, value and work
        totals, active-set/mask coherence, residual bounds, priority
        ordering — and, when a kernel is bound and clean, the derived
        victim-selection structures against a from-scratch rebuild.
        This is the check that ``REPRO_CHECK_INVARIANTS`` runs
        periodically through ``run_system``.
        """
        config = self.config
        n = config.n_ports
        total = 0
        for port in range(n):
            length = self._lens[port]
            assert length >= 0, f"negative length column at port {port}"
            total += length
            if self._by_value:
                vals = self._vals[port]
                recs = self._recs[port]
                assert len(vals) == length and len(recs) == length, (
                    f"port {port}: length column {length} != store "
                    f"{len(recs)}/{len(vals)}"
                )
                assert vals == sorted(vals), f"port {port}: values unsorted"
                expect_work = 0
                expect_value = 0.0
                for value, rec in zip(vals, recs):
                    assert rec[0] == value, f"port {port}: vals/recs skew"
                    assert rec[3] >= 1, f"port {port}: residual < 1"
                    expect_work += rec[3]
                    expect_value += value
            else:
                store = self._stores[port]
                assert len(store) == length, (
                    f"port {port}: length column {length} != store "
                    f"{len(store)}"
                )
                expect_work = 0
                expect_value = 0.0
                if self._fast_fifo:
                    work = self._works[port]
                    if length:
                        head_residual = self._head_residual(port)
                        assert 1 <= head_residual <= work, (
                            f"port {port}: head residual {head_residual} "
                            f"outside 1..{work}"
                        )
                        expect_work = head_residual + (length - 1) * work
                        if self._sched is not None:
                            expiry = self._hexp[port]  # type: ignore[index]
                            assert port in self._sched.get(expiry, ()), (
                                f"port {port}: head expiry {expiry} not "
                                "on the transmission calendar"
                            )
                    for rec in store:
                        expect_value += rec[0]
                else:
                    for rec in store:
                        assert rec[3] >= 1, f"port {port}: residual < 1"
                        expect_work += rec[3]
                        expect_value += rec[0]
            tracked_work = self.queue_work(port)
            assert tracked_work == expect_work, (
                f"port {port}: tracked work {tracked_work} != "
                f"{expect_work}"
            )
            assert abs(expect_value - self._tv[port]) < 1e-9, (
                f"port {port}: tracked value {self._tv[port]} != "
                f"{expect_value}"
            )
        assert total == self.occupancy, (
            f"occupancy {self.occupancy} != column total {total}"
        )
        assert 0 <= self.occupancy <= config.buffer_size
        expect_active = [p for p in range(n) if self._lens[p] > 0]
        assert self._active == expect_active, (
            f"active set {self._active} != {expect_active}"
        )
        assert self._is_act == [self._lens[p] > 0 for p in range(n)]
        if self._amask is not None:
            mask_list = [int(self._amask[p]) for p in range(n)]
            assert mask_list == [
                1 if self._lens[p] > 0 else 0 for p in range(n)
            ], f"active mask {mask_list} diverged from length column"
        # Buffer-model and churn accounting (mirrors the reference).
        assert self._n_down == self._port_up.count(False)
        for port, port_up in enumerate(self._port_up):
            if not port_up:
                assert self._lens[port] == 0, (
                    f"admin-down port {port} has buffered packets"
                )
        reserved = self._reserved
        if reserved is not None:
            expect_down = sum(
                r for r, port_up in zip(reserved, self._port_up) if not port_up
            )
            assert self._down_reserved == expect_down
            shared = self._shared_occupancy()
            assert shared <= self._shared_pool + self._down_reserved, (
                f"shared occupancy {shared} exceeds usable shared slots"
            )
        if self._kclean:
            self._check_kernel_invariants()

    def _check_kernel_invariants(self) -> None:
        """Derived kernel structures must match a from-scratch rebuild."""
        kind = self._kkind
        n = self.config.n_ports
        rank = self._rank
        bit = self._bit
        if kind == K_LQD:
            expect_masks = [0] * (self._B + 2)
            for p in self._active:
                expect_masks[self._lens[p]] |= bit[rank[p]]
            assert self._masks == expect_masks, "LQD length bitsets stale"
            expect_maxl = max(
                (self._lens[p] for p in self._active), default=0
            )
            assert self._maxl == expect_maxl, (
                f"LQD maxl {self._maxl} != {expect_maxl}"
            )
            if expect_maxl:
                expect_topr = expect_masks[expect_maxl].bit_length() - 1
                assert self._topr == expect_topr, (
                    f"LQD top rank {self._topr} != {expect_topr}"
                )
        elif kind == K_LWD:
            off = self._off
            nr = self._nr
            expect_codes = []
            for p in self._active:
                code = (self.queue_work(p) + off) * nr + rank[p]
                assert self._pcode[p] == code, (
                    f"LWD code for port {p}: {self._pcode[p]} != {code}"
                )
                expect_next = code + self._works[p] * nr
                assert self._ncode[p] == expect_next, (
                    f"LWD next-code for port {p}: "
                    f"{self._ncode[p]} != {expect_next}"
                )
                expect_codes.append(code)
            expect_codes.sort()
            assert self._codes == expect_codes, "LWD code list stale"
        elif kind == K_BPD:
            expect_nm = 0
            for p in self._active:
                expect_nm |= bit[rank[p]]
            assert self._nm == expect_nm, (
                f"BPD bitmask {self._nm:b} != {expect_nm:b}"
            )
        _ = n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lens = ",".join(str(length) for length in self._lens)
        return (
            f"VectorizedSwitch(slot={self.current_slot}, "
            f"occupancy={self.occupancy}/{self.config.buffer_size}, "
            f"queues=[{lens}])"
        )


__all__ = ["ColumnarView", "VectorizedSwitch", "K_GENERIC"]
