"""Golden decision-stream fixtures for the pinned bench panels.

The differential suites pin the vectorized engine to the reference
engine *relative* to each other; goldens pin both to a committed
*absolute* fingerprint. Every ``repro.bench`` panel (including the
dynamic churn/split panels) is run at a small committed scale and
reduced to two sha256 digests per pinned policy:

* ``stream_sha256`` — a canonical rendering of the full observer event
  stream (slot framing, arrivals, decisions, push-outs, transmissions,
  idle fast-forwards). This is the engine's *decision stream*: any
  change to admission, victim selection (tie-breaks included),
  transmission order, or idle handling changes the digest.
* ``metrics_sha256`` — the canonical JSON of the final
  :meth:`~repro.core.metrics.SwitchMetrics.snapshot`. Fast-mode runs
  carry no observer (an attached observer routes the vectorized engine
  onto its per-packet slow path), so this is the digest that pins the
  *batched* hot path. Fast mode replays the panel twice — once as
  packet objects, once as columns (the vectorized engine's production
  input) — and both runs must digest identically.

Sequence numbers are deliberately excluded from every token: they
depend on process-global draw interleaving and (in the vectorized fast
path) are not drawn at all — they are debugging identity, not model
state.

The committed fixture lives at :data:`DEFAULT_GOLDEN_PATH` and is
managed by ``repro golden --check`` / ``--update`` and by
``tests/test_golden_streams.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.competitive import PolicySystem, run_system
from repro.core.errors import ConfigError
from repro.core.metrics import SwitchMetrics
from repro.obs.observer import PacketEvent, SlotObserver
from repro.policies import make_policy
from repro.traffic.columnar import ColumnarTrace

#: Committed fixture location (repo-relative).
DEFAULT_GOLDEN_PATH = Path("benchmarks") / "GOLDEN_streams.json"

#: The committed scale: panels shrink to this fraction of their pinned
#: slot count, keeping a full eight-panel golden pass in CI-smoke
#: territory while still exercising congestion on every panel.
GOLDEN_SLOTS_SCALE = 0.1

SCHEMA_VERSION = 2


class DecisionStreamHasher(SlotObserver):
    """Fold the observer event stream into one sha256.

    Every hook renders a canonical one-line token and feeds it to the
    hash; the hex digest is therefore a fingerprint of the complete
    observable run. Tokens carry packet *state* (port, work, value,
    arrival slot, residual) but never sequence numbers — see the module
    docstring.
    """

    __slots__ = ("_hash", "events")

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        #: Number of tokens folded in (a cheap sanity signal for tests).
        self.events = 0

    def _feed(self, token: str) -> None:
        self._hash.update(token.encode("ascii"))
        self.events += 1

    @staticmethod
    def _packet(event: PacketEvent) -> str:
        return (
            f"{event.port},{event.work},{event.value!r},"
            f"{event.arrival_slot},{event.residual}"
        )

    def hexdigest(self) -> str:
        return self._hash.hexdigest()

    def on_slot_begin(self, slot: int, n_arrivals: int) -> None:
        self._feed(f"B {slot} {n_arrivals}\n")

    def on_arrival(self, slot: int, packet: PacketEvent) -> None:
        self._feed(f"A {slot} {self._packet(packet)}\n")

    def on_decision(
        self, slot: int, action: str, victim_port: Optional[int]
    ) -> None:
        self._feed(f"D {slot} {action} {victim_port}\n")

    def on_push_out(self, slot: int, victim: PacketEvent) -> None:
        self._feed(f"P {slot} {self._packet(victim)}\n")

    def on_transmit(self, slot: int, packet: PacketEvent) -> None:
        self._feed(f"T {slot} {self._packet(packet)}\n")

    def on_flush(
        self, slot: int, dropped: Tuple[PacketEvent, ...]
    ) -> None:
        self._feed(f"F {slot} {len(dropped)}\n")
        for event in dropped:
            self._feed(f"f {slot} {self._packet(event)}\n")

    def on_port_state(
        self, slot: int, port: int, up: bool, reclaimed: Tuple[PacketEvent, ...]
    ) -> None:
        # Event-free runs never reach this hook, so pre-churn digests
        # are unaffected by its existence.
        self._feed(f"S {slot} {port} {int(up)} {len(reclaimed)}\n")
        for event in reclaimed:
            self._feed(f"s {slot} {self._packet(event)}\n")

    def on_idle(self, slot: int, n_slots: int) -> None:
        self._feed(f"I {slot} {n_slots}\n")

    def on_slot_end(self, slot: int, occupancy: int) -> None:
        self._feed(f"E {slot} {occupancy}\n")


def trace_digest(trace: object) -> str:
    """sha256 over canonical packet tokens, one line per packet.

    Works on both trace shapes without materializing anything: a
    :class:`~repro.traffic.trace.Trace` feeds its packet objects, a
    :class:`~repro.traffic.columnar.ColumnarTrace` walks its columns
    directly, and both shapes of one arrival sequence digest equally.
    The committed per-panel digests pin every traffic recipe's packet
    stream. Tokens carry slot index, port, work,
    ``repr`` of the value, arrival slot, and the scripted-OPT tag
    canonicalized to ``-1``/``0``/``1``; port churn events (when the
    trace carries any) are digested after the packet lines, so a
    static trace's digest is unchanged by the churn extension.
    """
    hasher = hashlib.sha256()
    feed = hasher.update

    def feed_events() -> None:
        events = getattr(trace, "port_events", None)
        if not events:
            return
        for slot in sorted(events):
            for event in events[slot]:
                feed(
                    f"E {slot} {event.port} {int(event.up)}\n".encode(
                        "ascii"
                    )
                )

    offsets = getattr(trace, "offsets", None)
    if offsets is not None:
        ports = trace.ports  # type: ignore[attr-defined]
        works = trace.works  # type: ignore[attr-defined]
        values = trace.values  # type: ignore[attr-defined]
        opts = trace.opts  # type: ignore[attr-defined]
        arrivals = trace.arrivals  # type: ignore[attr-defined]
        n_slots = len(offsets) - 1
        feed(f"slots={n_slots}\n".encode("ascii"))
        for slot in range(n_slots):
            for j in range(offsets[slot], offsets[slot + 1]):
                arrival = arrivals[j] if arrivals is not None else slot
                opt = opts[j] if opts is not None else -1
                feed(
                    f"{slot} {ports[j]},{works[j]},{values[j]!r},"
                    f"{arrival},{opt}\n".encode("ascii")
                )
        feed_events()
        return hasher.hexdigest()
    slots = trace.slots  # type: ignore[attr-defined]
    feed(f"slots={len(slots)}\n".encode("ascii"))
    for slot, packets in enumerate(slots):
        for p in packets:
            opt = -1 if p.opt_accept is None else int(p.opt_accept)
            feed(
                f"{slot} {p.port},{p.work},{p.value!r},"
                f"{p.arrival_slot},{opt}\n".encode("ascii")
            )
    feed_events()
    return hasher.hexdigest()


def metrics_digest(metrics: SwitchMetrics) -> str:
    """sha256 of the canonical JSON of a full metrics snapshot.

    ``sort_keys`` plus JSON's ``repr``-based float rendering make the
    digest a stable function of the counter values alone.
    """
    canonical = json.dumps(
        metrics.snapshot(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


def _run_hashed(
    panel, policy_name: str, columnar: ColumnarTrace, engine: str
) -> Tuple[str, str, str, str]:
    """One observed run plus two fast-mode runs of a panel policy.

    Returns ``(stream_sha256, metrics_sha256, fast_metrics_sha256,
    columnar_fast_metrics_sha256)``. The observed run renders the
    decision stream (on the vectorized engine this takes its
    per-packet slow path); the unobserved runs exercise the engine's
    fast mode on the materialized packets and on the columns, whose
    final metrics must digest identically — those equalities are
    themselves part of the check.
    """
    config = panel.config()
    trace = columnar.to_trace()

    hasher = DecisionStreamHasher()
    observed = PolicySystem(config, make_policy(policy_name), engine=engine)
    observed_metrics = run_system(observed, trace, observer=hasher)

    fast = PolicySystem(config, make_policy(policy_name), engine=engine)
    fast_metrics = run_system(fast, trace)

    from_columns = PolicySystem(
        config, make_policy(policy_name), engine=engine
    )
    columnar_metrics = run_system(from_columns, columnar)

    return (
        hasher.hexdigest(),
        metrics_digest(observed_metrics),
        metrics_digest(fast_metrics),
        metrics_digest(columnar_metrics),
    )


def compute_goldens(
    panel_names: Optional[Sequence[str]] = None,
    *,
    slots_scale: float = GOLDEN_SLOTS_SCALE,
    engine: str = "reference",
) -> Dict[str, object]:
    """Compute the golden document for the selected bench panels.

    The committed fixture is computed on the reference engine (the
    oracle); ``engine="vectorized"`` recomputes the same document on the
    columnar engine, which :func:`check_goldens` uses to assert the
    engines' streams are byte-identical to the committed one.
    """
    from repro.bench import PANELS

    if panel_names is None:
        panel_names = list(PANELS)
    doc: Dict[str, object] = {
        "schema": SCHEMA_VERSION,
        "slots_scale": slots_scale,
        "engine": engine,
        "panels": {},
    }
    panels: Dict[str, object] = doc["panels"]  # type: ignore[assignment]
    for name in panel_names:
        panel = PANELS.get(name)
        if panel is None:
            raise ConfigError(
                f"unknown bench panel {name!r}; known: "
                + ", ".join(PANELS)
            )
        columnar = panel.columnar_trace(slots_scale)
        policies: Dict[str, Dict[str, str]] = {}
        for policy_name in panel.policies:
            stream, metrics, fast_metrics, columnar_metrics = _run_hashed(
                panel, policy_name, columnar, engine
            )
            if fast_metrics != metrics:
                raise ConfigError(
                    f"{name}/{policy_name}: fast-mode metrics diverge "
                    f"from the observed run on engine {engine!r} "
                    f"({fast_metrics[:12]} != {metrics[:12]})"
                )
            if columnar_metrics != fast_metrics:
                raise ConfigError(
                    f"{name}/{policy_name}: fast-mode metrics on the "
                    "columnar trace diverge from its packet objects on "
                    f"engine {engine!r} ({columnar_metrics[:12]} != "
                    f"{fast_metrics[:12]})"
                )
            policies[policy_name] = {
                "stream_sha256": stream,
                "metrics_sha256": metrics,
            }
        panels[name] = {
            "trace_sha256": trace_digest(columnar),
            "policies": policies,
        }
    return doc


def check_goldens(
    path: Path | str = DEFAULT_GOLDEN_PATH,
    *,
    panel_names: Optional[Sequence[str]] = None,
    engines: Sequence[str] = ("reference", "vectorized"),
) -> List[str]:
    """Recompute digests on every engine and diff against the fixture.

    Returns human-readable mismatch lines (empty means the fixture
    holds). Every engine in ``engines`` must reproduce the committed
    stream and metrics digests exactly — this is the absolute half of
    the oracle contract (the differential suites are the relative
    half). Recomputing raises :class:`ConfigError` when a fast-mode
    run, on packet objects or on columns, diverges from the observed
    run.
    """
    committed = load_goldens(path)
    scale = float(committed["slots_scale"])
    want_panels: Mapping[str, Mapping] = committed["panels"]
    names = list(want_panels) if panel_names is None else list(panel_names)
    problems: List[str] = []
    for engine in engines:
        got = compute_goldens(names, slots_scale=scale, engine=engine)
        got_panels: Mapping[str, Mapping] = got["panels"]
        for name in names:
            want = want_panels.get(name)
            if want is None:
                problems.append(f"{name}: not in committed fixture")
                continue
            have_trace = got_panels[name]["trace_sha256"]
            if have_trace != want["trace_sha256"]:
                problems.append(
                    f"{name} [{engine}]: trace_sha256 "
                    f"{have_trace[:16]}... != committed "
                    f"{want['trace_sha256'][:16]}..."
                )
            for policy, want_digests in want["policies"].items():
                have = got_panels[name]["policies"].get(policy)
                if have is None:
                    problems.append(
                        f"{name}/{policy} [{engine}]: policy missing"
                    )
                    continue
                for key in ("stream_sha256", "metrics_sha256"):
                    if have[key] != want_digests[key]:
                        problems.append(
                            f"{name}/{policy} [{engine}]: {key} "
                            f"{have[key][:16]}... != committed "
                            f"{want_digests[key][:16]}..."
                        )
    return problems


def load_goldens(path: Path | str = DEFAULT_GOLDEN_PATH) -> Dict[str, object]:
    path = Path(path)
    if not path.exists():
        raise ConfigError(
            f"golden fixture {path} not found; create it with "
            f"`repro golden --update`"
        )
    with path.open("r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if doc.get("schema") != SCHEMA_VERSION:
        raise ConfigError(
            f"golden fixture {path} has schema {doc.get('schema')!r}, "
            f"expected {SCHEMA_VERSION}"
        )
    return doc


def update_goldens(
    path: Path | str = DEFAULT_GOLDEN_PATH,
    *,
    panel_names: Optional[Sequence[str]] = None,
    slots_scale: float = GOLDEN_SLOTS_SCALE,
) -> Path:
    """Recompute the fixture on the reference engine and write it."""
    from repro.resilience import atomic_write_json

    doc = compute_goldens(panel_names, slots_scale=slots_scale)
    return atomic_write_json(Path(path), doc, indent=2)
