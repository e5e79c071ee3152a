"""The farm coordinator: lease cells out, heartbeat workers, merge back.

The coordinator owns a listening socket. Workers register (``hello``),
receive the job spec (``welcome``), and are then driven one lease at a
time. Supervision is built from three independent clocks:

* **heartbeats** — a worker silent for ``heartbeat_timeout`` seconds is
  declared lost; its active lease is reissued. Loss is not final: a
  partitioned worker that resumes talking is revived in place.
* **lease TTLs** — a lease unfinished after ``lease_ttl`` seconds is
  expired and reissued *even if its worker heartbeats happily*:
  liveness is never accepted as proof of progress (the
  ``stale-heartbeat`` fault exists to pin exactly this).
* **reissue budget** — each cell tolerates ``max_reissues``
  replacement leases; beyond that the farm stops gambling and hands
  the cell down to the local pool/serial fallback chain.

Determinism is enforced at the result boundary. Every result carries a
sha256 digest over its deterministic projection (points, never stage
timings); the coordinator recomputes it on receipt (transport
integrity) and — the important half — compares it across *duplicate*
deliveries of the same cell, which reissued leases produce by design.
Divergent duplicates mean two workers computed different bytes for the
same ``(value, seed)``: the sweep fails loudly with
:class:`~repro.core.errors.FarmError` instead of picking a winner.

Results are delivered to the supervised executor's ``_complete`` hook
in arrival order — validation, cache/journal flush, and progress all
reuse the exact local-path machinery — and the sweep reassembles in
canonical order afterwards, so farm scheduling can never leak into
output bytes.
"""

from __future__ import annotations

import heapq
import queue as queue_mod
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.core.concurrency import consumes, event_loop
from repro.core.errors import FarmError
from repro.farm import protocol
from repro.farm.jobs import FarmJob
from repro.farm.ledger import FarmStats
from repro.resilience.supervisor import CellTask, _CorruptResult


@dataclass
class FarmOptions:
    """Knobs of the farm (CLI: ``repro run --farm`` / ``repro farm``)."""

    #: Local worker subprocesses to spawn (0 = rely on externally
    #: attached workers only).
    workers: int = 2
    #: Listen address. Port 0 binds an ephemeral port (tests); a fixed
    #: port lets external workers attach (``repro farm serve``).
    host: str = "127.0.0.1"
    port: int = 0
    #: Per-lease completion deadline, seconds. Catches workers that are
    #: alive but not progressing (stale heartbeats, stuck cells).
    lease_ttl: float = 30.0
    #: Worker heartbeat cadence and the silence that declares it lost.
    heartbeat_interval: float = 0.5
    heartbeat_timeout: float = 5.0
    #: Replacement leases tolerated per cell before handing it to the
    #: local fallback chain.
    max_reissues: int = 4
    #: How long to run a farm with zero live workers before falling
    #: back locally (covers both slow spawns and a dead fleet).
    join_grace: float = 10.0
    #: Event-loop poll granularity, seconds.
    poll_interval: float = 0.05
    #: Called once with (host, port) after the socket binds — the CLI
    #: uses it to announce the endpoint for external workers.
    announce: Optional[Callable[[str, int], None]] = None
    #: When set, spawned local workers each keep a per-worker
    #: :class:`~repro.resilience.journal.RunJournal` in this directory
    #: (``repro farm merge`` folds them into one canonical journal).
    worker_journal_dir: Optional[str] = None


@dataclass
class _Lease:
    lease_id: int
    task: CellTask
    worker: str
    deadline: float
    active: bool = True  # False once expired/orphaned (late result ok)


@dataclass
class _Worker:
    name: str
    stream: protocol.MessageStream
    conn_id: int
    live: bool = True
    last_beat: float = field(default_factory=time.monotonic)
    lease_id: Optional[int] = None  # the active lease, if any


class FarmCoordinator:
    """Drives one sweep's cells through socket-registered workers.

    Construct, (optionally) read :attr:`endpoint` to spawn/attach
    workers, call :meth:`run` with the executor whose ``_complete`` /
    ``_record_failure`` bookkeeping it should reuse, then
    :meth:`close`. ``run`` returns the tasks the farm could not finish
    — the executor hands them down the pool/serial chain.

    Thread shape (checked by ``repro check``'s RC5xx rules): one accept
    thread, one reader thread per connection, and the strictly
    single-threaded ``@event_loop`` in :meth:`run`. The lock ownership
    declared below is the whole cross-thread contract — everything
    else is either event-queue traffic or pre-thread ``__init__``
    state.
    """

    # repro: guarded-by[_streams]=_streams_lock
    # repro: guarded-by[_reader_threads]=_streams_lock
    # repro: guarded-by[_status]=_status_lock

    def __init__(
        self,
        job: FarmJob,
        *,
        identity: Optional[Mapping[str, Any]],
        options: FarmOptions,
        stats: FarmStats,
        experiment: str = "",
    ) -> None:
        self._job = job
        self._identity = dict(identity) if identity is not None else None
        self._options = options
        self.stats = stats
        self._experiment = experiment
        self._events: "queue_mod.Queue[Tuple[str, Any, Any]]" = (
            queue_mod.Queue()
        )
        self._closing = False
        self._conn_seq = 0
        self._streams: List[protocol.MessageStream] = []
        self._reader_threads: List[threading.Thread] = []
        self._streams_lock = threading.Lock()
        self._status_lock = threading.Lock()
        self._status: Dict[str, Any] = {
            "experiment": experiment,
            "state": "starting",
        }
        self._server = socket.create_server(
            (options.host, options.port)
        )
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True
        )
        self._accept_thread.start()
        if options.announce is not None:
            options.announce(*self.endpoint)

    @property
    def endpoint(self) -> Tuple[str, int]:
        host, port = self._server.getsockname()[:2]
        return str(host), int(port)

    # ------------------------------------------------------------------
    # Socket plumbing (daemon threads; hand everything to the event
    # queue — the orchestration loop below is strictly single-threaded)
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                conn, _addr = self._server.accept()
            except OSError:
                return  # server socket closed
            self._conn_seq += 1
            stream = protocol.MessageStream(conn)
            reader = threading.Thread(
                target=self._reader_loop,
                args=(stream, self._conn_seq),
                daemon=True,
            )
            with self._streams_lock:
                self._streams.append(stream)
                self._reader_threads.append(reader)
            reader.start()

    def _reader_loop(
        self, stream: protocol.MessageStream, conn_id: int
    ) -> None:
        name: Optional[str] = None
        try:
            while True:
                message = stream.recv()
                if message is None:
                    break
                kind = message.get("t")
                if kind == "status?":
                    with self._status_lock:
                        snapshot = dict(self._status)
                    snapshot["t"] = "status"
                    stream.send(snapshot)
                    continue
                if name is None:
                    if kind != "hello":
                        break  # not a worker; drop the connection
                    name = str(message.get("name"))
                    if message.get("protocol") != protocol.PROTOCOL_VERSION:
                        break
                    self._events.put(
                        ("hello", (name, conn_id, stream), None)
                    )
                    continue
                self._events.put(("msg", (name, conn_id), message))
        except (OSError, FarmError):
            pass  # torn connection or garbage: treat as gone
        finally:
            if name is not None:
                self._events.put(("gone", (name, conn_id), None))
            stream.close()

    # ------------------------------------------------------------------
    # Orchestration
    # ------------------------------------------------------------------

    @event_loop
    def run(
        self,
        tasks: List[CellTask],
        executor,
        results: Dict[Any, Any],
        failures: List,
    ) -> List[CellTask]:
        """Lease ``tasks`` to workers until done, failed, or exhausted.

        ``executor`` supplies the shared bookkeeping: ``_complete``
        (validate → cache/journal flush → progress → injected
        interrupt) and ``_record_failure`` (attempt charging, retry
        backoff, quarantine). Returns the leftover tasks for the local
        fallback chain.
        """
        options = self._options
        started = time.monotonic()
        workers: Dict[str, _Worker] = {}
        leases: Dict[int, _Lease] = {}
        pending: List[CellTask] = list(tasks)
        retry_heap: List[Tuple[float, int, CellTask]] = []
        unfinished: Dict[Any, CellTask] = {t.key: t for t in tasks}
        done_digests: Dict[Any, str] = {}
        reissues: Dict[Any, int] = {}
        fallback: List[CellTask] = []
        lease_seq = 0
        ever_joined = False
        last_live = started

        def live_workers() -> List[_Worker]:
            return [w for w in workers.values() if w.live]

        def free_lease(lease: _Lease) -> None:
            worker = workers.get(lease.worker)
            if worker is not None and worker.lease_id == lease.lease_id:
                worker.lease_id = None
            lease.active = False

        def reissue(task: CellTask, *, why: str) -> None:
            """Replacement lease after loss/expiry (not a failure)."""
            if task.key not in unfinished:
                return
            count = reissues.get(task.key, 0) + 1
            reissues[task.key] = count
            if count > options.max_reissues:
                unfinished.pop(task.key, None)
                fallback.append(task)
                return
            task.attempt += 1
            self.stats.leases_reissued += 1
            pending.append(task)

        def expire_worker_lease(worker: _Worker, *, why: str) -> None:
            if worker.lease_id is None:
                return
            lease = leases.get(worker.lease_id)
            worker.lease_id = None
            if lease is None or not lease.active:
                return
            lease.active = False
            reissue(lease.task, why=why)

        def lose_worker(worker: _Worker, *, beat_timeout: bool) -> None:
            if not worker.live:
                return
            worker.live = False
            self.stats.workers_lost += 1
            if beat_timeout:
                self.stats.heartbeats_missed += 1
            expire_worker_lease(
                worker,
                why="heartbeat timeout" if beat_timeout else "connection lost",
            )

        def quarantine_check(task: CellTask) -> None:
            """After ``_record_failure``: drop quarantined tasks."""
            if task.attempt > executor.options.retries:
                unfinished.pop(task.key, None)

        @consumes("result")
        def handle_result(
            worker_name: str, message: Dict[str, Any]
        ) -> None:
            lease = leases.get(int(message.get("lease_id", -1)))
            key = (float(message["value"]), int(message["seed"]))
            wire_points = message.get("points") or []
            claimed = message.get("digest")
            computed = protocol.result_digest(wire_points)
            worker = workers.get(worker_name)
            if lease is not None:
                free_lease(lease)
            if computed != claimed:
                # Transport integrity failure; the cell itself is fine,
                # so charge nothing — reissue if still unfinished.
                self.stats.results_rejected += 1
                task = unfinished.get(key)
                if task is not None and (
                    lease is None or lease.task.key == key
                ):
                    reissue(task, why="transport digest mismatch")
                return
            if key in done_digests:
                # A duplicate delivery from a reissued/late lease: THE
                # determinism check. Same cell, same bytes — or the
                # whole sweep is untrustworthy.
                if computed != done_digests[key]:
                    raise FarmError(
                        f"determinism violation: cell {key} produced "
                        f"digest {computed[:12]} from worker "
                        f"{worker_name}, but an earlier delivery "
                        f"produced {done_digests[key][:12]}; duplicate "
                        f"results of one cell must be byte-identical"
                    )
                self.stats.duplicate_results += 1
                return
            task = unfinished.get(key)
            if task is None:
                return  # late result for a quarantined/fallback cell
            points = protocol.points_from_wire(wire_points)
            stages = {
                str(k): float(v)
                for k, v in (message.get("stages") or {}).items()
            }
            try:
                executor._complete(task, (points, stages), results)
            except _CorruptResult as exc:
                self.stats.results_rejected += 1
                executor._record_failure(task, exc, retry_heap, failures)
                quarantine_check(task)
                return
            done_digests[key] = computed
            unfinished.pop(key, None)
            self.stats.cells_farmed += 1
            if worker is not None:
                self.stats.add_worker_stages(worker_name, stages)

        @consumes("error")
        def handle_error(
            worker_name: str, message: Dict[str, Any]
        ) -> None:
            lease = leases.get(int(message.get("lease_id", -1)))
            if lease is not None:
                free_lease(lease)
            if lease is None or lease.task.key not in unfinished:
                return  # stale error for a finished/abandoned lease
            text = str(message.get("error", "unknown worker error"))
            if message.get("fatal"):
                raise FarmError(
                    f"worker {worker_name} hit a deterministic error "
                    f"in cell {lease.task.key}: {text}"
                )
            executor._record_failure(
                lease.task, RuntimeError(text), retry_heap, failures
            )
            quarantine_check(lease.task)

        def handle_event(event: Tuple[str, Any, Any]) -> None:
            nonlocal ever_joined
            kind, ref, message = event
            if kind == "hello":
                name, conn_id, stream = ref
                previous = workers.get(name)
                if previous is not None:
                    # A reconnect (disconnect fault / restarted worker):
                    # the old connection is dead even if its reader has
                    # not noticed yet.
                    if previous.live and previous.conn_id != conn_id:
                        lose_worker(previous, beat_timeout=False)
                    previous.stream.close()
                else:
                    self.stats.workers_joined += 1
                workers[name] = _Worker(
                    name=name, stream=stream, conn_id=conn_id
                )
                ever_joined = True
                try:
                    # repro: allow[RC502] -- small frame, beat-bounded
                    stream.send(
                        protocol.welcome(
                            self._job.to_wire(),
                            self._identity,
                            self._options.heartbeat_interval,
                        )
                    )
                except OSError:
                    lose_worker(workers[name], beat_timeout=False)
                return
            name, conn_id = ref
            worker = workers.get(name)
            if worker is None or worker.conn_id != conn_id:
                return  # stale event from a replaced connection
            if kind == "gone":
                lose_worker(worker, beat_timeout=False)
                return
            # Any live traffic revives a worker declared lost (a healed
            # partition): its silence cost it the lease, not its seat.
            worker.last_beat = time.monotonic()
            if not worker.live:
                worker.live = True
            mtype = message.get("t")
            if mtype == "result":
                handle_result(name, message)
            elif mtype == "error":
                handle_error(name, message)
            elif mtype == "heartbeat":
                pass  # liveness is the timestamp update above

        try:
            while unfinished:
                now = time.monotonic()
                while retry_heap and retry_heap[0][0] <= now:
                    pending.append(heapq.heappop(retry_heap)[2])
                try:
                    event = self._events.get(
                        timeout=options.poll_interval
                    )
                except queue_mod.Empty:
                    event = None
                if event is not None:
                    handle_event(event)
                    # Drain whatever else queued up behind it.
                    while True:
                        try:
                            handle_event(self._events.get_nowait())
                        except queue_mod.Empty:
                            break
                now = time.monotonic()
                # Clock 1: heartbeat silence.
                for worker in live_workers():
                    if (
                        now - worker.last_beat
                        > options.heartbeat_timeout
                    ):
                        lose_worker(worker, beat_timeout=True)
                # Clock 2: lease TTLs (worker may still be live).
                for lease in list(leases.values()):
                    if lease.active and lease.deadline < now:
                        self.stats.leases_expired += 1
                        free_lease(lease)
                        reissue(lease.task, why="lease expired")
                # Assign pending cells to idle live workers.
                idle = [
                    w for w in live_workers() if w.lease_id is None
                ]
                for worker in idle:
                    task = _pop_assignable(pending, unfinished)
                    if task is None:
                        break
                    lease_seq += 1
                    lease = _Lease(
                        lease_id=lease_seq,
                        task=task,
                        worker=worker.name,
                        deadline=now + options.lease_ttl,
                    )
                    leases[lease_seq] = lease
                    worker.lease_id = lease_seq
                    self.stats.leases_issued += 1
                    value, seed = task.key
                    try:
                        # repro: allow[RC502] -- small frame, beat-bounded
                        worker.stream.send(
                            protocol.lease(
                                lease_seq,
                                task.index,
                                task.attempt,
                                value,
                                seed,
                                task.args[2],
                            )
                        )
                    except OSError:
                        lose_worker(worker, beat_timeout=False)
                if live_workers():
                    last_live = time.monotonic()
                elif (
                    time.monotonic() - (last_live if ever_joined else started)
                    > options.join_grace
                ):
                    # Worker exhaustion: nobody is serving and nobody
                    # joined within the grace window — stop gambling
                    # and hand everything left to the local chain.
                    leftover = [
                        task
                        for task in unfinished.values()
                        if all(
                            lease.task.key != task.key or not lease.active
                            for lease in leases.values()
                        )
                    ]
                    for task in leftover:
                        unfinished.pop(task.key, None)
                        fallback.append(task)
                    break
                self._publish_status(
                    total=len(tasks),
                    done=len(done_digests),
                    workers=workers,
                    started=started,
                )
        finally:
            # Tasks still waiting on a backoff belong to the fallback
            # chain too — the local executor has its own retry clock.
            for _ready, _idx, task in retry_heap:
                if task.key in unfinished:
                    unfinished.pop(task.key, None)
                    fallback.append(task)
            self._publish_status(
                total=len(tasks),
                done=len(done_digests),
                workers=workers,
                started=started,
                state="draining",
            )
        return fallback

    @event_loop
    def _publish_status(
        self,
        *,
        total: int,
        done: int,
        workers: Dict[str, _Worker],
        started: float,
        state: str = "running",
    ) -> None:
        now = time.monotonic()
        snapshot = {
            "experiment": self._experiment,
            "state": state,
            "endpoint": "%s:%d" % self.endpoint,
            "cells": {"total": total, "done": done},
            "workers": [
                {
                    "name": w.name,
                    "live": w.live,
                    "beat_age": round(now - w.last_beat, 3),
                    "busy": w.lease_id is not None,
                }
                for w in workers.values()
            ],
            "ledger": self.stats.as_dict(),
            "worker_stages": {
                name: {k: round(v, 6) for k, v in stages.items()}
                for name, stages in self.stats.worker_stages.items()
            },
            "elapsed": round(now - started, 3),
        }
        with self._status_lock:
            self._status = snapshot

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut the farm down: tell workers to exit, close the socket,
        and join every thread this coordinator started (bounded — a
        wedged reader must not wedge teardown)."""
        # repro: allow[RC505] -- monotonic one-shot bool; GIL-atomic
        self._closing = True
        # On Linux, close() alone does not wake a thread blocked in
        # accept(); shutdown() does.
        try:
            self._server.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # not connected / already shut down on some platforms
        try:
            self._server.close()
        except OSError:  # pragma: no cover - already closed
            pass
        with self._streams_lock:
            streams = list(self._streams)
            self._streams.clear()
            readers = list(self._reader_threads)
            self._reader_threads.clear()
        goodbye = protocol.shutdown()
        for stream in streams:
            try:
                stream.send(goodbye)
            except OSError:
                pass  # connection already gone; EOF says the same thing
            stream.close()
        # Shutting the server socket down unblocks accept(); closing
        # the streams unblocks every reader's recv(). Bounded joins so a
        # half-dead peer cannot hold close() hostage; a thread that
        # outlives its join is counted, not silently left behind.
        threads = [self._accept_thread, *readers]
        for thread in threads:
            thread.join(timeout=5.0)
        self.stats.joins_timed_out += sum(
            thread.is_alive() for thread in threads
        )


def _pop_assignable(
    pending: List[CellTask], unfinished: Dict[Any, CellTask]
) -> Optional[CellTask]:
    """Next pending task that is still worth leasing."""
    while pending:
        task = pending.pop(0)
        if task.key in unfinished:
            return task
    return None
