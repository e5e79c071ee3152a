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

Two tiers:

* a per-process LRU memo of live :class:`ColumnarTrace` objects —
  the fast path within one sweep (and one forked worker);
* an optional on-disk artifact directory (``<sha256(key)>.cols``) so
  repeated runs, report regeneration, and sibling ``jobs=N`` workers
  each generate a given trace at most once per machine, not per
  process.

The artifact format is self-describing and backend-free: a magic tag,
a JSON header (schema, column layout, payload checksum, the full key),
then the raw little-or-native-endian int64/float64 column buffers.
Artifacts are published atomically (tmp + fsync + ``os.replace``) and
verified by checksum on load; a torn, stale, or corrupt artifact is
treated as a miss and rebuilt. Concurrent workers may race to build
the same key — both write identical bytes and the atomic replace makes
the race harmless.

Reuse is an execution optimization, never an identity: store and key
appear in **no** cache key and **no** journal identity, and a sweep
with reuse enabled is ``cmp``-identical to the same sweep without it
(pinned by the tier-1 suite, serial and parallel).
"""

from __future__ import annotations

import hashlib
import json
from array import array
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.core.config import SwitchConfig
from repro.core.errors import ConfigError
from repro.traffic.columnar import ColumnarTrace

__all__ = ["TraceKeyFn", "TraceStore"]

#: Per-cell content-key function: maps ``(config, value, seed)`` to the
#: trace's content key, or ``None`` to disable reuse for that cell.
TraceKeyFn = Callable[[SwitchConfig, float, int], Optional[str]]

_MAGIC = b"RPCOLS1\n"
_SCHEMA = 1
#: Column buffer kinds: 8-byte native-order signed ints / IEEE doubles
#: (``array('q')`` / ``array('d')`` — identical to numpy's int64 /
#: float64 buffers on every supported platform).
_KINDS = {"i8": "q", "f8": "d"}
_INT_COLUMNS = ("offsets", "ports", "works", "opts", "arrivals")


def _artifact_name(key: str) -> str:
    """Filesystem-safe artifact name for an arbitrary content key."""
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:40] + ".cols"


def _column_bytes(column: Any) -> bytes:
    """Raw buffer of a backend column (numpy ndarray or stdlib array)."""
    return column.tobytes()


class TraceStore:
    """Content-keyed memo + artifact store for columnar traces.

    Parameters
    ----------
    directory:
        Artifact directory for the on-disk tier; ``None`` keeps the
        store memory-only. Created on first write.
    memo_size:
        Live traces kept in the in-process LRU memo. Sized for the
        sweep iteration order (values outer, seeds inner): a B-sweep
        revisits a seed's trace every ``len(seeds)`` cells, so the
        default comfortably covers realistic seed counts.
    """

    def __init__(
        self,
        directory: Optional[Union[Path, str]] = None,
        *,
        memo_size: int = 16,
    ) -> None:
        if memo_size < 1:
            raise ConfigError(f"memo_size must be >= 1, got {memo_size}")
        self.directory = Path(directory) if directory is not None else None
        self._memo: "OrderedDict[str, ColumnarTrace]" = OrderedDict()
        self._memo_size = memo_size
        #: Telemetry: memo hits / artifact loads / generator invocations.
        self.memo_hits = 0
        self.disk_hits = 0
        self.builds = 0

    # ------------------------------------------------------------------
    # The one entry point
    # ------------------------------------------------------------------

    def get_or_build(
        self,
        key: str,
        builder: Callable[[], ColumnarTrace],
    ) -> ColumnarTrace:
        """Return the trace stored under ``key``, building it at most once.

        Lookup order: memo, then disk artifact, then ``builder()``.
        """
        if not key:
            raise ConfigError("trace store key must be a non-empty string")
        trace = self._memo.get(key)
        if trace is not None:
            self._memo.move_to_end(key)
            self.memo_hits += 1
            return trace
        trace = self._load(key)
        if trace is not None:
            self.disk_hits += 1
            self._remember(key, trace)
            return trace
        trace = builder()
        self.builds += 1
        self._save(key, trace)
        self._remember(key, trace)
        return trace

    def _remember(self, key: str, trace: ColumnarTrace) -> None:
        self._memo[key] = trace
        self._memo.move_to_end(key)
        while len(self._memo) > self._memo_size:
            self._memo.popitem(last=False)

    # ------------------------------------------------------------------
    # On-disk artifacts
    # ------------------------------------------------------------------

    def _save(self, key: str, trace: ColumnarTrace) -> None:
        if self.directory is None:
            return
        columns = trace.as_columns()
        specs: List[Dict[str, Any]] = []
        payload = bytearray()
        for name, column in columns.items():
            buf = _column_bytes(column)
            kind = "i8" if name in _INT_COLUMNS else "f8"
            specs.append(
                {"name": name, "kind": kind, "count": len(buf) // 8}
            )
            payload.extend(buf)
        header = {
            "schema": _SCHEMA,
            "key": key,
            "columns": specs,
            "sha256": hashlib.sha256(bytes(payload)).hexdigest(),
        }
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        blob = (
            _MAGIC
            + len(header_bytes).to_bytes(8, "big")
            + header_bytes
            + bytes(payload)
        )
        from repro.resilience.atomic import atomic_write_bytes

        atomic_write_bytes(self.directory / _artifact_name(key), blob)

    def _load(self, key: str) -> Optional[ColumnarTrace]:
        """Load ``key``'s artifact, or ``None`` on miss/corruption.

        Every structural defect — missing file, bad magic, torn header,
        checksum mismatch, wrong key (hash-prefix collision), malformed
        columns — degrades to a rebuild rather than an error: the store
        is a cache, and the generator is always able to recreate truth.
        """
        if self.directory is None:
            return None
        path = self.directory / _artifact_name(key)
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        try:
            if not blob.startswith(_MAGIC):
                return None
            pos = len(_MAGIC)
            header_len = int.from_bytes(blob[pos : pos + 8], "big")
            pos += 8
            header = json.loads(blob[pos : pos + header_len])
            pos += header_len
            payload = blob[pos:]
            if (
                header.get("schema") != _SCHEMA
                or header.get("key") != key
                or hashlib.sha256(payload).hexdigest()
                != header.get("sha256")
            ):
                return None
            columns: Dict[str, List[Any]] = {}
            offset = 0
            for spec in header["columns"]:
                kind = _KINDS[spec["kind"]]
                count = int(spec["count"])
                buf = array(kind)
                buf.frombytes(payload[offset : offset + count * 8])
                offset += count * 8
                columns[spec["name"]] = buf.tolist()
            if offset != len(payload):
                return None
            return ColumnarTrace(
                columns["offsets"],
                columns["ports"],
                columns["works"],
                columns["values"],
                columns.get("opts"),
                columns.get("arrivals"),
            )
        except (KeyError, ValueError, TypeError):
            return None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def summary(self) -> str:
        """One line of reuse telemetry for CLI footers."""
        return (
            f"trace store: {self.builds} built, "
            f"{self.memo_hits} memo hits, {self.disk_hits} disk hits"
        )
