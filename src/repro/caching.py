"""Shared two-tier cache plumbing.

Both content-addressed stores of the pipeline — the partition-plan cache
(:mod:`repro.planner.cache`) and the lowered-program cache
(:mod:`repro.runtime.cache`) — need exactly the same machinery: an in-memory
LRU over JSON-serialisable payloads, an optional on-disk store (one file per
key) with size accounting and least-recently-used eviction under a byte
budget, hit/miss bookkeeping, and ``export``/``import`` bundles for moving a
store between machines.  :class:`TwoTierCache` is that machinery, factored
out once; the two caches subclass it with their payload codec and bundle
format name.

Content-address helpers (:func:`graph_signature`, :func:`machine_signature`,
:func:`content_key`) also live here so both key schemes hash identical
inputs identically; :func:`signature_memo` lets one request hash its graph
once for all of them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import glob
import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from contextvars import ContextVar
from typing import Callable, Dict, Optional, Tuple, TypeVar

from repro.errors import ReproError
from repro.graph.graph import Graph
from repro.graph.serialization import graph_to_dict
from repro.sim.device import Topology

T = TypeVar("T")

#: What a payload codec raises on an entry it cannot decode: a wrong
#: version or a malformed column (a library error), a missing field
#: (``KeyError``), a mistyped or ragged one (``TypeError``, ``ValueError``,
#: ``IndexError``, ``AttributeError``).  The caches turn each into a miss.
DECODE_ERRORS = (
    ReproError, KeyError, TypeError, ValueError, IndexError, AttributeError
)

# ---------------------------------------------------------------------------
# Content addressing
# ---------------------------------------------------------------------------
#: The memo :func:`signature_memo` activates: ``id(graph) -> (graph,
#: signature)``.  Holding the graph keeps its id from being reused while
#: the memo lives.
SignatureMemo = Dict[int, Tuple[Graph, str]]

_SIGNATURE_MEMO: ContextVar[Optional[SignatureMemo]] = ContextVar(
    "graph_signature_memo", default=None
)


@contextlib.contextmanager
def signature_memo(memo: Optional[SignatureMemo] = None):
    """Hash each graph object at most once inside the block.

    One compile request hashes its graph for several keys (the service's
    request key, the plan key, the program key); under a memo each repeat
    is a lookup.  The memo is keyed by graph identity, so it must not
    outlive the request: a graph edited between two compiles has to be
    hashed again.  ``repro.compile`` opens one per call, and
    ``CompileService`` one per request, passed from ``submit`` to the
    worker thread as ``memo``.  Without ``memo`` a block nested in an
    active memo shares it.  Usable as a decorator.
    """
    if memo is None:
        memo = _SIGNATURE_MEMO.get()
        if memo is None:
            memo = {}
    token = _SIGNATURE_MEMO.set(memo)
    try:
        yield memo
    finally:
        _SIGNATURE_MEMO.reset(token)


def graph_signature(graph: Graph) -> str:
    """Content hash of a graph (tensors, nodes, attrs, metadata).

    Inside :func:`signature_memo` a graph already hashed returns its
    memoised signature.
    """
    memo = _SIGNATURE_MEMO.get()
    if memo is not None:
        seen = memo.get(id(graph))
        if seen is not None and seen[0] is graph:
            return seen[1]
    payload = json.dumps(graph_to_dict(graph), sort_keys=True, separators=(",", ":"))
    signature = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    if memo is not None:
        memo[id(graph)] = (graph, signature)
    return signature


def machine_signature(machine: Optional[Topology]) -> str:
    """Content hash of a machine or cluster model (``"no-machine"`` when
    unspecified) — a one-machine cluster and its bare machine hash
    differently, as do clusters differing only in machine count or network
    parameters."""
    if machine is None:
        return "no-machine"
    payload = json.dumps(
        dataclasses.asdict(machine), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def content_key(fields: Dict) -> str:
    """SHA-256 over the canonical JSON encoding of ``fields``.

    Raises ``TypeError`` when a field is not JSON-serialisable — such inputs
    have no stable content address, so callers bypass their cache for them.
    """
    payload = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# The shared store
# ---------------------------------------------------------------------------
class TwoTierCache:
    """In-memory LRU over JSON payload dicts, with an optional disk tier.

    Subclasses set three class attributes: ``export_format`` (the bundle
    format marker), ``export_version``, and ``payload_field`` (the JSON key
    a disk entry stores its payload under — ``"plan"`` for plans,
    ``"program"`` for lowered programs, which keeps the plan cache's
    pre-refactor on-disk layout byte-compatible), plus ``description`` for
    error messages.

    Payloads are plain dictionaries; value↔payload conversion (e.g.
    ``plan_to_dict``/``plan_from_dict``) belongs to the subclass, which keeps
    the invariant that every hit reconstructs a fresh object — callers can
    mutate what they get back without corrupting the store.  Subclass
    ``get`` decodes through :meth:`_get_decoded`, so a payload the codec
    rejects is a counted miss rather than an exception.

    The store is thread-safe: one re-entrant lock guards the memory LRU and
    the disk accounting (eviction counter, budget sweeps), so the compile
    service's worker threads can share one cache.  Disk entry files were
    already safe (atomic tempfile + ``os.replace`` writes); the lock makes
    the bookkeeping around them coherent too.
    """

    export_format: str = "tofu-cache"
    export_version: int = 1
    payload_field: str = "entry"
    description: str = "cache"

    def __init__(
        self,
        capacity: int = 128,
        cache_dir: Optional[str] = None,
        *,
        max_bytes: Optional[int] = None,
    ):
        self.capacity = max(0, capacity)
        self.cache_dir = cache_dir
        self.max_bytes = max_bytes
        self._memory: "OrderedDict[str, Dict]" = OrderedDict()
        # Re-entrant: get_payload holds the lock while _memory_put runs.
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.decode_errors = 0
        self.disk_evictions = 0
        if cache_dir:
            try:
                os.makedirs(cache_dir, exist_ok=True)
            except OSError as exc:
                raise ReproError(
                    f"{self.description} directory {cache_dir!r} is not "
                    f"usable: {exc}"
                ) from exc

    @property
    def enabled(self) -> bool:
        return self.capacity > 0 or self.cache_dir is not None

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 before any lookup)."""
        with self._lock:
            lookups = self.hits + self.misses
            return self.hits / lookups if lookups else 0.0

    def info(self) -> Dict[str, object]:
        with self._lock:
            info: Dict[str, object] = {
                "hits": self.hits,
                "misses": self.misses,
                "decode_errors": self.decode_errors,
                "hit_rate": self.hit_rate(),
                "size": len(self._memory),
            }
            if self.cache_dir:
                info["disk_bytes"] = self.disk_bytes()
                info["disk_entries"] = len(self._disk_entries())
                info["disk_evictions"] = self.disk_evictions
            return info

    def disk_bytes(self) -> int:
        """Total size of the on-disk store (0 without a disk tier)."""
        return sum(size for _, size, _ in self._disk_entries())

    # ------------------------------------------------------------- payloads
    def get_payload(self, key: str) -> Optional[Dict]:
        """The stored payload under ``key`` (memory first, then disk)."""
        return self._get_decoded(key, lambda payload: payload)

    def _get_decoded(self, key: str, decode: Callable[[Dict], T]) -> Optional[T]:
        """``decode`` of the payload under ``key``, or ``None`` on a miss.

        An entry ``decode`` rejects (any of :data:`DECODE_ERRORS`: an older
        payload version, a missing field, a ragged column) counts as a miss
        and in ``decode_errors``, and leaves the memory tier, so the caller
        recomputes the value and its put overwrites the entry.
        """
        with self._lock:
            payload = self._memory.get(key)
            if payload is not None:
                self._memory.move_to_end(key)
            else:
                payload = self._disk_get(key)
                if payload is not None:
                    self._memory_put(key, payload)
        value = None
        if payload is not None:
            try:
                value = decode(payload)
            except DECODE_ERRORS:
                pass  # counted below
        with self._lock:
            if value is not None:
                self.hits += 1
                return value
            self.misses += 1
            if payload is not None:
                self.decode_errors += 1
                if self._memory.get(key) is payload:
                    del self._memory[key]
            return None

    def put_payload(self, key: str, payload: Dict) -> None:
        """Store ``payload`` in both tiers."""
        with self._lock:
            self._memory_put(key, payload)
            self._disk_put(key, payload)

    def snapshot_payloads(self) -> Dict[str, Dict]:
        """A copy of every in-memory entry (``key -> payload``).

        This is the in-process counterpart of :meth:`export_to`: a pool
        worker snapshots the entries its searches produced and ships them
        back to the parent, which folds them in with
        :meth:`merge_payloads` — no disk tier required on either side.
        Lookup counters are untouched.
        """
        with self._lock:
            return dict(self._memory)

    def merge_payloads(self, payloads: Dict[str, Dict]) -> int:
        """Fold ``key -> payload`` entries into the store; returns how many
        were new.

        Content addresses make key collisions equal-payload collisions, so
        entries already present are skipped rather than overwritten (the
        same policy as :meth:`import_from`).  New entries land in both
        tiers.
        """
        merged = 0
        with self._lock:
            for key, payload in payloads.items():
                if key in self._memory:
                    continue
                if self._disk_get(key) is not None:
                    continue
                self._memory_put(key, payload)
                self._disk_put(key, payload)
                merged += 1
        return merged

    # --------------------------------------------------------- export/import
    def export_to(self, path: str) -> int:
        """Bundle every on-disk entry into one JSON file at ``path``.

        Content addresses are host-independent (every key input is
        canonically encoded), so a bundle exported on one machine imports
        losslessly on another.  Returns the number of exported entries;
        requires a disk tier.
        """
        if not self.cache_dir:
            raise ReproError(
                f"{self.description} export needs a disk tier "
                f"(configure cache_dir)"
            )
        entries: Dict[str, Dict] = {}
        for file_path, _, _ in self._disk_entries():
            try:
                with open(file_path, "r", encoding="utf-8") as fh:
                    entry = json.load(fh)
                entries[entry["key"]] = entry[self.payload_field]
            except (OSError, ValueError, KeyError):
                continue  # unreadable/corrupt entries are skipped, not fatal
        bundle = {
            "format": self.export_format,
            "version": self.export_version,
            "entries": entries,
        }
        directory = os.path.dirname(os.path.abspath(path)) or "."
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(bundle, fh)
        os.replace(tmp, path)
        return len(entries)

    def import_from(self, path: str, *, replace: bool = False) -> Dict[str, int]:
        """Merge a bundle written by :meth:`export_to` into the disk store.

        Existing entries are kept unless ``replace=True`` (content addresses
        make key collisions equal-payload collisions, so keeping is safe).
        Returns ``{"imported": ..., "skipped": ...}``; requires a disk tier.
        """
        if not self.cache_dir:
            raise ReproError(
                f"{self.description} import needs a disk tier "
                f"(configure cache_dir)"
            )
        try:
            with open(path, "r", encoding="utf-8") as fh:
                bundle = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ReproError(
                f"{self.description} bundle {path!r} is not readable JSON: "
                f"{exc}"
            ) from exc
        if bundle.get("format") != self.export_format:
            raise ReproError(
                f"{path!r} is not a {self.export_format} bundle "
                f"(format={bundle.get('format')!r})"
            )
        if bundle.get("version") != self.export_version:
            raise ReproError(
                f"unsupported {self.description} bundle version "
                f"{bundle.get('version')!r} (this library reads version "
                f"{self.export_version})"
            )
        imported = skipped = 0
        with self._lock:
            for key, payload in (bundle.get("entries") or {}).items():
                if not replace and os.path.exists(self._path(key)):
                    skipped += 1
                    continue
                self._disk_put(key, payload)
                imported += 1
        return {"imported": imported, "skipped": skipped}

    def clear(self) -> None:
        """Empty both tiers (memory and, when configured, the disk store)."""
        with self._lock:
            self._memory.clear()
            self.hits = 0
            self.misses = 0
            self.decode_errors = 0
            self.disk_evictions = 0
            if self.cache_dir:
                for path in glob.glob(os.path.join(self.cache_dir, "*.json")):
                    try:
                        os.unlink(path)
                    except OSError:
                        pass

    # ------------------------------------------------------------- internals
    def _memory_put(self, key: str, payload: Dict) -> None:
        if self.capacity <= 0:
            return
        self._memory[key] = payload
        self._memory.move_to_end(key)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)

    def _path(self, key: str) -> str:
        return os.path.join(self.cache_dir, f"{key}.json")

    def _disk_get(self, key: str) -> Optional[Dict]:
        if not self.cache_dir:
            return None
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
            payload = entry[self.payload_field]
        except (OSError, ValueError, KeyError):
            return None
        try:
            os.utime(path, None)  # refresh LRU recency on hit
        except OSError:
            pass
        return payload

    def _disk_put(self, key: str, payload: Dict) -> None:
        if not self.cache_dir:
            return
        entry = json.dumps({"key": key, self.payload_field: payload})
        fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(entry)
            os.replace(tmp, self._path(key))
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        self._disk_enforce_budget(keep=self._path(key))

    def _disk_entries(self):
        """``(path, size, mtime)`` of every stored entry file."""
        if not self.cache_dir:
            return []
        entries = []
        for path in glob.glob(os.path.join(self.cache_dir, "*.json")):
            try:
                stat = os.stat(path)
            except OSError:
                continue
            entries.append((path, stat.st_size, stat.st_mtime))
        return entries

    def _disk_enforce_budget(self, keep: Optional[str] = None) -> None:
        """Evict least-recently-used files until the store fits ``max_bytes``.

        ``keep`` protects the entry just written: even when one payload alone
        exceeds the budget the caller's own entry must survive the sweep, so
        hit-after-put stays guaranteed within a process.
        """
        if self.max_bytes is None or not self.cache_dir:
            return
        entries = self._disk_entries()
        total = sum(size for _, size, _ in entries)
        if total <= self.max_bytes:
            return
        entries.sort(key=lambda item: item[2])  # oldest mtime first
        for path, size, _ in entries:
            if total <= self.max_bytes:
                break
            if keep is not None and os.path.abspath(path) == os.path.abspath(keep):
                continue
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            self.disk_evictions += 1
