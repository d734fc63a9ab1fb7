"""Content-addressed on-disk cache for replay results.

The sibling of :mod:`repro.trace.diskcache`, one level up the stack:
that module memoises *traces* (the input of a replay), this one memoises
*results* — the :class:`~repro.common.stats.MessageStats` /
:class:`~repro.common.stats.BusStats` of one machine replay, or a whole
experiment's row list.  The paper's tables re-simulate identical design
points constantly (``table2`` after ``table3`` shares every infinite-
cache conventional replay; a re-run of ``repro-experiments all`` shares
*everything*), and a replay costs seconds while a cache hit costs a JSON
load.

Keys are content-addressed, never positional::

    sha256(version | engine tag | kind | trace digest | config digest
           | policy/protocol digest | extras)

* **trace digest** — :meth:`repro.trace.packed.PackedTrace.digest`,
  a hash of the raw column bytes.  Regenerated, shared-memory attached
  and disk-cached copies of the same trace all hash identically; a
  changed workload generator changes the bytes and therefore the key.
* **config digest** — the frozen-dataclass ``repr`` of the
  :class:`~repro.common.config.MachineConfig` (deterministic, total).
* **policy digest** — the *behavioural* fields of an
  :class:`~repro.directory.policy.AdaptivePolicy` only; the display
  name is excluded, so the ablations' ``threshold-1`` and the paper's
  ``basic`` share one entry.
* **engine tag** — :data:`ENGINE_VERSION` plus a hash over the
  simulator source files, so *any* engine edit invalidates every entry
  automatically (over-invalidation is safe; staleness is not).

Layout and knobs mirror the trace cache:

* Directory: ``$REPRO_RESULT_CACHE`` if set, else
  ``$XDG_CACHE_HOME/repro/results``, else ``~/.cache/repro/results``.
* ``REPRO_RESULT_CACHE=off`` (or ``0``) disables it;
  ``repro-experiments --no-result-cache`` does the same per run.
* Entries are single JSON files written via temp-file + atomic rename;
  a corrupted or truncated entry is a **miss, never an error**.

An unbounded in-process dict fronts the disk so a sweep that revisits a key
within one process never re-reads the file.  Hit/miss/store totals are
kept in module counters (:func:`counts`) and, when a telemetry session
is active, mirrored to the ``repro_result_cache_requests_total`` metric.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from collections import Counter
from pathlib import Path
from typing import Callable, TypeVar

from repro.common.stats import BusStats, MessageStats
from repro.telemetry import runtime as telemetry

T = TypeVar("T")

#: Bump manually on semantic changes the source hash cannot see
#: (e.g. a cost-model reinterpretation living in data files).
ENGINE_VERSION = 1

#: Telemetry counter mirroring the module counters, labelled by
#: ``kind`` (directory/bus/row kind) and ``status`` (hit/miss).
REQUESTS_METRIC = "repro_result_cache_requests_total"

_DISABLE_VALUES = {"off", "0", "no", "false", "disable", "disabled"}

#: Subpackages whose sources define replay behaviour; their bytes feed
#: the engine tag.  Telemetry and conformance are deliberately absent —
#: they observe replays, they do not change results.
_ENGINE_PACKAGES = (
    "analysis", "cache", "common", "directory", "experiments",
    "interconnect", "kernels", "protocols", "snooping", "system",
    "timing", "trace", "workloads",
)

_engine_tag: str | None = None


#: In-memory front: key -> encoded payload (decoded fresh per fetch so
#: callers can never mutate a cached object in place).  Unbounded: one
#: process's working set of distinct replays is small.
_memory: dict[str, object] = {}

_counts = {"hits": 0, "misses": 0, "stores": 0}


# ----------------------------------------------------------------------
# Location and keys
# ----------------------------------------------------------------------

def enabled() -> bool:
    """Whether the result cache is active at all."""
    return cache_dir() is not None


def cache_dir() -> Path | None:
    """The active cache directory, or None when the cache is disabled."""
    configured = os.environ.get("REPRO_RESULT_CACHE")
    if configured is not None:
        if configured.strip().lower() in _DISABLE_VALUES:
            return None
        return Path(configured)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "results"


def engine_tag() -> str:
    """Version tag hashing the simulator sources (memoised).

    Any edit under the engine subpackages produces a new tag, so stale
    results can never be served across a code change.
    """
    global _engine_tag
    if _engine_tag is None:
        root = Path(__file__).resolve().parent.parent
        h = hashlib.sha256()
        h.update(f"engine-v{ENGINE_VERSION}|".encode("ascii"))
        for package in _ENGINE_PACKAGES:
            for source in sorted((root / package).glob("**/*.py")):
                h.update(str(source.relative_to(root)).encode())
                try:
                    h.update(source.read_bytes())
                except OSError:  # pragma: no cover - racing deletes
                    pass
        _engine_tag = h.hexdigest()[:16]
    return _engine_tag


def config_digest(config) -> str:
    """Digest of a frozen config dataclass (``MachineConfig`` etc.)."""
    return repr(config)


def _policy_family_digest(policy) -> str:
    """The machine-realization component of a policy's cache key.

    Policies whose registered family ships its own directory machine
    (:mod:`repro.protocols.registry`) replay through *that* machine, so
    the family's behavioural digest must be part of the key; every
    stock-machine policy — registered or ad-hoc ablation — shares the
    ``stock`` marker so name-only aliases keep sharing entries.
    """
    from repro.protocols import registry as families

    fam = families.family_of_policy(policy)
    if fam is not None and fam.machine is not None:
        return fam.behavior_digest()
    return "stock"


def policy_digest(policy) -> str:
    """Behavioural digest of an :class:`AdaptivePolicy`.

    The display ``name`` is excluded: it labels table columns but never
    reaches the protocol engine, so e.g. the hysteresis ablation's
    ``threshold-1`` point shares its cache entry with ``basic``.

    The compiled kernel table digest (:mod:`repro.kernels.tables`) is
    folded in: replays may run on the table-driven kernel, so the key
    must change whenever the *compiled* behaviour changes, even if a
    code edit slipped past the engine tag.  The family digest is folded
    in for the same reason: a policy served by a protocol family's own
    machine must never share entries with a stock replay of the same
    policy fields.
    """
    from repro.kernels.tables import dir_table_digest

    return (
        f"policy|{policy.migratory_threshold}|{policy.initial_migratory}"
        f"|{policy.remember_uncached}|{policy.demote_on_migratory_write_miss}"
        f"|ktable:{dir_table_digest(policy)}"
        f"|family:{_policy_family_digest(policy)}"
    )


def protocol_digest(protocol) -> str:
    """Digest of a snooping protocol instance.

    Snooping protocols encode their constructor parameters in ``name``
    (``competitive-update(4)``), so class + name + reply/update flags
    pins the behaviour.  The compiled kernel table digest is folded in
    for the same reason as in :func:`policy_digest` (``"uncompiled"``
    for protocols outside the kernel envelope), and the registered
    family's behavioural digest rides along so registry-level changes
    (fallback classification, tunable defaults) invalidate entries.
    """
    from repro.kernels.tables import snoop_table_digest
    from repro.protocols import registry as families

    fam = families.family_of_protocol(protocol)
    family_digest = fam.behavior_digest() if fam is not None else "-"
    return (
        f"protocol|{type(protocol).__qualname__}|{protocol.name}"
        f"|{getattr(protocol, 'invalidations_need_reply', None)}"
        f"|{getattr(protocol, 'updates_remote_copies', None)}"
        f"|ktable:{snoop_table_digest(protocol)}"
        f"|family:{family_digest}"
    )


def result_key(kind: str, parts: tuple) -> str:
    """The content key for one cached result."""
    spec = "|".join((f"v{ENGINE_VERSION}", engine_tag(), kind,
                     *(str(part) for part in parts)))
    return hashlib.sha256(spec.encode()).hexdigest()[:24]


# ----------------------------------------------------------------------
# Storage
# ----------------------------------------------------------------------

def _path(key: str) -> Path | None:
    directory = cache_dir()
    if directory is None:
        return None
    return directory / f"{key}.json"


def fetch(key: str):
    """The encoded payload for ``key``, or None on any kind of miss."""
    payload = _memory.get(key)
    if payload is not None:
        return payload
    path = _path(key)
    if path is None:
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        # Missing, unreadable, truncated or corrupted: all misses.
        return None
    _memory[key] = payload
    return payload


def store(key: str, payload) -> None:
    """Record ``payload`` under ``key`` (best-effort on disk)."""
    _memory[key] = payload
    path = _path(key)
    if path is None:
        return
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp"
        )
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
        os.replace(tmp_name, path)
    except OSError:
        try:
            os.unlink(tmp_name)
        except (OSError, UnboundLocalError):
            pass


def _record(kind: str, status: str) -> None:
    _counts["hits" if status == "hit" else "misses"] += 1
    telemetry.count(REQUESTS_METRIC, "replay result-cache lookups",
                    kind=kind, status=status)


def record_lookup(kind: str, status: str) -> None:
    """Count one out-of-band cache lookup (``status``: hit/miss).

    For consumers that cannot use :func:`memoize` because the compute
    step happens elsewhere — the serving layer fetches here, coalesces
    concurrent identical requests into a single pool execution, then
    stores the worker's payload back.  Routing their counts through the
    same module counters and ``repro_result_cache_requests_total``
    metric keeps "one metric, one meaning" across batch and serving.
    """
    _record(kind, status)


def record_store() -> None:
    """Count one out-of-band :func:`store` (see :func:`record_lookup`)."""
    _counts["stores"] += 1


def memoize(
    kind: str,
    parts: tuple,
    encode: Callable[[T], object],
    decode: Callable[[object], T],
    compute: Callable[[], T],
) -> T:
    """Serve ``compute()`` through the cache.

    ``encode``/``decode`` convert the result to and from a JSON-safe
    payload; a payload that fails to decode (corruption, schema drift
    the engine tag somehow missed) is treated as a miss and recomputed.

    When the active telemetry session instruments machines, the cache
    stands aside entirely: the whole point of instrumentation is
    observing the replay a hit would skip.
    """
    if not enabled() or telemetry.machine_instrumentation_active():
        return compute()
    key = result_key(kind, parts)
    payload = fetch(key)
    if payload is not None:
        try:
            result = decode(payload)
        except Exception:
            pass  # corrupt or stale shape: fall through to recompute
        else:
            _record(kind, "hit")
            return result
    _record(kind, "miss")
    result = compute()
    store(key, encode(result))
    _counts["stores"] += 1
    return result


def counts() -> dict:
    """Snapshot of the hit/miss/store counters."""
    return dict(_counts)


def reset_counts() -> None:
    """Zero the counters (tests and benchmark harnesses)."""
    for field in _counts:
        _counts[field] = 0


def clear_memory() -> None:
    """Drop the in-memory layer (tests; disk entries survive)."""
    _memory.clear()


def clear() -> int:
    """Delete every cached result file; returns the number removed."""
    _memory.clear()
    directory = cache_dir()
    if directory is None or not directory.exists():
        return 0
    removed = 0
    for entry in directory.glob("*.json"):
        try:
            entry.unlink()
            removed += 1
        except OSError:
            pass
    return removed


# ----------------------------------------------------------------------
# Codecs
# ----------------------------------------------------------------------

def encode_message_stats(stats: MessageStats) -> dict:
    """JSON-safe payload for one :class:`MessageStats`."""
    return {
        "short": stats.short,
        "data": stats.data,
        "by_cause_short": dict(stats.by_cause_short),
        "by_cause_data": dict(stats.by_cause_data),
    }


def decode_message_stats(payload) -> MessageStats:
    """Rebuild a :class:`MessageStats`; raises on any malformed shape."""
    stats = MessageStats(
        short=int(payload["short"]), data=int(payload["data"])
    )
    stats.by_cause_short = Counter(
        {str(k): int(v) for k, v in payload["by_cause_short"].items()}
    )
    stats.by_cause_data = Counter(
        {str(k): int(v) for k, v in payload["by_cause_data"].items()}
    )
    return stats


def encode_bus_stats(stats: BusStats) -> dict:
    """JSON-safe payload for one :class:`BusStats`."""
    return {
        "read_miss": stats.read_miss,
        "write_miss": stats.write_miss,
        "invalidation": stats.invalidation,
        "writeback": stats.writeback,
        "update": stats.update,
        "by_kind": dict(stats.by_kind),
    }


def decode_bus_stats(payload) -> BusStats:
    """Rebuild a :class:`BusStats`; raises on any malformed shape."""
    stats = BusStats(
        read_miss=int(payload["read_miss"]),
        write_miss=int(payload["write_miss"]),
        invalidation=int(payload["invalidation"]),
        writeback=int(payload["writeback"]),
        update=int(payload["update"]),
    )
    stats.by_kind = Counter(
        {str(k): int(v) for k, v in payload["by_kind"].items()}
    )
    return stats


def encode_timing_profile(profile) -> dict:
    """JSON-safe payload for one :class:`~repro.timing.sim.TimingProfile`.

    Histograms are written in ascending message-count order: the kernel
    and generic replays fill them in different orders, and a cached
    profile's bytes must not depend on which one made it.
    """
    def ordered(hist) -> dict:
        return {k: hist[k] for k in sorted(hist)}

    return {
        "num_procs": profile.num_procs,
        "total_references": profile.total_references,
        "refs_per_proc": list(profile.refs_per_proc),
        "hits_per_proc": list(profile.hits_per_proc),
        "miss_msgs_per_proc": [ordered(h) for h in profile.miss_msgs_per_proc],
        "read_miss_msgs": ordered(profile.read_miss_msgs),
    }


def decode_timing_profile(payload):
    """Rebuild a :class:`TimingProfile`; raises on any malformed shape.

    JSON stringifies the integer message-count keys of the histograms;
    they are restored to ints here so :func:`repro.timing.sim.cost`
    prices a cached profile exactly like a fresh one.
    """
    from repro.timing.sim import TimingProfile

    return TimingProfile(
        num_procs=int(payload["num_procs"]),
        total_references=int(payload["total_references"]),
        refs_per_proc=[int(n) for n in payload["refs_per_proc"]],
        hits_per_proc=[int(n) for n in payload["hits_per_proc"]],
        miss_msgs_per_proc=[
            {int(k): int(v) for k, v in hist.items()}
            for hist in payload["miss_msgs_per_proc"]
        ],
        read_miss_msgs={
            int(k): int(v) for k, v in payload["read_miss_msgs"].items()
        },
    )


def memoize_rows(
    kind: str,
    parts: tuple,
    row_type: type,
    compute: Callable[[], list],
    decode_row: Callable[[dict], object] | None = None,
) -> list:
    """Cache a list of frozen dataclass rows (one experiment's output).

    Rows round-trip through ``dataclasses.asdict``; ints and floats are
    exact under JSON, so rendered tables are byte-identical whether the
    rows were computed or cached.  ``decode_row`` overrides the default
    ``row_type(**payload)`` for rows with non-trivial field types.
    """
    if decode_row is None:
        def decode_row(payload: dict):
            return row_type(**payload)

    def decode(payload) -> list:
        return [decode_row(entry) for entry in payload]

    def encode(rows: list) -> list:
        return [dataclasses.asdict(row) for row in rows]

    return memoize(kind, parts, encode, decode, compute)
