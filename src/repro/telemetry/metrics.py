"""Labeled metrics registry with a deterministic merge.

A :class:`MetricsRegistry` holds named metric families — counters,
gauges, and histograms — each fanned out into labeled series, in the
style of a Prometheus client library.  Two properties drive the design:

1. **Zero overhead when off.**  A registry constructed with
   ``enabled=False`` (or the shared :data:`NULL_REGISTRY`) hands out
   no-op metric objects whose ``inc``/``set``/``observe`` bodies are a
   single ``pass``; instrumented code pays one attribute call and
   nothing else.  The machines themselves pay *literally* nothing: with
   no ``step_hook`` installed they replay on the table-driven kernels
   (or the generic loop) untouched.

2. **Deterministic merge.**  Worker processes of a ``--jobs N`` sweep
   each build their own registry and ship it back as a plain dict
   (:meth:`MetricsRegistry.to_dict`); :func:`merge_dicts` folds any
   number of payloads into one registry with commutative, associative
   rules (counters and histograms sum, gauges take the max), so the
   merged registry — and its :meth:`render_prometheus` text, which
   sorts every family and series — is byte-identical for any job count
   and any merge order.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterable, Mapping

from repro.common.errors import TelemetryError

#: Default histogram bucket upper bounds (seconds-flavoured; spans use
#: these).  The implicit ``+Inf`` bucket is always present.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)

#: The recognised metric kinds, in render order of their TYPE comments.
KINDS = ("counter", "gauge", "histogram")


def _label_key(labels: Mapping[str, object]) -> tuple[tuple[str, str], ...]:
    """Canonical, hashable form of a label set (sorted, stringified)."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_value(value: float) -> str:
    """Render a sample value the way Prometheus text format expects."""
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class _NullMetric:
    """No-op stand-in handed out by disabled registries."""

    __slots__ = ()

    def inc(self, amount: float = 1, **labels) -> None:
        pass

    def set(self, value: float, **labels) -> None:
        pass

    def observe(self, value: float, **labels) -> None:
        pass


_NULL_METRIC = _NullMetric()


class Counter:
    """A monotonically increasing metric family."""

    kind = "counter"
    __slots__ = ("name", "help", "series")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        #: label key -> accumulated value.
        self.series: dict[tuple, float] = {}

    def inc(self, amount: float = 1, **labels) -> None:
        """Add ``amount`` (must be non-negative) to one labeled series."""
        if amount < 0:
            raise TelemetryError(
                f"counter {self.name} cannot decrease (inc by {amount})"
            )
        key = _label_key(labels)
        self.series[key] = self.series.get(key, 0) + amount

    def value(self, **labels) -> float:
        """Current value of one labeled series (0 when never bumped)."""
        return self.series.get(_label_key(labels), 0)


class Gauge:
    """A point-in-time value; merges take the maximum across workers."""

    kind = "gauge"
    __slots__ = ("name", "help", "series")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.series: dict[tuple, float] = {}

    def set(self, value: float, **labels) -> None:
        """Overwrite one labeled series."""
        self.series[_label_key(labels)] = value

    def inc(self, amount: float = 1, **labels) -> None:
        """Adjust one labeled series (gauges may go down; pass negative)."""
        key = _label_key(labels)
        self.series[key] = self.series.get(key, 0) + amount

    def value(self, **labels) -> float:
        """Current value of one labeled series (0 when never set)."""
        return self.series.get(_label_key(labels), 0)


class Histogram:
    """A bucketed distribution (cumulative buckets, Prometheus-style)."""

    kind = "histogram"
    __slots__ = ("name", "help", "buckets", "series")

    def __init__(self, name: str, help: str = "",
                 buckets: Iterable[float] = DEFAULT_BUCKETS):
        self.name = name
        self.help = help
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise TelemetryError(f"histogram {self.name} needs >= 1 bucket")
        #: label key -> [per-bucket counts..., +Inf count, sum].
        self.series: dict[tuple, list[float]] = {}

    def observe(self, value: float, **labels) -> None:
        """Record one observation into the right cumulative bucket."""
        key = _label_key(labels)
        cells = self.series.get(key)
        if cells is None:
            cells = self.series[key] = [0.0] * (len(self.buckets) + 2)
        cells[bisect_left(self.buckets, value)] += 1
        cells[-1] += value

    def count(self, **labels) -> int:
        """Total observations for one labeled series."""
        cells = self.series.get(_label_key(labels))
        return int(sum(cells[:-1])) if cells else 0

    def sum(self, **labels) -> float:
        """Sum of observed values for one labeled series."""
        cells = self.series.get(_label_key(labels))
        return cells[-1] if cells else 0.0


class MetricsRegistry:
    """A named collection of metric families.

    Families are created on first use (``registry.counter(name)``) and
    memoized by name; asking for an existing name with a different kind
    (or different histogram buckets) raises :class:`TelemetryError`
    rather than silently splitting the series.
    """

    __slots__ = ("enabled", "_families")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._families: dict[str, Counter | Gauge | Histogram] = {}

    # ------------------------------------------------------------------
    # Family constructors
    # ------------------------------------------------------------------

    def _family(self, cls, name: str, help: str, **kw):
        if not self.enabled:
            return _NULL_METRIC
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = cls(name, help, **kw)
        elif family.kind != cls.kind:
            raise TelemetryError(
                f"metric {name} already registered as a {family.kind}, "
                f"not a {cls.kind}"
            )
        elif kw.get("buckets") is not None and \
                tuple(sorted(kw["buckets"])) != family.buckets:
            raise TelemetryError(
                f"histogram {name} already registered with different buckets"
            )
        return family

    def counter(self, name: str, help: str = "") -> Counter:
        """The counter family called ``name`` (created on first use)."""
        return self._family(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """The gauge family called ``name`` (created on first use)."""
        return self._family(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
        """The histogram family called ``name`` (created on first use)."""
        return self._family(Histogram, name, help, buckets=buckets)

    def families(self) -> list[Counter | Gauge | Histogram]:
        """All families, sorted by name (deterministic iteration)."""
        return [self._families[name] for name in sorted(self._families)]

    # ------------------------------------------------------------------
    # Serialization (the worker-merge wire format)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """A plain, picklable/JSON-able snapshot of every series."""
        out: dict = {}
        for family in self.families():
            entry: dict = {
                "kind": family.kind,
                "help": family.help,
                "series": [
                    [list(map(list, key)), value]
                    for key, value in sorted(family.series.items())
                ],
            }
            if family.kind == "histogram":
                entry["buckets"] = list(family.buckets)
            out[family.name] = entry
        return out

    @classmethod
    def from_dict(cls, payload: Mapping) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_dict` output."""
        registry = cls()
        registry.merge_dict(payload)
        return registry

    def _declare(self, name: str, entry: Mapping):
        """Create or fetch the family a payload entry describes."""
        kind = entry["kind"]
        if kind == "counter":
            return self.counter(name, entry.get("help", ""))
        if kind == "gauge":
            return self.gauge(name, entry.get("help", ""))
        if kind == "histogram":
            return self.histogram(
                name, entry.get("help", ""),
                buckets=entry.get("buckets", DEFAULT_BUCKETS),
            )
        raise TelemetryError(f"metric {name}: unknown kind {kind!r}")

    def merge_dict(self, payload: Mapping) -> None:
        """Fold one :meth:`to_dict` payload into this registry.

        Counters and histogram cells sum; gauges keep the maximum.  For
        a byte-identical result regardless of merge *order*, use
        :func:`merge_dicts`, which reduces every additive series with
        ``math.fsum`` instead of pairwise float addition.
        """
        for name in sorted(payload):
            entry = payload[name]
            kind = entry["kind"]
            family = self._declare(name, entry)
            if family is _NULL_METRIC:
                continue
            for raw_key, value in entry["series"]:
                key = tuple(tuple(pair) for pair in raw_key)
                if kind == "counter":
                    family.series[key] = family.series.get(key, 0) + value
                elif kind == "gauge":
                    current = family.series.get(key)
                    family.series[key] = (
                        value if current is None else max(current, value)
                    )
                else:
                    cells = family.series.get(key)
                    if cells is None:
                        family.series[key] = list(value)
                    elif len(cells) != len(value):
                        raise TelemetryError(
                            f"histogram {name}: bucket count mismatch in merge"
                        )
                    else:
                        for i, v in enumerate(value):
                            cells[i] += v

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (same rules as payloads)."""
        self.merge_dict(other.to_dict())

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format.

        Families render in name order and series in label order, so the
        text is byte-identical for equal registries however they were
        accumulated or merged.
        """
        lines: list[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            if family.kind == "histogram":
                self._render_histogram(family, lines)
                continue
            for key, value in sorted(family.series.items()):
                lines.append(
                    f"{family.name}{_render_labels(key)} "
                    f"{_format_value(value)}"
                )
        return "\n".join(lines) + ("\n" if lines else "")

    @staticmethod
    def _render_histogram(family: Histogram, lines: list[str]) -> None:
        for key, cells in sorted(family.series.items()):
            cumulative = 0.0
            for bound, count in zip(family.buckets, cells):
                cumulative += count
                le = _label_key(dict(key) | {"le": _format_value(bound)})
                lines.append(
                    f"{family.name}_bucket{_render_labels(le)} "
                    f"{_format_value(cumulative)}"
                )
            cumulative += cells[len(family.buckets)]
            le = _label_key(dict(key) | {"le": "+Inf"})
            lines.append(
                f"{family.name}_bucket{_render_labels(le)} "
                f"{_format_value(cumulative)}"
            )
            lines.append(
                f"{family.name}_count{_render_labels(key)} "
                f"{_format_value(cumulative)}"
            )
            lines.append(
                f"{family.name}_sum{_render_labels(key)} "
                f"{_format_value(cells[-1])}"
            )


def _render_labels(key: tuple[tuple[str, str], ...]) -> str:
    if not key:
        return ""
    body = ",".join(f'{name}="{value}"' for name, value in key)
    return "{" + body + "}"


def merge_dicts(payloads: Iterable[Mapping]) -> MetricsRegistry:
    """Merge any number of :meth:`MetricsRegistry.to_dict` payloads.

    This is the worker-merge entry point: each ``parallel_map`` worker
    returns its registry as a dict, and the parent folds them all into
    one registry whose contents (and rendered text) are independent of
    the worker count and completion order.  Additive series (counters
    and histogram cells) are reduced with ``math.fsum``, whose exactly
    rounded result does not depend on addend order — naive pairwise
    float addition would leak the merge order into the last ulp of
    histogram sums.
    """
    registry = MetricsRegistry()
    pending: dict[tuple[str, tuple], list] = {}
    for payload in payloads:
        for name in sorted(payload):
            entry = payload[name]
            family = registry._declare(name, entry)
            for raw_key, value in entry["series"]:
                key = tuple(tuple(pair) for pair in raw_key)
                if family.kind == "gauge":
                    current = family.series.get(key)
                    family.series[key] = (
                        value if current is None else max(current, value)
                    )
                else:
                    pending.setdefault((name, key), []).append(value)
    for (name, key), values in pending.items():
        family = registry._families[name]
        if family.kind == "counter":
            family.series[key] = math.fsum(values)
        else:
            if len({len(v) for v in values}) > 1:
                raise TelemetryError(
                    f"histogram {name}: bucket count mismatch in merge"
                )
            family.series[key] = [math.fsum(col) for col in zip(*values)]
    return registry


#: Shared disabled registry: instrument against this by default and the
#: instrumentation costs one no-op method call.
NULL_REGISTRY = MetricsRegistry(enabled=False)
