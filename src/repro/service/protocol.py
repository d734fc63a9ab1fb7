"""Versioned request/response types for the serving layer.

Every request body carries ``{"v": PROTOCOL_VERSION, ...}``; the server
rejects versions it does not speak rather than guessing.  Three request
kinds exist:

* **replay** (:class:`ReplaySpec`) — one machine replay of one
  application trace under one directory policy or snooping protocol.
  The response includes the encoded stats payload (exactly the replay
  result cache's codec output, so served and batch results are
  interchangeable) plus a ``cached`` flag.
* **compare** (:class:`CompareRequest`) — the same trace replayed under
  *each* of a set of policies, returning per-policy totals and the
  cheapest one: the online form of the hybrid-scheme question "which
  protocol should this workload run under?".
* **experiment** (:class:`ExperimentRequest`) — a whole row-level
  experiment (``table2``/``table3``/``bus``) rendered server-side.
* **verify** (:class:`VerifyRequest`) — a bounded model-checking sweep
  (:mod:`repro.verification`) over the shipped protocol families,
  returning the machine-checked certificate.  Bounds are capped well
  below the CLI's so a single request stays interactive.

Validation is strict and total: :func:`ReplaySpec.from_payload` raises
:class:`ServiceError` with a client-presentable message on any unknown
app, policy, engine, or out-of-range knob, and the server maps that to
a 400 rather than a stack trace.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.common.errors import ConfigError, ReproError
from repro.directory.policy import AdaptivePolicy
from repro.protocols import registry as families
from repro.snooping.protocols import SnoopingProtocol
from repro.verification.model import (
    VerificationError,
    combo_digests,
    verify_combos,
)
from repro.workloads.profiles import APP_ORDER

#: Version of the request/response wire format.  Bump on incompatible
#: shape changes; the server answers only this version.
PROTOCOL_VERSION = 1

#: The engines a replay request may name.
ENGINES = ("directory", "bus")

#: Directory policies servable by name — every registered directory
#: family, so registering one is the only step needed to serve it.
DIRECTORY_POLICIES: dict[str, AdaptivePolicy] = {
    fam.name: fam.policy for fam in families.directory_families()
}

#: Snooping protocols servable by name (constructed fresh per replay —
#: protocol objects are engine-visible and must not be shared between
#: concurrent machine runs).  Enumerated from the registry like the
#: directory side.
SNOOPING_PROTOCOLS = tuple(fam.name for fam in families.bus_families())

#: Row-level experiments servable by name.
EXPERIMENTS = ("table2", "table3", "bus")

#: Hard ceiling on a request's workload scale: the serving layer exists
#: for interactive traffic, not hour-long batch sweeps.
MAX_SCALE = 4.0

#: Placement kinds accepted for directory replays (mirrors
#: :func:`repro.system.placement.make_placement`).
PLACEMENT_KINDS = ("best_static", "round_robin", "first_touch")


class ServiceError(ReproError):
    """A malformed or unserveable service request."""


def make_snooping_protocol(name: str) -> SnoopingProtocol:
    """A fresh snooping-protocol instance for one replay."""
    try:
        return families.bus_protocol(name)
    except ConfigError as exc:
        raise ServiceError(f"unknown snooping protocol {name!r}") from exc


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ServiceError(message)


def check_version(payload: dict) -> None:
    """Reject payloads speaking a different protocol version."""
    version = payload.get("v", PROTOCOL_VERSION)
    _require(
        version == PROTOCOL_VERSION,
        f"unsupported protocol version {version!r} "
        f"(this server speaks v{PROTOCOL_VERSION})",
    )


@dataclass(frozen=True, slots=True)
class ReplaySpec:
    """One servable machine replay.

    Attributes:
        engine: ``directory`` (CC-NUMA message counts) or ``bus``
            (snooping transaction counts).
        app: one of the five SPLASH application analogues.
        policy: directory policy name or snooping protocol name,
            depending on ``engine``.
        cache_size: per-node cache bytes; ``None`` = infinite.
        block_size: cache block bytes.
        num_procs: processor count.
        seed: workload seed.
        scale: workload scale factor (capped at :data:`MAX_SCALE`).
        placement: page placement kind (directory engine only).
    """

    engine: str = "directory"
    app: str = "water"
    policy: str = "basic"
    cache_size: int | None = 64 * 1024
    block_size: int = 16
    num_procs: int = 16
    seed: int = 0
    scale: float = 1.0
    placement: str = "best_static"

    def __post_init__(self) -> None:
        _require(self.engine in ENGINES,
                 f"unknown engine {self.engine!r} (expected one of {ENGINES})")
        _require(self.app in APP_ORDER,
                 f"unknown app {self.app!r} (expected one of {APP_ORDER})")
        if self.engine == "directory":
            _require(self.policy in DIRECTORY_POLICIES,
                     f"unknown directory policy {self.policy!r} (expected "
                     f"one of {tuple(DIRECTORY_POLICIES)})")
        else:
            _require(self.policy in SNOOPING_PROTOCOLS,
                     f"unknown snooping protocol {self.policy!r} (expected "
                     f"one of {SNOOPING_PROTOCOLS})")
        _require(self.cache_size is None or self.cache_size > 0,
                 "cache_size must be positive or null (infinite)")
        _require(self.block_size > 0 and
                 self.block_size & (self.block_size - 1) == 0,
                 "block_size must be a positive power of two")
        _require(2 <= self.num_procs <= 256,
                 "num_procs must be between 2 and 256")
        _require(0 < self.scale <= MAX_SCALE,
                 f"scale must be in (0, {MAX_SCALE}]")
        _require(self.placement in PLACEMENT_KINDS,
                 f"unknown placement {self.placement!r} (expected one of "
                 f"{PLACEMENT_KINDS})")

    @classmethod
    def from_payload(cls, payload: dict) -> "ReplaySpec":
        """Parse and validate one spec payload (raises ServiceError)."""
        _require(isinstance(payload, dict), "spec must be a JSON object")
        unknown = set(payload) - {f for f in cls.__slots__}
        _require(not unknown,
                 f"unknown spec field(s): {', '.join(sorted(unknown))}")
        try:
            spec = cls(**payload)
        except ServiceError:
            raise
        except (TypeError, ValueError) as exc:
            raise ServiceError(f"malformed replay spec: {exc}") from exc
        return spec

    def to_payload(self) -> dict:
        """The JSON-safe wire form (inverse of :meth:`from_payload`)."""
        return asdict(self)

    @property
    def trace_key(self) -> tuple:
        """The harness trace-cache key this spec replays."""
        return (self.app, self.num_procs, self.seed, self.scale)


@dataclass(frozen=True, slots=True)
class CompareRequest:
    """Replay one trace under each policy; report the cheapest.

    ``policies`` defaults to every servable policy for the engine.
    """

    spec: ReplaySpec
    policies: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        available = (tuple(DIRECTORY_POLICIES)
                     if self.spec.engine == "directory"
                     else SNOOPING_PROTOCOLS)
        if not self.policies:
            object.__setattr__(self, "policies", available)
        for name in self.policies:
            _require(name in available,
                     f"unknown policy {name!r} for engine "
                     f"{self.spec.engine!r}")
        _require(len(set(self.policies)) == len(self.policies),
                 "duplicate policy in compare request")

    @classmethod
    def from_payload(cls, payload: dict) -> "CompareRequest":
        _require(isinstance(payload, dict), "body must be a JSON object")
        check_version(payload)
        spec_payload = dict(payload.get("spec") or {})
        # The comparison supplies the policy axis itself; a spec-level
        # policy would be ignored, so reject it as a likely mistake.
        _require("policy" not in spec_payload,
                 "compare spec must not name a single policy; "
                 "use the request-level 'policies' list")
        policies = payload.get("policies") or ()
        _require(isinstance(policies, (list, tuple)),
                 "'policies' must be a list of names")
        # Build the base spec with an engine-appropriate policy (the
        # first requested one, else the engine's first servable): the
        # spec's own default is a directory policy and would spuriously
        # fail validation for bus comparisons.
        engine = spec_payload.get("engine", "directory")
        available = (tuple(DIRECTORY_POLICIES) if engine == "directory"
                     else SNOOPING_PROTOCOLS)
        placeholder = policies[0] if policies else available[0]
        _require(placeholder in available,
                 f"unknown policy {placeholder!r} for engine {engine!r}")
        base = ReplaySpec.from_payload(
            {**spec_payload, "policy": placeholder}
        )
        return cls(spec=base, policies=tuple(policies))

    def replay_specs(self) -> list[ReplaySpec]:
        """One :class:`ReplaySpec` per compared policy."""
        payload = self.spec.to_payload()
        return [ReplaySpec.from_payload({**payload, "policy": name})
                for name in self.policies]


@dataclass(frozen=True, slots=True)
class ExperimentRequest:
    """One row-level experiment, rendered server-side.

    Attributes:
        name: ``table2``, ``table3``, or ``bus``.
        scale: workload scale factor.
        seed: workload seed.
        apps: optional subset of applications (default: all five).
    """

    name: str = "table2"
    scale: float = 1.0
    seed: int = 0
    apps: tuple[str, ...] = field(default=APP_ORDER)

    def __post_init__(self) -> None:
        _require(self.name in EXPERIMENTS,
                 f"unknown experiment {self.name!r} "
                 f"(expected one of {EXPERIMENTS})")
        _require(0 < self.scale <= MAX_SCALE,
                 f"scale must be in (0, {MAX_SCALE}]")
        _require(bool(self.apps), "apps must not be empty")
        for app in self.apps:
            _require(app in APP_ORDER, f"unknown app {app!r}")
        object.__setattr__(self, "apps", tuple(self.apps))

    @classmethod
    def from_payload(cls, payload: dict) -> "ExperimentRequest":
        _require(isinstance(payload, dict), "body must be a JSON object")
        check_version(payload)
        kwargs = {k: payload[k] for k in ("name", "scale", "seed", "apps")
                  if k in payload}
        try:
            return cls(**kwargs)
        except ServiceError:
            raise
        except (TypeError, ValueError) as exc:
            raise ServiceError(f"malformed experiment request: {exc}") from exc

    def to_payload(self) -> dict:
        return {"v": PROTOCOL_VERSION, "name": self.name,
                "scale": self.scale, "seed": self.seed,
                "apps": list(self.apps)}


@dataclass(frozen=True, slots=True)
class VerifyRequest:
    """One servable bounded model-checking sweep.

    Attributes:
        engine: ``bus``, ``directory``, or ``all`` (both families).
        protocol: optional single protocol/policy name to check.
        num_procs: processors in the model (2-3; compute grows steeply).
        num_blocks: blocks in the model (1-2).
        evictions: include replacement actions in the transition
            relation.
    """

    engine: str = "all"
    protocol: str | None = None
    num_procs: int = 2
    num_blocks: int = 1
    evictions: bool = True

    def __post_init__(self) -> None:
        _require(2 <= self.num_procs <= 3,
                 "num_procs must be 2 or 3 for served verification")
        _require(1 <= self.num_blocks <= 2,
                 "num_blocks must be 1 or 2 for served verification")
        _require(isinstance(self.evictions, bool),
                 "evictions must be a boolean")
        try:
            verify_combos(self.engine, self.protocol,
                          self.num_procs, self.num_blocks, self.evictions)
        except VerificationError as exc:
            raise ServiceError(str(exc)) from exc

    @classmethod
    def from_payload(cls, payload: dict) -> "VerifyRequest":
        _require(isinstance(payload, dict), "body must be a JSON object")
        check_version(payload)
        unknown = set(payload) - {"v", *cls.__slots__}
        _require(not unknown,
                 f"unknown verify field(s): {', '.join(sorted(unknown))}")
        kwargs = {k: payload[k] for k in cls.__slots__ if k in payload}
        try:
            return cls(**kwargs)
        except ServiceError:
            raise
        except (TypeError, ValueError) as exc:
            raise ServiceError(f"malformed verify request: {exc}") from exc

    def to_payload(self) -> dict:
        return {"v": PROTOCOL_VERSION, "engine": self.engine,
                "protocol": self.protocol, "num_procs": self.num_procs,
                "num_blocks": self.num_blocks, "evictions": self.evictions}

    def cache_parts(self) -> tuple:
        """Result-cache key parts; includes the per-combo transition
        table digests so a protocol change invalidates stale
        certificates automatically."""
        return (
            self.engine, self.protocol or "-", self.num_procs,
            self.num_blocks, self.evictions,
            *combo_digests(self.engine, self.protocol),
        )


def parse_replay_request(payload: dict) -> ReplaySpec:
    """Parse a ``POST /v1/replay`` body."""
    _require(isinstance(payload, dict), "body must be a JSON object")
    check_version(payload)
    return ReplaySpec.from_payload(dict(payload.get("spec") or {}))


# ----------------------------------------------------------------------
# Response builders (plain dicts: the wire format is JSON throughout)
# ----------------------------------------------------------------------

def replay_response(spec: ReplaySpec, result: dict, cached: bool,
                    coalesced: bool, elapsed_ms: float) -> dict:
    """The ``/v1/replay`` success body."""
    return {
        "v": PROTOCOL_VERSION,
        "type": "replay",
        "spec": spec.to_payload(),
        "cached": cached,
        "coalesced": coalesced,
        "elapsed_ms": round(elapsed_ms, 3),
        "result": result,
    }


def compare_response(request: CompareRequest, results: dict[str, dict],
                     totals: dict[str, int], elapsed_ms: float) -> dict:
    """The ``/v1/compare`` success body; ``cheapest`` breaks total-cost
    ties by policy order in the request."""
    cheapest = min(request.policies, key=lambda name: totals[name])
    return {
        "v": PROTOCOL_VERSION,
        "type": "compare",
        "spec": request.spec.to_payload(),
        "policies": list(request.policies),
        "totals": totals,
        "cheapest": cheapest,
        "elapsed_ms": round(elapsed_ms, 3),
        "results": results,
    }


def experiment_response(request: ExperimentRequest, rendered: str,
                        cached: bool, coalesced: bool,
                        elapsed_ms: float) -> dict:
    """The ``/v1/experiment`` success body."""
    return {
        "v": PROTOCOL_VERSION,
        "type": "experiment",
        "name": request.name,
        "cached": cached,
        "coalesced": coalesced,
        "elapsed_ms": round(elapsed_ms, 3),
        "rendered": rendered,
    }


def verify_response(request: VerifyRequest, certificate: dict,
                    cached: bool, coalesced: bool,
                    elapsed_ms: float) -> dict:
    """The ``/v1/verify`` success body."""
    return {
        "v": PROTOCOL_VERSION,
        "type": "verify",
        "request": request.to_payload(),
        "cached": cached,
        "coalesced": coalesced,
        "elapsed_ms": round(elapsed_ms, 3),
        "ok": bool(certificate.get("ok")),
        "certificate": certificate,
    }


def error_response(message: str) -> dict:
    """A JSON error body (any non-2xx status)."""
    return {"v": PROTOCOL_VERSION, "type": "error", "error": message}
