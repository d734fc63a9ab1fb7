"""Golden regression tests: exact message/transaction counts.

These pin the simulators' outputs on a fixed mixed workload (seeded, so
fully deterministic).  They exist to catch *unintended* behaviour changes
in the protocols or cost accounting — if a change is intentional, update
the constants and say why in the commit.

The workload mixes all five canonical sharing patterns over an
8-processor machine with deliberately tiny (2 KB) caches so that the
replacement, notification, and classification-memory paths are all
exercised.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.common.config import CacheConfig, MachineConfig
from repro.directory.policy import BASIC, CONVENTIONAL, PAPER_POLICIES
from repro.snooping.machine import BusMachine
from repro.snooping.protocols import (
    AdaptiveSnoopingProtocol,
    AlwaysMigrateProtocol,
    MesiProtocol,
)
from repro.snooping.update_protocols import (
    CompetitiveUpdateProtocol,
    WriteUpdateProtocol,
)
from repro.system.machine import DirectoryMachine
from repro.timing.eventsim import BusEventSimulator, EventDrivenSimulator
from repro.trace import synth
from repro.verification import cli as verify_cli

GOLDEN_DIR = Path(__file__).parent / "goldens"


def golden_trace():
    return synth.interleave(
        [
            synth.migratory(num_procs=8, num_objects=6, visits=40, seed=11),
            synth.read_shared(num_procs=8, num_objects=6, rounds=15,
                              base=1 << 16, seed=12),
            synth.producer_consumer(num_procs=8, num_objects=4, rounds=15,
                                    consumers=3, base=1 << 17, seed=13),
            synth.false_sharing(num_procs=8, num_blocks=4, rounds=15,
                                base=1 << 18, seed=14),
            synth.private(num_procs=8, accesses_per_proc=100,
                          base=1 << 19, seed=15),
        ],
        chunk=5,
        seed=16,
    )


CONFIG = MachineConfig(
    num_procs=8, cache=CacheConfig(size_bytes=2048, block_size=16)
)

DIRECTORY_GOLDEN = {
    "conventional": (4273, 1463),
    "conservative": (1935, 1463),
    "basic": (1885, 1463),
    "aggressive": (1854, 1466),
}

BUS_GOLDEN = {
    # (read_miss, write_miss, invalidation, writeback, update)
    "mesi": (1008, 53, 743, 2, 0),
    "adaptive": (1008, 53, 70, 2, 0),
    "adaptive-initial-migratory": (1014, 57, 52, 2, 0),
    "always-migrate": (1014, 109, 0, 0, 0),
    "write-update": (263, 53, 0, 4, 1164),
    "competitive-update(1)": (986, 53, 0, 4, 1052),
}


def test_golden_trace_is_stable():
    trace = golden_trace()
    assert len(trace) == 5144


@pytest.mark.parametrize("policy", PAPER_POLICIES, ids=lambda p: p.name)
def test_directory_golden(policy):
    machine = DirectoryMachine(CONFIG, policy, check=True)
    machine.run(golden_trace())
    assert machine.stats.snapshot() == DIRECTORY_GOLDEN[policy.name]


@pytest.mark.parametrize(
    "make_protocol",
    [
        MesiProtocol,
        AdaptiveSnoopingProtocol,
        lambda: AdaptiveSnoopingProtocol(initial_migratory=True),
        AlwaysMigrateProtocol,
        WriteUpdateProtocol,
        lambda: CompetitiveUpdateProtocol(threshold=1),
    ],
    ids=list(BUS_GOLDEN),
)
def test_bus_golden(make_protocol):
    protocol = make_protocol()
    machine = BusMachine(CONFIG, protocol, check=True)
    machine.run(golden_trace())
    stats = machine.bus_stats
    assert (
        stats.read_miss,
        stats.write_miss,
        stats.invalidation,
        stats.writeback,
        stats.update,
    ) == BUS_GOLDEN[protocol.name]


def test_golden_ordering_story():
    """The headline narrative, pinned end-to-end on one workload: the
    adaptive protocol removes most invalidation transactions relative to
    MESI while adding no misses, and the directory family's totals are
    strictly ordered."""
    d = {name: sum(v) for name, v in DIRECTORY_GOLDEN.items()}
    assert (
        d["aggressive"] < d["basic"] < d["conservative"] < d["conventional"]
    )
    mesi = BUS_GOLDEN["mesi"]
    adaptive = BUS_GOLDEN["adaptive"]
    assert adaptive[0] == mesi[0]  # identical read misses
    assert adaptive[2] < mesi[2] / 10  # >90% of invalidations removed


EVENT_TIMING_GOLDEN = {
    "conventional": {
        "per_proc_cycles": [121635, 125139, 109881, 111464, 122378,
                            113876, 116640, 105979],
        "total_references": 5144,
        "miss_count": 2056,
        "read_miss_count": 1054,
        "read_miss_cycles": 314328,
        "queue_wait_cycles": 374760,
        "service_cycles": 117144,
    },
    "basic": {
        "per_proc_cycles": [96050, 99992, 86117, 87951, 94994, 92764,
                            92464, 84213],
        "total_references": 5144,
        "miss_count": 1657,
        "read_miss_count": 1071,
        "read_miss_cycles": 272182,
        "queue_wait_cycles": 233790,
        "service_cycles": 89208,
    },
}

BUS_TIMING_GOLDEN = {
    "mesi": {
        "per_proc_cycles": [58641, 62317, 50330, 52503, 59785, 54956,
                            54218, 49706],
        "total_references": 5144,
        "bus_busy_cycles": 47328,
        "queue_wait_cycles": 83313,
        "transactions": 1972,
        "busy_by_kind": {"write_miss": 3744, "read_miss": 25200,
                         "invalidation": 18312, "writeback": 72},
    },
    "adaptive": {
        "per_proc_cycles": [51361, 55886, 44209, 45908, 52693, 49275,
                            47826, 43425],
        "total_references": 5144,
        "bus_busy_cycles": 35520,
        "queue_wait_cycles": 42755,
        "transactions": 1480,
        "busy_by_kind": {"write_miss": 4680, "read_miss": 24840,
                         "invalidation": 5904, "writeback": 96},
    },
}


def _fields(result) -> dict:
    return {field.name: getattr(result, field.name)
            for field in dataclasses.fields(result)}


@pytest.mark.parametrize("policy", [CONVENTIONAL, BASIC],
                         ids=lambda p: p.name)
def test_event_timing_golden(policy):
    # The contended directory simulator, every result field pinned.
    machine = DirectoryMachine(CONFIG, policy)
    result = EventDrivenSimulator(machine).run(golden_trace())
    assert _fields(result) == EVENT_TIMING_GOLDEN[policy.name]


@pytest.mark.parametrize("make_protocol",
                         [MesiProtocol, AdaptiveSnoopingProtocol],
                         ids=list(BUS_TIMING_GOLDEN))
def test_bus_timing_golden(make_protocol):
    protocol = make_protocol()
    machine = BusMachine(CONFIG, protocol)
    result = BusEventSimulator(machine).run(golden_trace())
    assert _fields(result) == BUS_TIMING_GOLDEN[protocol.name]


def test_default_verify_certificate(tmp_path, capsys):
    """``repro-verify --procs 2 --blocks 1`` certifies exactly the
    checked-in certificate (the package version aside)."""
    path = tmp_path / "certificate.json"
    assert verify_cli.main([
        "--procs", "2", "--blocks", "1", "--certificate", str(path),
        "--artifacts", str(tmp_path / "artifacts"),
    ]) == 0
    capsys.readouterr()
    certificate = json.loads(path.read_text())
    certificate.pop("package_version")
    golden = json.loads(
        (GOLDEN_DIR / "verify-certificate-2p1b.json").read_text()
    )
    assert certificate == golden


#: ``repro-verify`` sweeps at 2 processors x 2 blocks with evictions,
#: pinned by certificate (the package version aside): the registry
#: sweep and the three injected bugs, whose certificates record the
#: violations and their shortest paths too.
VERIFY_2X2_GOLDENS = {
    "registry": ("verify-certificate-2p2b.json", "none", 0),
    "drop-invalidation": (
        "verify-certificate-2p2b-drop-invalidation.json",
        "drop-invalidation", 1,
    ),
    "snoop-drop-invalidation": (
        "verify-certificate-2p2b-snoop-drop-invalidation.json",
        "snoop-drop-invalidation", 1,
    ),
    "snoop-stale-fill": (
        "verify-certificate-2p2b-snoop-stale-fill.json",
        "snoop-stale-fill", 1,
    ),
}


@pytest.mark.parametrize("name", list(VERIFY_2X2_GOLDENS))
def test_verify_certificate_2x2(name, tmp_path, capsys):
    golden_name, inject, status = VERIFY_2X2_GOLDENS[name]
    path = tmp_path / "certificate.json"
    assert verify_cli.main([
        "--procs", "2", "--blocks", "2", "--inject", inject,
        "--certificate", str(path),
        "--artifacts", str(tmp_path / "artifacts"),
    ]) == status
    capsys.readouterr()
    certificate = json.loads(path.read_text())
    certificate.pop("package_version")
    golden = json.loads((GOLDEN_DIR / golden_name).read_text())
    assert certificate == golden
