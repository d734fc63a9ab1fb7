"""Tests for the Stenström et al. protocol variant (Section 5)."""

import pytest

from repro.common.config import CacheConfig, MachineConfig
from repro.directory.entry import DirState
from repro.directory.policy import BASIC, STENSTROM
from repro.directory.protocol import DirectoryProtocol
from repro.experiments import common
from repro.system.machine import DirectoryMachine
from repro.verification.checker import check_config
from repro.verification.model import VerifyConfig

B = 3


def make_migratory(protocol):
    protocol.write_miss(B, 0, dirty=False)
    protocol.read_miss(B, 1, dirty=True)
    protocol.write_hit(B, 1, sole_copy=False)
    assert protocol.entry(B).state is DirState.ONE_COPY_MIG


class TestShiftRules:
    def test_shift_in_rule_identical(self):
        """Both protocols classify via the same evidence."""
        for policy in (BASIC, STENSTROM):
            protocol = DirectoryProtocol(policy)
            make_migratory(protocol)

    def test_both_demote_on_clean_read_miss(self):
        for policy in (BASIC, STENSTROM):
            protocol = DirectoryProtocol(policy)
            make_migratory(protocol)
            protocol.read_miss(B, 2, dirty=False)
            assert protocol.entry(B).state is DirState.TWO_COPIES, policy

    def test_only_stenstrom_demotes_on_dirty_write_miss(self):
        """The one rule difference the paper identifies."""
        cox = DirectoryProtocol(BASIC)
        make_migratory(cox)
        cox.write_miss(B, 2, dirty=True)
        assert cox.entry(B).state is DirState.ONE_COPY_MIG

        sten = DirectoryProtocol(STENSTROM)
        make_migratory(sten)
        sten.write_miss(B, 2, dirty=True)
        assert sten.entry(B).state is DirState.ONE_COPY

    def test_exhaustively_safe(self):
        result = check_config(VerifyConfig(
            "directory", STENSTROM.name, num_procs=3, evictions=False,
        ))
        assert result.ok, result.violations


class TestConsistencyWithBasic:
    def test_results_consistent_on_splash_analogues(self):
        """Section 5: "our dixie simulations are consistent with their
        results" — little dynamic reclassification, near-equal counts."""
        common.clear_caches()
        for app in ("mp3d", "pthor"):
            trace = common.get_trace(app, num_procs=8, seed=0, scale=0.25)
            cfg = MachineConfig(
                num_procs=8,
                cache=CacheConfig(size_bytes=None, block_size=16),
            )
            basic = DirectoryMachine(cfg, BASIC, check=True)
            basic.run(trace)
            sten = DirectoryMachine(cfg, STENSTROM, check=True)
            sten.run(trace)
            ratio = sten.stats.total / basic.stats.total
            assert ratio == pytest.approx(1.0, abs=0.02), app
