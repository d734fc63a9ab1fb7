"""Exhaustive state-space verification of every protocol.

Each test model-checks the *entire* reachable global state space of a
protocol (single block, 3 processors, every read/write interleaving,
no evictions unless the class says otherwise) and asserts the safety
properties in every state, plus structural facts the paper states about
the protocols.  Registered protocols run through
:func:`~repro.verification.checker.check_config`; the unregistered
variants (other competitive-update thresholds, the "deep" and
"forgetful" policies) hand their protocol to a model directly.
"""

import pytest

from repro.directory.policy import AdaptivePolicy
from repro.snooping.update_protocols import CompetitiveUpdateProtocol
from repro.system.machine import DirectoryMachine
from repro.verification.checker import check_config, check_model
from repro.verification.model import DirectoryModel, SnoopModel, VerifyConfig


def snooping(protocol, num_procs=3, evictions=False):
    """Check a registered bus protocol by name, or any protocol factory."""
    if isinstance(protocol, str):
        return check_config(VerifyConfig(
            "bus", protocol, num_procs=num_procs, evictions=evictions,
        ))
    config = VerifyConfig("bus", "mesi", num_procs=num_procs,
                          evictions=evictions)
    return check_model(SnoopModel(config, protocol))


def directory(policy, num_procs=3, evictions=False):
    """Check a registered directory policy by name, or any policy on the
    stock directory machine."""
    if isinstance(policy, str):
        return check_config(VerifyConfig(
            "directory", policy, num_procs=num_procs, evictions=evictions,
        ))
    config = VerifyConfig("directory", "basic", num_procs=num_procs,
                          evictions=evictions)
    return check_model(DirectoryModel(config, policy, DirectoryMachine))


PAPER_POLICIES = ["conventional", "conservative", "basic", "aggressive"]


class TestSnoopingStateSpaces:
    def test_mesi_safe_and_minimal(self):
        result = snooping("mesi")
        assert result.ok, result.violations
        assert set(result.line_states) == {"E", "S", "D"}
        # 11 coherence states, 15 once each copy's freshness is tracked.
        assert result.num_states == 15

    def test_adaptive_safe_uses_all_six_states(self):
        result = snooping("adaptive")
        assert result.ok, result.violations
        assert set(result.line_states) == {"E", "S", "S2", "D", "MC", "MD"}

    def test_initial_migratory_kills_the_exclusive_state(self):
        """Figure 1's remark, proven over the model: with
        migrate-on-read-miss as the initial policy, E has no
        in-transitions and is never reached."""
        result = snooping("adaptive-initial-migratory")
        assert result.ok, result.violations
        assert "E" not in result.line_states
        assert set(result.line_states) == {"S", "S2", "D", "MC", "MD"}

    def test_always_migrate_safe(self):
        result = snooping("always-migrate")
        assert result.ok, result.violations
        # S2/MD never used by the non-adaptive protocol
        assert "S2" not in result.line_states
        assert "MD" not in result.line_states

    def test_write_update_safe(self):
        result = snooping("write-update")
        assert result.ok, result.violations

    @pytest.mark.parametrize("threshold", [0, 1, 2])
    def test_competitive_update_safe(self, threshold):
        result = snooping(lambda: CompetitiveUpdateProtocol(threshold))
        assert result.ok, result.violations

    def test_transition_relation_total(self):
        """Every (state, processor, op) has exactly one successor."""
        result = snooping("adaptive")
        assert result.num_transitions == result.num_states * 3 * 2

    def test_four_processors(self):
        result = snooping("adaptive", num_procs=4)
        assert result.ok, result.violations


class TestDirectoryStateSpaces:
    @pytest.mark.parametrize("policy", PAPER_POLICIES)
    def test_safe(self, policy):
        result = directory(policy)
        assert result.ok, result.violations

    def test_conventional_never_reaches_migratory_states(self):
        result = directory("conventional")
        assert "ONE_COPY_MIG" not in result.dir_states
        assert "UNCACHED_MIG" not in result.dir_states

    def test_adaptive_reaches_migratory_state(self):
        for policy in ("conservative", "basic", "aggressive"):
            result = directory(policy)
            assert "ONE_COPY_MIG" in result.dir_states, policy

    def test_aggressive_never_returns_to_plain_uncached(self):
        """Without evictions the block never becomes uncached again, and
        the aggressive protocol starts migratory-uncached."""
        seen = directory("aggressive").dir_states
        assert "UNCACHED_MIG" in seen
        assert "UNCACHED" not in seen

    def test_hysteresis_expands_the_state_space(self):
        """Hysteresis multiplies states (the paper: "adding hysteresis
        ... would multiplicatively increase the number of states")."""
        basic = directory("basic")
        conservative = directory("conservative")
        deep = directory(AdaptivePolicy("deep", migratory_threshold=3))
        assert conservative.num_states > basic.num_states
        assert deep.num_states > conservative.num_states

    def test_streak_is_bounded(self):
        """The evidence streak cannot exceed the threshold (it promotes
        or resets), keeping directory entries finite."""
        for policy, bound in (("conservative", 2), ("basic", 1)):
            for (entry,) in directory(policy).reachable:
                assert entry[2] <= bound, (policy, entry)

    def test_four_processors(self):
        result = directory("basic", num_procs=4)
        assert result.ok, result.violations


class TestDirectoryWithEvictions:
    """State spaces including replacement (notification/writeback) paths."""

    @pytest.mark.parametrize("policy", PAPER_POLICIES)
    def test_safe_with_evictions(self, policy):
        result = directory(policy, evictions=True)
        assert result.ok, result.violations

    def test_uncached_states_reachable_with_evictions(self):
        """Evicting the last copy reaches the UNCACHED* states that the
        eviction-free exploration cannot."""
        seen = directory("basic", evictions=True).dir_states
        assert "UNCACHED" in seen
        assert "UNCACHED_MIG" in seen  # classification remembered

    def test_forgetful_policy_never_remembers(self):
        forgetful = AdaptivePolicy(
            "forgetful", migratory_threshold=1, remember_uncached=False
        )
        result = directory(forgetful, evictions=True)
        assert result.ok, result.violations
        assert "UNCACHED_MIG" not in result.dir_states

    def test_eviction_expands_state_space(self):
        plain = directory("basic")
        with_ev = directory("basic", evictions=True)
        assert with_ev.num_states > plain.num_states


class TestSnoopingWithEvictions:
    """Silent replacement enlarges the snooping state space (e.g. a lone
    plain-S copy exists only after its S2 partner was dropped)."""

    @pytest.mark.parametrize(
        "name", ["mesi", "adaptive", "always-migrate", "write-update"],
    )
    def test_safe_with_evictions(self, name):
        result = snooping(name, evictions=True)
        assert result.ok, result.violations

    def test_eviction_expands_adaptive_space(self):
        plain = snooping("adaptive")
        with_ev = snooping("adaptive", evictions=True)
        assert with_ev.num_states > plain.num_states

    def test_lone_plain_s_copy_reachable_only_via_eviction(self):
        def lone_s(result):
            # One block: its (written, per-proc lines, protocol state).
            return any(
                sum(1 for line in lines if line is not None) == 1
                and any(line and line[0] == "S" for line in lines)
                for ((_written, lines, _pstate),) in result.reachable
            )

        assert not lone_s(snooping("adaptive"))
        assert lone_s(snooping("adaptive", evictions=True))
