"""The single-block state space at three processors: safety matrix,
structural theorems, and an abstraction-drift cross-check.

Every registered snooping protocol and directory family is model-checked
over one block at three processors, with and without eviction actions,
and the paper's structural remarks are asserted over the reachable set.
The cross-check then replays short random traces on concrete
``check=True`` machines and asserts that every intermediate global
state, projected through the model's abstraction, is a member of the
eviction-free reachable set.  If the abstraction ever drifts from the
engines (a field the projection ignores, a transition the action set
misses), the membership check fails before any property does.
"""

import random

import pytest

from repro.protocols import registry as families
from repro.verification.checker import check_config
from repro.verification.model import (
    BLOCK_SIZE,
    SNOOP_PROTOCOLS,
    VerifyConfig,
    build_model,
)

DIR_FAMILIES = list(families.directory_families())

SNOOP_IDS = list(SNOOP_PROTOCOLS)
POLICY_IDS = [fam.name for fam in DIR_FAMILIES]

NUM_PROCS = 3


def check(engine, name, evictions=False):
    return check_config(VerifyConfig(
        engine, name, num_procs=NUM_PROCS, evictions=evictions,
    ))


class TestSnoopingMatrix:
    @pytest.mark.parametrize("name", SNOOP_IDS)
    def test_closure_has_zero_violations(self, name):
        result = check("bus", name)
        assert result.ok, result.violations
        assert result.num_states > 1

    @pytest.mark.parametrize("name", SNOOP_IDS)
    def test_closure_with_evictions_has_zero_violations(self, name):
        result = check("bus", name, evictions=True)
        assert result.ok, result.violations

    def test_exclusive_reachable_under_default_protocols(self):
        # Paper S3: with migrate-on-read-miss *off*, a first read miss
        # fills Exclusive; E must appear in the reachable space.
        for name in ("mesi", "adaptive"):
            assert "E" in check("bus", name).line_states, name

    def test_exclusive_unreachable_under_initial_migratory(self):
        # Paper S3: with migrate-on-read-miss as the initial policy the
        # Exclusive state has no in-transitions — a dead state.
        seen = check("bus", "adaptive-initial-migratory").line_states
        assert "E" not in seen
        assert "MC" in seen


class TestDirectoryMatrix:
    @pytest.mark.parametrize("family", DIR_FAMILIES, ids=POLICY_IDS)
    def test_closure_has_zero_violations(self, family):
        result = check("directory", family.name)
        assert result.ok, result.violations
        assert result.num_states > 1

    @pytest.mark.parametrize("family", DIR_FAMILIES, ids=POLICY_IDS)
    def test_closure_with_evictions_has_zero_violations(self, family):
        result = check("directory", family.name, evictions=True)
        assert result.ok, result.violations

    def test_migratory_directory_states_need_adaptivity(self):
        # Non-adaptive policies never classify, so the migratory
        # directory states are unreachable under them and reachable
        # under every adaptive policy.
        for family in DIR_FAMILIES:
            seen = check("directory", family.name).dir_states
            if family.policy.adaptive:
                assert "ONE_COPY_MIG" in seen, family.name
            else:
                assert "ONE_COPY_MIG" not in seen, family.name


class TestAbstractionCrossCheck:
    """Random concrete replays stay inside the eviction-free reachable
    set (infinite caches never evict)."""

    TRIALS = 8
    OPS = 40

    def _replay(self, engine, name):
        config = VerifyConfig(engine, name, num_procs=NUM_PROCS,
                              evictions=False)
        reachable = check_config(config).reachable
        for trial in range(self.TRIALS):
            rng = random.Random(f"space-cross:{name}:{trial}")
            model = build_model(config)  # fresh cold-start machine
            for _ in range(self.OPS):
                # Any word of the one block.
                model.machine.access(rng.randrange(NUM_PROCS),
                                     rng.random() < 0.5,
                                     rng.randrange(0, BLOCK_SIZE, 4))
                state = model.extract()
                assert state in reachable, (
                    f"{name} trial {trial}: concrete state {state} "
                    f"escaped the explored space"
                )

    @pytest.mark.parametrize("name", SNOOP_IDS)
    def test_snooping_replays_stay_in_reachable_set(self, name):
        self._replay("bus", name)

    @pytest.mark.parametrize("family", DIR_FAMILIES, ids=POLICY_IDS)
    def test_directory_replays_stay_in_reachable_set(self, family):
        self._replay("directory", family.name)
