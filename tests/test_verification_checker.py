"""The bounded model checker: matrix verdicts, certificates, parallel
determinism, counterexample paths, and the fault-injection self-test.

Tier-1 runs the 2-processor/1-block configuration (milliseconds per
combo); the full 3-processor/2-block matrix carries the ``slow`` marker
and runs nightly.
"""

import json
import random
from pathlib import Path

import pytest

from repro.common.errors import ProtocolError
from repro.conformance import bugs
from repro.conformance.artifacts import iter_reproducers
from repro.conformance.oracle import run_case
from repro.verification import checker
from repro.verification import cli as verify_cli
from repro.verification.checker import (
    PROPERTIES,
    check_config,
    check_model,
    counterexample_case,
    sweep,
)
from repro.verification.model import (
    BLOCK_SIZE,
    MODEL_CHECKABLE_INJECTIONS,
    SNOOP_PROTOCOLS,
    SnoopModel,
    VerificationError,
    VerifyConfig,
    build_model,
    verify_combos,
)

ALL_COMBOS = verify_combos()

#: The infinite-cache transition relation alone (no eviction actions).
NO_EVICTION_COMBOS = verify_combos(evictions=False)

INJECTIONS = sorted(set(MODEL_CHECKABLE_INJECTIONS) - {"none"})

REPRODUCER_DIR = Path(__file__).parent / "reproducers"


class TestMatrix:
    @pytest.mark.parametrize(
        "config", ALL_COMBOS + NO_EVICTION_COMBOS,
        ids=[c.label for c in ALL_COMBOS]
        + [f"{c.label}-no-evictions" for c in NO_EVICTION_COMBOS],
    )
    def test_every_combo_verifies(self, config):
        result = check_config(config)
        assert result.ok
        assert result.violations == ()
        assert all(count == 0 for count in result.property_counts.values())
        assert result.num_states > 1
        assert result.num_transitions > 0
        assert result.line_states
        if config.engine == "directory":
            assert result.dir_states

    def test_certificate_asserts_zero_violations(self):
        result = sweep()
        certificate = result.certificate()
        assert certificate["ok"] is True
        assert certificate["kind"] == "repro-verify-certificate"
        assert certificate["totals"]["violations"] == 0
        assert certificate["totals"]["combos"] == len(ALL_COMBOS)
        for combo in certificate["combos"]:
            assert combo["ok"] is True
            assert combo["table_digest"]
            for name in PROPERTIES:
                assert combo["properties"][name]["verdict"] == "ok"

    def test_two_blocks_explore_the_product_space(self):
        # Blocks are independent under infinite caches, so the 2-block
        # reachable set must be exactly the square of the 1-block one —
        # a strong structural check on the multi-block generalisation.
        one = check_config(VerifyConfig("bus", "mesi", num_blocks=1))
        two = check_config(VerifyConfig("bus", "mesi", num_blocks=2))
        assert two.num_states == one.num_states ** 2
        assert two.ok

    def test_initial_migratory_still_kills_exclusive(self):
        # The dead-Exclusive theorem holds with evictions too.
        default = check_config(VerifyConfig("bus", "adaptive"))
        migratory = check_config(
            VerifyConfig("bus", "adaptive-initial-migratory")
        )
        assert "E" in default.line_states
        assert "E" not in migratory.line_states

    def test_jobs_do_not_change_the_certificate(self):
        serial = sweep(jobs=None).certificate()
        sharded = sweep(jobs=2).certificate()
        assert (json.dumps(serial, sort_keys=True)
                == json.dumps(sharded, sort_keys=True))


class TestValidation:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(VerificationError):
            VerifyConfig("bus", "nonesuch")

    def test_stats_only_injection_rejected(self):
        with pytest.raises(VerificationError, match="not model-checkable"):
            VerifyConfig("directory", "basic", inject="kernel-skew")

    def test_snoop_injection_requires_mesi(self):
        with pytest.raises(VerificationError, match="MESI"):
            VerifyConfig("bus", "adaptive", inject="snoop-stale-fill")

    def test_directory_injection_rejected_on_bus(self):
        with pytest.raises(VerificationError, match="does not apply"):
            VerifyConfig("bus", "mesi", inject="drop-invalidation")

    def test_state_ceiling_is_enforced(self):
        with pytest.raises(VerificationError, match="exceeds"):
            check_config(VerifyConfig("bus", "mesi"), max_states=5)


class TestFaultInjection:
    """Each seeded bug is caught, shrunk to a path, and replays for
    real on the concrete machines (the checker's self-test)."""

    @pytest.mark.parametrize("inject", INJECTIONS)
    def test_injected_bug_caught_and_shrunk_to_path(self, inject):
        # Evictions off: every counterexample path is then a plain
        # access trace the differential oracle can replay.
        result = sweep(inject=inject, evictions=False)
        assert not result.ok
        for combo in result.results:
            assert not combo.ok, combo.config.label
            assert combo.violations
            example = combo.counterexample()
            assert example is not None, combo.config.label
            case, failure = example
            # BFS paths arrive pre-shrunk: these bugs all trip within
            # a handful of actions.
            assert 1 <= len(case.trace) <= 4
            assert failure.stage in PROPERTIES
            # The path replays to a *real* violation on the concrete
            # machines under the same injection.
            real = run_case(case, **bugs.engine_overrides(inject))
            assert real is not None, (
                f"{combo.config.label}: model counterexample did not "
                f"reproduce on the concrete machine"
            )

    @pytest.mark.parametrize("inject", INJECTIONS)
    def test_violations_write_reproducer_artifacts(self, inject, tmp_path):
        result = sweep(inject=inject, evictions=False)
        written = result.write_reproducers(tmp_path)
        assert len(written) == len(result.results)
        loaded = list(iter_reproducers(tmp_path))
        assert len(loaded) == len(written)
        for _path, case, sidecar in loaded:
            assert sidecar["failure"] is not None
            assert sidecar["failure"]["stage"] in PROPERTIES
            assert len(case.trace) >= 1

    def test_clean_sweep_writes_no_reproducers(self, tmp_path):
        result = sweep(engine="bus", protocol="mesi")
        assert result.write_reproducers(tmp_path) == []
        assert list(iter_reproducers(tmp_path)) == []

    def test_counterexample_corpus_checked_in(self):
        # The regression corpus carries verify-derived reproducers
        # (traces that once demonstrated an injected bug; they replay
        # clean on the production engines via test_reproducers.py).
        names = [path.name for path, _, _ in
                 iter_reproducers(REPRODUCER_DIR)]
        assert any(name.startswith("verify-") for name in names)


class TestAbstractionCrossCheck:
    """Random concrete replays, projected through the checker's own
    abstraction, stay inside the model-checked reachable set: a few
    configs with evictions, then every registered family at 3
    processors x 2 blocks without (infinite caches never evict)."""

    CONFIGS = [
        VerifyConfig("bus", "adaptive", num_procs=2, num_blocks=2),
        VerifyConfig("bus", "competitive-update-1"),
        VerifyConfig("directory", "aggressive"),
        VerifyConfig("directory", "conventional", num_blocks=2),
    ] + verify_combos(num_procs=3, num_blocks=2, evictions=False)

    @pytest.mark.parametrize(
        "config", CONFIGS,
        ids=[f"{c.label}-{c.num_procs}x{c.num_blocks}" for c in CONFIGS],
    )
    def test_random_replays_stay_in_reachable_set(self, config):
        reachable = check_config(config).reachable
        for trial in range(6):
            rng = random.Random(f"checker-cross:{config.label}:{trial}")
            model = build_model(config)  # fresh cold-start machine
            for _ in range(40):
                proc = rng.randrange(config.num_procs)
                block = rng.randrange(config.num_blocks)
                model.machine.access(proc, rng.random() < 0.5,
                                     block * BLOCK_SIZE)
                state = model.extract()
                assert state in reachable, (
                    f"{config.label} trial {trial}: concrete state "
                    f"{state} escaped the model"
                )


class TestStepMemo:
    """The checker memoises each step by ``(action, state[block])``; its
    premise is that an action touches only its own block.  A sample of
    reachable 2-block states, expanded through a warm memo (every step
    a hit), must equal real steps on a fresh model, action by action;
    the injected bugs cover memoised ``ProtocolError`` texts."""

    COMBOS = verify_combos(num_blocks=2) + [
        config for inject in INJECTIONS
        for config in verify_combos(num_blocks=2, inject=inject)
    ]

    @staticmethod
    def _direct(model, state):
        out = []
        for action in model.actions:
            model.install(state)
            try:
                skipped = model.apply(action) is model.SKIP
            except ProtocolError as exc:
                out.append((action, None, str(exc)))
                continue
            if not skipped:
                out.append((action, model.extract(), None))
        return out

    @pytest.mark.parametrize(
        "config", COMBOS, ids=[f"{c.label}-2x2" for c in COMBOS],
    )
    def test_memoised_expansion_equals_real_steps(self, config):
        states = sorted(check_config(config).reachable, key=repr)
        sample = random.Random(f"step-memo:{config.label}").sample(
            states, min(200, len(states))
        )
        memoised = build_model(config)
        checker._expand_states(memoised, states)  # warm every step
        misses = len(memoised.step_memo)
        expanded = checker._expand_states(memoised, sample)
        assert len(memoised.step_memo) == misses
        direct = build_model(config)
        for state, per_state in zip(sample, expanded):
            assert per_state == self._direct(direct, state), state

    def test_a_step_that_writes_another_block_is_refused(self):
        class Leaky(SnoopModel):
            def apply(self, action):
                result = super().apply(action)
                proc, op, block = action
                if op == "write":
                    # Also fetch the next block: a cross-block effect.
                    other = (block + 1) % self.num_blocks
                    self.machine.access(proc, False, other * BLOCK_SIZE)
                return result

        config = VerifyConfig("bus", "mesi", num_blocks=2)
        model = Leaky(config, SNOOP_PROTOCOLS["mesi"])
        with pytest.raises(VerificationError, match="another block"):
            check_model(model)


class TestCli:
    def test_clean_run_writes_certificate(self, tmp_path, capsys):
        certificate = tmp_path / "certificate.json"
        status = verify_cli.main([
            "--procs", "2", "--blocks", "1",
            "--certificate", str(certificate),
            "--artifacts", str(tmp_path / "artifacts"),
        ])
        assert status == 0
        payload = json.loads(certificate.read_text())
        assert payload["ok"] is True
        assert payload["totals"]["combos"] == len(ALL_COMBOS)
        out = capsys.readouterr().out
        assert "bus/mesi" in out
        assert "all properties ok" in out
        assert not (tmp_path / "artifacts").exists()

    def test_inject_run_fails_and_writes_artifacts(self, tmp_path, capsys):
        artifacts = tmp_path / "artifacts"
        status = verify_cli.main([
            "--inject", "drop-invalidation", "--no-evictions",
            "--protocol", "conventional", "--certificate", "-",
            "--artifacts", str(artifacts),
        ])
        assert status == 1
        out = capsys.readouterr().out
        assert "violation" in out
        assert "shortest counterexample" in out
        assert list(iter_reproducers(artifacts))

    def test_unknown_protocol_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            verify_cli.main(["--protocol", "nonesuch"])
        assert excinfo.value.code == 2


class TestFullMatrix:
    """The nightly 3-processor/2-block matrix (certificate scale)."""

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "config", verify_combos(num_procs=3, num_blocks=2),
        ids=[c.label for c in verify_combos(num_procs=3, num_blocks=2)],
    )
    def test_full_matrix_verifies(self, config):
        result = check_config(config, jobs=0)
        assert result.ok, result.violations
        # The product structure holds at full scale too.
        single = check_config(VerifyConfig(
            config.engine, config.protocol, num_procs=3, num_blocks=1,
        ), jobs=0)
        assert result.num_states == single.num_states ** 2
