"""The differential oracle: clean on correct engines, loud on broken ones."""

import pytest

from repro.conformance import bugs
from repro.conformance.fuzzer import PROFILES, generate_case
from repro.conformance.oracle import CaseFailure, SCReference, run_case
from repro.directory.representation import LimitedPointerDirectory
from repro.kernels.streaming import BusStreamReplay, DirectoryStreamReplay


class TestCleanEngines:
    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("seed", range(3))
    def test_shipped_engines_pass(self, profile, seed):
        assert run_case(generate_case(seed, profile)) is None


@pytest.mark.fuzz
class TestExtendedSweep:
    """Nightly-only: a wider seed sweep than the tier-1 smoke above."""

    @pytest.mark.parametrize("profile", PROFILES)
    def test_forty_seeds_per_profile_pass(self, profile):
        for seed in range(40):
            failure = run_case(generate_case(seed, profile))
            assert failure is None, f"{profile} seed {seed}: {failure}"


class TestSCReference:
    def test_tracks_latest_write_per_block(self):
        ref = SCReference(block_shift=4)  # 16-byte blocks
        ref.access(0, False, 0)     # reads never advance versions
        ref.access(0, True, 0)      # v1 -> block 0
        ref.access(1, True, 20)     # v2 -> block 1
        ref.access(2, True, 4)      # v3 -> block 0 again
        assert ref.writes == 3
        assert ref.latest == {0: 3, 1: 2}


class TestFaultInjection:
    def test_directory_dropped_invalidation_caught(self):
        case = generate_case(0, "migratory")
        failure = run_case(
            case, **bugs.engine_overrides("drop-invalidation")
        )
        assert failure is not None
        assert failure.stage == "invariants"
        assert failure.engine.startswith("directory[")

    def test_packed_stat_skew_caught(self):
        case = generate_case(0, "uniform")
        failure = run_case(case, **bugs.engine_overrides("kernel-skew"))
        assert failure is not None
        assert failure.stage == "kernel-diff"
        assert "read_hits" in failure.detail

    @pytest.mark.parametrize("replay_cls, prefix", [
        (DirectoryStreamReplay, "directory-stream["),
        (BusStreamReplay, "bus-stream["),
    ])
    def test_stream_stat_skew_caught(self, monkeypatch, replay_cls, prefix):
        # Every segment's feed credits one phantom read hit; the batch
        # kernel replay stays correct, so only the streamed replay can
        # expose it.
        feed = replay_cls.feed

        def skewed(self, packed):
            feed(self, packed)
            self._totals[0] += 1

        monkeypatch.setattr(replay_cls, "feed", skewed)
        case = generate_case(0, "kernel")
        assert case.cache_size is None
        failure = run_case(case)
        assert failure is not None
        assert failure.stage == "kernel-diff"
        assert failure.engine.startswith(prefix)
        assert "read_hits" in failure.detail

    def test_off_by_one_outcome_count_caught(self, monkeypatch):
        # One access's outcome counted twice: every machine counter and
        # the final state stay exact, so only the profile comparison
        # can expose it.
        from repro.kernels import directory

        add = directory._add_outcomes

        def skewed(table, pairs, outcomes):
            add(table, pairs, outcomes)
            first = next(iter(outcomes))
            outcomes[first] += 1

        monkeypatch.setattr(directory, "_add_outcomes", skewed)
        failure = run_case(generate_case(0, "uniform"))
        assert failure is not None
        assert failure.stage == "kernel-diff"
        assert failure.engine.startswith("directory-profile[")
        assert "refs_per_proc" in failure.detail

    @pytest.mark.parametrize("fault", ["broadcast-off-by-one",
                                       "highest-victim"])
    def test_limited_pointer_fault_caught(self, monkeypatch, fault):
        # A Dir_iB broadcast count one too high, or a Dir_iNB victim
        # taken as the highest other sharer instead of the lowest: the
        # checked replay stays invariant-clean, so only the kernel diff
        # of the limited-pointer machines can expose it.
        if fault == "broadcast-off-by-one":
            targets = LimitedPointerDirectory.invalidation_targets

            def patched(self, entry, writer, home, num_procs):
                count = targets(self, entry, writer, home, num_procs)
                return count + 1 if entry.overflowed else count

            monkeypatch.setattr(LimitedPointerDirectory,
                                "invalidation_targets", patched)
        else:
            added = LimitedPointerDirectory.on_sharer_added

            def patched(self, entry, node):
                victim = added(self, entry, node)
                return victim if victim is None else max(
                    entry.copyset - {node})

            monkeypatch.setattr(LimitedPointerDirectory, "on_sharer_added",
                                patched)
        failures = [run_case(generate_case(seed, "kernel"))
                    for seed in range(10)]
        caught = [failure for failure in failures if failure is not None]
        assert caught
        for failure in caught:
            assert failure.stage == "kernel-diff"
            assert ",dir" in failure.engine
            assert failure.engine.endswith("NB]") == (
                fault == "highest-victim")

    def test_snoop_dropped_invalidation_caught(self):
        case = generate_case(0, "migratory")
        failure = run_case(
            case, **bugs.engine_overrides("snoop-drop-invalidation")
        )
        assert failure is not None
        assert failure.stage == "invariants"
        assert failure.engine.startswith("bus[")

    def test_snoop_stale_fill_caught(self):
        case = generate_case(0, "uniform")
        failure = run_case(
            case, **bugs.engine_overrides("snoop-stale-fill")
        )
        assert failure is not None
        assert failure.stage == "invariants"

    def test_unknown_injection_rejected(self):
        with pytest.raises(ValueError, match="unknown injection"):
            bugs.engine_overrides("not-a-bug")

    def test_none_injection_is_empty(self):
        assert bugs.engine_overrides("none") == {}


class TestCaseFailure:
    def test_str_names_stage_engine_detail(self):
        failure = CaseFailure("invariants", "directory[basic]", "boom")
        assert str(failure) == "invariants directory[basic]: boom"
