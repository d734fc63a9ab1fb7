"""The benchmark's own tests: reduced-size runs of every workload.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload runs under ``--smoke`` through ``run.py`` and must print
every metric of ``BENCHMARK.json`` with its unit and pass its own
checks; and one altered statistic in a workload's output must be
counted as a failed operation, not accepted.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> tuple[list[str], dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_prints_every_metric(workload, trace):
    lines, result = _run(workload, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert any(line.startswith(f"{workload}/{metric['name']} ")
                   and line.endswith(f" {metric['unit']}")
                   for line in lines)
    assert any(line.startswith(f"{workload}/failed_frac 0 ")
               for line in lines)


def test_missing_program_fails_without_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_probe_samples_inside_with_and_adjusts_to_reference():
    import signal
    import time

    import hostspeed

    before = signal.getsignal(signal.SIGALRM)
    probe = hostspeed.Probe()
    with probe:
        end = time.perf_counter() + 3 * hostspeed.INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(probe.take()) >= 2 and probe.take() == []
    assert signal.getsignal(signal.SIGALRM) is before
    assert hostspeed.adjusted(3.0, [2 * hostspeed.REFERENCE_S]) == (
        pytest.approx(1.5))
    assert hostspeed.adjusted(3.0, [4 * hostspeed.REFERENCE_S], 0.5) == (
        pytest.approx(1.5))
    assert hostspeed.adjusted(3.0, []) == 3.0


# ----------------------------------------------------------------------
# A perturbed output is a failed operation
# ----------------------------------------------------------------------

def _ran(workload_cls, tmp_path):
    """A smoke-size workload after its timed section, servers stopped."""
    harness.reset_process_state(tmp_path / "results")
    options = harness.Options(seed=1, seconds=1, smoke=True)
    workload = workload_cls(options, tmp_path, traced=False)
    try:
        workload.setup()
        workload.run()
    finally:
        workload.close()
    attempted, failed = workload.check()
    assert attempted >= 1 and failed == 0
    return workload


@pytest.fixture(autouse=True)
def _restore_environment():
    saved = dict(os.environ)
    yield
    os.environ.clear()
    os.environ.update(saved)


def test_sweep_counts_a_perturbed_cell(tmp_path):
    import sweep

    workload = _ran(sweep.Sweep, tmp_path)
    row = sweep.sampled_rows("table2", workload.rows["table2"], 1)[0]
    name, cell = next(iter(row.cells.items()))
    row.cells[name] = dataclasses.replace(cell, short=cell.short + 1)
    assert workload.check() == (4, 1)


def test_sweep_golden_counts_a_change_the_table_hides(tmp_path):
    import sweep

    workload = _ran(sweep.Sweep, tmp_path)
    golden = {
        name: {"stdout": sweep.cli_section(name, render(workload.rows[name])),
               "rows": sweep.row_payload(workload.rows[name])}
        for name, _, render in sweep.artifacts()
    }
    workload._golden = lambda: golden
    assert workload.check() == (4, 0)
    row = workload.rows["table2"][0]
    # Table 2 prints thousands of messages, so one more rarely shows.
    name, cell = next(iter(row.cells.items()))
    row.cells[name] = dataclasses.replace(cell, data=cell.data + 1)
    assert workload.check() == (4, 1)


def test_stream_counts_a_perturbed_replay(tmp_path):
    import stream

    workload = _ran(stream.Stream, tmp_path)
    workload.results[1][0].invalidation += 1
    assert workload.check() == (2, 1)


def test_stream_golden_counts_a_perturbed_replay(tmp_path, monkeypatch):
    import stream

    workload = _ran(stream.Stream, tmp_path)
    golden = [stream.payload(*result) for result in workload.results]
    monkeypatch.setattr(stream, "golden_references", lambda *_: golden)
    monkeypatch.setattr(stream, "references", None)  # must not be needed
    assert workload.check() == (2, 0)
    workload.results[0][0].by_cause_short["read_miss"] += 1
    assert workload.check() == (2, 1)


def test_serve_counts_a_perturbed_reply(tmp_path):
    import serve

    workload = _ran(serve.Serve, tmp_path)
    replies = workload.replies[0][0]
    index = next(i for i, (path, _, _) in enumerate(workload.plans[0][0])
                 if path == "/v1/replay")
    latency, status, data = replies[index]
    body = json.loads(data)
    result = body["result"]
    field = next(k for k, v in result.items() if isinstance(v, int))
    result[field] += 1
    replies[index] = (latency, status, json.dumps(body).encode())
    attempted, failed = workload.check()
    assert attempted == workload.total and failed >= 1


def test_verify_counts_a_perturbed_combo(tmp_path):
    import verify

    workload = _ran(verify.Verify, tmp_path)
    combo = workload.results[0].results[0]
    combo.property_counts[next(iter(combo.property_counts))] += 1
    attempted, failed = workload.check()
    assert failed == 1
