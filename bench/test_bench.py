"""Tests of the benchmark itself, on the workloads' tiny sizes.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 3


def printed_units(lines: list[str]) -> dict[str, str]:
    """metric name -> unit, from the `name = value unit` lines."""
    out = {}
    for line in lines:
        if " = " in line:
            name, rest = line.split(" = ", 1)
            out[name] = rest.split()[1]
    return out


@pytest.mark.parametrize("workload", sorted(run.TINY))
def test_traced_counts_repeat_and_every_metric_is_printed(workload):
    size = run.TINY[workload]
    untraced = run.measure(workload, SEED, 0.0, False, size)
    first = run.measure(workload, SEED, 0.0, True, size)
    second = run.measure(workload, SEED, 0.0, True, size)
    for result in (untraced, first, second):
        assert result["failed"] == 0, result["problems"]
    # Tracing may not change output: the traced pass was checked against the
    # untraced first pass, and both traced runs reproduce the untraced digest.
    assert first["digest"] == second["digest"] == untraced["digest"]
    for name in spans.EXACT_COUNTS:
        assert first["per_layer"][name] == second["per_layer"][name], name

    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    line = run.result_line(untraced)
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    expected_layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    line = run.result_line(first)
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected_layers

    named = dict(expected, failed_ratio="ratio", setup_wall_s="s", instances_per_wall_s="1/s",
                 host_speed="ratio")
    if workload == "analyze-wide-field":
        named.update(instance_p50_s="s", instance_p90_s="s")
    if workload == "length-scaling":
        named.update({f"length_n{n}_s": "s" for n, _ in size["orders"]})
    assert printed_units(run.report_lines(untraced)) == named
    assert printed_units(run.report_lines(first)) == dict(named, **expected_layers)


def test_checks_reject_wrong_reports():
    p = 7
    a = np.array([[0, 1], [0, 0]], dtype=np.int64)
    b = np.array([[0, 0], [1, 0]], dtype=np.int64)
    good = {"dims": [1, 3, 4], "length": 2, "generated_dim": 4, "is_generating": True}
    assert checks.check_length_report(good, [a, b], p) == []
    assert checks.check_length_report(dict(good, dims=[1, 2, 4]), [a, b], p)
    assert checks.check_length_report(dict(good, length=3), [a, b], p)

    record = {
        "n": 2, "m_S": 2, "matrices": [a.tolist()],
        "generators": [{"index": 0, "minpoly_degree": 2, "spectrum": [[0, 2]],
                        "jordan_profile": {"0": [2]}}],
        "certificates": {"0": {"1": {"exponents": {"0": 1}, "degree": 1, "achieved_rank": 1,
                                     "witness": a.tolist()}}},
    }
    assert checks.check_generators(record, [a], p) == []
    wrong_spectrum = json.loads(json.dumps(record))
    wrong_spectrum["generators"][0].update(spectrum=[[0, 1]], minpoly_degree=1)
    assert checks.check_generators(wrong_spectrum, [a], p)
    wrong_profile = json.loads(json.dumps(record))
    wrong_profile["generators"][0]["jordan_profile"] = {"0": [1, 1]}
    assert checks.check_generators(wrong_profile, [a], p)
    wrong_witness = json.loads(json.dumps(record))
    wrong_witness["certificates"]["0"]["1"]["witness"] = [[0, 2], [0, 0]]
    assert checks.check_generators(wrong_witness, [a], p)


def test_host_clock_takes_probe_time_out_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostClock() as clock:
        start = clock.mark()
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert clock.probes >= 3
    work = clock.work_since(start)
    wall = time.perf_counter() - start[0]
    assert work == pytest.approx(wall - (clock.probe_wall_s - start[1]), abs=1e-4)
    assert clock.factor_since(start) > 0
    # An interval too short for the timer gets one probe of its own.
    probes = clock.probes
    assert clock.factor_since(clock.mark()) > 0
    assert clock.probes == probes + 1


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fuzz-campaign", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
