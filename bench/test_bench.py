"""Tests of the benchmark's own output check and tracing.

Run from the repository root: python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from waveunpack import pipeline  # noqa: E402

# two traces keep each iteration short
N_TRACES = 2


@pytest.fixture(scope="module")
def scenario_set(tmp_path_factory):
    wdir = tmp_path_factory.mktemp("scenarios")
    cases, paths = run._generate("scenarios", 3, wdir, contextlib.nullcontext)
    return cases[:N_TRACES], paths[:N_TRACES], wdir


def _iterate(cases, paths, wdir) -> run.Tally:
    tally = run.Tally()
    run._iteration(cases, paths, wdir / "out", tally)
    return tally


def test_true_expectations_pass(scenario_set):
    tally = _iterate(*scenario_set)
    assert (tally.attempted, tally.failed) == (N_TRACES, 0), tally.reasons


@pytest.mark.parametrize("field,delta", [
    ("procs", 1), ("waves", 1), ("api_calls", -1), ("final_wave_calls", 1),
    ("iat_size", 1),
])
def test_wrong_expectation_counts_as_failure(scenario_set, field, delta):
    cases, paths, wdir = scenario_set
    name, expect = cases[0]
    wrong = dataclasses.replace(expect, **{field: getattr(expect, field) + delta})
    tally = _iterate([(name, wrong)] + cases[1:], paths, wdir)
    assert (tally.attempted, tally.failed) == (N_TRACES, 1)
    assert tally.reasons[0].startswith(name)


def test_wrong_manifest_counts_as_failure(scenario_set):
    cases, paths, wdir = scenario_set
    name, expect = cases[0]
    manifest = {wave: calls[::-1] + ["kernel32!Sleep"]
                for wave, calls in expect.manifest.items()}
    wrong = dataclasses.replace(expect, manifest=manifest)
    tally = _iterate([(name, wrong)] + cases[1:], paths, wdir)
    assert tally.failed == 1 and "per-wave calls" in tally.reasons[0]


def test_broken_trace_fails_without_stopping_the_run(scenario_set, tmp_path):
    cases, paths, _ = scenario_set
    broken = tmp_path / "broken.jsonl"
    broken.write_bytes(paths[0].read_bytes()[:-40])
    tally = run.Tally()
    run._iteration(cases, [broken] + paths[1:], tmp_path / "out", tally)
    assert (tally.attempted, tally.failed) == (N_TRACES, 1)
    assert "unpack raised" in tally.reasons[0]


def test_untraced_run_never_loads_the_tracer():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
            "print('tracer' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(BENCH)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_tracer_wraps_and_restores(scenario_set):
    from tracer import Tracer

    cases, paths, wdir = scenario_set
    original = pipeline.analyze
    tracer = Tracer()
    tracer.install()
    try:
        assert pipeline.analyze is not original
        first = tracer.mark()
        tally = _iterate(cases, paths, wdir)
        summary = tracer.summarize(first, tracer.mark())
    finally:
        tracer.uninstall()
    assert pipeline.analyze is original
    assert tally.failed == 0
    assert summary["calls"]["pipeline.analyze"] == 2 * N_TRACES
    assert summary["calls"]["trace_model.parse"] == N_TRACES
    for name, own in summary["self"].items():
        assert 0 <= own <= summary["total"][name]
