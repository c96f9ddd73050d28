from __future__ import annotations

import pytest

from waveunpack.pipeline import analyze
from waveunpack.scenario_gen import (
    MALWARE_PID,
    SCENARIO_IDS,
    TARGET_PID,
    UnknownScenarioError,
    expected_ground_truth,
    generate_scenario,
)
from conftest import taint_step
from waveunpack.taint_engine import init_taint
from waveunpack.trace_model import parse_trace, write_trace
from waveunpack.wave_collector import collect_waves

EXPECTED_TABLE = {
    "d1": (1, 2, 5, 3), "d2": (1, 2, 5, 3), "d3": (1, 3, 5, 3),
    "d4": (1, 3, 5, 3), "c1": (2, 2, 6, 3), "c2": (2, 2, 6, 3),
    "c4": (2, 2, 1, 1), "c5": (2, 2, 5, 3), "m1": (2, 3, 6, 3),
}


@pytest.mark.parametrize("sid", SCENARIO_IDS)
def test_expected_table(sid):
    truth = expected_ground_truth(sid)
    assert (truth.procs, truth.waves, truth.final_wave_calls,
            truth.iat_size) == EXPECTED_TABLE[sid]


@pytest.mark.parametrize("sid", SCENARIO_IDS)
def test_manifest_totals_match_expectations(sid):
    truth = expected_ground_truth(sid)
    assert len(truth.manifest) == truth.waves
    assert len({w["pid"] for w in truth.manifest}) == truth.procs
    final = truth.manifest[-1]["calls"]
    assert len(final) == truth.final_wave_calls
    assert len(set(final)) == truth.iat_size
    assert set(truth.patched) | set(truth.sidecar_only) == set(final)


def test_unknown_scenario():
    with pytest.raises(UnknownScenarioError):
        expected_ground_truth("zz")
    with pytest.raises(UnknownScenarioError):
        generate_scenario("zz")


@pytest.mark.parametrize("sid", SCENARIO_IDS)
def test_traces_are_serializable_and_valid(sid):
    trace, _ = generate_scenario(sid, 0)
    blob = write_trace(trace)
    assert parse_trace(blob) == trace
    assert write_trace(parse_trace(blob)) == blob
    first_instr = [ev for ev in trace.events if ev.kind == "instr"][0]
    image = collect_waves(trace).image
    assert first_instr.pid == image.pid
    assert first_instr.vaddr == image.base  # entry point opens the trace


def test_same_seed_same_bytes():
    a, _ = generate_scenario("c5", 42)
    b, _ = generate_scenario("c5", 42)
    assert write_trace(a) == write_trace(b)


def test_different_seed_different_addresses_same_truth():
    a, truth_a = generate_scenario("d1", 1)
    b, truth_b = generate_scenario("d1", 2)
    assert truth_a.to_json() == truth_b.to_json()
    assert write_trace(a) != write_trace(b)
    assert collect_waves(a).image.base != collect_waves(b).image.base or \
        a.events[-2].vaddr != b.events[-2].vaddr


def test_seed_never_changes_event_count():
    counts = {len(generate_scenario("m1", seed)[0].events)
              for seed in range(8)}
    assert len(counts) == 1


def test_c4_payload_writers_are_untainted():
    """Write-then-execute counterexample: the instructions that write the
    executed payload are benign, yet the wave in the target is captured."""
    trace, _ = generate_scenario("c4", 0)
    pset = init_taint(collect_waves(trace).image)
    tw: dict = {}
    writer_seqs = []
    for ev in [ev for ev in trace.events if ev.kind == "instr"]:
        tainted = taint_step(ev, pset, tw)
        writes_target_space = any(w.space_pid == TARGET_PID
                                  for w in ev.writes)
        if writes_target_space and ev.pid == TARGET_PID:
            assert not tainted
            writer_seqs.append(ev.seq)
    assert writer_seqs, "scenario must contain benign payload writers"

    res = analyze(trace)
    target_waves = [r for r in res.collect.records if r.pid == TARGET_PID]
    assert len(target_waves) == 1
    assert len(target_waves[0].instrs) >= 1
    wave_seqs = set(target_waves[0].instrs.seqs)
    assert not wave_seqs & set(writer_seqs)


def test_benign_background_present_and_unattributed():
    for sid in SCENARIO_IDS:
        trace, truth = generate_scenario(sid, 0)
        benign_instrs = [ev for ev in trace.events
                         if ev.kind == "instr" and ev.pid == 300]
        benign_calls = [ev for ev in benign_instrs if ev.branch]
        assert benign_instrs and benign_calls
        res = analyze(trace)
        attributed = sum(len(v) for v in res.per_wave_calls.values())
        assert attributed == sum(len(w["calls"]) for w in truth.manifest)
        assert all(rec.pid != 300 for rec in res.collect.calls)


def test_malware_pid_constant():
    trace, _ = generate_scenario("d1", 3)
    assert collect_waves(trace).image.pid == MALWARE_PID
