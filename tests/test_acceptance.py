"""Acceptance suite: one test per criterion, one printed line per verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from pathlib import Path

import pytest

from conftest import (
    TaintedIds,
    bytemap,
    instr_log,
    random_micro_trace,
    taint_step,
)
from oracles import decode, naive_init, naive_tainted, naive_update, read_pe
from waveunpack.pe_builder import build_artifact
from waveunpack.pipeline import analyze, write_outputs
from waveunpack.regroup import group_wave
from waveunpack.scenario_gen import (
    SCENARIO_IDS,
    TARGET_PID,
    expected_ground_truth,
    generate_scenario,
)
from waveunpack.taint_engine import ByteMap, init_taint
from waveunpack.trace_model import TraceEvent
from waveunpack.wave_collector import (
    WaveRecord,
    collect_waves,
    verify_wave_semantics,
)

SEEDS = range(100)

TABLE = {
    "d1": (1, 2, 5, 3), "d2": (1, 2, 5, 3), "d3": (1, 3, 5, 3),
    "d4": (1, 3, 5, 3), "c1": (2, 2, 6, 3), "c2": (2, 2, 6, 3),
    "c4": (2, 2, 1, 1), "c5": (2, 2, 5, 3), "m1": (2, 3, 6, 3),
}


def _verdict(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}", file=sys.stderr)


@pytest.fixture(scope="module")
def full_sweep():
    """One pipeline run per (scenario, seed); shared by criteria 1, 2 and 5."""
    runs = {}
    for sid in SCENARIO_IDS:
        for seed in SEEDS:
            t0 = time.perf_counter()
            trace, truth = generate_scenario(sid, seed)
            result = analyze(trace)
            elapsed = time.perf_counter() - t0
            runs[(sid, seed)] = (trace, truth, result, elapsed)
    return runs


def test_criterion_1_ground_truth_table(full_sweep):
    slowest = 0.0
    for (sid, seed), (_, truth, result, elapsed) in full_sweep.items():
        summary = result.report["summary"]
        final = summary["final_wave"]
        got = (summary["procs"], summary["waves"], final["api_calls"],
               final["iat_size"])
        assert got == TABLE[sid], f"{sid} seed {seed}: {got} != {TABLE[sid]}"
        assert elapsed < 1.0, f"{sid} seed {seed}: {elapsed:.3f}s >= 1s"
        slowest = max(slowest, elapsed)
    _verdict(1, f"9 scenarios x {len(SEEDS)} seeds match the expectation "
                f"table exactly; slowest run {slowest * 1000:.0f} ms")


def test_criterion_2_wave_semantics(full_sweep):
    for (sid, seed), (trace, _, result, _) in full_sweep.items():
        assert result.violations == [], f"{sid} seed {seed}"

    # constructed counterexamples, one per requirement
    image = TraceEvent(kind="image", pid=1, base=0x400000, gbase=0x1000,
                       name="t.exe", bytes=b"\x90\x90")

    def rec(pid, widx, instrs, shadow, twrites):
        return WaveRecord(pid=pid, wave_index=widx, instrs=instr_log(instrs),
                          shadow_pairs=bytemap(shadow),
                          twrite_pairs=bytemap(twrites), page_dumps={})

    r1 = (1, 0x400000, b"\x90")
    stray = (9, 0x400001, b"\x90")
    missing = verify_wave_semantics(
        [rec(1, 0, [r1], {0x400000: 0x90}, {})],
        [rec(1, 0, [r1, stray], {0x400000: 0x90}, {})], image)
    assert any(v.bullet == 1 for v in missing)

    overlap = verify_wave_semantics(
        [rec(1, 0, [(5, 0x400000, b"\x90")], {0x400000: 0x90}, {}),
         rec(1, 1, [(4, 0x400001, b"\x90")], {0x400001: 0x90}, {})],
        [], image)
    assert any(v.bullet == 2 for v in overlap)

    provenance = verify_wave_semantics(
        [rec(1, 0, [r1], {0x400000: 0x90, 0x600000: 0x41}, {}),
         rec(1, 1, [(2, 0x400001, b"\x90")], {0x400001: 0x90},
             {0x600000: 0x41})],
        [], image)
    assert any(v.bullet == 3 and v.wave_index == 0 for v in provenance)

    coverage = verify_wave_semantics(
        [rec(1, 0, [(1, 0x400000, b"\x90\x90")],
             {0x400000: 0x90}, {})], [], image)
    assert any(v.bullet == 4 for v in coverage)

    _verdict(2, f"zero violations across {len(full_sweep)} runs; all four "
                f"constructed counterexamples detected")


def test_criterion_3_taint_oracle_equivalence():
    read_ids = TaintedIds()

    def naive_matches(pset, state):
        mem, regs = state
        return (mem == read_ids(pset.tainted_mem)
                and len(pset.tainted_mem) == len(mem)
                and pset.tainted_regs == regs)

    events_checked = 0
    for seed in range(50):
        trace = random_micro_trace(seed, 1000)
        image = collect_waves(trace).image
        pset = init_taint(image)
        state = naive_init(image)
        tw_prod: dict = {}
        tw_ref: dict = {}
        read_tw = defaultdict(TaintedIds)  # one reader per pid's map
        for ev in [ev for ev in trace.events if ev.kind == "instr"]:
            assert (taint_step(ev, pset, tw_prod)
                    == naive_tainted(ev, state)), f"seed {seed} seq {ev.seq}"
            state, tw_ref = naive_update(ev, state, tw_ref)
            assert naive_matches(pset, state), f"seed {seed} seq {ev.seq}"
            # a pid gets its map when it first executes; the oracle's
            # when it first records a write
            written = {pid: m for pid, m in tw_prod.items() if len(m)}
            assert ({pid: read_tw[pid](m) for pid, m in written.items()}
                    == tw_ref), f"seed {seed} seq {ev.seq}"
            assert all(len(m) == len(tw_ref[pid])
                       for pid, m in written.items()), f"seed {seed} seq {ev.seq}"
            events_checked += 1
    _verdict(3, f"engines agree on (P, T, inclusion) after every one of "
                f"{events_checked} events across 50 micro-traces")


def test_criterion_4_benign_writer_wave_captured():
    for seed in (0, 17, 63):
        trace, _ = generate_scenario("c4", seed)
        pset = init_taint(collect_waves(trace).image)
        tw: dict = {}
        writers = []
        for ev in [ev for ev in trace.events if ev.kind == "instr"]:
            tainted = taint_step(ev, pset, tw)
            if ev.pid == TARGET_PID and any(w.space_pid == TARGET_PID
                                            for w in ev.writes):
                assert not tainted
                writers.append(ev.seq)
        assert writers, "c4 must write the payload through benign code"
        result = analyze(trace)
        waves = [r for r in result.collect.records if r.pid == TARGET_PID]
        assert len(waves) == 1 and len(waves[0].instrs) >= 1
        assert not set(waves[0].instrs.seqs) & set(writers)
    _verdict(4, "c4 payload writers are untainted, injected wave captured")


def test_criterion_5_attribution_matches_manifest(full_sweep):
    for (sid, seed), (_, truth, result, _) in full_sweep.items():
        want = {(w["pid"], w["wave"]): w["calls"] for w in truth.manifest}
        got = {key: [c.qualified_name for c in calls]
               for key, calls in result.per_wave_calls.items()}
        assert got == want, f"{sid} seed {seed}"
        assert all(rec.pid != 300 for rec in result.collect.calls)
    _verdict(5, "attributed call lists equal the planted manifests exactly; "
                "benign calls land in zero waves")


def test_criterion_6_page_grouping_worked_example():
    page = 4096
    tainted = [0x7768000, 0x7751000, 0x7731000, 0x7557000, 0x7551000,
               0x6201000, 0x6200000, 0x5901000, 0x5303000, 0x5302000,
               0x5301000, 0x5300000]
    dumps = {p: bytes(page) for p in tainted}
    code = bytearray(page)
    code[0:5] = b"\x68\x00\x00\x20\x06"  # push of the related region
    code[5] = 0xC3
    dumps[0x5300000] = bytes(code)
    instrs = instr_log([(1, 0x5300000, b"\x68\x00\x00\x20\x06"),
                        (2, 0x5300005, b"\xc3"),
                        (3, 0x5301000, b"\x90")])
    shadow = {v: dumps[v - v % page][v % page]
              for v in list(range(0x5300000, 0x5300006)) + [0x5301000]}
    for p in tainted:
        shadow.setdefault(p, 0)
    wave = WaveRecord(pid=1, wave_index=0, instrs=instrs,
                      shadow_pairs=bytemap(shadow), twrite_pairs=ByteMap(),
                      page_dumps=dumps)

    grouping = group_wave(wave, page, [])
    assert len(grouping.kept) == 1
    art = build_artifact(grouping.kept[0])
    pe = read_pe(art.data)
    assert [(s.name, s.vaddr) for s in pe.sections] == \
        [(".idata", 0x1000), (".wseg0", 0x5300000), (".wseg1", 0x6200000)]
    _verdict(6, "worked example rebuilds one PE: .idata plus sections at "
                "0x5300000 and 0x6200000")


def _iter_artifacts(runs):
    for (sid, seed), (trace, truth, result, _) in runs.items():
        for out in result.outputs:
            for art in out.artifacts:
                yield sid, seed, out, art


@pytest.fixture(scope="module")
def pe_sample(full_sweep):
    sample = {k: v for k, v in full_sweep.items() if k[1] < 10}
    return list(_iter_artifacts(sample))


def test_criterion_7_pe_validity(pe_sample):
    checked = patched_sites = 0
    for sid, seed, out, art in pe_sample:
        pe = read_pe(art.data)  # raises on broken header or import chains
        assert pe.machine == 0x14C and pe.magic == 0x10B
        assert pe.image_base == 0
        assert pe.section_align == 0x1000 and pe.file_align == 0x200
        # one .wsegN per interval, in the group's order, and the .idata
        wsegs = {s.name: (s.vaddr, s.vsize) for s in pe.sections
                 if s.name != ".idata"}
        assert wsegs == {f".wseg{i}": (iv.base, iv.end - iv.base)
                         for i, iv in enumerate(art.group.intervals)}
        assert len(pe.sections) == len(wsegs) + 1
        assert pe.entry == art.group.entry

        # each module's called functions, once each, in call order
        want_imports: dict[str, list[str]] = {}
        for call in art.group.calls:
            fns = want_imports.setdefault(call.module_name, [])
            if call.function_name not in fns:
                fns.append(call.function_name)
        assert pe.imports == want_imports

        for entry in art.sidecar:
            if entry.get("kind") != "api" or not entry["patched"]:
                continue
            patched_sites += 1
            site = pe.read_va(entry["caller_vaddr"], entry["len"])
            ins = decode(site, entry["caller_vaddr"])
            assert ins.length == 6 and ins.mnemonic in ("call", "jmp")
            assert ins.abs_ref == entry["slot_rva"]
            dll, fn = pe.iat_slots[ins.abs_ref]
            assert f"{dll}!{fn}" == entry["function"]
            # a patched slot names the only function its site reached
            reached = {c.qualified_name for c in art.group.calls
                       if c.caller_vaddr == entry["caller_vaddr"]}
            assert reached == {entry["function"]}
        checked += 1
    assert checked and patched_sites
    _verdict(7, f"{checked} PE files reparsed by the independent reader; "
                f"{patched_sites} patched sites resolve to the observed API")


def test_pe_header_sizes_and_directories(pe_sample):
    # every emitted PE: SizeOfCode counts the .wseg sections, the import
    # table is the initialized data, and its directories lie inside it
    for sid, seed, _, art in pe_sample:
        pe = read_pe(art.data)
        idata = next(s for s in pe.sections if s.name == ".idata")
        wsegs = [s for s in pe.sections if s.name.startswith(".wseg")]
        assert len(wsegs) == len(pe.sections) - 1, (sid, seed)
        assert pe.size_of_code == sum(s.vsize for s in wsegs), (sid, seed)
        assert pe.size_of_init_data == idata.vsize, (sid, seed)
        for rva, size in (pe.import_dir, pe.iat_dir):
            assert idata.vaddr <= rva <= rva + size <= idata.vaddr + idata.vsize, \
                (sid, seed, rva, size)


def test_criterion_8_patch_rules(full_sweep):
    # six-byte sites rewritten in place: every other byte as dumped
    for sid in ("d1", "c5"):
        trace, truth, result, _ = full_sweep[(sid, 0)]
        final = result.final_wave()
        out = next(o for o in result.outputs if o.record is final)
        for art in out.artifacts:
            patched_ranges = []
            for e in art.sidecar:
                if e.get("kind") == "api" and e["patched"]:
                    assert e["len"] == 6
                    patched_ranges.append((e["caller_vaddr"], 6))
            pe = read_pe(art.data)
            wsegs = sorted((s for s in pe.sections
                            if s.name.startswith(".wseg")),
                           key=lambda s: s.vaddr)
            intervals = sorted(art.group.intervals, key=lambda iv: iv.base)
            assert [(s.vaddr, s.vsize) for s in wsegs] == \
                [(iv.base, iv.end - iv.base) for iv in intervals]
            for sec, iv in zip(wsegs, intervals):
                data = sec.data[:sec.vsize]
                assert len(data) == len(iv.bytes)
                diff = [i for i, (a, b) in
                        enumerate(zip(data, iv.bytes)) if a != b]
                for off in diff:
                    va = sec.vaddr + off
                    assert any(lo <= va < lo + ln
                               for lo, ln in patched_ranges), \
                        f"{sid}: unexpected byte change at {va:#x}"
            short = [e for e in art.sidecar
                     if e.get("kind") == "api" and e["len"] < 6]
            assert short and all(e["patched"] is False for e in short)

    # the push/ror/ret pattern lands in the sidecar at the ret site
    trace, _, result, _ = full_sweep[("d1", 0)]
    final = result.final_wave()
    out = next(o for o in result.outputs if o.record is final)
    ret_entries = [e for e in out.artifacts[0].sidecar
                   if e.get("kind") == "api" and e["len"] == 1]
    assert ret_entries and all(not e["patched"] for e in ret_entries)
    assert ret_entries[0]["function"] == "kernel32!ExitProcess"
    ret_code = next(code for vaddr, code in final.instrs.code
                    if vaddr == ret_entries[0]["caller_vaddr"])
    assert ret_code == b"\xc3"
    _verdict(8, "6-byte sites rewritten in place, shorter sites (including "
                "the push/ror/ret pattern) only recorded")


def test_criterion_9_determinism(tmp_path):
    for sid in ("d2", "m1"):
        trace, _ = generate_scenario(sid, 4)
        dirs = []
        for name in ("a", "b"):
            out = tmp_path / sid / name
            write_outputs(analyze(trace), out, no_timing=True)
            dirs.append(out)
        files = sorted(p.relative_to(dirs[0]) for p in dirs[0].rglob("*")
                       if p.is_file())
        assert files
        for rel in files:
            assert (dirs[0] / rel).read_bytes() == \
                (dirs[1] / rel).read_bytes(), f"{sid}: {rel} differs"
    _verdict(9, "repeated runs produce byte-identical PE files and reports")
