from __future__ import annotations

import gc
import io
import json
import random
import struct
import tracemalloc

from conftest import bytemap, holds
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import read_pe
import pytest

from waveunpack.pipeline import (
    _BATCH,
    _instr_line,
    _pair_chunks,
    analyze,
    check_outputs,
    tree_place,
    write_outputs,
)
from waveunpack.scenario_gen import (
    BENIGN_PID,
    MALWARE_PID,
    PAGE,
    TARGET_PID,
    TID,
    BenignCode,
    Op,
    TraceBuilder,
    generate_scenario,
    push_writer,
)
from waveunpack.trace_model import Branch, iter_trace, write_trace
from waveunpack.taint_engine import CHUNK_SIZE, ByteMap
from waveunpack.wave_collector import InstrRef


def _final_output(result):
    final = result.final_wave()
    return next(o for o in result.outputs if o.record is final)


class TestStaticStage:
    def test_d1_final_group_has_three_imports(self, d1_run):
        _, _, result = d1_run
        out = _final_output(result)
        assert len(out.artifacts) == 1
        assert out.artifacts[0].import_table.unique_count == 3

    def test_c4_group_has_one_import_and_one_sidecar_entry(self):
        trace, _ = generate_scenario("c4", 0)
        result = analyze(trace)
        out = _final_output(result)
        art = out.artifacts[0]
        assert art.import_table.unique_count == 1
        api_entries = [e for e in art.sidecar if e["kind"] == "api"]
        assert len(api_entries) == 1
        assert api_entries[0]["function"] == "kernel32!LoadLibraryA"

    def test_wave_zero_pe_emitted_without_calls(self, d1_run):
        _, _, result = d1_run
        first = result.outputs[0]
        assert result.per_wave_calls[(first.record.pid,
                                      first.record.wave_index)] == []
        assert first.artifacts
        assert first.artifacts[0].import_table.unique_count == 0

    def test_entry_points_are_first_in_range(self, d1_run):
        _, _, result = d1_run
        for out in result.outputs:
            for art in out.artifacts:
                hits = [r for r in out.record.instrs
                        if holds(art.group, r.vaddr)]
                assert art.group.entry == hits[0].vaddr

    def test_call_running_onto_undumped_page_is_imported_unpatched(self):
        # a 6-byte call whose last two bytes lie on a page never dumped
        tb = TraceBuilder()
        image = tb.image_region(MALWARE_PID, 0x400000)
        site = b"\xff\x15\x00\x10\x40\x00"
        tb.module(MALWARE_PID, 0x77000000, "kernel32", {"ExitProcess": 0x100})
        tb.emit_image(image, b"\x90" + bytes(PAGE - 5) + site[:4], "one.exe")
        tb.instr(MALWARE_PID, TID, 0x400000, image.g, b"\x90")
        tb.instr(MALWARE_PID, TID, 0x400FFC, image.g + 0xFFC, site,
                 branch=Branch(0x77000100, "call"))
        tb.procexit(MALWARE_PID)
        result = analyze(tb.build())
        group = result.report["processes"][0]["waves"][0]["groups"][0]
        assert (group["iat_size"], group["sidecar_entries"],
                group["patched_sites"]) == (1, 1, 0)
        api = [e for e in result.outputs[0].artifacts[0].sidecar
               if e["kind"] == "api"]
        assert [(e["len"], e["patched"]) for e in api] == [(6, False)]

    @pytest.mark.parametrize("site", [b"\xff\x15\x00\x08\x40\x00",  # call [0x400800]
                                      b"\xff\xd0"])  # call eax
    def test_site_reaching_two_functions_is_listed_twice_unpatched(
            self, site, tmp_path):
        trace = _two_function_site_trace(site)
        result = analyze(trace)
        art = result.outputs[0].artifacts[0]
        assert art.import_table.entries == [("kernel32",
                                             ["Sleep", "ExitProcess"])]
        slots = art.import_table.slots
        api = [(e["caller_vaddr"], e["len"], e["function"], e["slot_rva"],
                e["patched"]) for e in art.sidecar if e["kind"] == "api"]
        assert api == [
            (0x400001, len(site), "kernel32!Sleep", slots[("kernel32", "Sleep")],
             False),
            (0x400001, len(site), "kernel32!ExitProcess",
             slots[("kernel32", "ExitProcess")], False)]
        assert read_pe(art.data).read_va(0x400001, len(site)) == site
        group = result.report["processes"][0]["waves"][0]["groups"][0]
        assert (group["iat_size"], group["sidecar_entries"],
                group["patched_sites"]) == (2, 2, 0)
        write_outputs(result, tmp_path / "o")
        assert check_outputs(trace, tmp_path / "o") == ([], [])

    def test_final_wave_is_latest_by_sequence(self):
        trace, _ = generate_scenario("m1", 5)
        result = analyze(trace)
        final = result.final_wave()
        assert (final.pid, final.wave_index) == (TARGET_PID, 1)
        assert final.last_seq == max(r.last_seq
                                     for r in result.collect.records)

    def test_dropped_data_pages_reported(self):
        # c5 stages its payload through table pages that never execute
        trace, _ = generate_scenario("c5", 0)
        result = analyze(trace)
        malware_wave = result.outputs[0]
        assert malware_wave.record.pid == 100
        assert malware_wave.grouping.dropped_pages
        report_waves = result.report["processes"][0]["waves"]
        assert report_waves[0]["dropped_pages"] == \
            malware_wave.grouping.dropped_pages

    def test_injected_pe_carries_patched_slot(self):
        trace, _ = generate_scenario("c1", 1)
        result = analyze(trace)
        out = _final_output(result)
        pe = read_pe(out.artifacts[0].data)
        assert pe.imports == {"kernel32": ["GetModuleHandleA",
                                           "GetProcAddress", "ExitProcess"]}

    def test_d2_links_code_to_its_data_region(self):
        trace, truth = generate_scenario("d2", 2)
        assert truth.xref_link
        result = analyze(trace)
        out = _final_output(result)
        assert len(out.artifacts) == 1
        art = out.artifacts[0]
        assert len(art.group.intervals) == 2
        xrefs = [e for e in art.sidecar if e["kind"] == "xref"]
        data_iv = art.group.intervals[1]
        assert any(data_iv.base <= e["target"] < data_iv.end for e in xrefs)
        pe = read_pe(art.data)
        assert len(pe.sections) == 3  # .idata, code, string data


class TestReport:
    def test_counts_recomputable_from_artifacts(self, d1_run):
        _, _, result = d1_run
        summary = result.report["summary"]
        assert summary["pe_files"] == sum(len(o.artifacts)
                                          for o in result.outputs)
        assert summary["waves"] == len(result.collect.records)
        assert summary["api_calls"] == len(result.collect.calls)

    def test_timing_present_then_stripped(self, d1_run, tmp_path):
        trace, _, result = d1_run
        assert "timing" in result.report
        written = write_outputs(result, tmp_path / "o", no_timing=True)
        assert "timing" not in written
        on_disk = json.loads((tmp_path / "o" / "report.json").read_text())
        assert "timing" not in on_disk


def _pairs(n: int, step: int) -> dict[int, int]:
    base = 0x400000 - CHUNK_SIZE // 2
    return {base + step * i: (i * 31) % 256 for i in range(n, 0, -1)}


@pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2500])
def test_pair_file_matches_json_dump(n):
    # batched encoding must give the bytes of one json.dumps of the sorted
    # pairs, here one run per pair
    pairs = _pairs(n, 7)
    assert b"".join(_pair_chunks(bytemap(pairs))) == \
        json.dumps(sorted(pairs.items())).encode()


@pytest.mark.parametrize("n", [1023, 1024, 1025, 2500])
def test_pair_file_of_one_run_matches_json_dump(n):
    pairs = _pairs(n, 1)  # one run across chunks
    assert b"".join(_pair_chunks(bytemap(pairs))) == \
        json.dumps(sorted(pairs.items())).encode()


def test_pair_file_of_gapped_runs_matches_json_dump():
    pairs = ByteMap()
    for start in (0, 0x3FF, CHUNK_SIZE * 5 - 3, 0xFFFFFFF0):
        pairs.store(start, bytes((start + i) % 251 for i in range(0x300)))
    assert b"".join(_pair_chunks(pairs)) == \
        json.dumps(sorted(pairs.items())).encode()


# addresses a run is drawn across: a chunk edge, a change of decimal width
# (0 -> 10, 99 -> 100, 9_999_999 -> 10_000_000) and the top of 32 bits
_PAIR_EDGES = (0, 10, 100, CHUNK_SIZE * 5, 10_000_000, 1 << 32)


@st.composite
def _pair_maps(draw):
    """A ByteMap of up to 4 runs, and the dict of the pairs it holds."""
    pairs, model = ByteMap(), {}
    for _ in range(draw(st.integers(0, 4))):
        length = draw(st.integers(1, 2 * _BATCH + 3))
        start = draw(st.sampled_from(_PAIR_EDGES)) - draw(st.integers(0, length))
        start = min(max(start, 0), (1 << 32) - length)
        salt = draw(st.integers(0, 255))
        data = bytes((salt + 7 * i) % 256 for i in range(length))
        pairs.store(start, data)
        model.update(zip(range(start, start + length), data))
    return pairs, model


@settings(max_examples=150, deadline=None)
@given(_pair_maps())
def test_pair_file_matches_json_dump_of_random_runs(drawn):
    pairs, model = drawn
    assert b"".join(_pair_chunks(pairs)) == \
        json.dumps(sorted(model.items())).encode()


@pytest.mark.parametrize("seq, vaddr, code", [
    (0, 0x400000, b"\x90"),
    (1, 0xFFFFFFFF, b"\xcc"),
    (0, 0xFFFFFFFF, bytes(range(0xF1, 0x100))),
    (2 ** 40, 0, bytes(15)),
    (7, 0x401000, b"\xff\x15\x00\x10\x40\x00"),
])
def test_instr_line_matches_json_dumps(seq, vaddr, code):
    line = _instr_line(InstrRef(seq, 1, vaddr, code))
    assert line == json.dumps({"seq": seq, "vaddr": vaddr, "bytes": code.hex()},
                              sort_keys=True) + "\n"


class TestCheckOutputs:
    def test_round_trip_clean(self, d1_run, tmp_path):
        trace, _, result = d1_run
        write_outputs(result, tmp_path / "o")
        issues, violations = check_outputs(trace, tmp_path / "o")
        assert issues == [] and violations == []

    def test_detects_shadow_tampering(self, d1_run, tmp_path):
        trace, _, result = d1_run
        write_outputs(result, tmp_path / "o")
        shadow = tmp_path / "o" / "pid100" / "wave0" / "shadow.json"
        pairs = json.loads(shadow.read_text())
        pairs[0][1] = (pairs[0][1] + 1) % 256
        shadow.write_text(json.dumps(pairs))
        issues, violations = check_outputs(trace, tmp_path / "o")
        assert any("shadow" in i for i in issues)
        assert violations  # tampered byte also breaks provenance checks


@pytest.mark.parametrize("rel, place", [
    ("../elsewhere.log", "outside"), ("taint.log", "inside"),
    ("logs/taint.log", "inside"), ("report.json.bak", "inside"),
    ("pid", "inside"), (".", "owned"), ("report.json", "owned"),
    ("api_calls.jsonl", "owned"), ("pid100", "owned"),
    ("pid100/wave0/taint.log", "owned"), ("pid-3/x", "owned"),
    ("logs/../api_calls.jsonl", "owned"), ("../loop", "outside"),
    ("../loop/x", "outside"), ("../dangling", "owned")])
def test_tree_place(rel, place, tmp_path):
    out = tmp_path / "out"  # need not exist
    (tmp_path / "loop").symlink_to("loop")
    (tmp_path / "dangling").symlink_to("out/pid100/taint.log")
    assert tree_place(f"{out}/{rel}", out) == place
    (tmp_path / "link").symlink_to(out, target_is_directory=True)
    assert tree_place(f"{tmp_path}/link/{rel}", out) == place


def _two_function_site_trace(site: bytes):
    """A one-page image at 0x400000: a nop, then the call `site` at
    0x400001, which runs twice, reaching kernel32!Sleep and then
    kernel32!ExitProcess."""
    tb = TraceBuilder()
    image = tb.image_region(MALWARE_PID, 0x400000)
    k32 = 0x77000000
    tb.module(MALWARE_PID, k32, "kernel32",
              {"Sleep": 0x1A00, "ExitProcess": 0x1200})
    content = bytearray(PAGE)
    content[:1 + len(site)] = b"\x90" + site
    tb.emit_image(image, bytes(content), "two.exe")
    tb.instr(MALWARE_PID, TID, 0x400000, image.g, b"\x90")
    ret = 0x400001 + len(site)
    for target in (k32 + 0x1A00, k32 + 0x1200):
        tb.instr(MALWARE_PID, TID, 0x400001, image.g + 1, site,
                 branch=Branch(target, "call"), stack_top=ret)
    tb.procexit(MALWARE_PID)
    return tb.build()


def _big_image_trace(pages: int):
    """A random image of `pages` pages whose stub pushes a few nops into a
    generated page and jumps there: two waves, the first the whole image."""
    rng = random.Random(5)
    tb = TraceBuilder()
    base = 0x400000
    image = tb.image_region(MALWARE_PID, base, pages * PAGE)
    gen = tb.region(rng, [MALWARE_PID])
    entry = gen.addr(MALWARE_PID)
    stub = push_writer(gen, MALWARE_PID, 0, b"\x90" * 16)
    code = b"".join(op.code for op in stub)
    jmp = b"\xe9" + struct.pack("<i", entry - (base + len(code)) - 5)
    content = bytearray(rng.randbytes(pages * PAGE))
    content[:len(code) + len(jmp)] = code + jmp
    tb.emit_image(image, bytes(content), "big.exe")
    tb.run_plan(MALWARE_PID, TID, image, 0, stub)
    tb.instr(MALWARE_PID, TID, base + len(code), image.g + len(code), jmp,
             branch=Branch(entry, "jmp"))
    tb.run_plan(MALWARE_PID, TID, gen, 0, [Op(code=b"\x90")] * 16)
    tb.procexit(MALWARE_PID)
    return tb.build()


def test_shadow_memory_is_not_held_per_byte(tmp_path):
    # a 128 KiB image held as a per-byte dict costs about 10 MB after
    # analyze and as much again to render; per chunk, under 1 MB each
    trace = _big_image_trace(32)
    gc.collect()
    tracemalloc.start()
    try:
        result = analyze(trace)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        write_outputs(result, tmp_path / "o", no_timing=True)
        write_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert result.report["summary"]["waves"] == 2 and not result.violations
    assert held < 3_000_000
    assert write_peak < 3_000_000


def _packer_then_background(benign: int) -> bytes:
    """A two-wave packer, then `benign` instructions of a benign process
    while the image is still tainted, as trace file bytes."""
    rng = random.Random(2)
    tb = TraceBuilder()
    image = tb.image_region(MALWARE_PID, 0x400000)
    gen = tb.region(rng, [MALWARE_PID])
    stub = push_writer(gen, MALWARE_PID, 0, b"\x90" * 16)
    code = b"".join(op.code for op in stub)
    jmp = b"\xe9" + struct.pack("<i", gen.addr(MALWARE_PID) - 0x400000
                                 - len(code) - 5)
    tb.emit_image(image, (code + jmp).ljust(PAGE, b"\xcc"), "packer.exe")
    tb.run_plan(MALWARE_PID, TID, image, 0, stub)
    tb.instr(MALWARE_PID, TID, 0x400000 + len(code), image.g + len(code), jmp,
             branch=Branch(gen.addr(MALWARE_PID), "jmp"))
    tb.run_plan(MALWARE_PID, TID, gen, 0, [Op(code=b"\x90")] * 16)
    tb.procexit(MALWARE_PID)
    BenignCode(tb, BENIGN_PID, TID, 0x71000000).nops(benign)
    return write_trace(tb.build())


class _LineCount:
    """A taint log that only counts its lines."""

    lines = 0

    def write(self, text):
        self.lines += text.count("\n")


def test_streamed_analyze_memory_is_bounded_by_live_state():
    # the events are read as they are replayed, so four times the benign
    # tail costs no more memory
    peaks = []
    for benign in (1000, 4000):
        stream = io.BytesIO(_packer_then_background(benign))
        log = _LineCount()
        gc.collect()
        tracemalloc.start()
        try:
            result = analyze(iter_trace(stream), taint_log=log)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert result.report["summary"]["waves"] == 2
        # taint stays alive, so every instruction is replayed
        assert log.lines == len(result.collect.mtrace) + benign
    assert peaks[1] <= 1.2 * peaks[0], peaks
