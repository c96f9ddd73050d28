from __future__ import annotations

import functools
import random
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import TaintedIds, bytemap
from oracles import reference_classify_case, reference_verify_wave_semantics
from waveunpack.scenario_gen import (
    MALWARE_PID,
    PAGE,
    SCENARIO_IDS,
    TARGET_PID,
    TID,
    TraceBuilder,
    generate_scenario,
)
from waveunpack.taint_engine import CHUNK_SIZE, ByteMap
from waveunpack.trace_model import (
    Branch,
    MemLoc,
    ObservedMemory,
    SystemTrace,
    TraceEvent,
)
from waveunpack.wave_collector import (
    InstrRef,
    ProcessState,
    WaveRecord,
    classify_case,
    collect_waves,
    dump_wave,
    verify_wave_semantics,
)


def _instr(seq=1, pid=1, vaddr=0x400000, gaddr=0x1000, code=b"\x90", **kw):
    return TraceEvent(kind="instr", pid=pid, seq=seq, tid=1, vaddr=vaddr,
                      gaddr=gaddr, bytes=code, **kw)


def _waves_of(result, pid):
    return [r for r in result.records if r.pid == pid]


class TestClassifyCase:
    def test_unknown_memory_is_case1(self):
        state = ProcessState(pid=1)
        assert classify_case(_instr(vaddr=0x600000), state) == 1

    def test_fresh_tainted_write_is_case2(self):
        state = ProcessState(pid=1, twrites=bytemap({0x600000: 0x90}))
        assert classify_case(_instr(vaddr=0x600000), state) == 2

    def test_overwritten_code_is_case3(self):
        state = ProcessState(pid=1, shadow=bytemap({0x600000: 0xCC}),
                             twrites=bytemap({0x600000: 0x90}))
        assert classify_case(_instr(vaddr=0x600000, code=b"\x90"), state) == 3

    def test_consistent_shadow_is_case4(self):
        state = ProcessState(pid=1, shadow=bytemap({0x600000: 0x90}))
        assert classify_case(_instr(vaddr=0x600000), state) == 4

    def test_rewritten_with_same_bytes_is_case4(self):
        state = ProcessState(pid=1, shadow=bytemap({0x600000: 0x90}),
                             twrites=bytemap({0x600000: 0x90}))
        assert classify_case(_instr(vaddr=0x600000), state) == 4

    def test_span_straddling_fresh_write_is_case2(self):
        # last byte of the encoding was freshly generated
        state = ProcessState(pid=1,
                             shadow=bytemap({0x600000: 0xB8, 0x600001: 1,
                                             0x600002: 2, 0x600003: 3}),
                             twrites=bytemap({0x600004: 4}))
        ev = _instr(vaddr=0x600000, code=b"\xb8\x01\x02\x03\x04")
        assert classify_case(ev, state) == 2


class TestDumpWave:
    def test_d1_first_wave_shadow_is_image(self):
        trace, _ = generate_scenario("d1", 9)
        result = collect_waves(trace)
        image = result.image
        first = _waves_of(result, MALWARE_PID)[0]
        assert dict(first.shadow_pairs.items()) == \
            {image.base + i: b for i, b in enumerate(image.bytes)}
        assert first.wave_index == 0

    def test_rotation_and_trigger(self):
        state = ProcessState(pid=1, shadow=bytemap({0x400000: 0xCC}),
                             twrites=bytemap({0x600000: 0x90}),
                             cur_instrs=[InstrRef(1, 1, 0x400000, b"\xcc")])
        observed = ObservedMemory()
        trigger = InstrRef(2, 1, 0x600000, b"\x90")
        rec = dump_wave(state, trigger, observed, 4096)
        assert rec is not None and rec.wave_index == 0
        assert dict(rec.twrite_pairs.items()) == {0x600000: 0x90}
        assert 0x400000 in rec.page_dumps and 0x600000 in rec.page_dumps
        assert dict(state.shadow.items()) == {0x600000: 0x90}
        assert len(state.twrites) == 0 and not list(state.twrites.items())
        assert state.cur_instrs == [trigger]
        assert state.wave_index == 1

    def test_flush_with_empty_wave_emits_nothing(self):
        state = ProcessState(pid=1, twrites=bytemap({0x600000: 1}))
        assert dump_wave(state, None, ObservedMemory(), 4096) is None
        assert state.wave_index == 0
        assert dict(state.shadow.items()) == {0x600000: 1}

    def test_record_unaffected_by_later_state_changes(self):
        # the record takes over the state's shadow, tainted writes and
        # instruction list
        state = ProcessState(pid=1, shadow=bytemap({0x400000: 0xCC}),
                             twrites=bytemap({0x600000: 0x90}),
                             cur_instrs=[InstrRef(1, 1, 0x400000, b"\xcc")])
        rec = dump_wave(state, InstrRef(2, 1, 0x600000, b"\x90"),
                        ObservedMemory(), 4096)
        state.shadow[0x400000] = 0x00
        state.shadow[0x700000] = 0x01
        state.twrites[0x600000] = 0x00
        state.twrites[0x700000] = 0x01
        state.cur_instrs.append(InstrRef(3, 1, 0x700000, b"\x01"))
        assert dict(rec.shadow_pairs.items()) == {0x400000: 0xCC}
        assert dict(rec.twrite_pairs.items()) == {0x600000: 0x90}
        assert rec.instrs == [InstrRef(1, 1, 0x400000, b"\xcc")]
        assert rec.entry_vaddr == 0x400000

    def test_record_takes_the_twrites_map(self):
        # the closed wave keeps the state's map itself; the state gets a
        # new, empty one
        tw = bytemap({0x600000: 1})
        state = ProcessState(pid=1, twrites=tw,
                             cur_instrs=[InstrRef(1, 1, 0x600000, b"\x90")])
        rec = dump_wave(state, None, ObservedMemory(), 4096)
        assert rec.twrite_pairs is tw
        assert dict(tw.items()) == {0x600000: 1}
        assert state.twrites is not tw
        assert len(state.twrites) == 0 and not list(state.twrites.items())


class TestCollectWaves:
    def test_d1_one_process_two_waves(self):
        trace, _ = generate_scenario("d1", 1)
        result = collect_waves(trace)
        assert {r.pid for r in result.records} == {MALWARE_PID}
        assert len(result.records) == 2

    def test_c1_two_processes_one_wave_each(self):
        trace, _ = generate_scenario("c1", 1)
        result = collect_waves(trace)
        assert {r.pid for r in result.records} == {MALWARE_PID, TARGET_PID}
        assert [len(_waves_of(result, pid))
                for pid in (MALWARE_PID, TARGET_PID)] == [1, 1]

    def test_cross_process_arrival_is_case1_not_new_writer_wave(self):
        trace, _ = generate_scenario("c1", 1)
        result = collect_waves(trace)
        assert len(_waves_of(result, MALWARE_PID)) == 1
        target_wave = _waves_of(result, TARGET_PID)[0]
        # arrival built the shadow from executed instructions only
        own = set()
        for ref in target_wave.instrs:
            own.update(ref.code_pairs())
        assert set(target_wave.shadow_pairs.items()) <= own

    def test_taint_death_ends_collection_with_zero_waves(self):
        image = TraceEvent(kind="image", pid=1, base=0x400000, gbase=0x1000,
                           name="t.exe", bytes=b"\xcc" * 8)
        # a benign write wipes the whole image before anything executes
        wipe = _instr(seq=1, pid=2, vaddr=0x700000, gaddr=0x9000,
                      writes=tuple(MemLoc(g=0x1000 + i, v=0x400000 + i,
                                          space_pid=1, val=0)
                                   for i in range(8)))
        never = _instr(seq=2, pid=1, vaddr=0x400000, gaddr=0x1000)
        trace = SystemTrace(events=[image, wipe, never])
        result = collect_waves(trace)
        assert result.mtrace == []
        assert result.records == []

    def test_closed_wave_twrites_unchanged_by_the_next_wave(self):
        # wave 0 writes 0x600000 and runs it; wave 1's write must land in
        # the new map the taint engine is given, not in wave 0's record
        image = TraceEvent(kind="image", pid=1, base=0x400000, gbase=0x1000,
                           name="t.exe", bytes=b"\x90" * 16)
        write = _instr(seq=1, writes=(MemLoc(g=0x5000, v=0x600000,
                                             space_pid=1, val=0x90),))
        run = _instr(seq=2, vaddr=0x600000, gaddr=0x5000,
                     writes=(MemLoc(g=0x5010, v=0x600010, space_pid=1,
                                    val=0xC3),))
        result = collect_waves(SystemTrace(events=[image, write, run]))
        first, second = result.records
        assert dict(first.twrite_pairs.items()) == {0x600000: 0x90}
        assert len(first.twrite_pairs) == 1
        assert dict(second.twrite_pairs.items()) == {0x600010: 0xC3}
        assert dict(second.shadow_pairs.items()) == {0x600000: 0x90}

    def test_partition_property(self):
        trace, _ = generate_scenario("m1", 6)
        result = collect_waves(trace)
        from_waves = sorted(ref.seq for rec in result.records
                            for ref in rec.instrs)
        assert from_waves == [ref.seq for ref in result.mtrace]

    def test_wave_ordering_within_process(self):
        trace, _ = generate_scenario("d3", 2)
        result = collect_waves(trace)
        waves = _waves_of(result, MALWARE_PID)
        for prev, cur in zip(waves, waves[1:]):
            assert prev.last_seq < cur.first_seq

    def test_procexit_flushes_pending_wave(self):
        trace, _ = generate_scenario("d1", 3)
        # the final wave record exists even though the trace ends at procexit
        result = collect_waves(trace)
        assert result.records[-1].wave_index == 1
        assert trace.events[-1].kind == "procexit"


def _mk_record(pid, widx, instrs, shadow, twrites):
    return WaveRecord(pid=pid, wave_index=widx, instrs=instrs,
                      shadow_pairs=bytemap(shadow),
                      twrite_pairs=bytemap(twrites), page_dumps={})


def _without(bmap: ByteMap, vaddr: int) -> ByteMap:
    """A copy of `bmap` with `vaddr` unmapped."""
    pairs = dict(bmap.items())
    pairs.pop(vaddr, None)
    return bytemap(pairs)


class TestVerifySemantics:
    def test_collector_output_is_compliant(self):
        for sid in ("d1", "d4", "c2", "c4", "m1"):
            trace, _ = generate_scenario(sid, 5)
            result = collect_waves(trace)
            assert verify_wave_semantics(result.records, result.mtrace,
                                         result.image) == []

    def test_bullet1_missing_instruction(self):
        trace, _ = generate_scenario("d1", 0)
        result = collect_waves(trace)
        rec = result.records[1]
        tampered = WaveRecord(rec.pid, rec.wave_index, rec.instrs[:-1],
                              rec.shadow_pairs, rec.twrite_pairs, {})
        records = [result.records[0], tampered]
        violations = verify_wave_semantics(records, result.mtrace,
                                           result.image)
        assert any(v.bullet == 1 for v in violations)

    def test_bullet2_overlapping_waves(self):
        a = _mk_record(1, 0, [InstrRef(5, 1, 0x400000, b"\x90")],
                       {0x400000: 0x90}, {})
        b = _mk_record(1, 1, [InstrRef(4, 1, 0x400001, b"\x90")],
                       {0x400001: 0x90}, {})
        violations = verify_wave_semantics([a, b], [], None)
        assert any(v.bullet == 2 for v in violations)

    def test_bullet3_shadow_from_later_wave(self):
        # wave 0's shadow holds a pair only a later wave ever wrote
        a = _mk_record(1, 0, [InstrRef(1, 1, 0x400000, b"\x90")],
                       {0x400000: 0x90, 0x600000: 0x41}, {})
        b = _mk_record(1, 1, [InstrRef(9, 1, 0x400001, b"\x90")],
                       {0x400001: 0x90}, {0x600000: 0x41})
        image = TraceEvent(kind="image", pid=1, base=0x400000, gbase=0x1000,
                           name="t.exe", bytes=b"\x90\x90")
        violations = verify_wave_semantics([a, b], [], image)
        assert any(v.bullet == 3 and v.wave_index == 0 for v in violations)

    def test_bullet4_instruction_missing_from_shadow(self):
        rec = _mk_record(1, 0, [InstrRef(1, 1, 0x400000, b"\x90\x90")],
                         {0x400000: 0x90}, {})
        violations = verify_wave_semantics([rec], [], None)
        assert any(v.bullet == 4 for v in violations)

    def test_duplicate_assignment_detected(self):
        ref = InstrRef(1, 1, 0x400000, b"\x90")
        a = _mk_record(1, 0, [ref], {0x400000: 0x90}, {})
        b = _mk_record(1, 1, [InstrRef(2, 1, 0x400000, b"\x90"), ref],
                       {0x400000: 0x90}, {})
        violations = verify_wave_semantics([a, b], [], None)
        assert any(v.bullet == 1 for v in violations)


# --- ByteMap against a dict model ---------------------------------------------

# addresses near 0, across chunk boundaries and near 0xFFFFFFFF
_MAP_ADDRS = st.one_of(
    st.integers(0, 3 * CHUNK_SIZE),
    st.integers(5 * CHUNK_SIZE - 20, 5 * CHUNK_SIZE + 20),
    st.integers(0xFFFFFFFF - 2 * CHUNK_SIZE, 0xFFFFFFFF + 16),
)

_MAP_OPS = st.one_of(
    st.tuples(st.just("store"), _MAP_ADDRS,
              st.binary(min_size=0, max_size=2 * CHUNK_SIZE + 3)),
    st.tuples(st.just("set"), _MAP_ADDRS, st.integers(0, 255)),
    st.tuples(st.just("query"), _MAP_ADDRS,
              st.integers(0, 16) | st.integers(0, 2 * CHUNK_SIZE + 3)),
)


def _model_runs(model: dict[int, int]) -> list[tuple[int, bytes]]:
    runs: list[tuple[int, bytearray]] = []
    for v in sorted(model):
        if runs and runs[-1][0] + len(runs[-1][1]) == v:
            runs[-1][1].append(model[v])
        else:
            runs.append((v, bytearray([model[v]])))
    return [(v, bytes(data)) for v, data in runs]


class TestByteMap:
    @settings(max_examples=300, deadline=None)
    @given(ops=st.lists(_MAP_OPS, max_size=25))
    @example(ops=[("set", 0x10, 1), ("store", 0xF0, b"\x02" * 0x20),
                  ("store", 0, b"\x03" * 0x18), ("set", 0x10, 4),
                  ("set", 0x100, 5), ("query", 0, 0x120)])
    def test_matches_dict_model(self, ops):
        # a store over a partly mapped chunk and a write over a mapped byte
        # must count only the addresses they newly map
        bmap, model, read = ByteMap(), {}, TaintedIds()
        for op, vaddr, *arg in ops:
            if op == "store":
                bmap.store(vaddr, arg[0])
                model.update(zip(range(vaddr, vaddr + len(arg[0])), arg[0]))
            elif op == "set":
                bmap[vaddr] = arg[0]
                model[vaddr] = arg[0]
            else:
                span = range(vaddr, vaddr + arg[0])
                assert bmap.isdisjoint(span) == model.keys().isdisjoint(span)
                assert (vaddr in bmap) == (vaddr in model)
                assert bmap.get(vaddr) == model.get(vaddr)
                assert bmap.get(vaddr, -1) == model.get(vaddr, -1)
            assert len(bmap) == len(model)
            assert read(bmap) == model
        assert list(bmap.items()) == sorted(model.items())
        assert list(bmap.runs()) == _model_runs(model)
        for page_size in (0x1000, 0x4000):
            assert bmap.page_bases(page_size) == \
                {v - v % page_size for v in model}
        copy = bmap.copy()
        assert len(copy) == len(bmap)
        assert list(copy.items()) == list(bmap.items())
        assert list(copy.runs()) == list(bmap.runs())

    def test_copy_is_independent(self):
        bmap = bytemap({CHUNK_SIZE - 1: 1, CHUNK_SIZE: 2})
        copy = bmap.copy()
        copy.store(CHUNK_SIZE - 2, b"\x07\x08")
        copy[CHUNK_SIZE + 1] = 9
        assert dict(bmap.items()) == {CHUNK_SIZE - 1: 1, CHUNK_SIZE: 2}
        assert dict(copy.items()) == {CHUNK_SIZE - 2: 7, CHUNK_SIZE - 1: 8,
                                      CHUNK_SIZE: 2, CHUNK_SIZE + 1: 9}

    @pytest.mark.parametrize("value", [-1, 256, 300])
    def test_value_outside_a_byte_is_rejected(self, value):
        bmap = bytemap({0x400000: 1})
        for vaddr in (0x400001, 0x800000):  # a chunk held and a new one
            with pytest.raises(ValueError):
                bmap[vaddr] = value
        assert dict(bmap.items()) == {0x400000: 1}
        assert list(bmap.runs()) == [(0x400000, b"\x01")]


# --- equivalence with the per-byte references in oracles.py ------------------

_WINDOW = 0x600000, 24  # small address window, so spans and maps overlap


@st.composite
def classify_inputs(draw):
    base, size = _WINDOW
    addrs = st.integers(base, base + size - 1)
    values = st.integers(0, 3)
    shadow = draw(st.dictionaries(addrs, values, max_size=size))
    twrites = draw(st.dictionaries(addrs, values, max_size=size))
    vaddr = draw(st.integers(base - 4, base + size - 1))
    code = draw(st.binary(min_size=1, max_size=15))
    if draw(st.booleans()):  # cover the whole span, the only way to case 3
        for v in range(vaddr, vaddr + len(code)):
            shadow.setdefault(v, draw(values))
    return shadow, twrites, vaddr, code


def _copy_records(records: list[WaveRecord]) -> list[WaveRecord]:
    return [WaveRecord(r.pid, r.wave_index, list(r.instrs),
                       r.shadow_pairs.copy(), r.twrite_pairs.copy(), {})
            for r in records]


@functools.cache
def _collected(sid: str, seed: int):
    """Image, records and malware trace of one scenario; copy before editing."""
    trace, _ = generate_scenario(sid, seed)
    result = collect_waves(trace)
    return result.image, result.records, result.mtrace


_FAULTS = ("missing shadow byte", "foreign shadow pair", "overlapping waves",
           "duplicated seq", "instruction in no wave", "repeated encoding",
           "rewritten encoding")


def _inject(draw, fault: str, records: list[WaveRecord], next_seq: int):
    def pick(seq):
        return seq[draw(st.integers(0, len(seq) - 1))]

    rec = pick(records)
    ref = pick(rec.instrs)
    at = draw(st.integers(0, len(rec.instrs)))
    if fault == "missing shadow byte":
        rec.shadow_pairs = _without(
            rec.shadow_pairs, ref.vaddr + draw(st.integers(0, len(ref.bytes) - 1)))
    elif fault == "foreign shadow pair":
        addrs = [v for v, _ in rec.shadow_pairs.items()]
        v = pick(addrs) if addrs else ref.vaddr
        rec.shadow_pairs[v] = (rec.shadow_pairs.get(v, 0)
                               + draw(st.integers(1, 255))) % 256
    elif fault == "overlapping waves":
        # a late instruction pushes this wave past its successor's start
        rec.instrs.append(InstrRef(next_seq, rec.pid, ref.vaddr, ref.bytes))
    elif fault == "duplicated seq":
        rec.instrs.insert(at, pick(pick(records).instrs))
    elif fault == "instruction in no wave":
        if len(rec.instrs) > 1:
            rec.instrs.remove(ref)
    elif fault == "repeated encoding":  # the same (vaddr, bytes) again
        rec.instrs.insert(at, InstrRef(next_seq, rec.pid, ref.vaddr, ref.bytes))
    else:  # other bytes at an executed address
        code = bytes(b ^ 0xFF for b in ref.bytes[:draw(st.integers(1, 15))])
        rec.instrs.insert(at, InstrRef(next_seq, rec.pid, ref.vaddr, code))


@st.composite
def faulty_collections(draw):
    sid = draw(st.sampled_from(SCENARIO_IDS))
    image, records, mtrace = _collected(sid, draw(st.integers(0, 2)))
    records = _copy_records(records)
    next_seq = max((ref.seq for ref in mtrace), default=0) + 1
    for fault in draw(st.lists(st.sampled_from(_FAULTS), max_size=6)):
        if records:
            _inject(draw, fault, records, next_seq)
            next_seq += 1
    return records, mtrace, image if draw(st.booleans()) else None


class TestReferenceEquivalence:
    @settings(max_examples=500, deadline=None)
    @given(classify_inputs())
    def test_classify_case_matches_reference(self, inputs):
        shadow, twrites, vaddr, code = inputs
        state = ProcessState(pid=1, shadow=bytemap(shadow),
                             twrites=bytemap(twrites))
        ev = _instr(vaddr=vaddr, code=code)
        assert classify_case(ev, state) == reference_classify_case(ev, state)

    @settings(max_examples=300, deadline=None)
    @given(faulty_collections())
    def test_verify_matches_reference(self, collection):
        records, mtrace, image = collection
        got = [str(v) for v in verify_wave_semantics(records, mtrace, image)]
        assert got == reference_verify_wave_semantics(records, mtrace, image)

    @pytest.mark.parametrize("fault", _FAULTS)
    def test_each_fault_is_reported_alike(self, fault):
        image, records, mtrace = _collected("d3", 1)
        records = _copy_records(records)
        rec = records[0]
        ref = rec.instrs[0]
        next_seq = mtrace[-1].seq + 1
        if fault == "missing shadow byte":
            rec.shadow_pairs = _without(rec.shadow_pairs, ref.vaddr)
        elif fault == "foreign shadow pair":
            rec.shadow_pairs[ref.vaddr] = rec.shadow_pairs.get(ref.vaddr) ^ 0xFF
        elif fault == "overlapping waves":
            rec.instrs.append(InstrRef(next_seq, rec.pid, ref.vaddr, ref.bytes))
        elif fault == "duplicated seq":
            records[1].instrs.append(ref)
        elif fault == "instruction in no wave":
            rec.instrs.remove(ref)
        elif fault == "rewritten encoding":
            rec.instrs.append(InstrRef(next_seq, rec.pid, ref.vaddr, b"\xcc"))
        else:
            rec.shadow_pairs = _without(rec.shadow_pairs, ref.vaddr)
            rec.instrs += [InstrRef(next_seq + i, rec.pid, ref.vaddr, ref.bytes)
                           for i in range(3)]
        got = [str(v) for v in verify_wave_semantics(records, mtrace, image)]
        assert got, fault
        assert got == reference_verify_wave_semantics(records, mtrace, image)


def chain_trace(stages: int, seed: int = 0) -> SystemTrace:
    """A packer of `stages` generated one-page layers, one wave each.

    Every layer is a 2-byte writer that plants the next layer's code plus
    one never-executed pad byte, then a jmp into it; the image holds the
    first layer and the last layer is a nop. The pad byte is legitimate in
    the next wave's shadow only as an earlier wave's tainted write.
    """
    rng = random.Random(seed)
    tb = TraceBuilder()
    pid = MALWARE_PID
    image = tb.image_region(pid, 0x400000)
    layers = [image] + [tb.region(rng, [pid]) for _ in range(stages)]

    def code(k):
        if k == stages:
            return b"\x90"
        src, dst = layers[k].addr(pid, 2), layers[k + 1].addr(pid)
        return b"\xf3\xa4" + b"\xe9" + struct.pack("<i", dst - src - 5)

    tb.emit_image(image, code(0).ljust(PAGE, b"\0"), "chain.exe")
    for k in range(stages):
        here, nxt = layers[k], layers[k + 1]
        planted = code(k + 1) + b"\xcc"
        tb.instr(pid, TID, here.addr(pid), here.g, code(k)[:2],
                 writes=nxt.locs(pid, 0, planted))
        tb.instr(pid, TID, here.addr(pid, 2), here.g + 2, code(k)[2:],
                 branch=Branch(nxt.addr(pid), "jmp"))
    tb.instr(pid, TID, layers[-1].addr(pid), layers[-1].g, code(stages))
    tb.procexit(pid)
    return tb.build()


def test_verify_matches_reference_on_a_long_chain():
    """About 200 waves, listed out of first_seq order, with one tie of
    first_seq and one foreign pair: the linear walk reports what the
    quadratic specification does, in the same order."""
    result = collect_waves(chain_trace(200))
    assert len(result.records) == 201
    assert verify_wave_semantics(result.records, result.mtrace,
                                 result.image) == []
    records = _copy_records(result.records)
    # wave 51 starts with wave 50's first instruction, so wave 50 is no
    # longer earlier: its pad byte in wave 51's shadow loses provenance
    records[51].instrs.insert(0, records[50].instrs[0])
    pad = records[120].entry_vaddr + 7
    records[120].shadow_pairs[pad] = records[120].shadow_pairs.get(pad) ^ 0xFF
    random.Random(1).shuffle(records)
    for listed in (records, records[::-1]):  # the tie either way round
        got = [str(v) for v in verify_wave_semantics(listed, result.mtrace,
                                                     result.image)]
        assert got == reference_verify_wave_semantics(listed, result.mtrace,
                                                      result.image)
        assert [g.split(":")[0] for g in got if g.startswith("bullet 3")] == [
            f"bullet 3 (pid {MALWARE_PID} wave {r.wave_index})"
            for r in listed if r.wave_index in (51, 120)]
