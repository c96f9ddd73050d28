from __future__ import annotations

import tracemalloc
from collections import defaultdict
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    TaintedIds,
    chunk_set,
    random_micro_trace,
    taint_step,
    tainted_ids,
)
from oracles import (
    naive_init,
    naive_tainted,
    naive_update,
    reference_classify_case,
    reference_tainted_seqs,
)
from waveunpack.cli import main
from waveunpack.scenario_gen import SCENARIO_IDS, generate_scenario
from waveunpack.taint_engine import (
    ByteMap,
    ChunkSet,
    PropagationSet,
    init_taint,
    is_tainted_instruction,
    update,
)
from waveunpack.trace_model import MemLoc, TraceEvent, write_trace
from waveunpack.wave_collector import collect_waves


def _image(size=4096, gbase=0x1000):
    return TraceEvent(kind="image", pid=1, base=0x400000, gbase=gbase,
                      name="t.exe", bytes=b"\xcc" * size)


def _instr(seq=1, pid=1, gaddr=0x1000, code=b"\x90", **kw):
    return TraceEvent(kind="instr", pid=pid, seq=seq, tid=1, vaddr=0x400000,
                      gaddr=gaddr, bytes=code, **kw)


class TestInitTaint:
    def test_whole_image_tainted(self):
        pset = init_taint(_image(size=4096, gbase=0x1000))
        assert tainted_ids(pset.tainted_mem) == set(range(0x1000, 0x2000))
        assert len(pset.tainted_mem) == 4096
        assert not pset.tainted_regs

    def test_zero_length_image(self):
        pset = init_taint(_image(size=0))
        assert pset.empty

    def test_d1_image_count(self):
        trace, _ = generate_scenario("d1", 11)
        image = collect_waves(trace).image
        pset = init_taint(image)
        assert len(pset.tainted_mem) == len(image.bytes)

    def test_image_costs_under_two_bytes_per_id(self):
        # a set of ints held about 64 MiB for this image
        image = _image(size=1 << 20)
        tracemalloc.start()
        try:
            pset = init_taint(image)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(pset.tainted_mem) == 1 << 20
        assert peak < 2 << 20


class TestUpdate:
    def test_untainted_copy_stays_clean(self):
        pset = PropagationSet()
        tw = {}
        ev = _instr(gaddr=0x9000,
                    reads=(MemLoc(g=0x100, v=0x500000, space_pid=1, val=7),),
                    writes=(MemLoc(g=0x200, v=0x500004, space_pid=1, val=7),))
        taint_step(ev, pset, tw)
        assert pset.empty and len(tw[1]) == 0

    def test_benign_cross_process_write_taints_but_skips_twrites(self):
        # benign instruction moving a tainted byte into another process
        pset = PropagationSet(tainted_mem=chunk_set({0x100}))
        tw = {}
        ev = _instr(pid=1, gaddr=0x9000,
                    reads=(MemLoc(g=0x100, v=0x500000, space_pid=1, val=7),),
                    writes=(MemLoc(g=0x200, v=0x610000, space_pid=2, val=7),))
        taint_step(ev, pset, tw)
        assert 0x200 in pset.tainted_mem
        assert tw.keys() == {1} and len(tw[1]) == 0

    def test_tainted_instr_constant_write_enters_twrites(self):
        # hand-run of the update rules over a 3-event trace
        image = _image(size=16, gbase=0x1000)
        pset = init_taint(image)
        tw = {}
        w = MemLoc(g=0x5000, v=0x600000, space_pid=1, val=0x90)
        taint_step(_instr(seq=1, gaddr=0x1000, code=b"\x68\x90\x90\x90\x90",
                          writes=(w,)), pset, tw)
        assert 0x5000 in pset.tainted_mem
        assert tw.keys() == {1} and len(tw[1]) == 1
        assert dict(tw[1].items()) == {0x600000: 0x90}
        # an untainted overwrite then clears taint (strong update)
        taint_step(_instr(seq=2, gaddr=0x9000,
                          writes=(MemLoc(g=0x5000, v=0x600000, space_pid=1,
                                         val=0x00),)), pset, tw)
        assert 0x5000 not in pset.tainted_mem
        # tainted register flows taint back in
        pset.tainted_regs.add((1, 1, "eax"))
        taint_step(_instr(seq=3, gaddr=0x9000, rregs=("eax",), writes=(w,)),
                   pset, tw)
        assert 0x5000 in pset.tainted_mem

    def test_strong_update_clears_written_registers(self):
        pset = PropagationSet(tainted_regs={(1, 1, "eax")})
        taint_step(_instr(gaddr=0x9000, wregs=("eax",)), pset, {})
        assert pset.empty

    def test_verdict_taints_every_output(self):
        # clean inputs, but the caller found the instruction's bytes tainted
        pset, tw = PropagationSet(), ByteMap()
        ev = _instr(gaddr=0x9000, wregs=("eax",),
                    writes=(MemLoc(g=0x200, v=0x600000, space_pid=1, val=7),))
        assert update(ev, pset, tw, True) == (pset, tw)
        assert 0x200 in pset.tainted_mem and len(pset.tainted_mem) == 1
        assert pset.tainted_regs == {(1, 1, "eax")}
        assert dict(tw.items()) == {0x600000: 7}


class TestInclusionPredicate:
    def test_first_image_instruction_included(self):
        pset = init_taint(_image())
        assert is_tainted_instruction(_instr(gaddr=0x1000), pset)

    def test_benign_reader_of_tainted_data_excluded(self):
        # reads tainted bytes, but its own encoding is clean
        pset = init_taint(_image())
        ev = _instr(gaddr=0x9000,
                    reads=(MemLoc(g=0x1000, v=0x400000, space_pid=1, val=0),))
        assert not is_tainted_instruction(ev, pset)

    def test_any_byte_of_span_counts(self):
        # brute force across all single-tainted-byte positions
        for k in range(5):
            pset = PropagationSet(tainted_mem=chunk_set({0x2000 + k}))
            ev = _instr(gaddr=0x2000, code=b"\x90" * 5)
            assert is_tainted_instruction(ev, pset)
        pset = PropagationSet(tainted_mem=chunk_set({0x2005}))
        assert not is_tainted_instruction(_instr(gaddr=0x2000,
                                                 code=b"\x90" * 5), pset)

    def test_empty_set_excludes_everything(self):
        assert not is_tainted_instruction(_instr(), PropagationSet())

    def test_predicate_is_pure(self):
        pset = init_taint(_image())
        ev = _instr(gaddr=0x1000)
        mem, regs = tainted_ids(pset.tainted_mem), set(pset.tainted_regs)
        for _ in range(3):
            assert is_tainted_instruction(ev, pset)
        assert tainted_ids(pset.tainted_mem) == mem
        assert len(pset.tainted_mem) == len(mem)
        assert pset.tainted_regs == regs

    @pytest.mark.parametrize("gaddr", [0x20fe, -3, (1 << 32) + 0xfd])
    def test_span_across_a_chunk_boundary(self, gaddr):
        # only the last byte, in the next 256-id chunk, is tainted
        ev = _instr(gaddr=gaddr, code=b"\x90" * 5)
        pset = PropagationSet(tainted_mem=chunk_set({gaddr + 4}))
        assert is_tainted_instruction(ev, pset)
        pset = PropagationSet(tainted_mem=chunk_set({gaddr + 5}))
        assert not is_tainted_instruction(ev, pset)
        # and update taints the outputs on that verdict
        pset = PropagationSet(tainted_mem=chunk_set({gaddr + 4}))
        taint_step(_instr(gaddr=gaddr, code=b"\x90" * 5, wregs=("eax",)),
                   pset, {})
        assert pset.tainted_regs == {(1, 1, "eax")}


# ids around chunk edges, below zero and above 32 bits
_BASES = (-(1 << 40), -512, 0, (1 << 32) - 256, 1 << 32, 1 << 40)
_ids = st.builds(lambda base, off: base + off, st.sampled_from(_BASES),
                 st.integers(-300, 600))
_spans = st.tuples(_ids, st.integers(-3, 700))
_ops = st.lists(st.one_of(
    st.tuples(st.just("in"), _ids),
    st.tuples(st.sampled_from(["add_span", "isdisjoint"]), _spans),
    st.tuples(st.just("len"), st.none())), max_size=60)


class TestChunkSet:
    @settings(max_examples=100, deadline=None)
    @given(_ops)
    @example([("add_span", (5, 1)), ("add_span", (300, 1)),
              ("add_span", (0, 600)), ("len", None), ("in", 5),
              ("add_span", (0, 0)), ("add_span", (4, 2)),
              ("isdisjoint", (5, 0)), ("isdisjoint", (5, 1)), ("len", None)])
    def test_matches_a_set(self, ops):
        mem, model, read = ChunkSet(), set(), TaintedIds()
        for op, arg in ops:
            if op == "in":
                assert (arg in mem) == (arg in model)
            elif op == "add_span":
                start, n = arg
                mem.add_span(start, start + n)
                model.update(range(start, start + n))
            elif op == "isdisjoint":
                start, n = arg
                span = range(start, start + n)
                assert mem.isdisjoint(span) == model.isdisjoint(span)
            assert len(mem) == len(model)
            assert model == read(mem)
        assert model == tainted_ids(mem)

    def test_no_writer_breaks_an_invariant(self):
        # a ByteMap marks an address only together with its value, and
        # update alone clears tainted memory
        for name in ("add", "discard", "add_span"):
            assert not hasattr(ByteMap(), name), name
        for name in ("add", "discard"):
            assert not hasattr(ChunkSet(), name), name


def _naive_state_matches(pset, state, read_ids):
    mem, regs = state
    return (mem == read_ids(pset.tainted_mem)
            and len(pset.tainted_mem) == len(mem) and pset.tainted_regs == regs)


def test_oracle_equivalence_on_micro_traces(micro_trace):
    read_ids = TaintedIds()
    for seed in range(6):
        read_tw = defaultdict(TaintedIds)  # one reader per pid's map
        trace = micro_trace(seed, 400)
        image = collect_waves(trace).image
        pset = init_taint(image)
        state = naive_init(image)
        tw_prod: dict = {}
        tw_ref: dict = {}
        assert _naive_state_matches(pset, state, read_ids)
        for ev in [ev for ev in trace.events if ev.kind == "instr"]:
            assert taint_step(ev, pset, tw_prod) == naive_tainted(ev, state)
            state, tw_ref = naive_update(ev, state, tw_ref)
            assert _naive_state_matches(pset, state, read_ids)
            # only a pid that recorded a write has a map in the oracle
            written = {pid: m for pid, m in tw_prod.items() if len(m)}
            assert {pid: read_tw[pid](m) for pid, m in written.items()} == tw_ref
            assert all(len(m) == len(tw_ref[pid]) for pid, m in written.items())


def test_mtrace_is_order_preserving_subsequence():
    # each wave logs its instructions in trace order, and together they are
    # the malware trace of the reference taint rules
    trace, _ = generate_scenario("m1", 4)
    result = collect_waves(trace)
    for rec in result.records:
        assert list(rec.instrs.seqs) == sorted(rec.instrs.seqs)
    seqs = reference_tainted_seqs(trace.events)
    assert sorted(s for rec in result.records for s in rec.instrs.seqs) == seqs
    all_seqs = {ev.seq for ev in trace.events if ev.kind == "instr"}
    assert set(seqs) <= all_seqs
    assert len(seqs) < len(all_seqs)  # benign noise stays out


def _oracle_taint_log(trace) -> list[str]:
    """The taint log's lines from the reference taint rules, with the
    per-byte reference classifier deciding where waves close: a closing
    wave's tainted writes become the next shadow and start over empty."""
    state = (frozenset(), frozenset())
    tw: dict = {}
    shadows: dict = {}  # pid -> shadow, for pids with malware execution
    image_seen = False
    lines = []

    def close(pid):
        shadows[pid] = dict(tw.get(pid, {}))
        tw[pid] = {}

    for ev in trace.events:
        if ev.kind == "image":
            state = naive_init(ev)
            shadows[ev.pid] = dict(zip(range(ev.base, ev.base + len(ev.bytes)),
                                       ev.bytes))
            image_seen = True
        elif ev.kind == "procexit":
            if ev.pid in shadows:
                close(ev.pid)
        elif ev.kind == "instr":
            tainted = naive_tainted(ev, state)
            if tainted:
                shadow = shadows.setdefault(ev.pid, {})
                case = reference_classify_case(
                    ev, SimpleNamespace(shadow=shadow,
                                        twrites=tw.get(ev.pid, {})))
                if case == 1:
                    shadow.update(zip(range(ev.vaddr, ev.vaddr + len(ev.bytes)),
                                      ev.bytes))
                elif case in (2, 3):
                    close(ev.pid)
            state, tw = naive_update(ev, state, tw)
            mem, regs = state
            lines.append(f"{ev.seq}, tainted_instr:{'true' if tainted else 'false'}, "
                         f"{len(mem)}, {len(tw.get(ev.pid, {}))}")
            if image_seen and not mem and not regs:
                break
    return lines


@pytest.mark.parametrize("name", [*SCENARIO_IDS, "micro4", "micro5"])
def test_taint_log_counts_match_the_oracle(name, tmp_path, capsys):
    # seq, inclusion, |tainted memory| and |T[pid]| of every logged line;
    # these two micro-traces also clear tainted bytes, which no scenario
    # does at seed 0
    if name.startswith("micro"):
        trace = random_micro_trace(int(name[5:]), 400)
    else:
        trace, _ = generate_scenario(name, 0)
    path = tmp_path / "t.jsonl"
    path.write_bytes(write_trace(trace))
    log = tmp_path / "taint.log"
    assert main(["unpack", str(path), "-o", str(tmp_path / "out"),
                 "--taint-log", str(log)]) == 0
    capsys.readouterr()
    assert log.read_text().splitlines() == _oracle_taint_log(trace)
