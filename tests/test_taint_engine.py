from __future__ import annotations

from oracles import naive_init, naive_tainted, naive_update
from waveunpack.scenario_gen import generate_scenario
from waveunpack.taint_engine import (
    PropagationSet,
    init_taint,
    is_tainted_instruction,
    update,
)
from waveunpack.trace_model import MemLoc, TraceEvent
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
        assert pset.tainted_mem == set(range(0x1000, 0x2000))
        assert not pset.tainted_regs

    def test_zero_length_image(self):
        pset = init_taint(_image(size=0))
        assert pset.empty

    def test_d1_image_count(self):
        trace, _ = generate_scenario("d1", 11)
        image = collect_waves(trace).image
        pset = init_taint(image)
        assert len(pset.tainted_mem) == len(image.bytes)


class TestUpdate:
    def test_untainted_copy_stays_clean(self):
        pset = PropagationSet()
        tw = {}
        ev = _instr(gaddr=0x9000,
                    reads=(MemLoc(g=0x100, v=0x500000, space_pid=1, val=7),),
                    writes=(MemLoc(g=0x200, v=0x500004, space_pid=1, val=7),))
        update(ev, pset, tw)
        assert pset.empty and tw == {}

    def test_benign_cross_process_write_taints_but_skips_twrites(self):
        # benign instruction moving a tainted byte into another process
        pset = PropagationSet(tainted_mem={0x100})
        tw = {}
        ev = _instr(pid=1, gaddr=0x9000,
                    reads=(MemLoc(g=0x100, v=0x500000, space_pid=1, val=7),),
                    writes=(MemLoc(g=0x200, v=0x610000, space_pid=2, val=7),))
        update(ev, pset, tw)
        assert 0x200 in pset.tainted_mem
        assert tw == {}

    def test_tainted_instr_constant_write_enters_twrites(self):
        # hand-run of the update rules over a 3-event trace
        image = _image(size=16, gbase=0x1000)
        pset = init_taint(image)
        tw = {}
        w = MemLoc(g=0x5000, v=0x600000, space_pid=1, val=0x90)
        update(_instr(seq=1, gaddr=0x1000, code=b"\x68\x90\x90\x90\x90",
                      writes=(w,)), pset, tw)
        assert 0x5000 in pset.tainted_mem
        assert tw == {1: {0x600000: 0x90}}
        # an untainted overwrite then clears taint (strong update)
        update(_instr(seq=2, gaddr=0x9000,
                      writes=(MemLoc(g=0x5000, v=0x600000, space_pid=1,
                                     val=0x00),)), pset, tw)
        assert 0x5000 not in pset.tainted_mem
        # tainted register flows taint back in
        pset.tainted_regs.add((1, 1, "eax"))
        update(_instr(seq=3, gaddr=0x9000, rregs=("eax",), writes=(w,)),
               pset, tw)
        assert 0x5000 in pset.tainted_mem

    def test_strong_update_clears_written_registers(self):
        pset = PropagationSet(tainted_regs={(1, 1, "eax")})
        update(_instr(gaddr=0x9000, wregs=("eax",)), pset, {})
        assert pset.empty


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
            pset = PropagationSet(tainted_mem={0x2000 + k})
            ev = _instr(gaddr=0x2000, code=b"\x90" * 5)
            assert is_tainted_instruction(ev, pset)
        pset = PropagationSet(tainted_mem={0x2005})
        assert not is_tainted_instruction(_instr(gaddr=0x2000,
                                                 code=b"\x90" * 5), pset)

    def test_empty_set_excludes_everything(self):
        assert not is_tainted_instruction(_instr(), PropagationSet())

    def test_predicate_is_pure(self):
        pset = init_taint(_image())
        ev = _instr(gaddr=0x1000)
        mem, regs = set(pset.tainted_mem), set(pset.tainted_regs)
        for _ in range(3):
            assert is_tainted_instruction(ev, pset)
        assert pset.tainted_mem == mem
        assert pset.tainted_regs == regs


def _naive_state_matches(pset, state):
    mem, regs = state
    return pset.tainted_mem == mem and pset.tainted_regs == regs


def test_oracle_equivalence_on_micro_traces(micro_trace):
    for seed in range(6):
        trace = micro_trace(seed, 400)
        image = collect_waves(trace).image
        pset = init_taint(image)
        state = naive_init(image)
        tw_prod: dict = {}
        tw_ref: dict = {}
        assert _naive_state_matches(pset, state)
        for ev in [ev for ev in trace.events if ev.kind == "instr"]:
            assert is_tainted_instruction(ev, pset) == naive_tainted(ev, state)
            update(ev, pset, tw_prod)
            state, tw_ref = naive_update(ev, state, tw_ref)
            assert _naive_state_matches(pset, state)
            assert tw_prod == tw_ref


def test_mtrace_is_order_preserving_subsequence():
    trace, _ = generate_scenario("m1", 4)
    result = collect_waves(trace)
    seqs = [ref.seq for ref in result.mtrace]
    assert seqs == sorted(seqs)
    all_seqs = {ev.seq for ev in trace.events if ev.kind == "instr"}
    assert set(seqs) <= all_seqs
    assert len(seqs) < len(all_seqs)  # benign noise stays out
