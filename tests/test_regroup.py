from __future__ import annotations

import pytest

from conftest import bytemap, holds, instr_log, instrs_of
from oracles import read_pe
from waveunpack.api_monitor import ApiCallRecord
from waveunpack.regroup import Interval, group_wave, merge_groups
from waveunpack.wave_collector import WaveRecord

PAGE = 4096


def _wave(instrs, dumps, shadow=None, twrites=None, pid=1):
    return WaveRecord(pid=pid, wave_index=0, instrs=instr_log(instrs),
                      shadow_pairs=bytemap(shadow or {}),
                      twrite_pairs=bytemap(twrites or {}), page_dumps=dumps)


def _ref(seq, vaddr, code=b"\x90"):
    return seq, vaddr, code


def _call(seq, vaddr):
    """A 6-byte call made from the site at `vaddr`."""
    return ApiCallRecord(caller_seq=seq, caller_vaddr=vaddr,
                         caller_bytes=bytes(6), pid=1, tid=1,
                         target_vaddr=0x77000000, module_name="kernel32",
                         function_name="ExitProcess", return_address=None)


class TestMergeGroups:
    def _iv(self, base, end, data=None):
        return Interval(base=base, end=end, bytes=data or bytes(end - base))

    def test_connected_by_reference(self):
        a = self._iv(0x5300000, 0x5304000)
        b = self._iv(0x6200000, 0x6202000)
        groups = merge_groups([a, b], {(0x5300010, 0x6200000)})
        assert len(groups) == 1
        assert [(iv.base, iv.end) for iv in groups[0].intervals] == \
            [(0x5300000, 0x5304000), (0x6200000, 0x6202000)]

    def test_no_refs_two_groups(self):
        a = self._iv(0x5300000, 0x5301000)
        b = self._iv(0x6200000, 0x6201000)
        groups = merge_groups([a, b], set())
        assert len(groups) == 2

    def test_transitive_merge(self):
        a = self._iv(0x1000, 0x2000)
        b = self._iv(0x3000, 0x4000)
        c = self._iv(0x5000, 0x6000)
        refs = {(0x1000, 0x3000), (0x3000, 0x5000)}
        groups = merge_groups([a, b, c], refs)
        assert len(groups) == 1
        assert len(groups[0].intervals) == 3

    def test_fixed_point(self):
        a = self._iv(0x1000, 0x2000)
        b = self._iv(0x3000, 0x4000)
        refs = {(0x1500, 0x3000)}
        once = merge_groups([a, b], refs)
        again = merge_groups(once[0].intervals, once[0].xrefs)
        assert [(iv.base, iv.end) for iv in again[0].intervals] == \
            [(iv.base, iv.end) for iv in once[0].intervals]

    def test_group_order_by_lowest_base(self):
        a = self._iv(0x9000, 0xA000)
        b = self._iv(0x1000, 0x2000)
        groups = merge_groups([a, b], set())
        assert groups[0].intervals[0].base == 0x1000


def _fig4_wave():
    """The worked page-grouping example: six tainted regions, two executed
    pages, a reference linking a data region to the code."""
    tainted_pages = [0x7768000, 0x7751000, 0x7731000, 0x7557000, 0x7551000,
                     0x6201000, 0x6200000, 0x5901000, 0x5303000, 0x5302000,
                     0x5301000, 0x5300000]
    dumps = {}
    for p in tainted_pages:
        dumps[p] = bytes(PAGE)
    # executed code in 0x5300000/0x5301000 references the 0x6200000 region
    code = bytearray(PAGE)
    code[0:5] = b"\x68\x00\x00\x20\x06"  # push 0x6200000
    code[5] = 0xC3
    dumps[0x5300000] = bytes(code)
    instrs = [_ref(1, 0x5300000, b"\x68\x00\x00\x20\x06"),
              _ref(2, 0x5300005, b"\xc3"), _ref(3, 0x5301000)]
    shadow = {v: dumps[v - v % PAGE][v % PAGE]
              for v in list(range(0x5300000, 0x5300006)) + [0x5301000]}
    for page in tainted_pages:
        shadow.setdefault(page, 0)
    return _wave(instrs, dumps, shadow=shadow)


def _spans(groups):
    return [[(iv.base, iv.end) for iv in grp.intervals] for grp in groups]


class TestGroupWave:
    def test_absorbs_contiguous_dumps(self):
        dumps = {p: bytes(PAGE) for p in
                 (0x5300000, 0x5301000, 0x5302000, 0x5303000)}
        grouping = group_wave(_wave([_ref(1, 0x5300010)], dumps), PAGE, [])
        assert _spans(grouping.kept) == [[(0x5300000, 0x5304000)]]
        assert grouping.dropped == []

    def test_gap_splits_intervals(self):
        dumps = {0x5305000: bytes(PAGE), 0x5300000: bytes(PAGE)}
        grouping = group_wave(_wave([_ref(1, 0x5300010)], dumps), PAGE, [])
        assert _spans(grouping.kept) == [[(0x5300000, 0x5301000)]]
        assert _spans(grouping.dropped) == [[(0x5305000, 0x5306000)]]

    def test_interval_bytes_concatenate_pages(self):
        dumps = {0x5301000: b"B" * PAGE, 0x5300000: b"A" * PAGE}
        grouping = group_wave(_wave([_ref(1, 0x5300010)], dumps), PAGE, [])
        assert grouping.kept[0].intervals[0].bytes == \
            b"A" * PAGE + b"B" * PAGE

    def test_instruction_tail_on_undumped_page(self):
        # a jmp whose last three bytes lie on a page the wave never dumped
        wave = _wave([_ref(1, 0x5300FFE, b"\xe9\x00\x00\x00\x00")],
                     {0x5300000: bytes(PAGE)})
        grouping = group_wave(wave, PAGE, [])
        assert _spans(grouping.kept) == [[(0x5300000, 0x5301000)]]

    def test_fig4_grouping(self):
        grouping = group_wave(_fig4_wave(), PAGE, [])
        assert len(grouping.kept) == 1
        spans = [(iv.base, iv.end) for iv in grouping.kept[0].intervals]
        assert spans == [(0x5300000, 0x5304000), (0x6200000, 0x6202000)]
        assert (0x5300000, 0x6200000) in grouping.kept[0].xrefs
        # unrelated tainted pages are dropped, not silently kept
        dropped = set(grouping.dropped_pages)
        assert {0x7768000, 0x7751000, 0x7731000, 0x7557000, 0x7551000,
                0x5901000} <= dropped
        assert not dropped & {0x5300000, 0x6200000, 0x6201000}

    def test_partition_every_instruction_in_exactly_one_group(self):
        from waveunpack.pipeline import analyze
        from waveunpack.scenario_gen import generate_scenario

        trace, _ = generate_scenario("m1", 3)
        res = analyze(trace)
        for out in res.outputs:
            for _, vaddr, _ in instrs_of(out.record.instrs):
                owners = [g for g in out.grouping.kept if holds(g, vaddr)]
                assert len(owners) == 1

    def test_closure_soundness_no_refs_leave_groups(self):
        from waveunpack.disasm import scan_refs

        grouping = group_wave(_fig4_wave(), PAGE, [])
        for grp in grouping.kept + grouping.dropped:
            outside = []
            for other in grouping.kept + grouping.dropped:
                if other is not grp:
                    outside.extend((iv.base, iv.end) for iv in other.intervals)
            for iv in grp.intervals:
                assert scan_refs(iv.bytes, iv.base, outside) == set()


class TestGroupEntry:
    def test_first_in_range_by_sequence(self):
        # the earlier instruction outside the group and the lower address
        # executed later are both passed over
        wave = _wave([_ref(4, 0x6200010), _ref(7, 0x5300020),
                      _ref(8, 0x5300000)], {0x5300000: bytes(PAGE)})
        grouping = group_wave(wave, PAGE, [])
        assert [grp.entry for grp in grouping.kept] == [0x5300020]

    def test_two_groups_distinct_entries(self):
        wave = _wave([_ref(1, 0x5300008), _ref(2, 0x6200004)],
                     {0x5300000: bytes(PAGE), 0x6200000: bytes(PAGE)})
        grouping = group_wave(wave, PAGE, [])
        assert [grp.entry for grp in grouping.kept] == [0x5300008, 0x6200004]

    def test_group_without_execution_has_no_entry(self):
        wave = _wave([_ref(1, 0x5300010)],
                     {0x5300000: bytes(PAGE), 0x5305000: bytes(PAGE)})
        grouping = group_wave(wave, PAGE, [])
        assert [grp.entry for grp in grouping.kept] == [0x5300010]
        assert [grp.entry for grp in grouping.dropped] == [None]

    def test_calls_join_the_group_holding_their_first_byte(self):
        # a site whose tail runs onto an undumped page still joins; a call
        # outside every interval joins no group
        calls = [_call(1, 0x6200010), _call(2, 0x5300FFC), _call(3, 0x9999999),
                 _call(4, 0x5300008)]
        wave = _wave([_ref(1, 0x5300008), _ref(2, 0x6200004)],
                     {0x5300000: bytes(PAGE), 0x6200000: bytes(PAGE)})
        grouping = group_wave(wave, PAGE, calls)
        assert [[c.caller_seq for c in grp.calls] for grp in grouping.kept] == \
            [[2, 4], [1]]

    def test_scenario_entries_are_first_executed_inside(self):
        """Over the 9 scenarios at seeds 0-9: a kept group's entry is the
        first executed address inside it, and its PE enters there; a
        dropped group executed nothing and has no entry."""
        from waveunpack.pipeline import analyze
        from waveunpack.scenario_gen import SCENARIO_IDS, generate_scenario

        for sid in SCENARIO_IDS:
            for seed in range(10):
                res = analyze(generate_scenario(sid, seed)[0])
                for out in res.outputs:
                    vaddrs = [vaddr for _, vaddr, _
                              in instrs_of(out.record.instrs)]
                    for grp, art in zip(out.grouping.kept, out.artifacts):
                        first = next(v for v in vaddrs if holds(grp, v))
                        assert grp.entry == first, (sid, seed)
                        assert read_pe(art.data).entry == first, (sid, seed)
                    for grp in out.grouping.dropped:
                        assert grp.entry is None, (sid, seed)
                        assert not any(holds(grp, v) for v in vaddrs)
