from __future__ import annotations

import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import decode, read_pe
from waveunpack.api_monitor import ApiCallRecord
from waveunpack.pe_builder import (
    EmitError,
    PatchIntegrityError,
    build_artifact,
    build_import_table,
    layout_sections,
    patch_branches,
    write_sidecar,
)
from waveunpack.regroup import Interval, MemoryGroup

PAGE = 4096


def _call(seq, vaddr, code, fn, dll="kernel32", btype="call"):
    """A call from the site at `vaddr` whose traced encoding is `code`."""
    return ApiCallRecord(caller_seq=seq, caller_vaddr=vaddr,
                         caller_bytes=code, pid=1, tid=1,
                         target_vaddr=0x77000000, module_name=dll,
                         function_name=fn, return_address=None,
                         btype=btype)


def _group(*spans, data=None, calls=()):
    """A kept group whose wave entered it at its first span's base and made
    `calls` from inside it."""
    ivs = [Interval(base=b, end=e, bytes=data.get(b) if data else bytes(e - b))
           for b, e in spans]
    return MemoryGroup(intervals=ivs, entry=spans[0][0], calls=list(calls))


class TestImportTable:
    def test_unique_functions_only(self):
        calls = [_call(1, 0x5300010, bytes(6), "GetModuleHandleA"),
                 _call(2, 0x5300020, bytes(2), "GetProcAddress"),
                 _call(3, 0x5300030, bytes(2), "GetProcAddress"),
                 _call(4, 0x5300040, bytes(1), "ExitProcess")]
        table = build_import_table(_group((0x5300000, 0x5301000), calls=calls))
        assert table.unique_count == 3
        assert table.entries == [("kernel32", ["GetModuleHandleA",
                                               "GetProcAddress",
                                               "ExitProcess"])]

    def test_empty_table_is_null_terminator(self):
        table = build_import_table(_group((0x5300000, 0x5301000)))
        assert table.blob == bytes(20)

    def test_slots_ascend_and_align(self):
        calls = [_call(1, 0x5300010, bytes(6), "A"),
                 _call(2, 0x5300020, bytes(6), "B"),
                 _call(3, 0x5300030, bytes(6), "C", dll="user32")]
        table = build_import_table(_group((0x5300000, 0x5301000), calls=calls))
        slots = sorted(table.slots.values())
        assert all(s % 4 == 0 for s in slots)
        assert slots == sorted(set(slots))

    def test_idata_relocates_to_first_free_gap(self):
        group = _group((0x1000, 0x3000), (0x8000, 0x9000))
        table = build_import_table(group)
        assert table.placement_rva == 0x3000

    def test_relocated_table_still_emits_valid_pe(self):
        group = _group((0x1000, 0x3000))
        art = build_artifact(group)
        pe = read_pe(art.data)
        assert [s.vaddr for s in pe.sections] == [0x1000, 0x3000]
        assert pe.sections[1].name == ".idata"


class TestPatch:
    def _make(self, site_bytes, btype="call", fn="GetModuleHandleA",
              trace_bytes=None):
        """A group making one call from 0x5300010, whose dump holds
        `site_bytes` there and whose trace saw `trace_bytes` (the same
        unless given)."""
        data = bytearray(PAGE)
        data[0x10:0x10 + len(site_bytes)] = site_bytes
        call = _call(1, 0x5300010, bytes(trace_bytes or site_bytes), fn,
                     btype=btype)
        group = _group((0x5300000, 0x5301000), data={0x5300000: bytes(data)},
                       calls=[call])
        return group, build_import_table(group)

    def test_ff15_site_rewritten_to_new_slot(self):
        old = b"\xff\x15\x78\x56\x34\x12"
        group, table = self._make(old)
        patched, sidecar = patch_branches(group, table)
        ins = decode(patched[0][0x10:0x16], 0x5300010)
        assert ins.mnemonic == "call"
        assert ins.abs_ref == table.slots[("kernel32", "GetModuleHandleA")]
        assert sidecar[0]["patched"] is True

    def test_jmp_rewritten_with_ff25(self):
        old = b"\xff\x25\x78\x56\x34\x12"
        group, table = self._make(old, btype="jmp")
        patched, _ = patch_branches(group, table)
        assert patched[0][0x10:0x12] == b"\xff\x25"

    def test_six_byte_register_relative_call_becomes_ff15(self):
        old = b"\xff\x95\x40\x00\x00\x00"
        group, table = self._make(old)
        patched, sidecar = patch_branches(group, table)
        ins = decode(patched[0][0x10:0x16], 0x5300010)
        assert (ins.mnemonic, ins.length) == ("call", 6)
        assert sidecar[0]["patched"] is True

    def test_short_site_goes_to_sidecar(self):
        group, table = self._make(b"\xff\xd0")
        patched, sidecar = patch_branches(group, table)
        assert patched[0][0x10:0x12] == b"\xff\xd0"
        assert sidecar == [{"caller_vaddr": 0x5300010, "len": 2,
                            "function": "kernel32!GetModuleHandleA",
                            "slot_rva": table.slots[("kernel32",
                                                     "GetModuleHandleA")],
                            "patched": False}]

    def test_interleaved_sites_listed_in_detection_order(self):
        # site A reaches Sleep, site B ExitProcess, then A ExitProcess
        a, b = b"\xff\x15\x00\x08\x40\x00", b"\xff\x15\x04\x08\x40\x00"
        data = bytearray(PAGE)
        data[0x10:0x16], data[0x20:0x26] = a, b
        calls = [_call(1, 0x5300010, a, "Sleep"),
                 _call(2, 0x5300020, b, "ExitProcess"),
                 _call(3, 0x5300010, a, "ExitProcess"),
                 _call(4, 0x5300020, b, "ExitProcess")]
        group = _group((0x5300000, 0x5301000), data={0x5300000: bytes(data)},
                       calls=calls)
        table = build_import_table(group)
        patched, sidecar = patch_branches(group, table)
        assert [(e["caller_vaddr"], e["function"], e["patched"])
                for e in sidecar] == [
            (0x5300010, "kernel32!Sleep", False),
            (0x5300020, "kernel32!ExitProcess", True),
            (0x5300010, "kernel32!ExitProcess", False)]
        assert patched[0][0x10:0x16] == a and patched[0][0x20:0x26] != b

    def test_ret_site_never_patched(self):
        group, table = self._make(b"\xc3", btype="ret",
                                        fn="MessageBoxA")
        _, sidecar = patch_branches(group, table)
        assert sidecar[0]["patched"] is False

    def test_site_past_interval_end_is_checked_not_patched(self):
        # the site's last two bytes lie on a page the wave never dumped
        site = b"\xff\x15\x00\x10\x40\x00"
        data = bytearray(PAGE)
        data[-4:] = site[:4]
        call = _call(1, 0x5300FFC, site, "ExitProcess")
        group = _group((0x5300000, 0x5301000), data={0x5300000: bytes(data)},
                       calls=[call])
        table = build_import_table(group)
        patched, sidecar = patch_branches(group, table)
        assert patched[0] == group.intervals[0].bytes
        assert [(e["len"], e["patched"]) for e in sidecar] == [(6, False)]
        # its dumped bytes are still checked against the trace
        call.caller_bytes = b"\xff\x25" + site[2:]
        with pytest.raises(PatchIntegrityError):
            patch_branches(group, table)

    def test_dump_trace_mismatch_raises(self):
        group, table = self._make(b"\xff\x15\x00\x00\x00\x00",
                                  trace_bytes=b"\xff\x15\xde\xad\xbe\xef")
        with pytest.raises(PatchIntegrityError):
            patch_branches(group, table)

    def test_only_patched_bytes_change(self):
        old = b"\xff\x15\x78\x56\x34\x12"
        group, table = self._make(old)
        patched, _ = patch_branches(group, table)
        original = group.intervals[0].bytes
        diffs = [i for i, (a, b) in enumerate(zip(original, patched[0]))
                 if a != b]
        assert diffs and all(0x10 <= i < 0x16 for i in diffs)
        assert len(patched[0]) == len(original)


class TestEmit:
    def _artifact(self):
        data = bytearray(PAGE)
        data[0:6] = b"\xff\x15\x78\x56\x34\x12"
        calls = [_call(1, 0x5300000, b"\xff\x15\x78\x56\x34\x12",
                       "GetModuleHandleA")]
        return build_artifact(_group((0x5300000, 0x5301000),
                                     data={0x5300000: bytes(data)},
                                     calls=calls))

    def test_sections_and_entry_round_trip(self):
        art = self._artifact()
        pe = read_pe(art.data)
        assert pe.machine == 0x14C and pe.magic == 0x10B
        assert pe.image_base == 0
        assert [s.name for s in pe.sections] == [".idata", ".wseg0"]
        assert pe.sections[1].vaddr == 0x5300000
        assert pe.entry == 0x5300000
        assert pe.imports == {"kernel32": ["GetModuleHandleA"]}

    def test_fig4_style_two_interval_group(self):
        g = _group((0x5300000, 0x5304000), (0x6200000, 0x6202000))
        art = build_artifact(g)
        pe = read_pe(art.data)
        assert [s.vaddr for s in pe.sections] == [0x1000, 0x5300000, 0x6200000]
        assert [s.name for s in pe.sections] == [".idata", ".wseg0", ".wseg1"]

    def test_empty_import_table_still_emits(self):
        g = _group((0x5300000, 0x5301000))
        art = build_artifact(g)
        pe = read_pe(art.data)
        assert pe.imports == {}
        assert pe.import_dir[0] == art.import_table.placement_rva

    def test_patched_slot_resolves_to_observed_function(self):
        art = self._artifact()
        pe = read_pe(art.data)
        site = pe.read_va(0x5300000, 6)
        ins = decode(site, 0x5300000)
        assert pe.iat_slots[ins.abs_ref] == ("kernel32", "GetModuleHandleA")

    def test_overlapping_sections_rejected(self):
        g = _group((0x2000, 0x4000), (0x3000, 0x5000))
        with pytest.raises(EmitError):
            build_artifact(g)

    def test_artifact_sections_are_the_emitted_sections(self):
        # .idata sits between the two intervals, so the RVA order interleaves
        g = _group((0x1000, 0x3000), (0x8000, 0x9000))
        art = build_artifact(g)
        pe = read_pe(art.data)
        assert [(s.name, s.rva, len(s.data)) for s in art.sections] == \
            [(s.name, s.vaddr, s.vsize) for s in pe.sections]
        assert [s.name for s in art.sections] == [".wseg0", ".idata", ".wseg1"]

    def test_size_of_image_covers_everything(self):
        art = self._artifact()
        pe = read_pe(art.data)
        top = max(s.vaddr + max(s.vsize, 1) for s in pe.sections)
        assert pe.size_of_image >= top
        assert pe.size_of_image % 0x1000 == 0

    def test_top_page_does_not_fit_a_32_bit_image(self):
        # its SizeOfImage would be 2**32
        with pytest.raises(EmitError, match="section .wseg0 at 0xfffff000 "
                                            "does not fit in a 32-bit image"):
            build_artifact(_group((0xFFFFF000, 1 << 32)))

    def test_page_below_the_top_fits(self):
        art = build_artifact(_group((0xFFFFE000, 0xFFFFF000)))
        assert read_pe(art.data).size_of_image == 0xFFFFF000

    def test_layout_rejects_resized_interval(self):
        g = _group((0x5300000, 0x5301000))
        table = build_import_table(g)
        with pytest.raises(EmitError):
            layout_sections(g, table, [b"\x00" * 10])


@st.composite
def _layouts(draw):
    """Disjoint page-aligned spans from low pages up, gaps of 0-3 pages.

    The import table takes page 0x1000 or the first gap above it, so it
    lands before, between or after the spans.
    """
    base = draw(st.integers(1, 3)) * PAGE
    spans = []
    for _ in range(draw(st.integers(1, 4))):
        end = base + draw(st.integers(1, 3)) * PAGE
        spans.append((base, end))
        base = end + draw(st.integers(0, 3)) * PAGE
    return spans


class TestSizeOfCode:
    @settings(max_examples=200, deadline=None)
    @example(spans=[(0x1000, 0x3000), (0x8000, 0x9000)])
    @given(spans=_layouts())
    def test_counts_every_interval_and_no_idata(self, spans):
        pe = read_pe(build_artifact(_group(*spans)).data)
        assert pe.size_of_code == sum(end - base for base, end in spans)


class TestSidecar:
    def test_sorted_and_combined(self):
        api = [{"caller_vaddr": 0x5300020, "len": 2, "function": "k!B",
                "slot_rva": 0x1040, "patched": False},
               {"caller_vaddr": 0x5300010, "len": 6, "function": "k!A",
                "slot_rva": 0x103C, "patched": True}]
        xrefs = {(0x5300018, 0x6200000)}
        entries = write_sidecar(api, xrefs)
        keys = [e.get("caller_vaddr", e.get("site")) for e in entries]
        assert keys == sorted(keys)
        assert [e["kind"] for e in entries] == ["api", "xref", "api"]

    def test_empty(self):
        assert write_sidecar([], set()) == []
