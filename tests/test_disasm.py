from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveunpack.disasm import scan_refs
from oracles import Decoded, DecodeError, decode, reference_scan_refs
from waveunpack import regroup
from waveunpack.pipeline import analyze
from waveunpack.scenario_gen import SCENARIO_IDS, generate_scenario
from test_golden import random_image_trace


# every subset instruction, as (bytes, vaddr, mnemonic, length, abs_ref,
# rel_target)
_SUBSET = [
    (b"\xff\x15\x00\x10\x00\x00", 0x5300010, "call", 6, 0x1000, None),
    (b"\xff\x25\x34\x12\x00\x00", 0x5300010, "jmp", 6, 0x1234, None),
    (b"\xe8\xfb\xff\xff\xff", 0x500000, "call", 5, None, 0x500000),
    (b"\xe9\x00\x01\x00\x00", 0x500000, "jmp", 5, None, 0x500105),
    (b"\xeb\xfe", 0x500000, "jmp", 2, None, 0x500000),
    (b"\x68\x00\x00\x20\x06", 0x400000, "push", 5, 0x6200000, None),
    (b"\xb8\x78\x56\x34\x12", 0x400000, "mov", 5, 0x12345678, None),
    (b"\xbf\x01\x00\x00\x00", 0x400000, "mov", 5, 1, None),
    (b"\xff\xd0", 0x400000, "call", 2, None, None),
    (b"\xff\xd7", 0x400000, "call", 2, None, None),
    (b"\xff\xe0", 0x400000, "jmp", 2, None, None),
    (b"\xc1\xc8\x0d", 0x400000, "ror", 3, None, None),
    (b"\xc3", 0x400000, "ret", 1, None, None),
    (b"\x90", 0x400000, "nop", 1, None, None),
    (b"\xcc", 0x400000, "int3", 1, None, None),
]


class TestDecodeOne:
    """The oracle decoder that reference_scan_refs decodes with."""

    @pytest.mark.parametrize("data,vaddr,mnemonic,length,abs_ref,rel_target",
                             _SUBSET)
    def test_table(self, data, vaddr, mnemonic, length, abs_ref, rel_target):
        assert decode(data, vaddr) == Decoded(length, mnemonic, abs_ref,
                                              rel_target)

    def test_unknown_opcode(self):
        with pytest.raises(DecodeError):
            decode(b"\x0f\x05", 0)

    def test_unknown_modrm(self):
        for data in (b"\xff\x95\x40\x00\x00\x00",  # call [ebp+disp32]
                     b"\xff\xd8",  # between the call r32 and jmp r32 rows
                     b"\xff\xcf",  # just below call r32
                     b"\xff\xe8",  # just above jmp r32
                     b"\xc1\xc0\x0d"):  # rol, not ror
            with pytest.raises(DecodeError):
                decode(data, 0)

    def test_truncated(self):
        with pytest.raises(DecodeError):
            decode(b"\xe8\x01\x02", 0)
        with pytest.raises(DecodeError):
            decode(b"", 0)

    @pytest.mark.parametrize("data", [row[0] for row in _SUBSET])
    def test_truncated_by_one(self, data):
        with pytest.raises(DecodeError):
            decode(data[:-1], 0)

    @settings(max_examples=200, deadline=None)
    @given(st.binary(min_size=6, max_size=12), st.binary(min_size=0, max_size=6),
           st.integers(0, 2**32 - 1))
    def test_prefix_stability(self, head, tail, vaddr):
        # decoding depends on at most the first six bytes
        try:
            a = decode(head, vaddr)
        except DecodeError:
            with pytest.raises(DecodeError):
                decode(head + tail, vaddr)
            return
        b = decode(head + tail, vaddr)
        assert a == b


class TestScanRefs:
    def test_push_reference_found(self):
        dump = b"\x90\x90" + b"\x68\x00\x00\x20\x06" + b"\x90"
        refs = scan_refs(dump, 0x5300000, [(0x6200000, 0x6202000)])
        assert (0x5300002, 0x6200000) in refs

    def test_all_zero_dump_has_no_refs(self):
        assert scan_refs(bytes(4096), 0x5300000,
                         [(0x6200000, 0x6202000)]) == set()

    def test_raw_word_reference_found(self):
        # a bare data dword pointing into a candidate range
        dump = b"\x00\x01" + (0x5301000).to_bytes(4, "little") + b"\x00"
        refs = scan_refs(dump, 0x6200000, [(0x5300000, 0x5302000)])
        assert (0x6200002, 0x5301000) in refs

    def test_relative_branch_reference_found(self):
        # call rel32 from 0x5300000 to 0x6200000
        rel = 0x6200000 - (0x5300000 + 5)
        dump = b"\xe8" + rel.to_bytes(4, "little")
        refs = scan_refs(dump, 0x5300000, [(0x6200000, 0x6201000)])
        assert (0x5300000, 0x6200000) in refs

    def test_targets_outside_candidates_ignored(self):
        dump = b"\x68\x00\x00\x90\x07"  # push 0x7900000
        assert scan_refs(dump, 0x5300000, [(0x6200000, 0x6202000)]) == set()

    def test_no_candidates_short_circuits(self):
        assert scan_refs(b"\x68\x00\x00\x20\x06", 0x5300000, []) == set()

    def test_sites_inside_dump_targets_inside_candidates(self):
        dump = bytes(64) + b"\x68\x00\x00\x20\x06" + bytes(64)
        base = 0x5300000
        cands = [(0x6200000, 0x6202000)]
        for site, target in scan_refs(dump, base, cands):
            assert base <= site < base + len(dump)
            assert any(lo <= target < hi for lo, hi in cands)

    def test_deterministic(self):
        dump = bytes(range(256)) * 4
        cands = [(0x100, 0x200), (0x10000, 0x20000)]
        assert scan_refs(dump, 0x400000, cands) == scan_refs(dump, 0x400000,
                                                             cands)


# lead and ModRM bytes of every instruction that yields a reference
_DENSE = (0x68, *range(0xB8, 0xC0), 0xE8, 0xE9, 0xEB, 0xFF, 0x15, 0x25)


@st.composite
def scan_inputs(draw):
    base = draw(st.one_of(st.integers(0, 2**32 - 1),
                          st.integers(0xFFFFFFF0, 0xFFFFFFFF),
                          st.integers(0, 64)))
    # values near the dump, near zero (where wrapped rel targets land) or anywhere
    anchor = st.one_of(
        st.integers(base - 64, base + 256).map(lambda v: v & 0xFFFFFFFF),
        st.integers(0, 256),
        st.integers(0, 2**32 - 1))
    chunks = draw(st.lists(st.one_of(
        st.sampled_from(_DENSE).map(lambda b: bytes([b])),
        st.binary(min_size=1, max_size=1),
        anchor.map(lambda v: v.to_bytes(4, "little")),
        # rel32 displacements landing near the branch
        st.integers(-64, 64).map(lambda r: (r & 0xFFFFFFFF).to_bytes(4, "little"))),
        max_size=24))
    data = b"".join(chunks)
    data = data[:max(0, len(data) - draw(st.integers(0, 7)))]
    # narrow, across 64 KiB blocks, or up to and past 2**32
    width = st.one_of(st.integers(-4, 300), st.integers(0, 2**18),
                      st.integers(0, 2**33))
    ranges = draw(st.lists(st.one_of(
        st.tuples(anchor, width).map(lambda t: (t[0], t[0] + t[1])),
        st.just((0, 0))), max_size=6))
    return data, base, ranges


class TestScanEquivalence:
    """scan_refs must return exactly the decode-everywhere reference set."""

    @settings(max_examples=600, deadline=None)
    @given(scan_inputs())
    def test_matches_reference(self, case):
        data, base, ranges = case
        assert scan_refs(data, base, ranges) == \
            reference_scan_refs(data, base, ranges)

    @pytest.mark.parametrize("ins", [
        b"\x68\xf0\xff\xff\xff", b"\xbf\x10\xff\xff\xff",
        b"\xe8\x04\x00\x00\x00", b"\xe9\xf0\xff\xff\xff", b"\xeb\x7f",
        b"\xff\x15\xf0\xff\xff\xff", b"\xff\x25\x10\x00\x00\x00"])
    @pytest.mark.parametrize("length", range(8))
    def test_truncated_tails(self, ins, length):
        # every operand lands in a range, rel targets after wrapping past 2**32
        base = 0xFFFFFFF8
        ranges = [(0xFFFFFF00, 2**32), (0, 0x100), (5, 5), (0x80, 0x10)]
        dump = ins[:length]
        refs = scan_refs(dump, base, ranges)
        assert refs == reference_scan_refs(dump, base, ranges)
        assert any(site == base for site, _ in refs) == (length >= len(ins))

    @pytest.mark.parametrize("data,ranges", [
        # hits at offset 0 and at offset n - 4
        ((0x401000).to_bytes(4, "little") + b"\x90" * 4
         + (0x402000).to_bytes(4, "little"), [(0x400000, 0x403000)]),
        # overlapping hits: 0x40004000 at offset 0, 0x00400040 at offset 1
        (b"\x00\x40\x00\x40\x00", [(0x400000, 0x500000),
                                    (0x40000000, 0x40010000)]),
        (b"", [(0, 2**32)]),
        (b"\x68", [(0, 2**32)]),
        (b"\xff\x15", [(0, 2**32)]),
        (b"\xe8\x00\x00", [(0, 2**32)]),
        # every range above 2**32: nothing can land in one
        (b"\xff" * 16 + b"\x68\x00\x00\x00\x00",
         [(2**32, 2**32 + 0x1000), (2**33, 2**34)]),
        # every dword of random bytes lands in [0, 2**32)
        (random.Random(0).randbytes(4096), [(0, 2**32)]),
    ])
    def test_table(self, data, ranges):
        base = 0x400000
        assert scan_refs(data, base, ranges) == \
            reference_scan_refs(data, base, ranges)

    @pytest.mark.parametrize("scenario", SCENARIO_IDS)
    def test_every_scenario_interval(self, scenario, monkeypatch):
        scanned = []

        def checked(data, base, candidate_ranges):
            got = scan_refs(data, base, candidate_ranges)
            assert got == reference_scan_refs(data, base, candidate_ranges)
            scanned.append(len(data))
            return got

        monkeypatch.setattr(regroup, "scan_refs", checked)
        trace, _ = generate_scenario(scenario, 3)
        analyze(trace)
        assert scanned

    def test_every_random_image_interval(self, monkeypatch):
        # random image bytes, and candidate ranges in two 64 KiB blocks
        scanned = []

        def checked(data, base, candidate_ranges):
            got = scan_refs(data, base, candidate_ranges)
            assert got == reference_scan_refs(data, base, candidate_ranges)
            scanned.append(len(data))
            return got

        monkeypatch.setattr(regroup, "scan_refs", checked)
        analyze(random_image_trace())
        assert scanned
