"""Speculative reference scanning."""

from __future__ import annotations

import re
import struct
from bisect import bisect_right

_REL_LEADS = re.compile(rb"[\xe8\xe9\xeb]")
_IMM32_LEADS = frozenset((0x68, *range(0xB8, 0xC0)))  # push imm32, mov r32, imm32
_MEM32_MODRM = (0x15, 0x25)  # after 0xff: call/jmp dword [disp32]
_U32_AT = struct.Struct("<I").unpack_from


def _normalise_ranges(ranges) -> tuple[list[int], list[int]]:
    """Sorted, disjoint (lo, hi) bounds covering the union of non-empty ranges."""
    los: list[int] = []
    his: list[int] = []
    for lo, hi in sorted((lo, hi) for lo, hi in ranges if lo < hi):
        if his and lo <= his[-1]:
            his[-1] = max(his[-1], hi)
        else:
            los.append(lo)
            his.append(hi)
    return los, his


def _byte_class(runs) -> bytes:
    """A regex class of the bytes in ascending, disjoint inclusive runs."""
    return b"[%s]" % b"".join(
        b"\\x%02x" % lo if lo == hi else b"\\x%02x-\\x%02x" % (lo, hi)
        for lo, hi in runs)


def _dword_pattern(los: list[int], his: list[int]) -> re.Pattern | None:
    """A pattern matching the top byte of every little-endian dword whose
    high 16 bits some range covers; None when no range lies below 2**32.

    Top bytes that share one set of second-highest bytes are one
    alternative, TOPCLASS(?<=LOWCLASS[\\x00-\\xff]): the lookbehind reads the
    second-highest byte back from just after the top byte.
    """
    lows: dict[int, list[list[int]]] = {}  # top byte -> runs of second bytes
    for lo, hi in zip(los, his):
        if lo >= 1 << 32:
            break
        a, b = max(lo, 0) >> 16, (min(hi, 1 << 32) - 1) >> 16
        for top in range(a >> 8, (b >> 8) + 1):
            first = a & 0xFF if top == a >> 8 else 0
            last = b & 0xFF if top == b >> 8 else 0xFF
            runs = lows.setdefault(top, [])
            if runs and first <= runs[-1][1] + 1:
                runs[-1][1] = max(runs[-1][1], last)
            else:
                runs.append([first, last])
    if not lows:
        return None
    tops: dict[bytes, list[list[int]]] = {}  # second-byte class -> top runs
    for top, runs in lows.items():
        group = tops.setdefault(_byte_class(runs), [])
        if group and group[-1][1] + 1 == top:
            group[-1][1] = top
        else:
            group.append([top, top])
    return re.compile(b"|".join(
        b"%s(?<=%s[\\x00-\\xff])" % (_byte_class(top_runs), low)
        for low, top_runs in tops.items()))


def scan_refs(data: bytes, base: int, candidate_ranges) -> set[tuple[int, int]]:
    """Harvest cross-references from a dump without known boundaries.

    Equivalent to decoding at every byte offset and keeping absolute or
    relative operands landing in a candidate range, plus every raw
    little-endian dword (at any offset) landing in one as a data reference.
    Over-approximates by design: a false reference only over-merges groups,
    which keeps output self-contained.

    Runs in one pass whose work grows with the dump size plus the number of
    hits, not with the number of ranges: one regex pass finds the dwords
    whose high 16 bits a range covers, and only those are bisected.
    Absolute operands are exactly the dword hits whose preceding bytes form
    a push/mov imm32 or ff 15/ff 25 lead; relative branches are found by
    searching for their opcode bytes.
    """
    refs: set[tuple[int, int]] = set()
    los, his = _normalise_ranges(candidate_ranges)
    if not los:
        return refs

    def inside(value: int) -> bool:
        i = bisect_right(los, value)
        return i > 0 and value < his[i - 1]

    n = len(data)
    dwords = _dword_pattern(los, his)
    if dwords is not None:
        # a match is a dword's top byte, so the dword starts 3 bytes earlier
        for m in dwords.finditer(data, 3):
            p = m.start() - 3
            word = _U32_AT(data, p)[0]
            if not inside(word):
                continue
            refs.add((base + p, word))
            if p >= 1 and data[p - 1] in _IMM32_LEADS:
                refs.add((base + p - 1, word))
            if p >= 2 and data[p - 2] == 0xFF and data[p - 1] in _MEM32_MODRM:
                refs.add((base + p - 2, word))

    for m in _REL_LEADS.finditer(data):
        off = m.start()
        site = base + off
        if data[off] == 0xEB:
            if off + 2 > n:
                continue
            rel = data[off + 1]
            target = (site + 2 + rel - ((rel & 0x80) << 1)) & 0xFFFFFFFF
        else:
            if off + 5 > n:
                continue
            # unsigned rel32 wraps to the same target as the signed one
            target = (site + 5 + _U32_AT(data, off + 1)[0]) & 0xFFFFFFFF
        if inside(target):
            refs.add((site, target))
    return refs
