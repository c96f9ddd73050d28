"""Build PE32 images from memory groups: imports, patching, emission.

Image base is 0 so every RVA equals the original virtual address; dumped
intervals keep their addresses as individual sections and the rebuilt
import table sits between the headers and the lowest interval. Output
targets static analysis, not loading.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from .regroup import Interval, MemoryGroup, holder

PAGE = 0x1000
FILE_ALIGN = 0x200
SECTION_ALIGN = 0x1000
DEFAULT_IDATA_RVA = 0x1000

IMAGE_FILE_MACHINE_I386 = 0x014C
PE32_MAGIC = 0x10B
# executable, 32-bit, relocs stripped
COFF_CHARACTERISTICS = 0x0103
# code | initialized data | execute | read | write
SECTION_CHARACTERISTICS = 0xE0000060
SUBSYSTEM_CONSOLE = 3


class EmitError(ValueError):
    pass


class PatchIntegrityError(ValueError):
    pass


def _align(value: int, granule: int) -> int:
    return (value + granule - 1) // granule * granule


@dataclass
class ImportTable:
    """Import directory + thunks + names laid out inside one .idata blob."""

    entries: list[tuple[str, list[str]]] = field(default_factory=list)
    placement_rva: int = DEFAULT_IDATA_RVA
    slots: dict[tuple[str, str], int] = field(default_factory=dict)
    blob: bytes = b""
    iat_rva: int = 0
    iat_size: int = 0
    directory_size: int = 0

    def _layout(self):
        base = self.placement_rva
        ndll = len(self.entries)
        desc_size = 20 * (ndll + 1)
        self.directory_size = desc_size

        thunk_counts = [len(fns) + 1 for _, fns in self.entries]
        ilt_offsets, cursor = [], desc_size
        for count in thunk_counts:
            ilt_offsets.append(cursor)
            cursor += 4 * count
        iat_offsets = []
        iat_start = cursor
        for count in thunk_counts:
            iat_offsets.append(cursor)
            cursor += 4 * count
        self.iat_rva = base + iat_start
        self.iat_size = cursor - iat_start

        hint_offsets: dict[tuple[str, str], int] = {}
        hints = bytearray()
        for dll, fns in self.entries:
            for fn in fns:
                hint_offsets[(dll, fn)] = cursor + len(hints)
                hints += struct.pack("<H", 0) + fn.encode("ascii") + b"\x00"
                if len(hints) % 2:
                    hints += b"\x00"
        cursor += len(hints)

        name_offsets: dict[str, int] = {}
        names = bytearray()
        for dll, _ in self.entries:
            name_offsets[dll] = cursor + len(names)
            names += dll.encode("ascii") + b"\x00"
        cursor += len(names)

        blob = bytearray(cursor)
        pos = 0
        for i, (dll, fns) in enumerate(self.entries):
            struct.pack_into("<IIIII", blob, pos,
                             base + ilt_offsets[i], 0, 0,
                             base + name_offsets[dll], base + iat_offsets[i])
            pos += 20
        pos += 20  # null terminator descriptor stays zero

        for i, (dll, fns) in enumerate(self.entries):
            for which in (ilt_offsets[i], iat_offsets[i]):
                p = which
                for fn in fns:
                    struct.pack_into("<I", blob, p, base + hint_offsets[(dll, fn)])
                    p += 4
        for j, (dll, fns) in enumerate(self.entries):
            for k, fn in enumerate(fns):
                self.slots[(dll, fn)] = base + iat_offsets[j] + 4 * k

        blob[len(blob) - len(hints) - len(names):len(blob) - len(names)] = hints
        blob[len(blob) - len(names):] = names
        self.blob = bytes(blob)


def _place_idata(size: int, intervals: list[Interval]) -> int:
    """Default page 0x1000; on collision take the first free page gap above."""
    span = max(PAGE, _align(max(size, 1), PAGE))

    def collides(rva):
        return any(iv.base < rva + span and rva < iv.end for iv in intervals)

    rva = DEFAULT_IDATA_RVA
    while collides(rva):
        rva += PAGE
        if rva + span > 0xFFFFF000:
            raise EmitError("no page gap available for the import section")
    return rva


def build_import_table(group: MemoryGroup) -> ImportTable:
    """One IAT slot per unique function of the group's calls.

    Names are stored as NUL-terminated ASCII, so a called function whose
    module or function name is not ASCII or holds a NUL cannot be imported.
    """
    table = ImportTable()
    order: dict[str, list[str]] = {}
    for call in group.calls:
        fns = order.setdefault(call.module_name, [])
        if call.function_name not in fns:
            for name in (call.module_name, call.function_name):
                if not name.isascii() or "\0" in name:
                    raise EmitError(f"cannot import {call.qualified_name!r}: "
                                    f"names must be ASCII without NUL")
            fns.append(call.function_name)
    table.entries = list(order.items())
    table.placement_rva = 0
    table._layout()  # first pass only measures the blob
    table.placement_rva = _place_idata(len(table.blob), group.intervals)
    table._layout()
    return table


def patch_branches(group: MemoryGroup,
                   table: ImportTable) -> tuple[list[bytes], list[dict]]:
    """Retarget 6-byte call/jmp sites at the rebuilt IAT, sidecar the rest.

    Six bytes fit an indirect-absolute form in place, so those sites become
    FF 15 / FF 25 through the new slot when all six lie in the interval
    holding the site and every call from the site reached one function;
    shorter sites, sites running onto a page the wave never dumped and
    sites that reached several functions cannot be rewritten to one slot
    and are only recorded. The sidecar lists each (site, function) pair
    once, in detection order.
    """
    bufs = [bytearray(iv.bytes) for iv in group.intervals]
    reached: dict[int, set[str]] = {}  # site -> the functions it reached
    for call in group.calls:
        reached.setdefault(call.caller_vaddr, set()).add(call.qualified_name)
    sidecar = []
    listed = set()
    for call in group.calls:
        site = call.caller_vaddr
        if (site, call.qualified_name) in listed:
            continue
        listed.add((site, call.qualified_name))
        i = holder(group.intervals, site)
        buf = bufs[i]
        off = site - group.intervals[i].base
        # the site's bytes up to the interval's end, the ones dumped
        dumped = bytes(buf[off:off + call.caller_len])
        if dumped != call.caller_bytes[:len(dumped)]:
            raise PatchIntegrityError(
                f"dump/trace mismatch at {site:#x}: "
                f"dump {dumped.hex()} vs trace {call.caller_bytes.hex()}")
        slot = table.slots[(call.module_name, call.function_name)]
        patched = (len(reached[site]) == 1
                   and len(dumped) == call.caller_len == 6
                   and call.btype in ("call", "jmp"))
        if patched:
            opcode = 0x15 if call.btype == "call" else 0x25
            buf[off:off + 6] = bytes((0xFF, opcode)) + struct.pack("<I", slot)
        sidecar.append({
            "caller_vaddr": site,
            "len": call.caller_len,
            "function": call.qualified_name,
            "slot_rva": slot,
            "patched": patched,
        })
    return [bytes(buf) for buf in bufs], sidecar


def write_sidecar(api_entries: list[dict],
                  xrefs: set[tuple[int, int]]) -> list[dict]:
    """Combined sidecar: call sites plus inter-interval references."""
    entries = [dict(e, kind="api") for e in api_entries]
    entries += [{"kind": "xref", "site": s, "target": t} for s, t in sorted(xrefs)]
    entries.sort(key=lambda e: (e.get("caller_vaddr", e.get("site", 0)), e["kind"]))
    return entries


@dataclass
class SectionSpec:
    name: str
    rva: int
    data: bytes


@dataclass
class PEArtifact:
    group: MemoryGroup
    data: bytes  # the PE file
    sidecar: list[dict]


def layout_sections(group: MemoryGroup, table: ImportTable,
                    patched_bytes: list[bytes]) -> list[SectionSpec]:
    """.idata plus one .wsegN per interval, sorted by RVA, disjoint and
    inside a 32-bit image."""
    sections = [SectionSpec(".idata", table.placement_rva, table.blob)]
    for iv, data in zip(group.intervals, patched_bytes):
        if len(data) != iv.end - iv.base:
            raise EmitError("patched interval size changed")
        sections.append(SectionSpec(f".wseg{len(sections) - 1}", iv.base, data))
    sections.sort(key=lambda s: s.rva)

    prev_end = 0
    for sec in sections:
        # emit_pe's SizeOfImage term, which must fit its 32-bit field
        if sec.rva < 0 or _align(sec.rva + max(len(sec.data), 1),
                                 SECTION_ALIGN) >= 1 << 32:
            raise EmitError(f"section {sec.name} at {sec.rva:#x} does not fit "
                            f"in a 32-bit image")
        if sec.rva < prev_end:
            raise EmitError(f"section {sec.name} overlaps at {sec.rva:#x}")
        prev_end = sec.rva + _align(max(len(sec.data), 1), SECTION_ALIGN)
    return sections


def emit_pe(sections: list[SectionSpec], table: ImportTable,
            entry: int) -> bytes:
    """Emit a PE32 holding the sections `layout_sections` laid out."""
    n = len(sections)
    headers_size = 64 + 4 + 20 + 224 + 40 * n
    size_of_headers = _align(headers_size, FILE_ALIGN)

    raw_ptr = size_of_headers
    raws = []
    for sec in sections:
        raw_size = _align(len(sec.data), FILE_ALIGN)
        raws.append((raw_ptr if raw_size else 0, raw_size))
        raw_ptr += raw_size

    size_of_image = _align(
        max(sec.rva + max(len(sec.data), 1) for sec in sections), SECTION_ALIGN)
    size_of_image = max(size_of_image, SECTION_ALIGN)

    out = bytearray(raw_ptr)
    # DOS header: magic, e_lfanew at 0x3c
    struct.pack_into("<H", out, 0, 0x5A4D)
    struct.pack_into("<I", out, 0x3C, 64)
    struct.pack_into("<I", out, 64, 0x00004550)  # "PE\0\0"
    struct.pack_into("<HHIIIHH", out, 68,
                     IMAGE_FILE_MACHINE_I386, n, 0, 0, 0, 224,
                     COFF_CHARACTERISTICS)

    opt = 88
    code_size = sum(len(s.data) for s in sections if s.name != ".idata")
    struct.pack_into("<HBBIIIIII", out, opt,
                     PE32_MAGIC, 0, 0, code_size, len(table.blob), 0,
                     entry, entry, 0)
    struct.pack_into("<IIIHHHHHHIIIIHHIIIIII", out, opt + 28,
                     0,                 # ImageBase: RVA == original VA
                     SECTION_ALIGN, FILE_ALIGN,
                     0, 0, 0, 0, 0, 0,  # versions
                     0,                 # Win32VersionValue
                     size_of_image, size_of_headers,
                     0,                 # checksum
                     SUBSYSTEM_CONSOLE, 0,
                     0x100000, 0x1000, 0x100000, 0x1000,
                     0, 16)
    dirs = opt + 96
    struct.pack_into("<II", out, dirs + 8 * 1, table.placement_rva,
                     table.directory_size)
    struct.pack_into("<II", out, dirs + 8 * 12, table.iat_rva, table.iat_size)

    sec_table = opt + 224
    for i, sec in enumerate(sections):
        ptr, raw_size = raws[i]
        name = sec.name.encode("ascii")[:8].ljust(8, b"\x00")
        struct.pack_into("<8sIIIIIIHHI", out, sec_table + 40 * i,
                         name, len(sec.data), sec.rva, raw_size, ptr,
                         0, 0, 0, 0, SECTION_CHARACTERISTICS)
        out[ptr:ptr + len(sec.data)] = sec.data
    return bytes(out)


def build_artifact(group: MemoryGroup) -> PEArtifact:
    """Run the full static stage for one kept memory group, entering it
    at `group.entry`."""
    table = build_import_table(group)
    patched, api_entries = patch_branches(group, table)
    sections = layout_sections(group, table, patched)
    return PEArtifact(group=group, data=emit_pe(sections, table, group.entry),
                      sidecar=write_sidecar(api_entries, group.xrefs))
