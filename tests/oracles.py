"""Independent reference implementations used only as test oracles.

Nothing here may import from the production code it checks: the taint
reference is a label-set rewrite of the dataflow rules, the PE reader is a
from-scratch struct parser, and the reference scanner decodes at every byte
offset with the single-instruction decoder, which has its own table tests.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from waveunpack.disasm import DecodeError, decode_one


# --- naive set-of-labels taint reference ------------------------------------

def naive_init(image_event) -> frozenset:
    return frozenset(("m", g) for g in
                     range(image_event.gbase,
                           image_event.gbase + len(image_event.bytes)))


def naive_tainted(ev, state: frozenset) -> bool:
    return any(("m", g) in state
               for g in range(ev.gaddr, ev.gaddr + len(ev.bytes)))


def naive_update(ev, state: frozenset, twrites: dict) -> tuple[frozenset, dict]:
    """Functional rewrite of the propagation step over one instruction."""
    inputs = {("m", m.g) for m in ev.reads}
    inputs |= {("r", ev.pid, ev.tid, r) for r in ev.rregs}
    outputs = {("m", m.g) for m in ev.writes}
    outputs |= {("r", ev.pid, ev.tid, r) for r in ev.wregs}
    code = {("m", g) for g in range(ev.gaddr, ev.gaddr + len(ev.bytes))}

    hot = bool(inputs & state) or bool(code & state)
    new_state = state | outputs if hot else state - outputs

    new_tw = {pid: dict(m) for pid, m in twrites.items()}
    for w in ev.writes:
        if ("m", w.g) in new_state and w.space_pid == ev.pid:
            new_tw.setdefault(ev.pid, {})[w.v] = w.val
    return frozenset(new_state), new_tw


# --- minimal independent PE32 reader ----------------------------------------

@dataclass
class PeSection:
    name: str
    vaddr: int
    vsize: int
    raw_ptr: int
    raw_size: int
    characteristics: int
    data: bytes


@dataclass
class ParsedPe:
    machine: int
    magic: int
    entry: int
    image_base: int
    section_align: int
    file_align: int
    size_of_image: int
    subsystem: int
    num_dirs: int
    import_dir: tuple[int, int]
    iat_dir: tuple[int, int]
    sections: list[PeSection] = field(default_factory=list)
    imports: dict[str, list[str]] = field(default_factory=dict)
    iat_slots: dict[int, tuple[str, str]] = field(default_factory=dict)

    def section_at(self, rva: int) -> PeSection | None:
        for sec in self.sections:
            if sec.vaddr <= rva < sec.vaddr + max(sec.vsize, sec.raw_size):
                return sec
        return None

    def read_va(self, rva: int, size: int) -> bytes:
        sec = self.section_at(rva)
        if sec is None:
            raise ValueError(f"rva {rva:#x} not inside any section")
        off = rva - sec.vaddr
        chunk = sec.data[off:off + size]
        return chunk + b"\x00" * (size - len(chunk))

    def read_cstr(self, rva: int) -> str:
        out = bytearray()
        while True:
            b = self.read_va(rva + len(out), 1)
            if b == b"\x00":
                return out.decode("ascii")
            out += b


def read_pe(data: bytes) -> ParsedPe:
    if data[:2] != b"MZ":
        raise ValueError("not an MZ file")
    (e_lfanew,) = struct.unpack_from("<I", data, 0x3C)
    if data[e_lfanew:e_lfanew + 4] != b"PE\x00\x00":
        raise ValueError("missing PE signature")
    coff = e_lfanew + 4
    machine, nsections, _, _, _, opt_size, _ = struct.unpack_from(
        "<HHIIIHH", data, coff)
    opt = coff + 20
    (magic,) = struct.unpack_from("<H", data, opt)
    if magic != 0x10B:
        raise ValueError(f"not PE32 (magic {magic:#x})")
    (entry,) = struct.unpack_from("<I", data, opt + 16)
    image_base, section_align, file_align = struct.unpack_from(
        "<III", data, opt + 28)
    size_of_image, size_of_headers = struct.unpack_from("<II", data, opt + 56)
    (subsystem,) = struct.unpack_from("<H", data, opt + 68)
    (num_dirs,) = struct.unpack_from("<I", data, opt + 92)
    dirs = opt + 96
    import_dir = struct.unpack_from("<II", data, dirs + 8)
    iat_dir = struct.unpack_from("<II", data, dirs + 8 * 12)

    pe = ParsedPe(machine=machine, magic=magic, entry=entry,
                  image_base=image_base, section_align=section_align,
                  file_align=file_align, size_of_image=size_of_image,
                  subsystem=subsystem, num_dirs=num_dirs,
                  import_dir=import_dir, iat_dir=iat_dir)

    table = opt + opt_size
    for i in range(nsections):
        name_raw, vsize, vaddr, raw_size, raw_ptr, _, _, _, _, chars = \
            struct.unpack_from("<8sIIIIIIHHI", data, table + 40 * i)
        pe.sections.append(PeSection(
            name=name_raw.rstrip(b"\x00").decode("ascii"),
            vaddr=vaddr, vsize=vsize, raw_ptr=raw_ptr, raw_size=raw_size,
            characteristics=chars,
            data=data[raw_ptr:raw_ptr + raw_size]))

    imp_rva, _ = import_dir
    if imp_rva:
        pos = imp_rva
        while True:
            desc = pe.read_va(pos, 20)
            ilt, _, _, name_rva, iat = struct.unpack("<IIIII", desc)
            if ilt == 0 and name_rva == 0 and iat == 0:
                break
            dll = pe.read_cstr(name_rva)
            fns = []
            slot = iat
            thunk = ilt
            while True:
                (hint_rva,) = struct.unpack("<I", pe.read_va(thunk, 4))
                if hint_rva == 0:
                    break
                fn = pe.read_cstr(hint_rva + 2)
                fns.append(fn)
                (iat_val,) = struct.unpack("<I", pe.read_va(slot, 4))
                if iat_val != hint_rva:
                    raise ValueError(
                        f"IAT slot {slot:#x} does not chain to its name")
                pe.iat_slots[slot] = (dll, fn)
                thunk += 4
                slot += 4
            pe.imports[dll] = fns
            pos += 20
    return pe


# --- decode-at-every-offset reference scanner -------------------------------

def _in_ranges(value: int, ranges) -> bool:
    return any(lo <= value < hi for lo, hi in ranges)


def reference_scan_refs(data: bytes, base: int,
                        candidate_ranges) -> set[tuple[int, int]]:
    """Decode at every byte offset and test every operand and raw dword
    against a linear list of ranges: the specification of scan_refs."""
    refs: set[tuple[int, int]] = set()
    ranges = list(candidate_ranges)
    if not ranges:
        return refs
    for off in range(len(data)):
        site = base + off
        try:
            ins = decode_one(data[off:off + 6], site)
        except DecodeError:
            ins = None
        if ins is not None:
            for target in (ins.abs_ref, ins.rel_target):
                if target is not None and _in_ranges(target, ranges):
                    refs.add((site, target))
        if off + 4 <= len(data):
            word = struct.unpack_from("<I", data, off)[0]
            if _in_ranges(word, ranges):
                refs.add((site, word))
    return refs
