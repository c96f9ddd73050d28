"""Independent reference implementations used only as test oracles.

Nothing here may import from the production code it checks: the taint
reference is a set-algebra rewrite of the dataflow rules, the PE reader is a
from-scratch struct parser, the reference scanner decodes at every byte
offset with the subset decoder defined here, which has its own table tests,
and the wave references test every byte of every instruction one by one.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import NamedTuple


# --- naive two-set taint reference ------------------------------------------

# The reference state is a pair of frozensets: tainted memory ids (g) and
# tainted (pid, tid, register) triples.

def naive_init(image_event) -> tuple[frozenset, frozenset]:
    mem = frozenset(range(image_event.gbase,
                          image_event.gbase + len(image_event.bytes)))
    return mem, frozenset()


def naive_tainted(ev, state) -> bool:
    mem, _ = state
    return any(g in mem for g in range(ev.gaddr, ev.gaddr + len(ev.bytes)))


def naive_update(ev, state, twrites: dict) -> tuple[tuple, dict]:
    """Functional rewrite of the propagation step over one instruction."""
    mem, regs = state
    in_mem = {m.g for m in ev.reads}
    in_regs = {(ev.pid, ev.tid, r) for r in ev.rregs}
    out_mem = {m.g for m in ev.writes}
    out_regs = {(ev.pid, ev.tid, r) for r in ev.wregs}
    code = set(range(ev.gaddr, ev.gaddr + len(ev.bytes)))

    hot = bool(in_mem & mem) or bool(in_regs & regs) or bool(code & mem)
    if hot:
        new_mem, new_regs = mem | out_mem, regs | out_regs
    else:
        new_mem, new_regs = mem - out_mem, regs - out_regs

    new_tw = {pid: dict(m) for pid, m in twrites.items()}
    for w in ev.writes:
        if w.g in new_mem and w.space_pid == ev.pid:
            new_tw.setdefault(ev.pid, {})[w.v] = w.val
    return (new_mem, new_regs), new_tw


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
    size_of_code: int
    size_of_init_data: int
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
    size_of_code, size_of_init_data = struct.unpack_from("<II", data, opt + 4)
    (entry,) = struct.unpack_from("<I", data, opt + 16)
    image_base, section_align, file_align = struct.unpack_from(
        "<III", data, opt + 28)
    size_of_image, size_of_headers = struct.unpack_from("<II", data, opt + 56)
    (subsystem,) = struct.unpack_from("<H", data, opt + 68)
    (num_dirs,) = struct.unpack_from("<I", data, opt + 92)
    dirs = opt + 96
    import_dir = struct.unpack_from("<II", data, dirs + 8)
    iat_dir = struct.unpack_from("<II", data, dirs + 8 * 12)

    pe = ParsedPe(machine=machine, magic=magic, size_of_code=size_of_code,
                  size_of_init_data=size_of_init_data,
                  entry=entry, image_base=image_base,
                  section_align=section_align,
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


# --- fixed x86-32 subset decoder and decode-at-every-offset scanner --------

class DecodeError(ValueError):
    """The bytes are outside the subset, or too few for its instruction."""


class Decoded(NamedTuple):
    length: int
    mnemonic: str
    abs_ref: int | None = None
    rel_target: int | None = None


_ONE_BYTE = {0x90: "nop", 0xCC: "int3", 0xC3: "ret"}


def _need(data: bytes, n: int) -> None:
    if len(data) < n:
        raise DecodeError(f"need {n} bytes, have {len(data)}")


def decode(data: bytes, vaddr: int) -> Decoded:
    """Decode the one instruction at the start of `data`, placed at `vaddr`.

    The subset is what the pipeline emits and patches: push imm32,
    mov r32 imm32, call/jmp rel32, jmp rel8, call/jmp dword [disp32],
    call/jmp r32, ror eax imm8, ret, nop and int3.
    """
    _need(data, 1)
    op = data[0]
    if op in _ONE_BYTE:
        return Decoded(1, _ONE_BYTE[op])
    if op == 0x68 or 0xB8 <= op <= 0xBF:
        _need(data, 5)
        return Decoded(5, "push" if op == 0x68 else "mov",
                       abs_ref=struct.unpack_from("<I", data, 1)[0])
    if op in (0xE8, 0xE9, 0xEB):
        length, fmt = (2, "<b") if op == 0xEB else (5, "<i")
        _need(data, length)
        rel = struct.unpack_from(fmt, data, 1)[0]
        return Decoded(length, "call" if op == 0xE8 else "jmp",
                       rel_target=(vaddr + length + rel) & 0xFFFFFFFF)
    if op == 0xC1 and data[1:2] == b"\xc8":
        _need(data, 3)
        return Decoded(3, "ror")
    if op == 0xFF and len(data) >= 2:
        modrm = data[1]
        if modrm in (0x15, 0x25):
            _need(data, 6)
            return Decoded(6, "call" if modrm == 0x15 else "jmp",
                           abs_ref=struct.unpack_from("<I", data, 2)[0])
        if 0xD0 <= modrm <= 0xD7:
            return Decoded(2, "call")
        if 0xE0 <= modrm <= 0xE7:
            return Decoded(2, "jmp")
    raise DecodeError(f"{data[:2].hex()} is outside the subset or truncated")


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
            ins = decode(data[off:off + 6], site)
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


# --- per-byte wave classification and semantics references -----------------

def reference_classify_case(ev, state) -> int:
    """Test every byte of the encoding against the shadow and tainted writes:
    the specification of wave_collector.classify_case."""
    shadow = state.shadow
    tw = state.twrites
    span = list(range(ev.vaddr, ev.vaddr + len(ev.bytes)))
    in_shadow = [v in shadow for v in span]
    in_tw = [v in tw for v in span]
    if not any(in_shadow) and not any(in_tw):
        return 1
    if any(t and not s for s, t in zip(in_shadow, in_tw)):
        return 2
    if all(in_shadow) and any(
            v in tw and tw.get(v) != shadow.get(v) for v in span):
        return 3
    return 4


def reference_tainted_seqs(events) -> list[int]:
    """Seqs of the instructions the reference taint rules call tainted, in
    trace order: the malware trace that the waves partition."""
    state = (frozenset(), frozenset())
    seqs = []
    for ev in events:
        if ev.kind == "image":
            state = naive_init(ev)
        elif ev.kind == "instr":
            if naive_tainted(ev, state):
                seqs.append(ev.seq)
            state, _ = naive_update(ev, state, {})
    return seqs


def _instrs(rec) -> list[tuple[int, int, bytes]]:
    """(seq, vaddr, encoding) of each instruction of a wave, whose log keeps
    the seqs and, in `ids`, indexes into its table of distinct `code`."""
    code = list(rec.instrs.code)
    return [(seq, *code[i]) for seq, i in zip(rec.instrs.seqs, rec.instrs.ids)]


def _code_pairs(vaddr, code):
    return [(vaddr + i, b) for i, b in enumerate(code)]


def reference_verify_wave_semantics(records, collected, image_event) -> list[str]:
    """Check the four wave-set requirements pair by pair, per instruction:
    the specification of wave_collector.verify_wave_semantics, whose
    violations print as the strings returned here, in the same order.

    The malware trace is the instructions of the `collected` waves.
    """
    out: list[str] = []

    def violation(bullet, pid, wave_index, detail):
        out.append(f"bullet {bullet} (pid {pid} wave {wave_index}): {detail}")

    seen: dict[int, tuple[int, int]] = {}
    for rec in records:
        for seq, _, _ in _instrs(rec):
            if seq in seen:
                violation(1, rec.pid, rec.wave_index,
                          f"instruction seq {seq} appears in wave "
                          f"{seen[seq]} and again here")
            seen[seq] = (rec.pid, rec.wave_index)
    mtrace = sorted((seq, rec.pid) for rec in collected
                    for seq, _, _ in _instrs(rec))
    for seq, pid in mtrace:
        if seq not in seen:
            violation(1, pid, -1, f"instruction seq {seq} is in no wave")

    def seqs(rec):
        return [seq for seq, _, _ in _instrs(rec)]

    by_pid: dict[int, list] = {}
    for rec in records:
        by_pid.setdefault(rec.pid, []).append(rec)
    for pid, recs in by_pid.items():
        recs = sorted(recs, key=lambda r: r.wave_index)
        for prev, cur in zip(recs, recs[1:]):
            if seqs(prev)[-1] >= seqs(cur)[0]:
                violation(2, pid, cur.wave_index,
                          f"wave overlaps predecessor: seq {seqs(prev)[-1]} "
                          f">= {seqs(cur)[0]}")

    image_pairs = set()
    if image_event is not None:
        image_pairs = {(image_event.base + i, b)
                       for i, b in enumerate(image_event.bytes)}
    for rec in records:
        earlier_tw = set()
        for other in records:
            if other is not rec and seqs(other)[0] < seqs(rec)[0]:
                earlier_tw.update(other.twrite_pairs.items())
        own_pairs = set()
        for _, vaddr, code in _instrs(rec):
            own_pairs.update(_code_pairs(vaddr, code))
        for pair in rec.shadow_pairs.items():
            if pair in image_pairs or pair in earlier_tw or pair in own_pairs:
                continue
            violation(3, rec.pid, rec.wave_index,
                      f"shadow pair ({pair[0]:#x}, {pair[1]:#04x}) has no "
                      f"legitimate provenance")

    for rec in records:
        for seq, vaddr, code in _instrs(rec):
            for v, b in _code_pairs(vaddr, code):
                if rec.shadow_pairs.get(v) != b:
                    violation(4, rec.pid, rec.wave_index,
                              f"instruction seq {seq} byte at {v:#x} "
                              f"missing from shadow")
                    break
    return out
