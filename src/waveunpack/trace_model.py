"""Whole-system instruction trace: JSON-Lines format, validation, replay store.

A trace file is one header line followed by one event object per line;
a line ends at LF. Event kinds:

  image    {kind, pid, base, gbase, name, bytes:hex}
  module   {kind, pid, base, name, exports:[{name, rva}]}
  instr    {kind, seq, pid, tid, vaddr, gaddr, bytes:hex, reads, writes,
            rregs, wregs, branch?, stack_top?, regvals?}
  procexit {kind, pid}

Memory locations carry both a per-process virtual address ``v`` and a
global location id ``g`` (physical-address analog) so that writes through
shared mappings stay observable across processes.
"""

from __future__ import annotations

import gc
import io
import json
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

FORMAT_VERSION = 1
DEFAULT_PAGE_SIZE = 4096
MIN_PAGE_SIZE = 0x1000  # PE sections are laid out at 0x1000 alignment
MAX_PAGE_SIZE = 0x400000  # the largest x86-32 page
X86_MAX_INSTR_LEN = 15

_U32 = 1 << 32


class TraceFormatError(ValueError):
    """Malformed trace file or invariant violation, with a line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def check_page_size(size) -> int:
    """Return `size` if it is a power of two from MIN_PAGE_SIZE to
    MAX_PAGE_SIZE, else raise."""
    if (type(size) is not int or not MIN_PAGE_SIZE <= size <= MAX_PAGE_SIZE
            or size & (size - 1)):
        raise ValueError(
            f"page size {size!r} is not a power of two from {MIN_PAGE_SIZE:#x} "
            f"to {MAX_PAGE_SIZE:#x}")
    return size


class MemLoc(NamedTuple):
    """One byte of memory with its global id and per-process view."""

    g: int
    v: int
    space_pid: int
    val: int


@dataclass(frozen=True)
class Branch:
    target_vaddr: int
    btype: str  # call | jmp | ret


@dataclass(frozen=True)
class Export:
    name: str
    rva: int


@dataclass(slots=True)
class TraceEvent:
    """One trace line; unused fields stay at their defaults per kind."""

    kind: str
    pid: int
    # instr fields
    seq: int | None = None
    tid: int | None = None
    vaddr: int | None = None
    gaddr: int | None = None
    bytes: bytes = b""
    reads: tuple[MemLoc, ...] = ()
    writes: tuple[MemLoc, ...] = ()
    rregs: tuple[str, ...] = ()
    wregs: tuple[str, ...] = ()
    branch: Branch | None = None
    stack_top: int | None = None
    regvals: dict[str, int] | None = None
    # image / module fields
    base: int | None = None
    gbase: int | None = None
    name: str | None = None
    exports: tuple[Export, ...] = ()

    def vspan(self):
        """Virtual addresses occupied by the instruction encoding."""
        return range(self.vaddr, self.vaddr + len(self.bytes))


@dataclass
class SystemTrace:
    # a list from parse_trace, a one-pass iterator from iter_trace
    events: list[TraceEvent] | Iterator[TraceEvent] = field(default_factory=list)
    page_size: int = DEFAULT_PAGE_SIZE


_VALID_KINDS = ("image", "module", "instr", "procexit")
_REQUIRED_KEYS = {
    "image": frozenset({"kind", "pid", "base", "gbase", "name", "bytes"}),
    "module": frozenset({"kind", "pid", "base", "name", "exports"}),
    "instr": frozenset({
        "kind", "seq", "pid", "tid", "vaddr", "gaddr", "bytes",
        "reads", "writes", "rregs", "wregs",
    }),
    "procexit": frozenset({"kind", "pid"}),
}
_ALLOWED_KEYS = {kind: keys | ({"branch", "stack_top", "regvals"}
                               if kind == "instr" else set())
                 for kind, keys in _REQUIRED_KEYS.items()}
_MEMLOC_KEYS = ("g", "v", "space_pid", "val")
_INSTR_INT_KEYS = ("seq", "pid", "tid", "vaddr", "gaddr")
_INSTR_LIST_KEYS = ("reads", "writes", "rregs", "wregs")
_INSTR_KEY_COUNT = len(_REQUIRED_KEYS["instr"])

# the C scanner behind json.loads, for lines without surrounding whitespace
_scan_json = json.JSONDecoder().scan_once


def _need(obj, key, line):
    if key not in obj:
        raise TraceFormatError(f"missing key '{key}'", line)
    return obj[key]


_TYPE_NAMES = {int: "an integer", str: "a string", list: "a list",
               dict: "an object"}
_JSON_TYPE_NAMES = {type(None): "null", bool: "a boolean", float: "a number",
                    **_TYPE_NAMES}


def _need_type(value, kind, what, line):
    """Return `value` if its type is exactly `kind` (so bools are not ints)."""
    if type(value) is not kind:
        found = _JSON_TYPE_NAMES.get(type(value), type(value).__name__)
        raise TraceFormatError(f"{what} must be {_TYPE_NAMES[kind]}, not {found}",
                               line)
    return value


def _typed_fields(obj, keys, kind, line):
    """Raise for the first of `keys` whose value is not of type `kind`."""
    for key in keys:
        _need_type(obj[key], kind, f"'{key}'", line)


def _key_error(obj, kind, line) -> TraceFormatError:
    missing = _REQUIRED_KEYS[kind] - obj.keys()
    if missing:
        return TraceFormatError(f"missing key '{sorted(missing)[0]}'", line)
    unknown = obj.keys() - _ALLOWED_KEYS[kind]
    return TraceFormatError(f"unknown key '{sorted(unknown)[0]}' for kind {kind}",
                            line)


def _hex_bytes(text, line):
    _need_type(text, str, "'bytes'", line)
    try:
        return bytes.fromhex(text)
    except ValueError:
        raise TraceFormatError(f"invalid hex string {text!r}", line) from None


def _memloc(obj, line):
    _need_type(obj, dict, "memory location", line)
    try:
        g, v, pid, val = obj["g"], obj["v"], obj["space_pid"], obj["val"]
    except KeyError as exc:
        raise TraceFormatError(f"missing key '{exc.args[0]}'", line) from None
    if not (type(g) is int and type(v) is int and type(pid) is int
            and type(val) is int):
        _typed_fields(obj, _MEMLOC_KEYS, int, line)
    if not 0 <= val <= 0xFF:
        raise TraceFormatError(f"memory value {val} is not a byte", line)
    if not 0 <= v < _U32:
        raise TraceFormatError(f"virtual address {v:#x} does not fit in 32 bits", line)
    return MemLoc(g, v, pid, val)


def _registers(names, key, line) -> tuple[str, ...]:
    for name in names:
        if type(name) is not str:
            _need_type(name, str, f"'{key}' entry", line)
    return tuple(names)


def _event_from_obj(obj, line) -> TraceEvent:
    _need_type(obj, dict, "event", line)
    kind = _need(obj, "kind", line)
    if kind not in _VALID_KINDS:
        raise TraceFormatError(f"unknown event kind {kind!r}", line)
    if not _REQUIRED_KEYS[kind] <= obj.keys() <= _ALLOWED_KEYS[kind]:
        raise _key_error(obj, kind, line)

    if kind == "instr":
        seq, pid, tid = obj["seq"], obj["pid"], obj["tid"]
        vaddr, gaddr = obj["vaddr"], obj["gaddr"]
        if not (type(seq) is int and type(pid) is int and type(tid) is int
                and type(vaddr) is int and type(gaddr) is int):
            _typed_fields(obj, _INSTR_INT_KEYS, int, line)
        reads, writes = obj["reads"], obj["writes"]
        rregs, wregs = obj["rregs"], obj["wregs"]
        if not (type(reads) is list and type(writes) is list
                and type(rregs) is list and type(wregs) is list):
            _typed_fields(obj, _INSTR_LIST_KEYS, list, line)
        branch = stack_top = regvals = None
        if len(obj) > _INSTR_KEY_COUNT:  # some optional key is present
            if "branch" in obj:
                branch = _branch(obj["branch"], line)
            if "stack_top" in obj:
                stack_top = _need_type(obj["stack_top"], int, "'stack_top'", line)
            if "regvals" in obj:
                regvals = _regvals(obj["regvals"], line)
        return TraceEvent(
            kind, pid, seq, tid, vaddr, gaddr, _hex_bytes(obj["bytes"], line),
            tuple([_memloc(m, line) for m in reads]) if reads else (),
            tuple([_memloc(m, line) for m in writes]) if writes else (),
            _registers(rregs, "rregs", line), _registers(wregs, "wregs", line),
            branch, stack_top, regvals,
        )
    if kind == "image":
        _typed_fields(obj, ("pid", "base", "gbase"), int, line)
        return TraceEvent(
            kind=kind, pid=obj["pid"], base=obj["base"], gbase=obj["gbase"],
            name=_need_type(obj["name"], str, "'name'", line),
            bytes=_hex_bytes(obj["bytes"], line),
        )
    if kind == "module":
        _typed_fields(obj, ("pid", "base"), int, line)
        exports = []
        for e in _need_type(obj["exports"], list, "'exports'", line):
            _need_type(e, dict, "export", line)
            exports.append(Export(
                name=_need_type(_need(e, "name", line), str, "export 'name'", line),
                rva=_need_type(_need(e, "rva", line), int, "export 'rva'", line)))
        return TraceEvent(kind=kind, pid=obj["pid"], base=obj["base"],
                          name=_need_type(obj["name"], str, "'name'", line),
                          exports=tuple(exports))
    _typed_fields(obj, ("pid",), int, line)
    return TraceEvent(kind=kind, pid=obj["pid"])


def _branch(b, line) -> Branch:
    _need_type(b, dict, "'branch'", line)
    target = _need_type(_need(b, "target_vaddr", line), int,
                        "branch 'target_vaddr'", line)
    btype = _need(b, "btype", line)
    if btype not in ("call", "jmp", "ret"):
        raise TraceFormatError(f"unknown branch type {btype!r}", line)
    return Branch(target_vaddr=target, btype=btype)


def _regvals(obj, line) -> dict[str, int]:
    for name, value in _need_type(obj, dict, "'regvals'", line).items():
        _need_type(value, int, f"regvals '{name}'", line)
    return dict(obj)


def _check_instr_invariants(ev: TraceEvent, line):
    n = len(ev.bytes)
    if n == 0:
        raise TraceFormatError("empty instruction encoding", line)
    if n > X86_MAX_INSTR_LEN:
        raise TraceFormatError(f"instruction too long ({n} bytes)", line)
    if not 0 <= ev.vaddr < _U32:
        raise TraceFormatError(f"vaddr {ev.vaddr:#x} does not fit in 32 bits", line)
    if not ev.reads and not ev.writes:
        return  # the encoding's own span cannot conflict with itself
    # one event may not map the same global id to two different views: the
    # encoding maps gaddr + i to (pid, vaddr + i), memory effects add the rest
    gaddr = ev.gaddr
    mapping = {}
    for loc in ev.reads + ev.writes:
        key = (loc.space_pid, loc.v)
        off = loc.g - gaddr
        known = (ev.pid, ev.vaddr + off) if 0 <= off < n else mapping.get(loc.g, key)
        if known != key:
            raise TraceFormatError(
                f"g-span/byte-span mismatch: g={loc.g:#x} maps to two locations", line)
        mapping[loc.g] = key


def _header_page_size(size) -> int:
    try:
        return check_page_size(size)
    except ValueError as exc:
        raise TraceFormatError(str(exc), 1) from None


def _loads(raw: bytes, line):
    """json.loads(raw), with a fast path for a line that is one bare value."""
    try:
        text = raw.decode()
        obj, end = _scan_json(text, 0)
        if end == len(text):
            return obj
    except (ValueError, RecursionError, StopIteration):
        pass
    # json.loads itself: surrounding whitespace, a BOM, or a real error
    try:
        return json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise TraceFormatError(f"invalid JSON: {exc}", line) from None


def _read_header(line: bytes) -> int:
    """The page size of the trace whose first line is `line`, or raise."""
    if not line.strip():
        raise TraceFormatError("empty stream: missing header line")
    header = _loads(line, 1)
    if not isinstance(header, dict) or "format" not in header:
        raise TraceFormatError("first line is not a trace header", 1)
    if type(header["format"]) is not int or header["format"] != FORMAT_VERSION:
        raise TraceFormatError(
            f"unsupported trace format {header['format']!r} "
            f"(this reader handles {FORMAT_VERSION})", 1)
    return _header_page_size(header.get("page_size", DEFAULT_PAGE_SIZE))


def parse_trace(data: bytes) -> SystemTrace:
    """iter_trace over a JSON-Lines byte string, its events in a list.

    Parsing builds no reference cycles, so the cycle collector is paused
    meanwhile: with it running, its repeated passes over the growing event
    list cost about as much as decoding the JSON. The first collection
    after the pause still examines the new objects once.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        trace = iter_trace(io.BytesIO(data))
        trace.events = list(trace.events)
    finally:
        if collecting:
            gc.enable()
    return trace


def iter_trace(fh) -> SystemTrace:
    """A SystemTrace whose events are read from the binary stream `fh` as
    they are consumed, once, so `fh` must stay open meanwhile. The header
    is read and checked at once; an event's TraceFormatError is raised
    when its line is read. A line ends at LF; a CR before it is JSON
    whitespace, and a bare CR belongs to its line."""
    page_size = _read_header(fh.readline())
    # the line end goes first, so CR LF lines take _loads' fast path too
    events = ((n, _event_from_obj(_loads(line, n), n))
              for n, raw in enumerate(fh, start=2)
              if (line := raw.rstrip(b"\r\n")) and not line.isspace())
    return SystemTrace(events=_check_stream(events), page_size=page_size)


def _check_stream(numbered_events):
    """Yield the events of (line, event) pairs that pass the stream rules.

    The rules: instruction invariants, at most one image, which fits in 32
    bits, no instruction of the malware pid before it, and strictly rising
    seq that fits in signed 64 bits, as waves log it. A lazy source fails on
    its first bad line, whether the fault is in the line or the stream.
    """
    last_seq = None
    image_seen = False
    instr_pids_before_image = set()
    for line_no, ev in numbered_events:
        kind = ev.kind
        if kind == "instr":
            _check_instr_invariants(ev, line_no)
            seq = ev.seq
            if last_seq is not None and seq <= last_seq:
                raise TraceFormatError(
                    f"non-monotone seq {seq} (previous {last_seq})", line_no)
            if not -(1 << 63) <= seq < 1 << 63:
                raise TraceFormatError(
                    f"seq {seq} does not fit in signed 64 bits", line_no)
            last_seq = seq
            if not image_seen:
                instr_pids_before_image.add(ev.pid)
        elif kind == "image":
            if image_seen:
                raise TraceFormatError("multiple image events", line_no)
            if not 0 <= ev.base <= _U32 - len(ev.bytes):
                raise TraceFormatError(
                    f"image at {ev.base:#x} of {len(ev.bytes):#x} bytes does not "
                    f"fit in 32 bits", line_no)
            if ev.pid in instr_pids_before_image:
                raise TraceFormatError(
                    f"instr event before any image event in the malware pid {ev.pid}",
                    line_no)
            image_seen = True
        yield ev


def _event_to_obj(ev: TraceEvent) -> dict:
    if ev.kind == "image":
        return {"kind": "image", "pid": ev.pid, "base": ev.base,
                "gbase": ev.gbase, "name": ev.name, "bytes": ev.bytes.hex()}
    if ev.kind == "module":
        return {"kind": "module", "pid": ev.pid, "base": ev.base, "name": ev.name,
                "exports": [{"name": e.name, "rva": e.rva} for e in ev.exports]}
    if ev.kind == "procexit":
        return {"kind": "procexit", "pid": ev.pid}
    obj = {
        "kind": "instr", "seq": ev.seq, "pid": ev.pid, "tid": ev.tid,
        "vaddr": ev.vaddr, "gaddr": ev.gaddr, "bytes": ev.bytes.hex(),
        "reads": [{"g": m.g, "v": m.v, "space_pid": m.space_pid, "val": m.val}
                  for m in ev.reads],
        "writes": [{"g": m.g, "v": m.v, "space_pid": m.space_pid, "val": m.val}
                   for m in ev.writes],
        "rregs": list(ev.rregs), "wregs": list(ev.wregs),
    }
    if ev.branch is not None:
        obj["branch"] = {"target_vaddr": ev.branch.target_vaddr,
                         "btype": ev.branch.btype}
    if ev.stack_top is not None:
        obj["stack_top"] = ev.stack_top
    if ev.regvals is not None:
        obj["regvals"] = dict(ev.regvals)
    return obj


def _dumps(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def write_trace(trace: SystemTrace) -> bytes:
    """Serialize canonically: sorted keys, lower-case hex, no extra whitespace."""
    out = [_dumps({"format": FORMAT_VERSION,
                   "page_size": _header_page_size(trace.page_size)})]
    # line numbers mirror the file position parse_trace would report
    out.extend(_dumps(_event_to_obj(ev))
               for ev in _check_stream(enumerate(trace.events, start=2)))
    return b"\n".join(out) + b"\n"


class ObservedMemory:
    """Last-known byte value per (pid, vaddr), replayed in event order.

    Fed from image bytes, instruction encodings and explicit write values;
    reads reveal nothing new. Bytes live in one zero-filled bytearray per
    touched (pid, page base), so a page render is one copy. Zero-filling is
    the only option for memory never touched by a recorded effect.
    """

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE):
        self.page_size = check_page_size(page_size)
        self._mask = page_size - 1
        self._pages: dict[tuple[int, int], bytearray] = {}

    def _page_for(self, pid: int, page_base: int) -> bytearray:
        pg = self._pages.get((pid, page_base))
        if pg is None:
            pg = self._pages[(pid, page_base)] = bytearray(self.page_size)
        return pg

    def _store(self, pid: int, vaddr: int, data: bytes):
        pos = 0
        while pos < len(data):
            off = (vaddr + pos) & self._mask
            n = min(self.page_size - off, len(data) - pos)
            self._page_for(pid, vaddr + pos - off)[off:off + n] = data[pos:pos + n]
            pos += n

    def record_event(self, ev: TraceEvent):
        if ev.kind == "instr":
            pages = self._pages
            mask = self._mask
            code = ev.bytes
            off = ev.vaddr & mask
            end = off + len(code)
            pg = pages.get((ev.pid, ev.vaddr - off))
            if pg is not None and end <= self.page_size:
                pg[off:end] = code  # fast path: one already-touched page
            else:
                self._store(ev.pid, ev.vaddr, code)
            for _, v, space_pid, val in ev.writes:
                off = v & mask
                pg = pages.get((space_pid, v - off))
                if pg is None:
                    pg = self._page_for(space_pid, v - off)
                pg[off] = val
        elif ev.kind == "image":
            self._store(ev.pid, ev.base, ev.bytes)

    def page(self, pid: int, page_base: int) -> bytes:
        if page_base % self.page_size:
            raise ValueError(f"page base {page_base:#x} is not page-aligned")
        pg = self._pages.get((pid, page_base))
        return bytes(pg) if pg is not None else bytes(self.page_size)
