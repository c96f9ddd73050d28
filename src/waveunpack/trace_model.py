"""Whole-system instruction trace: JSON-Lines format, validation, replay store.

A trace file is one header line followed by one event object per line.
Event kinds:

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

import json
from dataclasses import dataclass, field

FORMAT_VERSION = 1
DEFAULT_PAGE_SIZE = 4096
MIN_PAGE_SIZE = 0x1000  # PE sections are laid out at 0x1000 alignment
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
    """Return `size` if it is a power of two >= MIN_PAGE_SIZE, else raise."""
    if type(size) is not int or size < MIN_PAGE_SIZE or size & (size - 1):
        raise ValueError(
            f"page size {size!r} is not a power of two >= {MIN_PAGE_SIZE:#x}")
    return size


@dataclass(frozen=True)
class MemLoc:
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


@dataclass
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

    @property
    def length(self) -> int:
        return len(self.bytes)

    def vspan(self):
        """Virtual addresses occupied by the instruction encoding."""
        return range(self.vaddr, self.vaddr + len(self.bytes))

    def gspan(self):
        """Global ids occupied by the instruction encoding."""
        return range(self.gaddr, self.gaddr + len(self.bytes))

    def code_pairs(self):
        """(vaddr, byte) pairs of the encoding."""
        return [(self.vaddr + i, b) for i, b in enumerate(self.bytes)]


@dataclass
class SystemTrace:
    events: list[TraceEvent] = field(default_factory=list)
    page_size: int = DEFAULT_PAGE_SIZE
    version: int = FORMAT_VERSION

    def image_event(self) -> TraceEvent | None:
        for ev in self.events:
            if ev.kind == "image":
                return ev
        return None

    def instructions(self):
        return (ev for ev in self.events if ev.kind == "instr")


_VALID_KINDS = ("image", "module", "instr", "procexit")
_REQUIRED_KEYS = {
    "image": {"kind", "pid", "base", "gbase", "name", "bytes"},
    "module": {"kind", "pid", "base", "name", "exports"},
    "instr": {
        "kind", "seq", "pid", "tid", "vaddr", "gaddr", "bytes",
        "reads", "writes", "rregs", "wregs",
    },
    "procexit": {"kind", "pid"},
}
_OPTIONAL_KEYS = {
    "image": set(),
    "module": set(),
    "instr": {"branch", "stack_top", "regvals"},
    "procexit": set(),
}


def _need(obj, key, line):
    if key not in obj:
        raise TraceFormatError(f"missing key '{key}'", line)
    return obj[key]


def _hex_bytes(text, line):
    try:
        return bytes.fromhex(text)
    except (ValueError, TypeError):
        raise TraceFormatError(f"invalid hex string {text!r}", line) from None


def _memloc(obj, line):
    for key in ("g", "v", "space_pid", "val"):
        _need(obj, key, line)
    loc = MemLoc(g=obj["g"], v=obj["v"], space_pid=obj["space_pid"], val=obj["val"])
    if not 0 <= loc.val <= 0xFF:
        raise TraceFormatError(f"memory value {loc.val} is not a byte", line)
    if not 0 <= loc.v < _U32:
        raise TraceFormatError(f"virtual address {loc.v:#x} does not fit in 32 bits", line)
    return loc


def _event_from_obj(obj, line) -> TraceEvent:
    kind = _need(obj, "kind", line)
    if kind not in _VALID_KINDS:
        raise TraceFormatError(f"unknown event kind {kind!r}", line)
    missing = _REQUIRED_KEYS[kind] - set(obj)
    if missing:
        raise TraceFormatError(f"missing key '{sorted(missing)[0]}'", line)
    unknown = set(obj) - _REQUIRED_KEYS[kind] - _OPTIONAL_KEYS[kind]
    if unknown:
        raise TraceFormatError(f"unknown key '{sorted(unknown)[0]}' for kind {kind}", line)

    if kind == "image":
        return TraceEvent(
            kind=kind, pid=obj["pid"], base=obj["base"], gbase=obj["gbase"],
            name=obj["name"], bytes=_hex_bytes(obj["bytes"], line),
        )
    if kind == "module":
        exports = tuple(
            Export(name=_need(e, "name", line), rva=_need(e, "rva", line))
            for e in obj["exports"]
        )
        return TraceEvent(kind=kind, pid=obj["pid"], base=obj["base"],
                          name=obj["name"], exports=exports)
    if kind == "procexit":
        return TraceEvent(kind=kind, pid=obj["pid"])

    branch = None
    if "branch" in obj:
        b = obj["branch"]
        target = _need(b, "target_vaddr", line)
        btype = _need(b, "btype", line)
        if btype not in ("call", "jmp", "ret"):
            raise TraceFormatError(f"unknown branch type {btype!r}", line)
        branch = Branch(target_vaddr=target, btype=btype)
    return TraceEvent(
        kind=kind, pid=obj["pid"], seq=obj["seq"], tid=obj["tid"],
        vaddr=obj["vaddr"], gaddr=obj["gaddr"],
        bytes=_hex_bytes(obj["bytes"], line),
        reads=tuple(_memloc(m, line) for m in obj["reads"]),
        writes=tuple(_memloc(m, line) for m in obj["writes"]),
        rregs=tuple(obj["rregs"]), wregs=tuple(obj["wregs"]),
        branch=branch, stack_top=obj.get("stack_top"),
        regvals=dict(obj["regvals"]) if "regvals" in obj else None,
    )


def _check_instr_invariants(ev: TraceEvent, line):
    n = len(ev.bytes)
    if n == 0:
        raise TraceFormatError("empty instruction encoding", line)
    if n > X86_MAX_INSTR_LEN:
        raise TraceFormatError(f"instruction too long ({n} bytes)", line)
    if not 0 <= ev.vaddr < _U32:
        raise TraceFormatError(f"vaddr {ev.vaddr:#x} does not fit in 32 bits", line)
    # one event may not map the same global id to two different views
    mapping = {}
    for i in range(n):
        mapping[ev.gaddr + i] = (ev.pid, ev.vaddr + i)
    for loc in ev.reads + ev.writes:
        key = (loc.space_pid, loc.v)
        if mapping.get(loc.g, key) != key:
            raise TraceFormatError(
                f"g-span/byte-span mismatch: g={loc.g:#x} maps to two locations", line)
        mapping[loc.g] = key


def _header_page_size(size) -> int:
    try:
        return check_page_size(size)
    except ValueError as exc:
        raise TraceFormatError(str(exc), 1) from None


def parse_trace(data) -> SystemTrace:
    """Parse a JSON-Lines byte stream into a validated SystemTrace."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    lines = data.splitlines()
    if not lines or not lines[0].strip():
        raise TraceFormatError("empty stream: missing header line")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"invalid JSON: {exc}", 1) from None
    if not isinstance(header, dict) or "format" not in header:
        raise TraceFormatError("first line is not a trace header", 1)
    trace = SystemTrace(
        page_size=_header_page_size(header.get("page_size", DEFAULT_PAGE_SIZE)),
        version=header["format"],
    )

    last_seq = None
    image = None
    instr_pids_before_image = set()
    for line_no, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"invalid JSON: {exc}", line_no) from None
        ev = _event_from_obj(obj, line_no)
        if ev.kind == "image":
            if image is not None:
                raise TraceFormatError("multiple image events", line_no)
            if ev.pid in instr_pids_before_image:
                raise TraceFormatError(
                    f"instr event before any image event in the malware pid {ev.pid}",
                    line_no)
            image = ev
        elif ev.kind == "instr":
            _check_instr_invariants(ev, line_no)
            if last_seq is not None and ev.seq <= last_seq:
                raise TraceFormatError(
                    f"non-monotone seq {ev.seq} (previous {last_seq})", line_no)
            last_seq = ev.seq
            if image is None:
                instr_pids_before_image.add(ev.pid)
        trace.events.append(ev)
    return trace


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
    out = [_dumps({"format": trace.version,
                   "page_size": _header_page_size(trace.page_size)})]
    last_seq = None
    image_seen = False
    instr_pids_before_image = set()
    for idx, ev in enumerate(trace.events):
        line_no = idx + 2  # mirrors the file position parse_trace would report
        if ev.kind == "image":
            if image_seen:
                raise TraceFormatError("multiple image events", line_no)
            if ev.pid in instr_pids_before_image:
                raise TraceFormatError(
                    f"instr event before any image event in the malware pid {ev.pid}",
                    line_no)
            image_seen = True
        elif ev.kind == "instr":
            _check_instr_invariants(ev, line_no)
            if last_seq is not None and ev.seq <= last_seq:
                raise TraceFormatError(
                    f"non-monotone seq {ev.seq} (previous {last_seq})", line_no)
            last_seq = ev.seq
            if not image_seen:
                instr_pids_before_image.add(ev.pid)
        out.append(_dumps(_event_to_obj(ev)))
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
            for loc in ev.writes:
                v = loc.v
                off = v & mask
                pg = pages.get((loc.space_pid, v - off))
                if pg is None:
                    pg = self._page_for(loc.space_pid, v - off)
                pg[off] = loc.val
        elif ev.kind == "image":
            self._store(ev.pid, ev.base, ev.bytes)

    def page(self, pid: int, page_base: int) -> bytes:
        if page_base % self.page_size:
            raise ValueError(f"page base {page_base:#x} is not page-aligned")
        pg = self._pages.get((pid, page_base))
        return bytes(pg) if pg is not None else bytes(self.page_size)
