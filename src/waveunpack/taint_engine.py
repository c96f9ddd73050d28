"""Byte-level taint propagation and the malware-trace inclusion predicate.

Memory taint is tracked per global location id so tainted data survives
shared mappings and cross-process writes; register taint is tracked per
(pid, tid, register). An instruction joins the malware execution trace iff
any byte of its encoding is tainted.

Byte state is kept per 256-byte chunk, a layout only this module knows:
a lives at offset a & 0xFF of chunk a >> 8. `Chunks` holds the layout,
its reads and the one span-marking loop. Tainted memory is a ChunkSet of
presence bytes, about 1.5 bytes per tainted id; tainted writes and shadow
memory are ByteMaps, presence plus value bytes. `update` writes into the
ByteMap its caller hands it. The per-event paths inline the chunk
lookups, because a method call per event is a large share of the replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from .trace_model import TraceEvent

# ids or addresses per chunk: a power of two that divides every page size
CHUNK_SIZE = 0x100
_ONES = b"\x01" * CHUNK_SIZE


class Chunks:
    """The chunk layout and its reads, shared by ChunkSet and ByteMap.

    `chunks` maps a >> 8 to a bytearray of 256 bytes, 1 at a & 0xFF where
    a is held; a chunk, once made, stays even when it is all 0. `count` is
    the number of ints held. They may be any int, negative or above 32
    bits. Only the subclasses write, each keeping its own invariant.
    """

    __slots__ = ("chunks", "count")

    def __init__(self):
        self.chunks: dict[int, bytearray] = {}
        self.count = 0

    def __len__(self) -> int:
        return self.count

    def __contains__(self, a: int) -> bool:
        c = self.chunks.get(a >> 8)
        return c is not None and c[a & 0xFF] == 1

    def _mark(self, start: int, stop: int):
        """Mark every int of range(start, stop) present, one slice store
        per chunk, and yield each chunk's (number, offset, end offset)."""
        chunks = self.chunks
        while start < stop:
            k, off = start >> 8, start & 0xFF
            end = min(CHUNK_SIZE, off + stop - start)
            c = chunks.get(k)
            if c is None:
                c = chunks[k] = bytearray(CHUNK_SIZE)
            self.count += end - off - c.count(1, off, end)
            c[off:end] = _ONES[off:end]
            yield k, off, end
            start += end - off

    def isdisjoint(self, span: range) -> bool:
        """True iff no int of `span`, a range of step 1, is held.

        Each chunk the span touches costs one lookup. A chunk that is there
        is tested at the span's first int before one `find`, which decides
        most spans classify_case tests.
        """
        lo, hi = span.start, span.stop
        while lo < hi:
            c = self.chunks.get(lo >> 8)
            off = lo & 0xFF
            end = off + hi - lo
            if end > CHUNK_SIZE:
                end = CHUNK_SIZE
            if c is not None and (c[off] or c.find(1, off, end) >= 0):
                return False
            lo += end - off
        return True

    def page_bases(self, page_size: int) -> set[int]:
        """Bases of the pages holding a held int; `page_size` is a
        multiple of 256."""
        return {(k << 8) // page_size * page_size for k in self.chunks}


class ChunkSet(Chunks):
    """A set of ints; `update` sets and clears its ids inline."""

    __slots__ = ()

    def add_span(self, start: int, stop: int) -> None:
        """Add every int of range(start, stop)."""
        for _ in self._mark(start, stop):
            pass


class ByteMap(Chunks):
    """A map from address to byte: the chunks of the mapped addresses,
    plus one value bytearray per chunk in `vals`, under the same keys in
    the same order. Only `[]=` and `store` write to it, and each sets a
    value with its presence. items() and runs() read in ascending address
    order. A value outside 0-255 raises ValueError.
    """

    __slots__ = ("vals",)

    def __init__(self):
        super().__init__()
        self.vals: dict[int, bytearray] = {}

    def copy(self) -> ByteMap:
        new = ByteMap()
        new.chunks = {k: c.copy() for k, c in self.chunks.items()}
        new.vals = {k: vals.copy() for k, vals in self.vals.items()}
        new.count = self.count
        return new

    def get(self, vaddr: int, default=None):
        k = vaddr >> 8
        c = self.chunks.get(k)
        if c is None or not c[vaddr & 0xFF]:
            return default
        return self.vals[k][vaddr & 0xFF]

    def __setitem__(self, vaddr: int, byte: int):
        k, off = vaddr >> 8, vaddr & 0xFF
        c = self.chunks.get(k)
        if c is None:
            vals = bytearray(CHUNK_SIZE)
            vals[off] = byte  # a bad value raises before the chunk exists
            self.vals[k] = vals
            c = self.chunks[k] = bytearray(CHUNK_SIZE)
        else:
            self.vals[k][off] = byte
        if not c[off]:
            c[off] = 1
            self.count += 1

    def items(self):
        """(address, byte) pairs in ascending address order, a run at a time."""
        return chain.from_iterable(zip(range(start, start + len(data)), data)
                                   for start, data in self.runs())

    def store(self, vaddr: int, data: bytes) -> None:
        """Map vaddr + i to data[i] for every i."""
        vals = self.vals
        for k, off, end in self._mark(vaddr, vaddr + len(data)):
            v = vals.get(k)
            if v is None:  # a chunk _mark just made: same keys, same order
                v = vals[k] = bytearray(CHUNK_SIZE)
            pos = (k << 8) + off - vaddr
            v[off:end] = data[pos:pos + end - off]

    def runs(self):
        """Yield the maximal runs of mapped addresses as ascending
        (start address, bytes) pairs."""
        parts: list[bytearray] = []
        start = run_end = 0
        for k in sorted(self.chunks):
            c, vals = self.chunks[k], self.vals[k]
            base = k << 8
            off = c.find(1)
            while off >= 0:
                end = c.find(0, off)
                if end < 0:
                    end = CHUNK_SIZE
                if parts and base + off != run_end:
                    yield start, b"".join(parts)
                    parts = []
                if not parts:
                    start = base + off
                parts.append(vals[off:end])
                run_end = base + end
                off = c.find(1, end)
        if parts:
            yield start, b"".join(parts)


@dataclass
class PropagationSet:
    """Global taint state: tainted memory (by g) and tainted registers."""

    tainted_mem: ChunkSet = field(default_factory=ChunkSet)
    tainted_regs: set[tuple[int, int, str]] = field(default_factory=set)

    @property
    def empty(self) -> bool:
        return not self.tainted_mem.count and not self.tainted_regs


def init_taint(image_event: TraceEvent) -> PropagationSet:
    """Taint the whole loaded module, data and code sections alike."""
    pset = PropagationSet()
    pset.tainted_mem.add_span(image_event.gbase,
                              image_event.gbase + len(image_event.bytes))
    return pset


def is_tainted_instruction(ev: TraceEvent, pset: PropagationSet) -> bool:
    """True iff any byte of the instruction's global span is tainted.

    The first byte is tested alone first: it decides most tainted
    instructions. The rest of a span inside one chunk, as nearly every
    instruction's is, costs one `find`.
    """
    g = ev.gaddr
    c = pset.tainted_mem.chunks.get(g >> 8)
    off = g & 0xFF
    if c is not None and c[off]:
        return True
    end = off + len(ev.bytes)
    if end <= CHUNK_SIZE:
        return c is not None and c.find(1, off, end) >= 0
    return not pset.tainted_mem.isdisjoint(range(g, g + len(ev.bytes)))


def update(ev: TraceEvent, pset: PropagationSet, twrites: ByteMap,
           tainted: bool) -> tuple[PropagationSet, ByteMap]:
    """Advance taint state over one executed instruction (in place).

    Data flow: tainted inputs taint every output, untainted inputs clear
    every output (strong update). Executing tainted bytes taints every
    output regardless of the inputs; `tainted` is the caller's
    is_tainted_instruction(ev, pset). Tainted writes landing in the
    writer's own address space go into `twrites`, the writer's map.
    """
    mem = pset.tainted_mem
    chunks = mem.chunks
    regs = pset.tainted_regs
    pid, tid = ev.pid, ev.tid

    hot = tainted
    if not hot:
        for m in ev.reads:
            g = m.g
            c = chunks.get(g >> 8)
            if c is not None and c[g & 0xFF]:
                hot = True
                break
    if not hot and regs:
        for r in ev.rregs:
            if (pid, tid, r) in regs:
                hot = True
                break

    if hot:
        added = 0
        for g, v, space_pid, val in ev.writes:
            c = chunks.get(g >> 8)
            if c is None:
                c = chunks[g >> 8] = bytearray(CHUNK_SIZE)
            if not c[g & 0xFF]:
                c[g & 0xFF] = 1
                added += 1
            # every output is tainted now, so each own-space write is recorded
            if space_pid == pid:
                twrites[v] = val
        mem.count += added
        for r in ev.wregs:
            regs.add((pid, tid, r))
    else:
        # every output is clean now, so no write is recorded
        removed = 0
        for m in ev.writes:
            g = m.g
            c = chunks.get(g >> 8)
            if c is not None and c[g & 0xFF]:
                c[g & 0xFF] = 0
                removed += 1
        mem.count -= removed
        for r in ev.wregs:
            regs.discard((pid, tid, r))
    return pset, twrites


def taint_log_line(ev: TraceEvent, tainted: bool, pset: PropagationSet,
                   twrites: ByteMap) -> str:
    """One debug-log line per instruction, with its process's map."""
    return f"{ev.seq}, tainted_instr:{str(tainted).lower()}, {pset.tainted_mem.count}, {len(twrites)}"
