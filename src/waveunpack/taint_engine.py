"""Byte-level taint propagation and the malware-trace inclusion predicate.

Memory taint is tracked per global location id so tainted data survives
shared mappings and cross-process writes; register taint is tracked per
(pid, tid, register). An instruction joins the malware execution trace iff
any byte of its encoding is tainted.

Tainted memory is a TaintedMemory: one presence byte per id, kept per
256-id chunk, so a tainted image costs about 1.5 bytes per id where a set
of ints cost 64. The per-event paths (`update`, `is_tainted_instruction`)
inline its chunk lookups, because a method call per event is a large share
of the replay: id g lives at offset g & 0xFF of chunk g >> 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, MutableMapping

from .trace_model import TraceEvent

# per-pid map of virtual address -> byte value for tainted own-space writes
TaintedWritesMap = MutableMapping[int, Dict[int, int]]

_CHUNK = 0x100
_ONES = b"\x01" * _CHUNK


class TaintedMemory:
    """A set of global location ids, as presence bytes per 256-id chunk.

    `chunks` maps g >> 8 to a bytearray of 256 bytes, 1 at g & 0xFF where
    g is in the set; a chunk, once made, stays even when it is all 0.
    `count` is the number of ids in the set. Ids may be any int, negative
    or above 32 bits.
    """

    __slots__ = ("chunks", "count")

    def __init__(self):
        self.chunks: dict[int, bytearray] = {}
        self.count = 0

    def __len__(self) -> int:
        return self.count

    def __contains__(self, g: int) -> bool:
        c = self.chunks.get(g >> 8)
        return c is not None and c[g & 0xFF] == 1

    def add(self, g: int) -> None:
        c = self.chunks.get(g >> 8)
        if c is None:
            c = self.chunks[g >> 8] = bytearray(_CHUNK)
        if not c[g & 0xFF]:
            c[g & 0xFF] = 1
            self.count += 1

    def discard(self, g: int) -> None:
        c = self.chunks.get(g >> 8)
        if c is not None and c[g & 0xFF]:
            c[g & 0xFF] = 0
            self.count -= 1

    def add_span(self, start: int, stop: int) -> None:
        """Add every id of range(start, stop), one slice store per chunk."""
        chunks = self.chunks
        while start < stop:
            k, off = start >> 8, start & 0xFF
            end = min(_CHUNK, off + stop - start)
            c = chunks.get(k)
            if c is None:
                c = chunks[k] = bytearray(_CHUNK)
            self.count += end - off - c.count(1, off, end)
            c[off:end] = _ONES[off:end]
            start += end - off

    def isdisjoint(self, span: range) -> bool:
        """True iff no id of `span`, a range of step 1, is in the set."""
        lo, hi = span.start, span.stop
        while lo < hi:
            k, off = lo >> 8, lo & 0xFF
            end = min(_CHUNK, off + hi - lo)
            c = self.chunks.get(k)
            if c is not None and c.find(1, off, end) >= 0:
                return False
            lo += end - off
        return True


@dataclass
class PropagationSet:
    """Global taint state: tainted memory (by g) and tainted registers."""

    tainted_mem: TaintedMemory = field(default_factory=TaintedMemory)
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
    if end <= _CHUNK:
        return c is not None and c.find(1, off, end) >= 0
    return not pset.tainted_mem.isdisjoint(range(g, g + len(ev.bytes)))


def update(ev: TraceEvent, pset: PropagationSet,
           twrites: TaintedWritesMap) -> tuple[PropagationSet, TaintedWritesMap]:
    """Advance taint state over one executed instruction (in place).

    Data flow: tainted inputs taint every output, untainted inputs clear
    every output (strong update). Executing tainted bytes taints every
    output regardless of the inputs. Tainted writes landing in the writer's
    own address space are recorded per pid.
    """
    mem = pset.tainted_mem
    chunks = mem.chunks
    regs = pset.tainted_regs
    pid, tid = ev.pid, ev.tid

    hot = False
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
    if not hot:  # is_tainted_instruction, inlined
        g = ev.gaddr
        c = chunks.get(g >> 8)
        off = g & 0xFF
        end = off + len(ev.bytes)
        if end <= _CHUNK:
            hot = c is not None and c.find(1, off, end) >= 0
        else:
            hot = not mem.isdisjoint(range(g, g + len(ev.bytes)))

    if hot:
        own = None
        added = 0
        for g, v, space_pid, val in ev.writes:
            c = chunks.get(g >> 8)
            if c is None:
                c = chunks[g >> 8] = bytearray(_CHUNK)
            if not c[g & 0xFF]:
                c[g & 0xFF] = 1
                added += 1
            # every output is tainted now, so each own-space write is recorded
            if space_pid == pid:
                if own is None:
                    own = twrites.setdefault(pid, {})
                own[v] = val
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
                   twrites: TaintedWritesMap) -> str:
    """One debug-log line per executed instruction."""
    t = twrites.get(ev.pid, {})
    return f"{ev.seq}, tainted_instr:{str(tainted).lower()}, {pset.tainted_mem.count}, {len(t)}"
