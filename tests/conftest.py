from __future__ import annotations

import random
import sys
from itertools import compress, count
from operator import ne, or_
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from waveunpack.taint_engine import (
    ByteMap,
    ChunkSet,
    PropagationSet,
    is_tainted_instruction,
    update,
)
from waveunpack.trace_model import MemLoc, SystemTrace, TraceEvent

PAGE = 4096


def bytemap(pairs: dict[int, int]) -> ByteMap:
    """A ByteMap holding the address -> byte pairs of a dict."""
    bmap = ByteMap()
    for vaddr, byte in pairs.items():
        bmap[vaddr] = byte
    return bmap


def chunk_set(ids) -> ChunkSet:
    """A ChunkSet holding `ids`, built with `add_span`."""
    mem = ChunkSet()
    for g in ids:
        mem.add_span(g, g + 1)
    return mem


def taint_step(ev: TraceEvent, pset: PropagationSet,
               twrites: dict[int, ByteMap]) -> bool:
    """Replay one instruction as collect_waves does: ask the inclusion
    test, then update with that verdict, writing into the executing pid's
    map in `twrites` (made on the pid's first instruction). Returns the
    verdict."""
    tainted = is_tainted_instruction(ev, pset)
    tw = twrites.get(ev.pid)
    if tw is None:
        tw = twrites[ev.pid] = ByteMap()
    update(ev, pset, tw, tainted)
    return tainted


class TaintedIds:
    """Reads a ChunkSet back as the set of ints it holds, or a ByteMap as
    the dict of its address -> byte pairs, at C speed.

    Only the chunks whose presence or value bytes differ from those of the
    last read are read again, found by `map(ne, ...)` over the chunks: a
    new chunk's contents come from `compress`, a changed chunk's from the
    set bits of its old and new bytes XORed as ints. So reading after every
    event of a replay costs about one compare per chunk. A ChunkSet reads
    as a set, not as the keys of a dict, because comparing a set with the
    oracle's frozenset is the faster compare. One reader reads one map;
    what it returns is its own, valid until its next read.
    """

    def __init__(self):
        self._out: set[int] | dict[int, int] | None = None
        self._keys: list[int] = []  # chunk numbers of the last read, in order
        self._read: list[bytes] = []  # and their presence bytes as read
        self._vals: list[bytes] = []  # and, for a ByteMap, their values
        self._all: tuple[bytes, bytes] | None = None  # a ByteMap's, joined

    def __call__(self, mem: ChunkSet) -> set[int] | dict[int, int]:
        pairs = isinstance(mem, ByteMap)
        chunks = mem.chunks
        keys = list(chunks)
        if pairs:
            # most reads of tainted writes find them unchanged: one join
            # and one compare answer those
            joined = b"".join(chunks.values()), b"".join(mem.vals.values())
            if joined == self._all and keys == self._keys:
                return self._out
            self._all = joined
        if self._out is None or keys[:len(self._keys)] != self._keys:
            # a chunk went away or moved: read them all again
            self._out = {} if pairs else set()
            self._read, self._vals = [], []
        out = self._out
        read = self._read + [None] * (len(keys) - len(self._read))
        changed = map(ne, chunks.values(), read)
        if pairs:  # vals has the keys of chunks, in the same order
            vals = self._vals + [None] * (len(keys) - len(self._vals))
            changed = map(or_, changed, map(ne, mem.vals.values(), vals))
        for i in compress(count(), changed):
            k = keys[i]
            base, new = k << 8, bytes(chunks[k])
            if pairs:
                new_vals = bytes(mem.vals[k])
            if read[i] is None:
                ids = compress(range(base, base + 0x100), new)
                if pairs:
                    out.update(zip(ids, compress(new_vals, new)))
                else:
                    out.update(ids)
            else:
                # a set bit lies in each byte that changed
                diff = (int.from_bytes(new, "little")
                        ^ int.from_bytes(read[i], "little"))
                if pairs:
                    diff |= (int.from_bytes(new_vals, "little")
                             ^ int.from_bytes(vals[i], "little"))
                while diff:
                    off = ((diff & -diff).bit_length() - 1) >> 3
                    if pairs and new[off]:
                        out[base + off] = new_vals[off]
                    elif pairs:
                        out.pop(base + off, None)
                    elif new[off]:
                        out.add(base + off)
                    else:
                        out.discard(base + off)
                    diff &= ~(0xFF << (off << 3))
            read[i] = new
            if pairs:
                vals[i] = new_vals
        self._keys, self._read = keys, read
        if pairs:
            self._vals = vals
        return out


def tainted_ids(mem: ChunkSet) -> set[int]:
    """The ints a ChunkSet holds, read once."""
    return TaintedIds()(mem)


def holds(grp, vaddr: int) -> bool:
    """Whether one of a memory group's intervals spans `vaddr`, written out
    here rather than asked of the lookup under test."""
    return any(iv.base <= vaddr < iv.end for iv in grp.intervals)


class MicroSpace:
    """Fixed frame table for randomized micro-traces: g derives from (pid, v).

    Two processes with private pages plus one page shared between them, so
    cross-process flows show up in randomized testing.
    """

    def __init__(self):
        self.frames = {}
        nxt = 0x10_0000
        for pid in (1, 2):
            for page in range(6):
                self.frames[(pid, 0x400000 + page * PAGE)] = nxt
                nxt += PAGE
        shared = nxt
        self.frames[(1, 0x800000)] = shared
        self.frames[(2, 0x900000)] = shared

    def g_of(self, pid, v):
        page = v - v % PAGE
        return self.frames[(pid, page)] + (v - page)

    def loc(self, pid, v, val):
        return MemLoc(g=self.g_of(pid, v), v=v, space_pid=pid, val=val)

    def data_addr(self, rng, pid):
        if rng.random() < 0.2:
            base = 0x800000 if pid == 1 else 0x900000
        else:
            base = 0x400000 + rng.randrange(2, 6) * PAGE
        return base + rng.randrange(PAGE)


def random_micro_trace(seed: int, n_events: int = 1000) -> SystemTrace:
    rng = random.Random(seed)
    space = MicroSpace()
    events = []
    image_len = 2 * PAGE
    events.append(TraceEvent(kind="image", pid=1, base=0x400000,
                             gbase=space.g_of(1, 0x400000), name="micro.exe",
                             bytes=bytes(rng.randrange(256)
                                         for _ in range(image_len))))
    regs = ("eax", "ebx", "ecx")
    for seq in range(1, n_events + 1):
        pid = rng.choice((1, 1, 1, 2))
        code_page = 0x400000 + rng.randrange(0, 2) * PAGE
        length = rng.randrange(1, 7)
        vaddr = code_page + rng.randrange(PAGE - 16)
        reads = tuple(space.loc(pid, space.data_addr(rng, pid),
                                rng.randrange(256))
                      for _ in range(rng.randrange(0, 3)))
        n_writes = rng.randrange(0, 3)
        writes = []
        for _ in range(n_writes):
            # occasionally write the other process's view of the shared page
            wpid = pid
            if rng.random() < 0.15:
                wpid = 2 if pid == 1 else 1
                base = 0x900000 if wpid == 2 else 0x800000
                v = base + rng.randrange(PAGE)
            else:
                v = space.data_addr(rng, pid)
            writes.append(space.loc(wpid, v, rng.randrange(256)))
        events.append(TraceEvent(
            kind="instr", pid=pid, seq=seq, tid=1, vaddr=vaddr,
            gaddr=space.g_of(pid, vaddr),
            bytes=bytes(rng.randrange(256) for _ in range(length)),
            reads=reads, writes=tuple(writes),
            rregs=tuple(r for r in regs if rng.random() < 0.2),
            wregs=tuple(r for r in regs if rng.random() < 0.2)))
    return SystemTrace(events=events)


@pytest.fixture
def micro_trace():
    return random_micro_trace


@pytest.fixture
def d1_run():
    from waveunpack.pipeline import analyze
    from waveunpack.scenario_gen import generate_scenario

    trace, truth = generate_scenario("d1", 7)
    return trace, truth, analyze(trace)
