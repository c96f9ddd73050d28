from __future__ import annotations

import random
import sys
from itertools import compress, count
from operator import ne
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from waveunpack.taint_engine import TaintedMemory
from waveunpack.trace_model import MemLoc, SystemTrace, TraceEvent
from waveunpack.wave_collector import ByteMap

PAGE = 4096


def bytemap(pairs: dict[int, int]) -> ByteMap:
    """A ByteMap holding the address -> byte pairs of a dict."""
    bmap = ByteMap()
    for vaddr, byte in pairs.items():
        bmap[vaddr] = byte
    return bmap


def tainted_memory(ids) -> TaintedMemory:
    """A TaintedMemory holding `ids`, built with `add`."""
    mem = TaintedMemory()
    for g in ids:
        mem.add(g)
    return mem


class TaintedIds:
    """Reads the ids a TaintedMemory holds back as a set, at C speed.

    Only the chunks whose bytes differ from those of the last read are
    read again, found by one `map(ne, ...)` over the chunks: a new chunk's
    ids come from `compress`, a changed chunk's from the set bits of its
    old and new bytes XORed as ints. So reading after every event of a
    replay costs about one compare per chunk. The returned set is the
    reader's own, valid until its next read.
    """

    def __init__(self):
        self._ids: set[int] = set()
        self._keys: list[int] = []  # chunk numbers of the last read, in order
        self._read: list[bytes] = []  # and their bytes as read

    def __call__(self, mem: TaintedMemory) -> set[int]:
        chunks = mem.chunks
        keys = list(chunks)
        if keys[:len(self._keys)] != self._keys:
            # a chunk went away or moved: read them all again
            self._ids.clear()
            self._read = []
        ids = self._ids
        read = self._read + [None] * (len(keys) - len(self._read))
        for i in compress(count(), map(ne, chunks.values(), read)):
            base, new = keys[i] << 8, bytes(chunks[keys[i]])
            if read[i] is None:
                ids.update(compress(range(base, base + 0x100), new))
            else:
                # a set bit lies in each byte that changed
                diff = (int.from_bytes(new, "little")
                        ^ int.from_bytes(read[i], "little"))
                while diff:
                    off = ((diff & -diff).bit_length() - 1) >> 3
                    (ids.add if new[off] else ids.discard)(base + off)
                    diff &= diff - 1
            read[i] = new
        self._keys, self._read = keys, read
        return ids


def tainted_ids(mem: TaintedMemory) -> set[int]:
    """The ids a TaintedMemory holds, read once."""
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
