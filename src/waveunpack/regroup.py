"""Group a wave's page dumps into self-contained memory regions.

Pages holding executed instructions seed intervals that grow over adjacent
dumped pages; remaining dumped pages coalesce into data-only intervals.
Intervals referencing each other (speculative scan) merge transitively into
groups, one future PE file per group. Groups without any executed
instruction are dropped and reported.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from .disasm import scan_refs
from .wave_collector import WaveRecord


@dataclass
class Interval:
    """Maximal run of dumped pages, page-aligned and disjoint per wave."""

    pid: int
    base: int
    end: int  # exclusive
    bytes: bytes

    def contains(self, vaddr: int) -> bool:
        return self.base <= vaddr < self.end

    @property
    def range(self) -> tuple[int, int]:
        return (self.base, self.end)


@dataclass
class MemoryGroup:
    wave_id: tuple[int, int]
    intervals: list[Interval]
    xrefs: set[tuple[int, int]] = field(default_factory=set)

    def contains(self, vaddr: int) -> bool:
        return any(iv.contains(vaddr) for iv in self.intervals)


def executed_pages(wave: WaveRecord, page_size: int) -> set[int]:
    """Page bases covering every byte of every executed instruction."""
    pages = set()
    for vaddr, length in {(ref.vaddr, len(ref.bytes)) for ref in wave.instrs}:
        first = vaddr - vaddr % page_size
        last = vaddr + length - 1
        last -= last % page_size
        pages.update(range(first, last + page_size, page_size))
    return pages


def _coalesce(pid, pages, page_dumps, page_size) -> list[Interval]:
    intervals = []
    run: list[int] = []
    for p in sorted(pages):
        if run and p != run[-1] + page_size:
            intervals.append(run)
            run = []
        run.append(p)
    if run:
        intervals.append(run)
    return [
        Interval(pid=pid, base=r[0], end=r[-1] + page_size,
                 bytes=b"".join(page_dumps[p] for p in r))
        for r in intervals
    ]


def neighbor_closure(exec_pages: set[int], page_dumps: dict[int, bytes],
                     page_size: int, pid: int = 0) -> list[Interval]:
    """Grow executed pages over adjacent dumped pages until a fixed point."""
    selected = set(exec_pages)
    frontier = set(exec_pages)
    while frontier:
        nxt = set()
        for p in frontier:
            for q in (p - page_size, p + page_size):
                if q in page_dumps and q not in selected:
                    selected.add(q)
                    nxt.add(q)
        frontier = nxt
    return _coalesce(pid, selected, page_dumps, page_size)


def merge_groups(intervals: list[Interval],
                 refs: set[tuple[int, int]]) -> list[MemoryGroup]:
    """Merge intervals into connected components under cross-referencing."""
    intervals = sorted(intervals, key=lambda iv: iv.base)
    bases = [iv.base for iv in intervals]

    def owner(addr: int) -> int | None:
        # intervals are disjoint, so only the last one starting at or
        # below addr can hold it
        i = bisect_right(bases, addr) - 1
        if i >= 0 and intervals[i].contains(addr):
            return i
        return None

    parent = list(range(len(intervals)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    ref_owners = []
    for site, target in refs:
        src, dst = owner(site), owner(target)
        if src is not None and dst is not None:
            union(src, dst)
        ref_owners.append((site, target, src))

    members: dict[int, list[Interval]] = {}
    for i, iv in enumerate(intervals):
        members.setdefault(find(i), []).append(iv)
    groups = []
    for root in sorted(members, key=lambda r: members[r][0].base):
        group = MemoryGroup(wave_id=(0, 0),
                            intervals=sorted(members[root], key=lambda iv: iv.base))
        group.xrefs = {(s, t) for s, t, src in ref_owners
                       if src is not None and find(src) == root}
        groups.append(group)
    return groups


@dataclass
class WaveGrouping:
    kept: list[MemoryGroup]
    dropped: list[MemoryGroup]
    refs: set[tuple[int, int]]
    page_size: int = 4096

    @property
    def dropped_pages(self) -> list[int]:
        pages = []
        for grp in self.dropped:
            for iv in grp.intervals:
                pages.extend(range(iv.base, iv.end, self.page_size))
        return sorted(pages)


def group_wave(wave: WaveRecord, page_size: int) -> WaveGrouping:
    """Full grouping pipeline for one wave."""
    exec_pgs = executed_pages(wave, page_size)
    exec_ivs = neighbor_closure(exec_pgs, wave.page_dumps, page_size, wave.pid)
    taken = set()
    for iv in exec_ivs:
        taken.update(range(iv.base, iv.end, page_size))
    rest = set(wave.page_dumps) - taken
    data_ivs = _coalesce(wave.pid, rest, wave.page_dumps, page_size)

    intervals = sorted(exec_ivs + data_ivs, key=lambda iv: iv.base)
    refs: set[tuple[int, int]] = set()
    for iv in intervals:
        candidates = [other.range for other in intervals if other is not iv]
        refs |= scan_refs(iv.bytes, iv.base, candidates)

    groups = merge_groups(intervals, refs)
    wave_id = (wave.pid, wave.wave_index)
    kept, dropped = [], []
    executed_addrs = {ref.vaddr for ref in wave.instrs}
    for grp in groups:
        grp.wave_id = wave_id
        executed = any(grp.contains(v) for v in executed_addrs)
        (kept if executed else dropped).append(grp)
    return WaveGrouping(kept=kept, dropped=dropped, refs=refs, page_size=page_size)
