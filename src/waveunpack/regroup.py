"""Group a wave's page dumps into self-contained memory regions.

A wave's intervals are the maximal runs of adjacent pages it dumped.
Intervals referencing each other (speculative scan) merge transitively into
groups, one future PE file per group. A group's entry is the first address
the wave executed inside it; groups without one are dropped and reported.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from .disasm import scan_refs
from .wave_collector import WaveRecord


@dataclass
class Interval:
    """Maximal run of dumped pages, page-aligned and disjoint per wave."""

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
    intervals: list[Interval]
    xrefs: set[tuple[int, int]] = field(default_factory=set)
    # first executed address inside the group; None if it executed nothing
    entry: int | None = None

    def contains(self, vaddr: int) -> bool:
        return any(iv.contains(vaddr) for iv in self.intervals)


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
        groups.append(MemoryGroup(
            intervals=sorted(members[root], key=lambda iv: iv.base),
            xrefs={(s, t) for s, t, src in ref_owners
                   if src is not None and find(src) == root}))
    return groups


@dataclass
class WaveGrouping:
    kept: list[MemoryGroup]
    dropped: list[MemoryGroup]
    refs: set[tuple[int, int]]
    page_size: int

    @property
    def dropped_pages(self) -> list[int]:
        pages = []
        for grp in self.dropped:
            for iv in grp.intervals:
                pages.extend(range(iv.base, iv.end, self.page_size))
        return sorted(pages)


def group_wave(wave: WaveRecord, page_size: int) -> WaveGrouping:
    """Cut a wave's dumps into intervals, merge them, keep what executed."""
    runs: list[list[int]] = []
    for base in sorted(wave.page_dumps):
        if runs and runs[-1][-1] + page_size == base:
            runs[-1].append(base)
        else:
            runs.append([base])
    intervals = [Interval(base=run[0], end=run[-1] + page_size,
                          bytes=b"".join(wave.page_dumps[p] for p in run))
                 for run in runs]

    refs: set[tuple[int, int]] = set()
    for iv in intervals:
        candidates = [other.range for other in intervals if other is not iv]
        refs |= scan_refs(iv.bytes, iv.base, candidates)

    kept, dropped = [], []
    # distinct executed addresses in first-execution order
    executed = dict.fromkeys(ref.vaddr for ref in wave.instrs)
    for grp in merge_groups(intervals, refs):
        grp.entry = next((v for v in executed if grp.contains(v)), None)
        (dropped if grp.entry is None else kept).append(grp)
    return WaveGrouping(kept=kept, dropped=dropped, refs=refs, page_size=page_size)
