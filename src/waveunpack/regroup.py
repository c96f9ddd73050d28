"""Group a wave's page dumps into self-contained memory regions.

A wave's intervals are the maximal runs of adjacent pages it dumped.
Intervals referencing each other (speculative scan) merge transitively into
groups, one future PE file per group. `holder` decides which interval
holds an address, for references, entries and calls alike. A group's entry
is the first address the wave executed inside it; groups without one are
dropped and reported. A call belongs to the group holding its first byte,
and is patched only when its 6 bytes lie in that one interval.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from .api_monitor import ApiCallRecord
from .disasm import scan_refs
from .wave_collector import WaveRecord


@dataclass
class Interval:
    """Maximal run of dumped pages, page-aligned and disjoint per wave."""

    base: int
    end: int  # exclusive
    bytes: bytes


def holder(intervals: list[Interval], vaddr: int) -> int | None:
    """Index of the interval holding `vaddr`, or None. `intervals` are
    disjoint and sorted by base, so only the last one starting at or below
    `vaddr` can hold it."""
    i = bisect_right(intervals, vaddr, key=lambda iv: iv.base) - 1
    return i if i >= 0 and vaddr < intervals[i].end else None


@dataclass
class MemoryGroup:
    intervals: list[Interval]
    xrefs: set[tuple[int, int]] = field(default_factory=set)
    # first executed address inside the group; None if it executed nothing
    entry: int | None = None
    # the wave's calls whose first byte the group holds, in detection order
    calls: list[ApiCallRecord] = field(default_factory=list)


def merge_groups(intervals: list[Interval],
                 refs: set[tuple[int, int]]) -> list[MemoryGroup]:
    """Merge intervals into connected components under cross-referencing."""
    intervals = sorted(intervals, key=lambda iv: iv.base)
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
        src, dst = holder(intervals, site), holder(intervals, target)
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
    dropped_pages: list[int]  # bases of the dropped groups' pages, ascending


def group_wave(wave: WaveRecord, page_size: int,
               calls: list[ApiCallRecord]) -> WaveGrouping:
    """Cut a wave's dumps into intervals, merge them, keep what executed,
    and give each group the `calls` whose first byte it holds."""
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
        candidates = [(o.base, o.end) for o in intervals if o is not iv]
        refs |= scan_refs(iv.bytes, iv.base, candidates)

    groups = merge_groups(intervals, refs)
    group_of = {iv.base: grp for grp in groups for iv in grp.intervals}

    def group_holding(vaddr: int) -> MemoryGroup | None:
        i = holder(intervals, vaddr)
        return None if i is None else group_of[intervals[i].base]

    # distinct executed addresses in first-execution order, until every
    # group has its entry
    unentered = len(groups)
    for vaddr in dict.fromkeys(ref.vaddr for ref in wave.instrs):
        if (grp := group_holding(vaddr)) is not None and grp.entry is None:
            grp.entry = vaddr
            unentered -= 1
            if not unentered:
                break
    for call in calls:
        if (grp := group_holding(call.caller_vaddr)) is not None:
            grp.calls.append(call)

    kept = [grp for grp in groups if grp.entry is not None]
    dropped = [grp for grp in groups if grp.entry is None]
    return WaveGrouping(
        kept=kept, dropped=dropped, refs=refs,
        dropped_pages=sorted(page for grp in dropped for iv in grp.intervals
                             for page in range(iv.base, iv.end, page_size)))
