"""Byte-level taint propagation and the malware-trace inclusion predicate.

Memory taint is tracked per global location id so tainted data survives
shared mappings and cross-process writes; register taint is tracked per
(pid, tid, register). An instruction joins the malware execution trace iff
any byte of its encoding is tainted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, MutableMapping

from .trace_model import TraceEvent

# per-pid map of virtual address -> byte value for tainted own-space writes
TaintedWritesMap = MutableMapping[int, Dict[int, int]]


@dataclass
class PropagationSet:
    """Global taint state: tainted memory (by g) and tainted registers."""

    tainted_mem: set[int] = field(default_factory=set)
    tainted_regs: set[tuple[int, int, str]] = field(default_factory=set)

    @property
    def empty(self) -> bool:
        return not self.tainted_mem and not self.tainted_regs


def init_taint(image_event: TraceEvent) -> PropagationSet:
    """Taint the whole loaded module, data and code sections alike."""
    pset = PropagationSet()
    pset.tainted_mem.update(
        range(image_event.gbase, image_event.gbase + len(image_event.bytes)))
    return pset


def is_tainted_instruction(ev: TraceEvent, pset: PropagationSet) -> bool:
    """True iff any byte of the instruction's global span is tainted.

    The first byte is tested alone first: it decides most tainted
    instructions without building a range.
    """
    mem = pset.tainted_mem
    return ev.gaddr in mem or not mem.isdisjoint(
        range(ev.gaddr + 1, ev.gaddr + len(ev.bytes)))


def update(ev: TraceEvent, pset: PropagationSet,
           twrites: TaintedWritesMap) -> tuple[PropagationSet, TaintedWritesMap]:
    """Advance taint state over one executed instruction (in place).

    Data flow: tainted inputs taint every output, untainted inputs clear
    every output (strong update). Executing tainted bytes taints every
    output regardless of the inputs. Tainted writes landing in the writer's
    own address space are recorded per pid.
    """
    mem = pset.tainted_mem
    regs = pset.tainted_regs
    pid, tid = ev.pid, ev.tid

    hot = False
    for m in ev.reads:
        if m.g in mem:
            hot = True
            break
    if not hot and regs:
        for r in ev.rregs:
            if (pid, tid, r) in regs:
                hot = True
                break
    if not hot:
        hot = not mem.isdisjoint(range(ev.gaddr, ev.gaddr + len(ev.bytes)))

    if hot:
        own = None
        for g, v, space_pid, val in ev.writes:
            mem.add(g)
            # every output is tainted now, so each own-space write is recorded
            if space_pid == pid:
                if own is None:
                    own = twrites.setdefault(pid, {})
                own[v] = val
        for r in ev.wregs:
            regs.add((pid, tid, r))
    else:
        # every output is clean now, so no write is recorded
        for m in ev.writes:
            mem.discard(m.g)
        for r in ev.wregs:
            regs.discard((pid, tid, r))
    return pset, twrites


def taint_log_line(ev: TraceEvent, tainted: bool, pset: PropagationSet,
                   twrites: TaintedWritesMap) -> str:
    """One debug-log line per executed instruction."""
    t = twrites.get(ev.pid, {})
    return f"{ev.seq}, tainted_instr:{str(tainted).lower()}, {len(pset.tainted_mem)}, {len(t)}"
