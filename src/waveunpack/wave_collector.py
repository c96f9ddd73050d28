"""Partition the malware execution trace into per-process execution waves.

Each process with malware execution has exactly one active wave. A tainted
instruction is classified against the process's shadow memory and tainted
writes; executing freshly written memory (a new region, or overwritten
code) closes the current wave and starts the next one. Closed waves are
logged together with page dumps of their shadow memory and tainted writes.
The same loop feeds the API monitor, which stamps each detected call with
the wave its caller just joined: that wave's index moves only when the wave
closes, so the stamp is final and attribution happens at detection.

Shadow memory and tainted writes are ByteMaps that each ProcessState
owns; `update` writes into the one it is handed. A closing wave takes
that map, and the process goes on with a new one. Wave-set violations of
one wave's shadow memory are listed in ascending address order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, groupby
from typing import NamedTuple

from .api_monitor import ApiCallRecord, ApiMonitor
from .taint_engine import (
    ByteMap,
    PropagationSet,
    init_taint,
    is_tainted_instruction,
    taint_log_line,
    update,
)
from .trace_model import ObservedMemory, SystemTrace, TraceEvent

class InstrRef(NamedTuple):
    """Reference to one executed instruction of the malware trace."""

    seq: int
    pid: int
    vaddr: int
    bytes: bytes

    def code_pairs(self):
        return [(self.vaddr + i, b) for i, b in enumerate(self.bytes)]


@dataclass
class ProcessState:
    """Per-process collection state: one active wave at any moment."""

    pid: int
    shadow: ByteMap = field(default_factory=ByteMap)
    twrites: ByteMap = field(default_factory=ByteMap)
    cur_instrs: list[InstrRef] = field(default_factory=list)
    wave_index: int = 0


@dataclass
class WaveRecord:
    """One closed execution wave: instructions, memory pairs, page dumps."""

    pid: int
    wave_index: int
    instrs: list[InstrRef]
    shadow_pairs: ByteMap
    twrite_pairs: ByteMap
    page_dumps: dict[int, bytes]

    @property
    def entry_vaddr(self) -> int:
        return self.instrs[0].vaddr

    @property
    def first_seq(self) -> int:
        return self.instrs[0].seq

    @property
    def last_seq(self) -> int:
        return self.instrs[-1].seq


@dataclass
class CollectResult:
    mtrace: list[InstrRef]
    records: list[WaveRecord]  # in closing order
    calls: list[ApiCallRecord]  # in detection order, each with its wave_id
    image: TraceEvent | None  # None when the trace loads no image


@dataclass(frozen=True)
class Violation:
    bullet: int
    pid: int
    wave_index: int
    detail: str

    def __str__(self):
        return f"bullet {self.bullet} (pid {self.pid} wave {self.wave_index}): {self.detail}"


def classify_case(ev: TraceEvent, state: ProcessState) -> int:
    """Classify a tainted instruction against shadow memory / tainted writes.

    Tests cover every byte of the encoding, so instructions straddling a
    generated-code boundary classify conservatively:
      1 -> no byte known at all (cross-process arrival, or earlier-wave code)
      2 -> some byte outside the shadow but freshly written (new region)
      3 -> fully shadowed but overwritten with different content
      4 -> fully consistent with the current wave
    """
    shadow = state.shadow
    tw = state.twrites
    span = ev.vspan()
    if tw.isdisjoint(span):  # nothing freshly written: case 1 or 4
        return 1 if shadow.isdisjoint(span) else 4
    in_shadow = [v in shadow for v in span]
    in_tw = [v in tw for v in span]
    if any(t and not s for s, t in zip(in_shadow, in_tw)):
        return 2
    if all(in_shadow) and any(
            v in tw and tw.get(v) != shadow.get(v) for v in span):
        return 3
    return 4


def _dump_pages(pid: int, shadow: ByteMap, twrites: ByteMap,
                observed: ObservedMemory, page_size: int) -> dict[int, bytes]:
    pages = shadow.page_bases(page_size) | twrites.page_bases(page_size)
    return {p: observed.page(pid, p) for p in sorted(pages)}


def dump_wave(state: ProcessState, trigger: InstrRef | None,
              observed: ObservedMemory, page_size: int) -> WaveRecord | None:
    """Close the current wave and rotate state for the next one.

    Returns the logged record, or None when the wave executed nothing
    (zero-instruction waves are suppressed). The new wave's shadow memory is
    the closed wave's tainted writes; the trigger instruction, if any,
    becomes the new wave's entry point. The record takes over the state's
    shadow, tainted writes and instruction list; the state gets new ones.
    """
    twrites = state.twrites
    record = None
    if state.cur_instrs:
        record = WaveRecord(
            pid=state.pid,
            wave_index=state.wave_index,
            instrs=state.cur_instrs,
            shadow_pairs=state.shadow,
            twrite_pairs=twrites,
            page_dumps=_dump_pages(state.pid, state.shadow, twrites,
                                   observed, page_size),
        )
        state.wave_index += 1
    state.shadow = twrites.copy()
    state.twrites = ByteMap()
    state.cur_instrs = [trigger] if trigger is not None else []
    return record


def collect_waves(trace: SystemTrace, taint_log=None) -> CollectResult:
    """Run the replay loop: taint, inclusion test, wave classification.

    An ApiMonitor is fed module events, the instructions that may reach a
    pending return address, and the malware-trace branches, from the same
    cursor. `trace.events` is consumed once, as an iterator; once taint
    dies, the rest is read but neither replayed nor kept, so a streamed
    trace is still checked to its end. `taint_log` is an optional
    writable text stream receiving one line per replayed instruction.
    """
    page_size = trace.page_size
    observed = ObservedMemory(page_size)
    monitor = ApiMonitor()
    pset = PropagationSet()
    states: dict[int, ProcessState] = {}
    records: list[WaveRecord] = []
    mtrace: list[InstrRef] = []
    image = None

    def state_for(pid: int) -> ProcessState:
        return states.setdefault(pid, ProcessState(pid=pid))

    def close(st: ProcessState, trigger: InstrRef | None):
        rec = dump_wave(st, trigger, observed, page_size)
        if rec is not None:
            records.append(rec)

    events = iter(trace.events)
    for ev in events:
        kind = ev.kind
        if kind == "image":
            observed.record_event(ev)
            pset = init_taint(ev)
            state_for(ev.pid).shadow.store(ev.base, ev.bytes)
            image = ev
            continue
        if kind == "module":
            monitor.on_module(ev)
            continue
        if kind == "procexit":
            st = states.get(ev.pid)
            if st is not None:
                close(st, None)
            monitor.on_procexit(ev.pid)
            continue

        # instr
        if monitor.pending:
            monitor.on_return_site(ev)
        tainted = is_tainted_instruction(ev, pset)
        st = states.get(ev.pid) or state_for(ev.pid)
        if tainted:
            ref = InstrRef(ev.seq, ev.pid, ev.vaddr, ev.bytes)
            mtrace.append(ref)
            case = classify_case(ev, st)
            if case == 1:
                st.shadow.store(ev.vaddr, ev.bytes)
                st.cur_instrs.append(ref)
            elif case in (2, 3):
                close(st, ref)
            else:
                st.cur_instrs.append(ref)
            if ev.branch is not None:  # only a branch can call an API
                monitor.on_malware_instr(ev, (ev.pid, st.wave_index))
        update(ev, pset, st.twrites, tainted)
        observed.record_event(ev)
        if taint_log is not None:
            taint_log.write(taint_log_line(ev, tainted, pset, st.twrites)
                            + "\n")
        if image is not None and pset.empty:
            break
    for _ in events:  # nothing is tainted any more: only read the rest
        pass

    for pid in sorted(states):
        close(states[pid], None)
    return CollectResult(mtrace=mtrace, records=records,
                         calls=monitor.records, image=image)


def verify_wave_semantics(records: list[WaveRecord], mtrace: list[InstrRef],
                          image_event: TraceEvent | None) -> list[Violation]:
    """Check the four wave-set requirements; violations are data, not errors.

    1. every malware-trace instruction belongs to exactly one wave;
    2. waves of one process are strictly ordered by instruction sequence;
    3. every shadow pair comes from the initial image, from the tainted
       writes of a wave that started earlier, or from an instruction the
       wave itself executed (case-1 arrivals add their own bytes);
    4. every instruction's bytes are present in its wave's shadow memory.

    Violations of one wave's bullet 3 are listed in address order.
    """
    out: list[Violation] = []

    seen: dict[int, tuple[int, int]] = {}
    for rec in records:
        for ref in rec.instrs:
            if ref.seq in seen:
                out.append(Violation(1, rec.pid, rec.wave_index,
                                     f"instruction seq {ref.seq} appears in wave "
                                     f"{seen[ref.seq]} and again here"))
            seen[ref.seq] = (rec.pid, rec.wave_index)
    for ref in mtrace:
        if ref.seq not in seen:
            out.append(Violation(1, ref.pid, -1,
                                 f"instruction seq {ref.seq} is in no wave"))

    by_pid: dict[int, list[WaveRecord]] = {}
    for rec in records:
        by_pid.setdefault(rec.pid, []).append(rec)
    for pid, recs in by_pid.items():
        recs = sorted(recs, key=lambda r: r.wave_index)
        for prev, cur in zip(recs, recs[1:]):
            if prev.last_seq >= cur.first_seq:
                out.append(Violation(2, pid, cur.wave_index,
                                     f"wave overlaps predecessor: seq {prev.last_seq} "
                                     f">= {cur.first_seq}"))

    image = image_event.bytes if image_event is not None else b""
    image_base = image_event.base if image_event is not None else 0
    # one walk in first_seq order grows the earlier waves' tainted writes; a
    # group of equal first_seq joins only after all of it is checked
    provenance: list[list[Violation]] = [[] for _ in records]
    earlier_tw: set[tuple[int, int]] = set()
    by_start = sorted(range(len(records)), key=lambda i: records[i].first_seq)
    for _, group in groupby(by_start, key=lambda i: records[i].first_seq):
        group = list(group)
        for i in group:
            provenance[i] = _provenance_violations(records[i], earlier_tw,
                                                   image, image_base)
        for i in group:
            earlier_tw.update(records[i].twrite_pairs.items())
    out.extend(chain.from_iterable(provenance))

    for rec in records:
        shadow = rec.shadow_pairs
        # first byte of each distinct encoding missing from the shadow, or None
        missing: dict[tuple[int, bytes], int | None] = {}
        for ref in rec.instrs:
            key = (ref.vaddr, ref.bytes)
            if key not in missing:
                missing[key] = next((v for v, b in ref.code_pairs()
                                     if shadow.get(v) != b), None)
            v = missing[key]
            if v is not None:
                out.append(Violation(4, rec.pid, rec.wave_index,
                                     f"instruction seq {ref.seq} byte at {v:#x} "
                                     f"missing from shadow"))
    return out


def _provenance_violations(rec: WaveRecord, earlier_tw: set[tuple[int, int]],
                           image: bytes, image_base: int) -> list[Violation]:
    """Bullet 3 for one wave, in address order: shadow pairs that are not
    image bytes, earlier waves' tainted writes or the wave's own code."""
    own_pairs = set()
    for vaddr, code in {(ref.vaddr, ref.bytes) for ref in rec.instrs}:
        own_pairs.update(zip(range(vaddr, vaddr + len(code)), code))
    out = []
    for start, data in rec.shadow_pairs.runs():
        off = start - image_base
        if 0 <= off and image[off:off + len(data)] == data:
            continue  # the whole run is image bytes
        for pair in zip(range(start, start + len(data)), data):
            off = pair[0] - image_base
            if (0 <= off < len(image) and image[off] == pair[1]
                    or pair in earlier_tw or pair in own_pairs):
                continue
            out.append(Violation(3, rec.pid, rec.wave_index,
                                 f"shadow pair ({pair[0]:#x}, {pair[1]:#04x}) has no "
                                 f"legitimate provenance"))
    return out
