"""API call detection: export maps, branch-destination matching, returns.

A call is recorded when a branch instruction of the malware execution trace
lands exactly on the start address of a function exported by a module
loaded in that process. The wave collector owns the monitor and stamps each
call with the wave its caller joined, so a call is attributed when it is
detected. Return values are captured when the recorded return address
executes next in the same thread.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .trace_model import TraceEvent

log = logging.getLogger(__name__)


@dataclass
class ExportMap:
    """Per-process map of function start address -> (module, function)."""

    by_pid: dict[int, dict[int, tuple[str, str]]] = field(default_factory=dict)

    def add_module(self, ev: TraceEvent):
        table = self.by_pid.setdefault(ev.pid, {})
        for exp in ev.exports:
            addr = ev.base + exp.rva
            if addr in table:
                log.warning("pid %d: duplicate export address %#x (%s!%s kept)",
                            ev.pid, addr, *table[addr])
                continue
            table[addr] = (ev.name, exp.name)

    def lookup(self, pid: int, vaddr: int) -> tuple[str, str] | None:
        return self.by_pid.get(pid, {}).get(vaddr)


@dataclass
class ApiCallRecord:
    """One resolved external call made by a malware-trace instruction."""

    caller_seq: int
    caller_vaddr: int
    caller_bytes: bytes  # the traced encoding; the log keeps its length
    pid: int
    tid: int
    target_vaddr: int
    module_name: str
    function_name: str
    return_address: int | None
    return_value: int | None = None
    wave_id: tuple[int, int] | None = None
    # carried for the static stage, not part of the log schema
    btype: str = "call"

    @property
    def caller_len(self) -> int:
        return len(self.caller_bytes)

    @property
    def qualified_name(self) -> str:
        return f"{self.module_name}!{self.function_name}"

    def log_obj(self) -> dict:
        return {
            "caller_seq": self.caller_seq,
            "caller_vaddr": self.caller_vaddr,
            "caller_len": self.caller_len,
            "pid": self.pid,
            "tid": self.tid,
            "wave_id": list(self.wave_id) if self.wave_id else None,
            "target_vaddr": self.target_vaddr,
            "module_name": self.module_name,
            "function_name": self.function_name,
            "return_address": self.return_address,
            "return_value": self.return_value,
        }


def detect_api_call(ev: TraceEvent, exports: ExportMap) -> ApiCallRecord | None:
    """Match a malware-trace instruction's branch destination against exports.

    Only exact function start addresses match; branches into a function body
    (stolen-bytes style) are deliberately not resolved.
    """
    if ev.branch is None:
        return None
    hit = exports.lookup(ev.pid, ev.branch.target_vaddr)
    if hit is None:
        return None
    module_name, function_name = hit
    return ApiCallRecord(
        caller_seq=ev.seq,
        caller_vaddr=ev.vaddr,
        caller_bytes=ev.bytes,
        pid=ev.pid,
        tid=ev.tid,
        target_vaddr=ev.branch.target_vaddr,
        module_name=module_name,
        function_name=function_name,
        return_address=ev.stack_top,
        btype=ev.branch.btype,
    )


class ApiMonitor:
    """Event-driven monitor fed by the wave collector's replay loop."""

    def __init__(self):
        self.exports = ExportMap()
        self.records: list[ApiCallRecord] = []
        # (pid, tid, return address) -> calls awaiting it, innermost last
        self.pending: dict[tuple[int, int, int], list[ApiCallRecord]] = {}

    def on_module(self, ev: TraceEvent):
        self.exports.add_module(ev)

    def on_return_site(self, ev: TraceEvent):
        """Match any executed instruction against pending return addresses."""
        key = (ev.pid, ev.tid, ev.vaddr)
        stack = self.pending.get(key)
        if stack:
            rec = stack.pop()  # LIFO: innermost call returns first
            if not stack:
                del self.pending[key]
            if ev.regvals and "eax" in ev.regvals:
                rec.return_value = ev.regvals["eax"]

    def on_malware_instr(self, ev: TraceEvent, wave_id: tuple[int, int]):
        """Record a call made by `ev`, which belongs to wave `wave_id`."""
        rec = detect_api_call(ev, self.exports)
        if rec is None:
            return
        rec.wave_id = wave_id
        self.records.append(rec)
        if rec.return_address is not None:
            key = (rec.pid, rec.tid, rec.return_address)
            self.pending.setdefault(key, []).append(rec)

    def on_procexit(self, pid: int):
        self.pending = {k: v for k, v in self.pending.items() if k[0] != pid}


def attribute_calls(records: list[ApiCallRecord],
                    wave_records) -> dict[tuple[int, int], list[ApiCallRecord]]:
    """Group calls by their stamped wave; every wave gets a list."""
    per_wave = {(rec.pid, rec.wave_index): [] for rec in wave_records}
    for call in records:
        per_wave[call.wave_id].append(call)
    return per_wave
