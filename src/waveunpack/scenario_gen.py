"""Synthetic ground-truth traces for the benchmark scenarios.

Nine scenarios combine dynamically generated code, cross-process injection
and import obfuscation. The seed jitters addresses (page bases, module
bases, benign noise placement) and never counts, so the expectation table
is seed-invariant. Every trace also plants benign background execution and
benign API calls that a correct pipeline must not attribute to any wave.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field

from .trace_model import (
    DEFAULT_PAGE_SIZE,
    Branch,
    Export,
    MemLoc,
    SystemTrace,
    TraceEvent,
)

MALWARE_PID = 100
TARGET_PID = 200
BENIGN_PID = 300
TID = 1

PAGE = DEFAULT_PAGE_SIZE

SCENARIO_IDS = ("d1", "d2", "d3", "d4", "c1", "c2", "c4", "c5", "m1")

GMH = "kernel32!GetModuleHandleA"
GPA = "kernel32!GetProcAddress"
EXP = "kernel32!ExitProcess"
MBA = "user32!MessageBoxA"
LLA = "kernel32!LoadLibraryA"
OPN = "kernel32!OpenProcess"
WPM = "kernel32!WriteProcessMemory"
CRT = "kernel32!CreateRemoteThread"
QUA = "kernel32!QueueUserAPC"
WEX = "kernel32!WinExec"
GAA = "kernel32!GlobalAddAtomA"
PTM = "user32!PostThreadMessageA"

_K32_RVAS = {
    "GetModuleHandleA": 0x1000, "GetProcAddress": 0x1100, "ExitProcess": 0x1200,
    "LoadLibraryA": 0x1300, "OpenProcess": 0x1400, "WriteProcessMemory": 0x1500,
    "CreateRemoteThread": 0x1600, "QueueUserAPC": 0x1700, "WinExec": 0x1800,
    "GlobalAddAtomA": 0x1900, "Sleep": 0x1A00,
}
_U32_RVAS = {"MessageBoxA": 0x1000, "PostThreadMessageA": 0x1100}


class UnknownScenarioError(ValueError):
    pass


@dataclass
class GroundTruth:
    """Seed-invariant expectations for one scenario.

    `patched` and `sidecar_only` name the functions whose final-wave call
    sites are expected rewritten / recorded-only in the final wave's PE.
    """

    scenario: str
    procs: int
    waves: int
    final_wave_calls: int
    iat_size: int
    manifest: list[dict]
    patched: list[str]
    sidecar_only: list[str]
    xref_link: bool = False

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario,
            "procs": self.procs,
            "waves": self.waves,
            "final_wave_api_calls": self.final_wave_calls,
            "iat_size": self.iat_size,
            "manifest": self.manifest,
            "patched": self.patched,
            "sidecar_only": self.sidecar_only,
            "xref_link": self.xref_link,
        }


def _wave(pid, wave, calls):
    return {"pid": pid, "wave": wave, "calls": list(calls)}


_TRUTH = {
    "d1": GroundTruth("d1", 1, 2, 5, 3,
                      [_wave(100, 0, []),
                       _wave(100, 1, [GMH, GPA, GPA, GPA, EXP])],
                      patched=[GMH], sidecar_only=[GPA, EXP]),
    "d2": GroundTruth("d2", 1, 2, 5, 3,
                      [_wave(100, 0, []),
                       _wave(100, 1, [GMH, GPA, GPA, GPA, MBA])],
                      patched=[GMH], sidecar_only=[GPA, MBA], xref_link=True),
    "d3": GroundTruth("d3", 1, 3, 5, 3,
                      [_wave(100, 0, []), _wave(100, 1, []),
                       _wave(100, 2, [GMH, GPA, GPA, GPA, MBA])],
                      patched=[GMH, MBA], sidecar_only=[GPA]),
    "d4": GroundTruth("d4", 1, 3, 5, 3,
                      [_wave(100, 0, []), _wave(100, 1, []),
                       _wave(100, 2, [GMH, GPA, GPA, GPA, EXP])],
                      patched=[GMH, EXP], sidecar_only=[GPA]),
    "c1": GroundTruth("c1", 2, 2, 6, 3,
                      [_wave(100, 0, [OPN, WPM, CRT]),
                       _wave(200, 0, [GMH, GPA, GPA, GPA, GPA, EXP])],
                      patched=[GMH], sidecar_only=[GPA, EXP]),
    "c2": GroundTruth("c2", 2, 2, 6, 3,
                      [_wave(100, 0, [OPN, WPM, QUA]),
                       _wave(200, 0, [GMH, GPA, GPA, GPA, GPA, EXP])],
                      patched=[GMH], sidecar_only=[GPA, EXP]),
    "c4": GroundTruth("c4", 2, 2, 1, 1,
                      [_wave(100, 0, []), _wave(200, 0, [LLA])],
                      patched=[], sidecar_only=[LLA]),
    "c5": GroundTruth("c5", 2, 2, 5, 3,
                      [_wave(100, 0, [GAA, PTM]),
                       _wave(200, 0, [GMH, GPA, GPA, GPA, WEX])],
                      patched=[GMH], sidecar_only=[GPA, WEX]),
    "m1": GroundTruth("m1", 2, 3, 6, 3,
                      [_wave(100, 0, [OPN, WPM, CRT]), _wave(200, 0, []),
                       _wave(200, 1, [GMH, GPA, GPA, GPA, GPA, EXP])],
                      patched=[GMH], sidecar_only=[GPA, EXP]),
}


def expected_ground_truth(scenario_id: str) -> GroundTruth:
    try:
        return _TRUTH[scenario_id]
    except KeyError:
        raise UnknownScenarioError(f"unknown scenario {scenario_id!r}") from None


# --- tiny subset assembler -------------------------------------------------

def _le(value: int) -> bytes:
    return struct.pack("<I", value & 0xFFFFFFFF)


def _push_raw(chunk: bytes) -> bytes:
    return b"\x68" + chunk


def _push(imm: int) -> bytes:
    return b"\x68" + _le(imm)


def _mov_eax(imm: int) -> bytes:
    return b"\xb8" + _le(imm)


def _call_mem(addr: int) -> bytes:
    return b"\xff\x15" + _le(addr)


def _jmp_mem(addr: int) -> bytes:
    return b"\xff\x25" + _le(addr)


def _call_ebp_disp(disp: int) -> bytes:
    return b"\xff\x95" + _le(disp)


def _jmp_rel32(src: int, dst: int) -> bytes:
    return b"\xe9" + struct.pack("<i", dst - src - 5)


def _ror_eax(count: int) -> bytes:
    return b"\xc1\xc8" + bytes([count])


def _rol32(value: int, count: int) -> int:
    count %= 32
    return ((value << count) | (value >> (32 - count))) & 0xFFFFFFFF


CALL_EAX = b"\xff\xd0"
RET = b"\xc3"
NOP = b"\x90"


# --- trace assembly helpers ------------------------------------------------

@dataclass
class Region:
    """A run of pages with a global identity and per-process views."""

    g: int
    views: dict[int, int]
    size: int

    def addr(self, pid: int, off: int = 0) -> int:
        return self.views[pid] + off

    def locs(self, pid: int, off: int, data: bytes) -> tuple[MemLoc, ...]:
        base_v = self.views[pid] + off
        base_g = self.g + off
        return tuple(MemLoc(g=base_g + i, v=base_v + i, space_pid=pid, val=b)
                     for i, b in enumerate(data))


@dataclass
class Op:
    """One planned instruction of a straight-line code block."""

    code: bytes
    reads: tuple = ()
    writes: tuple = ()
    rregs: tuple = ()
    wregs: tuple = ()
    branch: Branch | None = None
    ret_next: bool = False  # plant the following address as return address
    regvals: dict | None = None
    after: object = None  # callable(tb) emitting interleaved events


def plan_bytes(plan: list[Op]) -> bytes:
    return b"".join(op.code for op in plan)


class TraceBuilder:
    def __init__(self, page_size: int = PAGE):
        self.page_size = page_size
        self.events: list[TraceEvent] = []
        self._seq = 0
        self._g = 0x1_0000_0000
        self._valloc: dict[int, int] = {}

    def alloc_g(self, size: int) -> int:
        g = self._g
        self._g += -(-size // PAGE) * PAGE + PAGE
        return g

    def region(self, rng, pids, pages: int = 1) -> Region:
        """Pick a jittered, non-adjacent page run in each pid's space."""
        views = {}
        for pid in pids:
            cursor = self._valloc.get(pid)
            if cursor is None:
                cursor = {MALWARE_PID: 0x05000000, TARGET_PID: 0x05A00000,
                          BENIGN_PID: 0x71000000}.get(pid, 0x08000000)
            base = cursor + (2 + rng.randrange(8)) * PAGE
            self._valloc[pid] = base + pages * PAGE
            views[pid] = base
        return Region(g=self.alloc_g(pages * PAGE), views=views,
                      size=pages * PAGE)

    def image_region(self, pid, base, size: int = PAGE) -> Region:
        return Region(g=self.alloc_g(size), views={pid: base}, size=size)

    def emit_image(self, region: Region, content: bytes, name: str):
        (pid, base), = region.views.items()
        self.events.append(TraceEvent(kind="image", pid=pid, base=base,
                                      gbase=region.g, name=name,
                                      bytes=bytes(content)))

    def module(self, pid, base, name, rvas):
        exports = tuple(Export(name=n, rva=r) for n, r in sorted(rvas.items()))
        self.events.append(TraceEvent(kind="module", pid=pid, base=base,
                                      name=name, exports=exports))

    def procexit(self, pid):
        self.events.append(TraceEvent(kind="procexit", pid=pid))

    def instr(self, pid, tid, vaddr, gaddr, code, reads=(), writes=(),
              rregs=(), wregs=(), branch=None, stack_top=None, regvals=None):
        self._seq += 1
        self.events.append(TraceEvent(
            kind="instr", pid=pid, seq=self._seq, tid=tid, vaddr=vaddr,
            gaddr=gaddr, bytes=bytes(code), reads=tuple(reads),
            writes=tuple(writes), rregs=tuple(rregs), wregs=tuple(wregs),
            branch=branch, stack_top=stack_top,
            regvals=dict(regvals) if regvals else None))
        return self._seq

    def run_plan(self, pid, tid, region: Region, off: int, plan: list[Op]):
        """Emit events executing a straight-line plan laid out at `off`."""
        offsets = []
        cursor = off
        for op in plan:
            offsets.append(cursor)
            cursor += len(op.code)
        end_addr = region.addr(pid, cursor)
        for i, op in enumerate(plan):
            stack_top = None
            if op.ret_next:
                stack_top = (region.addr(pid, offsets[i + 1])
                             if i + 1 < len(plan) else end_addr)
            self.instr(pid, tid, region.addr(pid, offsets[i]),
                       region.g + offsets[i], op.code,
                       reads=op.reads, writes=op.writes, rregs=op.rregs,
                       wregs=op.wregs, branch=op.branch, stack_top=stack_top,
                       regvals=op.regvals)
            if op.after is not None:
                op.after(self)

    def build(self) -> SystemTrace:
        return SystemTrace(events=list(self.events), page_size=self.page_size)


class BenignCode:
    """Untainted helper code (module bodies, background processes)."""

    def __init__(self, tb: TraceBuilder, pid, tid, base_vaddr):
        self.tb = tb
        self.pid = pid
        self.tid = tid
        self.base = base_vaddr
        self.g = tb.alloc_g(PAGE)
        self.cursor = 0

    def emit(self, code=NOP, reads=(), writes=(), branch=None,
             stack_top=None, regvals=None, rregs=(), wregs=()):
        off = self.cursor % (PAGE - 16)
        self.tb.instr(self.pid, self.tid, self.base + off, self.g + off,
                      code, reads=reads, writes=writes, rregs=rregs,
                      wregs=wregs, branch=branch, stack_top=stack_top,
                      regvals=regvals)
        self.cursor += len(code)

    def nops(self, n):
        for _ in range(n):
            self.emit()

    def body(self, n=2):
        """Closure emitting an API body, for use as an Op.after hook."""
        return lambda tb: self.nops(n)

    def api_call(self, target_vaddr, eax=0):
        """A benign call plus its return site; must never be attributed."""
        self.emit(code=CALL_EAX, rregs=("eax",),
                  branch=Branch(target_vaddr, "call"),
                  stack_top=self.base + (self.cursor + 2) % (PAGE - 16))
        self.emit(regvals={"eax": eax})

    def copy(self, src: Region, src_pid, src_off, dst: Region, dst_pid,
             dst_off, data: bytes, chunk: int = 16):
        """Benign instructions moving `data` between address spaces."""
        for i in range(0, len(data), chunk):
            part = data[i:i + chunk]
            self.emit(reads=src.locs(src_pid, src_off + i, part),
                      writes=dst.locs(dst_pid, dst_off + i, part))


def push_writer(dst: Region, dst_pid: int, dst_off: int,
                content: bytes) -> list[Op]:
    """Stack-style writer: one push per dword, planted in descending order."""
    if len(content) % 4:
        content = content + NOP * (4 - len(content) % 4)
    ops = []
    for j in reversed(range(0, len(content), 4)):
        chunk = content[j:j + 4]
        ops.append(Op(code=_push_raw(chunk),
                      writes=dst.locs(dst_pid, dst_off + j, chunk)))
    return ops


# --- resolver payloads -----------------------------------------------------

SLOTS_OFF = 0x100  # custom address table lives past the code


@dataclass
class Payload:
    """A code block plus the content that must exist in memory to run it."""

    plan: list[Op]
    content: bytes


def build_resolver(pid: int, region: Region, api: dict[str, int],
                   k32_base: int, body, *, gmh_form="ff15", gpa_count=3,
                   final=("petite", "ExitProcess"), data_push=None,
                   self_slot=True, exits=True) -> Payload:
    """Assemble the call block: GetModuleHandle, a GetProcAddress chain,
    then the final API through an obfuscated form.

    gmh_form: 'ff15' calls through a planted slot (6 bytes, patchable);
    'ff95' goes register-relative through a slot the payload writes first.
    final: ('petite', fn) push/ror/ret or ('ff25', fn) indirect jump.
    """
    slots: dict[int, bytes] = {}
    slot_fin_off = SLOTS_OFF + 4
    gmh = api["GetModuleHandleA"]

    plan = [Op(NOP)]
    if gmh_form == "ff15":
        slots[SLOTS_OFF] = _le(gmh)
        plan.append(Op(_call_mem(region.addr(pid, SLOTS_OFF)),
                       reads=region.locs(pid, SLOTS_OFF, _le(gmh)),
                       branch=Branch(gmh, "call"), ret_next=True,
                       after=body()))
    else:  # ff95: shellcode builds its own slot, then calls through it
        plan.append(Op(_push(gmh),
                       writes=region.locs(pid, SLOTS_OFF, _le(gmh))))
        plan.append(Op(_call_ebp_disp(0x40),
                       reads=region.locs(pid, SLOTS_OFF, _le(gmh)),
                       branch=Branch(gmh, "call"), ret_next=True,
                       after=body()))
    plan.append(Op(NOP, regvals={"eax": k32_base}))

    form, fn = final
    target = api[fn]
    for _ in range(gpa_count):
        plan.append(Op(_mov_eax(api["GetProcAddress"]), wregs=("eax",)))
        plan.append(Op(CALL_EAX, rregs=("eax",),
                       branch=Branch(api["GetProcAddress"], "call"),
                       ret_next=True, after=body()))
        plan.append(Op(NOP, regvals={"eax": target}))

    if data_push is not None:
        plan.append(Op(_push(data_push)))

    if form == "petite":
        plan.append(Op(_push(_rol32(target, 13))))
        plan.append(Op(_ror_eax(13), rregs=("eax",), wregs=("eax",)))
        plan.append(Op(RET, branch=Branch(target, "ret"), ret_next=True,
                       after=body()))
    else:  # ff25
        slots[slot_fin_off] = _le(target)
        plan.append(Op(_jmp_mem(region.addr(pid, slot_fin_off)),
                       reads=region.locs(pid, slot_fin_off, _le(target)),
                       branch=Branch(target, "jmp"), after=body()))
    if not exits:
        plan.append(Op(NOP, regvals={"eax": 1}))
        plan.append(Op(NOP))

    code = plan_bytes(plan)
    if len(code) > SLOTS_OFF:
        raise AssertionError("resolver code overflows its slot area")
    content = bytearray(SLOTS_OFF + 12)
    content[:len(code)] = code
    for off, data in slots.items():
        content[off:off + len(data)] = data
    if self_slot:
        # aligned self-pointer: custom tables reference their own base
        content[SLOTS_OFF + 8:SLOTS_OFF + 12] = _le(region.addr(pid, 0))
    return Payload(plan=plan, content=bytes(content))


def stage_writer(src: Region, dst: Region, pid: int,
                 content: bytes) -> Payload:
    """A generated stage that pushes the next stage and jumps into it."""
    plan = push_writer(dst, pid, 0, content)
    jmp_off = len(plan_bytes(plan))
    target = dst.addr(pid, 0)
    plan.append(Op(_jmp_rel32(src.addr(pid, jmp_off), target),
                   branch=Branch(target, "jmp")))
    return Payload(plan=plan, content=plan_bytes(plan))


# --- shared scenario scaffolding -------------------------------------------

@dataclass
class World:
    tb: TraceBuilder
    rng: random.Random
    k32_base: int
    u32_base: int
    api: dict[str, int]
    bodies: dict[int, BenignCode] = field(default_factory=dict)

    def body_for(self, pid) -> BenignCode:
        if pid not in self.bodies:
            self.bodies[pid] = BenignCode(self.tb, pid, TID,
                                          self.k32_base + 0x3000)
        return self.bodies[pid]

    def load_modules(self, pid, user32=False):
        self.tb.module(pid, self.k32_base, "kernel32", _K32_RVAS)
        if user32:
            self.tb.module(pid, self.u32_base, "user32", _U32_RVAS)

    def background_noise(self, calls=2) -> BenignCode:
        """Background process: untainted code making its own API calls."""
        self.load_modules(BENIGN_PID)
        noise = BenignCode(self.tb, BENIGN_PID, TID,
                           0x70000000 + self.rng.randrange(0x40) * PAGE)
        noise.nops(3)
        for _ in range(calls):
            noise.api_call(self.api["GetModuleHandleA"], eax=self.k32_base)
        noise.nops(2)
        return noise

    def target_noise(self) -> BenignCode:
        """Benign code inside the injected process, including an API call."""
        noise = self.body_for(TARGET_PID)
        noise.nops(2)
        noise.api_call(self.api["Sleep"], eax=0)
        return noise


def _make_world(rng: random.Random) -> World:
    tb = TraceBuilder()
    k32_base = 0x77000000 + rng.randrange(0x100) * PAGE
    u32_base = 0x76100000 + rng.randrange(0x100) * PAGE
    api = {name: k32_base + rva for name, rva in _K32_RVAS.items()}
    api.update({name: u32_base + rva for name, rva in _U32_RVAS.items()})
    return World(tb=tb, rng=rng, k32_base=k32_base, u32_base=u32_base, api=api)


def _image_with(stub_plan: list[Op], embeds: dict[int, bytes]) -> bytes:
    code = plan_bytes(stub_plan)
    img = bytearray(b"\xcc" * PAGE)
    img[:len(code)] = code
    for off, data in embeds.items():
        if off < len(code):
            raise AssertionError("image embed overlaps stub code")
        img[off:off + len(data)] = data
    return bytes(img)


_API_RETURNS = {
    "OpenProcess": 0x5C, "WriteProcessMemory": 1, "CreateRemoteThread": 0x88,
    "QueueUserAPC": 1, "GlobalAddAtomA": 0xC123, "PostThreadMessageA": 1,
}


def _injector_plan(w: World, image: Region, call_names, slots_base=0x800,
                   wpm_after=None) -> tuple[list[Op], dict[int, bytes]]:
    """Image-resident code calling injection APIs through planted slots."""
    pid = MALWARE_PID
    body = w.body_for(pid)
    plan = [Op(NOP)]
    embeds = {}
    for i, name in enumerate(call_names):
        target = w.api[name]
        slot_off = slots_base + 4 * i
        embeds[slot_off] = _le(target)
        after = body.body(2)
        if name == "WriteProcessMemory" and wpm_after is not None:
            after = wpm_after
        plan.append(Op(_call_mem(image.addr(pid, slot_off)),
                       reads=image.locs(pid, slot_off, _le(target)),
                       branch=Branch(target, "call"), ret_next=True,
                       after=after))
        plan.append(Op(NOP, regvals={"eax": _API_RETURNS.get(name, 0)}))
    plan.append(Op(NOP))
    return plan, embeds


# --- scenarios -------------------------------------------------------------

def _gen_dropper(w: World, *, depth: int, final: tuple[str, str],
                 with_string: bool, exits: bool):
    """Single-process unpacker: depth-1 generations, then custom resolution."""
    pid = MALWARE_PID
    rng = w.rng
    image_base = 0x00400000 + rng.randrange(0x100) * PAGE
    image = w.tb.image_region(pid, image_base)
    nstages = depth - 1
    stages = [w.tb.region(rng, [pid]) for _ in range(nstages)]
    str_region = w.tb.region(rng, [pid]) if with_string else None

    final_form, final_fn = final
    data_push = str_region.addr(pid, 0x20) if with_string else None
    payloads = [None] * nstages
    payloads[-1] = build_resolver(
        pid, stages[-1], w.api, w.k32_base, w.body_for(pid).body,
        gmh_form="ff15", gpa_count=3, final=(final_form, final_fn),
        data_push=data_push, exits=exits)
    for level in range(nstages - 2, -1, -1):
        payloads[level] = stage_writer(stages[level], stages[level + 1], pid,
                                       payloads[level + 1].content)

    stub = push_writer(stages[0], pid, 0, payloads[0].content)
    if with_string:
        stub += push_writer(str_region, pid, 0x20, b"unpacked hello\x00\x00")
    jmp_off = len(plan_bytes(stub))
    entry = stages[0].addr(pid, 0)
    stub.append(Op(_jmp_rel32(image_base + jmp_off, entry),
                   branch=Branch(entry, "jmp")))

    w.tb.emit_image(image, _image_with(stub, {}), "sample.exe")
    w.load_modules(pid, user32=final_fn == "MessageBoxA")

    w.tb.run_plan(pid, TID, image, 0, stub)
    bg = w.background_noise()
    for level in range(nstages):
        w.tb.run_plan(pid, TID, stages[level], 0, payloads[level].plan)
    bg.nops(2)
    if exits:
        w.tb.procexit(pid)


def _run_injector(w: World, call_names, payload: Payload,
                  payload_region: Region) -> BenignCode:
    """Common c1/c2/m1 shape: injector process, kernel copy, remote entry."""
    pid = MALWARE_PID
    image_base = 0x00400000 + w.rng.randrange(0x100) * PAGE
    image = w.tb.image_region(pid, image_base)
    kernel = w.body_for(pid)
    embed_off = 0x900

    def wpm_body(tb):
        # the kernel writes the target's memory on the caller's behalf:
        # benign instructions moving tainted bytes across address spaces
        kernel.copy(image, pid, embed_off, payload_region, TARGET_PID, 0,
                    payload.content)

    plan, embeds = _injector_plan(w, image, call_names, wpm_after=wpm_body)
    embeds[embed_off] = payload.content
    w.tb.emit_image(image, _image_with(plan, embeds), "inject.exe")
    w.load_modules(pid)
    w.load_modules(TARGET_PID)

    w.tb.run_plan(pid, TID, image, 0, plan)
    bg = w.background_noise()
    w.target_noise()
    return bg


def _gen_injector(w: World, last_call: str):
    """c1/c2: direct cross-process write, then remote resolution and exit."""
    payload_region = w.tb.region(w.rng, [TARGET_PID])
    payload = build_resolver(TARGET_PID, payload_region, w.api, w.k32_base,
                             w.body_for(TARGET_PID).body, gmh_form="ff15",
                             gpa_count=4, final=("petite", "ExitProcess"))
    bg = _run_injector(w, ["OpenProcess", "WriteProcessMemory", last_call],
                       payload, payload_region)
    w.tb.run_plan(TARGET_PID, TID, payload_region, 0, payload.plan)
    w.tb.procexit(TARGET_PID)
    bg.nops(2)


def _gen_reuse_loader(w: World):
    """c4: benign code writes the tainted payload; shellcode loads a library."""
    pid = MALWARE_PID
    rng = w.rng
    image_base = 0x00400000 + rng.randrange(0x100) * PAGE
    image = w.tb.image_region(pid, image_base)
    shared = w.tb.region(rng, [pid, TARGET_PID])
    exec_region = w.tb.region(rng, [TARGET_PID])
    loaded_base = 0x10000000 + rng.randrange(0x40) * PAGE

    # every copied byte executes: shadow provenance then needs no write log
    payload_plan = [
        Op(NOP),
        Op(_mov_eax(w.api["LoadLibraryA"]), wregs=("eax",)),
        Op(CALL_EAX, rregs=("eax",),
           branch=Branch(w.api["LoadLibraryA"], "call"), ret_next=True,
           after=w.body_for(TARGET_PID).body(2)),
        Op(NOP, regvals={"eax": loaded_base}),
        Op(NOP),
    ]
    payload_code = plan_bytes(payload_plan)

    stub = [Op(NOP)]
    stub += push_writer(shared, pid, 0, payload_code)
    stub.append(Op(NOP))

    w.tb.emit_image(image, _image_with(stub, {}), "loader.exe")
    w.load_modules(pid)
    w.load_modules(TARGET_PID)

    w.tb.run_plan(pid, TID, image, 0, stub)
    bg = w.background_noise()

    # hijacked benign code copies the buffer into executable memory
    explorer = w.target_noise()
    explorer.copy(shared, TARGET_PID, 0, exec_region, TARGET_PID, 0,
                  payload_code)

    w.tb.run_plan(TARGET_PID, TID, exec_region, 0, payload_plan)
    w.tb.module(TARGET_PID, loaded_base, "evil", {"Boom": 0x500})
    bg.nops(2)


def _gen_atom_stager(w: World):
    """c5: staged copy through shared tables, register-relative resolution."""
    pid = MALWARE_PID
    rng = w.rng
    image_base = 0x00400000 + rng.randrange(0x100) * PAGE
    image = w.tb.image_region(pid, image_base)
    atom_a = w.tb.region(rng, [pid])
    atom_b = w.tb.region(rng, [pid, TARGET_PID])
    exec_region = w.tb.region(rng, [TARGET_PID])

    payload = build_resolver(TARGET_PID, exec_region, w.api, w.k32_base,
                             w.body_for(TARGET_PID).body, gmh_form="ff95",
                             gpa_count=3, final=("petite", "WinExec"),
                             self_slot=False, exits=False)
    # only executed bytes may arrive through the benign copy
    payload_code = plan_bytes(payload.plan)

    stub, embeds = _injector_plan(w, image,
                                  ["GlobalAddAtomA", "PostThreadMessageA"])
    stub += push_writer(atom_a, pid, 0, payload_code)
    # staged move: read the first table back into the shared one
    for i in range(0, len(payload_code), 16):
        part = payload_code[i:i + 16]
        stub.append(Op(NOP, reads=atom_a.locs(pid, i, part),
                       writes=atom_b.locs(pid, i, part)))
    stub.append(Op(NOP))

    w.tb.emit_image(image, _image_with(stub, embeds), "atom.exe")
    w.load_modules(pid, user32=True)
    w.load_modules(TARGET_PID)

    w.tb.run_plan(pid, TID, image, 0, stub)
    bg = w.background_noise()

    explorer = w.target_noise()
    explorer.copy(atom_b, TARGET_PID, 0, exec_region, TARGET_PID, 0,
                  payload_code)

    w.tb.run_plan(TARGET_PID, TID, exec_region, 0, payload.plan)
    bg.nops(2)


def _gen_inject_generate(w: World):
    """m1: injection, then in-target generation before resolution."""
    stage1 = w.tb.region(w.rng, [TARGET_PID])
    stage2 = w.tb.region(w.rng, [TARGET_PID])

    resolver = build_resolver(TARGET_PID, stage2, w.api, w.k32_base,
                              w.body_for(TARGET_PID).body, gmh_form="ff15",
                              gpa_count=4, final=("petite", "ExitProcess"))
    stage1_payload = stage_writer(stage1, stage2, TARGET_PID,
                                  resolver.content)

    bg = _run_injector(w, ["OpenProcess", "WriteProcessMemory",
                           "CreateRemoteThread"], stage1_payload, stage1)
    w.tb.run_plan(TARGET_PID, TID, stage1, 0, stage1_payload.plan)
    w.tb.run_plan(TARGET_PID, TID, stage2, 0, resolver.plan)
    w.tb.procexit(TARGET_PID)
    bg.nops(2)


def generate_scenario(scenario_id: str,
                      seed: int = 0) -> tuple[SystemTrace, GroundTruth]:
    truth = expected_ground_truth(scenario_id)
    rng = random.Random(f"{scenario_id}/{seed}")
    w = _make_world(rng)
    if scenario_id in ("d1", "d2", "d3", "d4"):
        depth = 2 if scenario_id in ("d1", "d2") else 3
        final_fn = "ExitProcess" if scenario_id in ("d1", "d4") else "MessageBoxA"
        form = "ff25" if scenario_id in ("d3", "d4") else "petite"
        _gen_dropper(w, depth=depth, final=(form, final_fn),
                     with_string=scenario_id == "d2",
                     exits=final_fn == "ExitProcess")
    elif scenario_id in ("c1", "c2"):
        _gen_injector(w, "CreateRemoteThread" if scenario_id == "c1"
                      else "QueueUserAPC")
    elif scenario_id == "c4":
        _gen_reuse_loader(w)
    elif scenario_id == "c5":
        _gen_atom_stager(w)
    else:
        _gen_inject_generate(w)
    return w.tb.build(), truth
