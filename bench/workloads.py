"""Seeded workload generators and the output check of the unpack benchmark.

Every generator returns a list of `Case`s: one trace plus what a correct
unpack of it must produce. The scenario sweep takes its expectations from
`expected_ground_truth`; the two synthetic traces are built here from the
public builders of `waveunpack.scenario_gen` and state their own.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass

from waveunpack.scenario_gen import (
    BENIGN_PID,
    MALWARE_PID,
    PAGE,
    SCENARIO_IDS,
    TID,
    BenignCode,
    TraceBuilder,
    build_resolver,
    expected_ground_truth,
    generate_scenario,
    push_writer,
)
from waveunpack.trace_model import Branch, SystemTrace

# seeds per scenario in one sweep: 9 x 2 traces per unpack of the set
SCENARIO_SEEDS = 2

# long_replay: byte-wise rounds over the start of one page, one background
# event per decrypted byte: about 72k events and 13 MB of trace
REPLAY_ROUNDS = 4
REPLAY_LEN = 0xE00
REPLAY_CALL_EVERY = 64

# big_image: image pages, generated pages, bytes pushed into each
IMAGE_PAGES = 32
GEN_PAGES = 16
GEN_CHUNK = 64

_K32_RVAS = {"GetModuleHandleA": 0x1000, "GetProcAddress": 0x1100,
             "ExitProcess": 0x1200, "Sleep": 0x1A00}
_RESOLVER_CALLS = ["kernel32!GetModuleHandleA"] + \
    ["kernel32!GetProcAddress"] * 3 + ["kernel32!ExitProcess"]


@dataclass
class Expectation:
    """Counts a correct unpack must report; None leaves a count unchecked."""

    procs: int
    waves: int
    api_calls: int
    pe_files: int | None
    # (pid, wave) -> qualified names of the calls attributed to that wave
    manifest: dict[tuple[int, int], list[str]]
    final_wave_calls: int | None = None
    iat_size: int | None = None


@dataclass
class Case:
    name: str
    trace: SystemTrace
    expect: Expectation


def _le(value: int) -> bytes:
    return struct.pack("<I", value & 0xFFFFFFFF)


def _kernel32(tb: TraceBuilder, rng: random.Random, pids) -> tuple[int, dict]:
    base = 0x77000000 + rng.randrange(0x100) * PAGE
    for pid in pids:
        tb.module(pid, base, "kernel32", _K32_RVAS)
    return base, {name: base + rva for name, rva in _K32_RVAS.items()}


def _resolver(tb, region, k32_base, api):
    kernel = BenignCode(tb, MALWARE_PID, TID, k32_base + 0x3000)
    return build_resolver(MALWARE_PID, region, api, k32_base, kernel.body,
                          gmh_form="ff15", gpa_count=3,
                          final=("petite", "ExitProcess"))


def _two_wave_expectation(pe_files: int) -> Expectation:
    return Expectation(procs=1, waves=2, api_calls=len(_RESOLVER_CALLS),
                       pe_files=pe_files,
                       manifest={(MALWARE_PID, 0): [],
                                 (MALWARE_PID, 1): list(_RESOLVER_CALLS)})


def scenario_cases(seed: int) -> list[Case]:
    """All nine acceptance scenarios, each over the same seeded seed list."""
    seeds = random.Random(seed).sample(range(1_000_000), SCENARIO_SEEDS)
    cases = []
    for sid in SCENARIO_IDS:
        truth = expected_ground_truth(sid)
        manifest = {(w["pid"], w["wave"]): list(w["calls"])
                    for w in truth.manifest}
        expect = Expectation(
            procs=truth.procs, waves=truth.waves,
            api_calls=sum(len(c) for c in manifest.values()), pe_files=None,
            manifest=manifest, final_wave_calls=truth.final_wave_calls,
            iat_size=truth.iat_size)
        for s in seeds:
            trace, _ = generate_scenario(sid, s)
            cases.append(Case(f"{sid}-{s}", trace, expect))
    return cases


def long_replay(seed: int) -> list[Case]:
    """A multi-round decrypt loop interleaved with a benign process.

    The image holds the loop and the ciphertext. Round 1 reads the image,
    later rounds read back the page the previous round wrote, so loads,
    stores and registers all stay tainted. After every decrypted byte the
    background process runs one instruction, every fourth of which moves a
    byte on its own data page, and every REPLAY_CALL_EVERY bytes it makes
    an API call that returns. None of those calls may reach a wave. The
    payload then jumps into the decrypted page and runs a resolver (wave 1).
    """
    rng = random.Random(f"long_replay/{seed}")
    tb = TraceBuilder()
    pid = MALWARE_PID
    image_base = 0x00400000 + rng.randrange(0x100) * PAGE
    image = tb.image_region(pid, image_base, 2 * PAGE)
    target = tb.region(rng, [pid])
    bg_data = tb.region(rng, [BENIGN_PID])
    k32_base, api = _kernel32(tb, rng, [pid, BENIGN_PID])

    resolver = _resolver(tb, target, k32_base, api)
    plain = bytearray(rng.randbytes(REPLAY_LEN))
    plain[:len(resolver.content)] = resolver.content
    keys = [rng.randrange(1, 256) for _ in range(REPLAY_ROUNDS)]
    # layers[r] is the page content after round r; layers[0] is in the image
    layers = [bytes(plain)]
    for key in reversed(keys):
        layers.insert(0, bytes(b ^ key for b in layers[0]))

    # stub: one 20-byte prologue per round, the shared loop body, final jmp
    loop_off = 20 * REPLAY_ROUNDS
    load, xor, store, step = b"\x8a\x06", b"\x30\xd8", b"\x88\x07", b"\xe2\xf8"
    body = load + xor + store + step
    jmp_off = loop_off + len(body)
    code = bytearray()
    for r, key in enumerate(keys):
        src = image.addr(pid, PAGE) if r == 0 else target.addr(pid, 0)
        code += b"\xbe" + _le(src) + b"\xbf" + _le(target.addr(pid, 0))
        code += b"\xbb" + _le(key) + b"\xb9" + _le(REPLAY_LEN)
    code += body
    entry = target.addr(pid, 0)
    code += b"\xe9" + struct.pack("<i", entry - (image_base + jmp_off) - 5)
    stub = bytearray(b"\xcc" * PAGE)
    stub[:len(code)] = code
    tb.emit_image(image, bytes(stub) + layers[0].ljust(PAGE, b"\xcc"),
                  "packed.exe")

    bg = BenignCode(tb, BENIGN_PID, TID, 0x70000000 + rng.randrange(0x40) * PAGE)
    bg_off = 0

    def at(off):
        return image_base + off, image.g + off

    for r in range(REPLAY_ROUNDS):
        for i, reg in enumerate(("esi", "edi", "ebx", "ecx")):
            off = 20 * r + 5 * i
            tb.instr(pid, TID, *at(off), code[off:off + 5], wregs=(reg,))
        src_region, src_off = (image, PAGE) if r == 0 else (target, 0)
        for d in range(REPLAY_LEN):
            tb.instr(pid, TID, *at(loop_off), load, rregs=("esi",), wregs=("eax",),
                     reads=src_region.locs(pid, src_off + d, layers[r][d:d + 1]))
            tb.instr(pid, TID, *at(loop_off + 2), xor, rregs=("eax", "ebx"),
                     wregs=("eax",))
            tb.instr(pid, TID, *at(loop_off + 4), store, rregs=("eax", "edi"),
                     writes=target.locs(pid, d, layers[r + 1][d:d + 1]))
            tb.instr(pid, TID, *at(loop_off + 6), step, rregs=("ecx",),
                     wregs=("ecx",),
                     branch=None if d + 1 == REPLAY_LEN
                     else Branch(image_base + loop_off, "jmp"))
            if d % 4 == 3:
                value = rng.randbytes(1)
                bg.emit(reads=bg_data.locs(BENIGN_PID, bg_off, value),
                        writes=bg_data.locs(BENIGN_PID, bg_off + 1, value))
                bg_off = (bg_off + 2) % PAGE
            else:
                bg.emit()
            if d % REPLAY_CALL_EVERY == REPLAY_CALL_EVERY - 1:
                bg.api_call(api["Sleep"], eax=0)
    tb.instr(pid, TID, *at(jmp_off), code[jmp_off:jmp_off + 5],
             branch=Branch(entry, "jmp"))
    tb.run_plan(pid, TID, target, 0, resolver.plan)
    tb.procexit(pid)
    bg.nops(4)
    return [Case("long_replay", tb.build(), _two_wave_expectation(pe_files=2))]


def big_image(seed: int) -> list[Case]:
    """A large random image whose first wave fills many separate pages.

    Wave 0 pushes GEN_CHUNK bytes into each of GEN_PAGES non-adjacent
    generated pages, the last of which receives a resolver, then jumps into
    it. The trace is short, but both waves dump many pages in many
    intervals, so the reference scan, the page renders and the writer carry
    the run.
    """
    rng = random.Random(f"big_image/{seed}")
    tb = TraceBuilder()
    pid = MALWARE_PID
    image_base = 0x00400000 + rng.randrange(0x100) * PAGE
    image = tb.image_region(pid, image_base, IMAGE_PAGES * PAGE)
    pages = [tb.region(rng, [pid]) for _ in range(GEN_PAGES)]
    k32_base, api = _kernel32(tb, rng, [pid])

    resolver = _resolver(tb, pages[-1], k32_base, api)
    stub = []
    for region in pages[:-1]:
        stub += push_writer(region, pid, rng.randrange(0, PAGE - GEN_CHUNK, 4),
                            rng.randbytes(GEN_CHUNK))
    stub += push_writer(pages[-1], pid, 0, resolver.content)
    code = b"".join(op.code for op in stub)
    entry = pages[-1].addr(pid, 0)
    jmp = b"\xe9" + struct.pack("<i", entry - (image_base + len(code)) - 5)
    content = bytearray(rng.randbytes(IMAGE_PAGES * PAGE))
    content[:len(code) + len(jmp)] = code + jmp
    tb.emit_image(image, bytes(content), "big.exe")

    tb.run_plan(pid, TID, image, 0, stub)
    tb.instr(pid, TID, image_base + len(code), image.g + len(code), jmp,
             branch=Branch(entry, "jmp"))
    tb.run_plan(pid, TID, pages[-1], 0, resolver.plan)
    tb.procexit(pid)
    return [Case("big_image", tb.build(), _two_wave_expectation(pe_files=2))]


WORKLOADS = {
    "scenarios": scenario_cases,
    "long_replay": long_replay,
    "big_image": big_image,
}


def check_case(expect: Expectation, result, report: dict,
               issues: list[str], violations: list) -> list[str]:
    """Every way one unpacked trace differs from what it must produce."""
    summary = report["summary"]
    problems = []
    for key in ("procs", "waves", "api_calls", "pe_files"):
        want = getattr(expect, key)
        if want is not None and summary[key] != want:
            problems.append(f"{key} {summary[key]} != {want}")
    final = summary["final_wave"] or {}
    for key, want in (("api_calls", expect.final_wave_calls),
                      ("iat_size", expect.iat_size)):
        if want is not None and final.get(key) != want:
            problems.append(f"final wave {key} {final.get(key)} != {want}")
    got = {wave: [c.qualified_name for c in calls]
           for wave, calls in result.per_wave_calls.items()}
    if got != expect.manifest:
        problems.append(f"per-wave calls {got} != {expect.manifest}")
    problems += [f"violation: {v}" for v in result.violations]
    problems += [f"check violation: {v}" for v in violations]
    problems += [f"check issue: {i}" for i in issues]
    return problems
