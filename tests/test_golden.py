"""Golden digests of the `unpack --no-timing` trees of the scenarios.

tests/golden/trees.json maps "<scenario>/<seed>" to {relative path: sha256}
for every file of the tree; tests/golden/random_image.json holds the same
map for the tree of `random_image_trace()`. A change that alters any output
on purpose regenerates both files and says why:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import struct
import sys
import tempfile
from pathlib import Path

from waveunpack.cli import main
from waveunpack.scenario_gen import (
    MALWARE_PID,
    PAGE,
    SCENARIO_IDS,
    TID,
    Op,
    Region,
    TraceBuilder,
    generate_scenario,
    push_writer,
)
from waveunpack.trace_model import Branch, SystemTrace, write_trace

GOLDEN = Path(__file__).parent / "golden" / "trees.json"
RANDOM_IMAGE_GOLDEN = Path(__file__).parent / "golden" / "random_image.json"
SEEDS = range(3)


def random_image_trace() -> SystemTrace:
    """A random 8-page image that plants pointers in 4 generated pages.

    The pages sit two to a 64 KiB block, in the blocks at 0x05000000 and
    0x05010000, so one wave's candidate ranges span two blocks. The image
    is random bytes but for a push stub and a few planted references to the
    pages (a raw dword, a push, an ff 15 and a call rel32). Each page
    receives a mix of random dwords and pointers to the image and to the
    other pages; the last page also receives the code of wave 1 (a push
    and a mov of pointers), which the stub then jumps to.
    """
    rng = random.Random("random_image/0")
    tb = TraceBuilder()
    pid = MALWARE_PID
    image_base = 0x00400000 + rng.randrange(0x100) * PAGE
    image = tb.image_region(pid, image_base, 8 * PAGE)
    # even page indices, so no two pages of a block are adjacent
    vaddrs = [block + PAGE * i for block in (0x05000000, 0x05010000)
              for i in sorted(rng.sample(range(0, 16, 2), 2))]
    pages = [Region(g=tb.alloc_g(PAGE), views={pid: v}, size=PAGE)
             for v in vaddrs]

    def pointer() -> bytes:
        target = rng.choice([image_base, *vaddrs]) + rng.randrange(PAGE)
        return struct.pack("<I", target)

    wave1 = [b"\x68" + pointer(), b"\xb8" + pointer(), b"\x90"]
    stub = []
    for region in pages[:-1]:
        content = b"".join(pointer() if rng.random() < 0.5 else rng.randbytes(4)
                           for _ in range(16))
        stub += push_writer(region, pid, rng.randrange(0, PAGE - 64, 4), content)
    stub += push_writer(pages[-1], pid, 0, b"".join(wave1) + pointer() * 3)
    code = b"".join(op.code for op in stub)
    entry = pages[-1].addr(pid, 0)
    jmp = b"\xe9" + struct.pack("<i", entry - (image_base + len(code)) - 5)
    content = bytearray(rng.randbytes(8 * PAGE))
    content[:len(code) + len(jmp)] = code + jmp
    for lead in (b"", b"\x68", b"\xff\x15"):
        off = rng.randrange(2 * PAGE, 8 * PAGE - 8)
        content[off:off + len(lead) + 4] = lead + pointer()
    off = rng.randrange(2 * PAGE, 8 * PAGE - 8)
    rel = vaddrs[1] + 0x10 - (image_base + off + 5)
    content[off:off + 5] = b"\xe8" + struct.pack("<i", rel)
    tb.emit_image(image, bytes(content), "random.exe")

    tb.run_plan(pid, TID, image, 0, stub)
    tb.instr(pid, TID, image_base + len(code), image.g + len(code), jmp,
             branch=Branch(entry, "jmp"))
    tb.run_plan(pid, TID, pages[-1], 0, [Op(code=c) for c in wave1])
    tb.procexit(pid)
    return tb.build()


def tree_digests(sid: str, seed: int) -> dict[str, str]:
    """sha256 of each file of the `unpack --no-timing` tree of one scenario."""
    trace, _ = generate_scenario(sid, seed)
    return trace_digests(trace, f"{sid} seed {seed}")


def trace_digests(trace: SystemTrace, name: str) -> dict[str, str]:
    """sha256 of each file of the `unpack --no-timing` tree of `trace`."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "t.jsonl").write_bytes(write_trace(trace))
        out = root / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["unpack", str(root / "t.jsonl"), "-o", str(out),
                         "--no-timing"])
        assert code == 0, f"{name}: unpack exited {code}"
        return {p.relative_to(out).as_posix():
                hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.rglob("*")) if p.is_file()}


def all_digests() -> dict[str, dict[str, str]]:
    return {f"{sid}/{seed}": tree_digests(sid, seed)
            for sid in SCENARIO_IDS for seed in SEEDS}


def random_image_digests() -> dict[str, dict[str, str]]:
    return {"random_image/0": trace_digests(random_image_trace(), "random image")}


def _differing(want: dict, got: dict) -> list[str]:
    return sorted(f"{tree}/{rel}"
                  for tree in want.keys() | got.keys()
                  for rel in want.get(tree, {}).keys() | got.get(tree, {}).keys()
                  if want.get(tree, {}).get(rel) != got.get(tree, {}).get(rel))


def test_trees_match_golden_digests():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    differing = _differing(want, all_digests())
    assert not differing, "outputs differ from tests/golden/trees.json:\n" + \
        "\n".join(differing)


def test_random_image_tree_matches_golden_digests():
    want = json.loads(RANDOM_IMAGE_GOLDEN.read_text(encoding="utf-8"))
    differing = _differing(want, random_image_digests())
    assert not differing, \
        "outputs differ from tests/golden/random_image.json:\n" + \
        "\n".join(differing)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    for path, digests in ((GOLDEN, all_digests()),
                          (RANDOM_IMAGE_GOLDEN, random_image_digests())):
        path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}", file=sys.stderr)
