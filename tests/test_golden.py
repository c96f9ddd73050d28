"""Golden digests of the `unpack --no-timing` trees of the scenarios.

tests/golden/trees.json maps "<scenario>/<seed>" to {relative path: sha256}
for every file of the tree. A change that alters any output on purpose
regenerates the file and says why:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from waveunpack.cli import main
from waveunpack.scenario_gen import SCENARIO_IDS, generate_scenario
from waveunpack.trace_model import write_trace

GOLDEN = Path(__file__).parent / "golden" / "trees.json"
SEEDS = range(3)


def tree_digests(sid: str, seed: int) -> dict[str, str]:
    """sha256 of each file of the `unpack --no-timing` tree of one scenario."""
    trace, _ = generate_scenario(sid, seed)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "t.jsonl").write_bytes(write_trace(trace))
        out = root / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["unpack", str(root / "t.jsonl"), "-o", str(out),
                         "--no-timing"])
        assert code == 0, f"{sid} seed {seed}: unpack exited {code}"
        return {p.relative_to(out).as_posix():
                hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.rglob("*")) if p.is_file()}


def all_digests() -> dict[str, dict[str, str]]:
    return {f"{sid}/{seed}": tree_digests(sid, seed)
            for sid in SCENARIO_IDS for seed in SEEDS}


def test_trees_match_golden_digests():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = all_digests()
    differing = sorted(
        f"{tree}/{rel}"
        for tree in want.keys() | got.keys()
        for rel in want.get(tree, {}).keys() | got.get(tree, {}).keys()
        if want.get(tree, {}).get(rel) != got.get(tree, {}).get(rel))
    assert not differing, "outputs differ from tests/golden/trees.json:\n" + \
        "\n".join(differing)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(all_digests(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
