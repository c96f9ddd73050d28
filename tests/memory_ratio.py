"""Peak memory of `waveunpack unpack` against the length of its trace.

Usage: python3 tests/memory_ratio.py [SCALE ...]

Builds bench's `long_replay` trace with `REPLAY_ROUNDS` at 1x and 4x (and
at each extra SCALE), runs `waveunpack unpack` on each in a fresh process
and prints its peak RSS (`ru_maxrss` from `os.wait4`). Exits 1 when the 4x
peak is more than BOUND times the 1x peak, or when an unpack fails.

The traces are built in a child process, so this process stays small: on
Linux a child's `ru_maxrss` starts from its parent's size at the spawn.
Stdlib only.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# 12 bytes of wave log per tainted instruction read 1.74-1.76, and one
# Python object per tainted instruction 2.50 (2-vCPU Linux, Python 3.11)
BOUND = 2.2
UNPACK = "import sys; from waveunpack.cli import main; sys.exit(main())"


def write_traces(out_dir: str, scales: list[int]):
    """Write long_replay at each scale of its REPLAY_ROUNDS, seed 1."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads
    from waveunpack.trace_model import write_trace

    rounds = workloads.REPLAY_ROUNDS
    for scale in scales:
        workloads.REPLAY_ROUNDS = rounds * scale
        case, = workloads.long_replay(1)
        Path(out_dir, f"{scale}x.jsonl").write_bytes(write_trace(case.trace))
        del case


def peak_mb(trace: Path, out_dir: Path) -> float:
    """ru_maxrss of one `waveunpack unpack` of `trace`, in MB."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    pid = os.posix_spawn(
        sys.executable,
        [sys.executable, "-c", UNPACK, "unpack", str(trace), "-o", str(out_dir)],
        env, file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit(f"unpack {trace} failed: exit status {status}")
    return usage.ru_maxrss / 1024


def main(argv: list[str]) -> int:
    if argv[:1] == ["--write"]:
        write_traces(argv[1], [int(s) for s in argv[2:]])
        return 0
    scales = sorted({1, 4, *map(int, argv)})
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run([sys.executable, __file__, "--write", tmp,
                        *map(str, scales)], check=True)
        peaks = {s: peak_mb(Path(tmp, f"{s}x.jsonl"), Path(tmp, f"out{s}"))
                 for s in scales}
    for scale, peak in peaks.items():
        print(f"long_replay {scale}x: peak {peak:.1f} MB, "
              f"{peak / peaks[1]:.2f}x the 1x peak")
    ratio = peaks[4] / peaks[1]
    if ratio > BOUND:
        print(f"4x/1x peak ratio {ratio:.2f} exceeds {BOUND}")
        return 1
    print(f"4x/1x peak ratio {ratio:.2f} is within {BOUND}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
