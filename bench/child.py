"""Fresh process running `waveunpack unpack` over traces, for the peak-RSS figure.

Usage: python3 bench/child.py OUT_DIR TRACE...

Prints "ready" once the package is imported and waits for one line on
standard input: "run" unpacks every trace through the command-line entry
point into OUT_DIR/<index>; anything else exits at once. The exit code is
the number of traces whose unpack exited non-zero or raised.
"""

from __future__ import annotations

import os
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from waveunpack import cli  # noqa: E402


def main(argv: list[str]) -> int:
    out_dir, paths = argv[0], argv[1:]
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "run":
        return 0
    failed = 0
    with open(os.devnull, "w", encoding="utf-8") as devnull:
        sys.stdout = devnull
        for i, path in enumerate(paths):
            try:
                code = cli.main(["unpack", path, "-o",
                                 os.path.join(out_dir, f"{i:02d}")])
            except Exception:  # a crash is a failed trace, not a lost count
                traceback.print_exc()
                code = 1
            failed += code != 0
        sys.stdout = sys.__stdout__
    return min(failed, 125)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
