"""Unpack benchmark: one workload, one seed, one JSON result line.

Usage, from the repository root:

    python3 bench/run.py --workload scenarios --seed 1 --seconds 32 --trace 0

Workloads (see workloads.py and README.md): scenarios, long_replay,
big_image. Set-up generates the workload's traces from --seed, writes
them to disk and starts a fresh child process; it runs SETUP_REPEATS
times, and the first child unpacks the set for the peak-RSS figure.

The load is a closed loop with one client in this process. One iteration
unpacks every trace as `waveunpack unpack` does (read, parse_trace,
analyze, write_outputs), then runs check_outputs over each output tree.
Iterations repeat while the next one still ends within --seconds, at
least MIN_ITERATIONS times. Every trace is checked against its
expectation; a mismatch, a semantics violation, a check issue or an
exception counts the trace as failed and never stops the run.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics of a separate traced run (see tracer.py), which measures untraced
iterations first to state the tracing overhead. The last line of standard
output is the JSON result; the lines before it are for people. Scratch
files go to .bench_work/<workload>/ under the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

if not (ROOT / "src" / "waveunpack").is_dir():
    sys.exit(f"error: no program to measure in {ROOT / 'src' / 'waveunpack'}")
sys.path.insert(0, str(ROOT / "src"))
import workloads  # noqa: E402
from waveunpack import pipeline, trace_model  # noqa: E402

MIN_ITERATIONS = 3
MIN_TRACED_ITERATIONS = 2
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "unpack_s": "s",
    "events_per_s": "events/s",
    "check_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class Tally:
    """Attempted and failed traces of one run, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, name: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{name}: {'; '.join(problems[:3])}")


def _generate(workload: str, seed: int, wdir: Path, span):
    """Build the workload's traces and write them to disk."""
    with span("scenario_gen.generate"):
        cases = workloads.WORKLOADS[workload](seed)
    tdir = wdir / "traces"
    tdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, case in enumerate(cases):
        path = tdir / f"{i:02d}-{case.name}.jsonl"
        path.write_bytes(trace_model.write_trace(case.trace))
        paths.append(path)
    return [(c.name, c.expect) for c in cases], paths


def _setup(workload: str, seed: int, wdir: Path, tally: Tally,
           unpack: bool):
    """Time generate + write + child start.

    With `unpack` the child then unpacks the set and its peak RSS is
    returned; otherwise it exits once started. Returns (setup seconds,
    child peak RSS in MB or None, cases, trace paths).
    """
    child_out = wdir / "child_out"
    shutil.rmtree(child_out, ignore_errors=True)
    gc.collect()
    t0 = time.perf_counter()
    cases, paths = _generate(workload, seed, wdir, contextlib.nullcontext)
    child = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), str(child_out),
         *map(str, paths)], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        cwd=ROOT)
    ready = child.stdout.readline().strip() == b"ready"
    elapsed = time.perf_counter() - t0
    child.stdout.close()
    with contextlib.suppress(BrokenPipeError):
        child.stdin.write(b"run\n" if unpack else b"\n")
        child.stdin.close()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if not ready:
        raise RuntimeError(f"benchmark child failed to start ({status})")
    if not unpack:
        return elapsed, None, cases, paths
    # the exit code counts failed traces; a signal fails them all
    failed = child.returncode if child.returncode >= 0 else len(paths)
    for i in range(len(paths)):
        tally.record("child", ["waveunpack unpack exited non-zero"]
                     if i < failed else [])
    return elapsed, usage.ru_maxrss / 1024, cases, paths


def _tree_size(path: Path) -> tuple[int, int]:
    files = nbytes = 0
    for p in path.rglob("*"):
        if p.is_file():
            files += 1
            nbytes += p.stat().st_size
    return files, nbytes


def _iteration(cases, paths, out_root: Path, tally: Tally) -> dict:
    """One unpack of every trace, then one check of every output tree."""
    shutil.rmtree(out_root, ignore_errors=True)
    gc.collect()
    unpacked = []
    t0 = time.perf_counter()
    for i, path in enumerate(paths):
        out = out_root / f"{i:02d}"
        try:
            trace = trace_model.parse_trace(path.read_bytes())
            result = pipeline.analyze(trace)
            report = pipeline.write_outputs(result, out)
        except Exception as exc:  # the trace fails; the run goes on
            unpacked.append(f"unpack raised {exc!r}")
            continue
        unpacked.append((trace, result, report, out))
    t1 = time.perf_counter()
    checked = []
    for item in unpacked:
        if isinstance(item, str):
            checked.append(None)
            continue
        trace, _, _, out = item
        try:
            checked.append(pipeline.check_outputs(trace, out))
        except Exception as exc:
            checked.append(f"check raised {exc!r}")
    t2 = time.perf_counter()

    events = memlocs = 0
    for (name, expect), item, check in zip(cases, unpacked, checked):
        if isinstance(item, str):
            tally.record(name, [item])
            continue
        trace, result, report, _ = item
        events += len(trace.events)
        memlocs += sum(len(ev.reads) + len(ev.writes) for ev in trace.events)
        if isinstance(check, str):
            tally.record(name, [check])
            continue
        issues, violations = check
        tally.record(name, workloads.check_case(expect, result, report,
                                                issues, violations))
    files, nbytes = _tree_size(out_root)
    return {"unpack_s": t1 - t0, "check_s": t2 - t1, "events": events,
            "memlocs": memlocs, "files": files, "bytes": nbytes}


def _measure(cases, paths, out_root, tally, seconds, minimum, tracer=None):
    """Iterate until another iteration would end past `seconds`."""
    rows = []
    start = time.perf_counter()
    last = 0.0
    while (len(rows) < minimum
           or time.perf_counter() - start + last <= seconds):
        began = time.perf_counter()
        if tracer is None:
            rows.append(_iteration(cases, paths, out_root, tally))
        else:
            tracer.counts.clear()
            first = tracer.mark()
            row = _iteration(cases, paths, out_root, tally)
            row["spans"] = tracer.mark() - first
            row["layers"] = tracer.layer_metrics(first, tracer.mark(), row)
            rows.append(row)
        last = time.perf_counter() - began
    return rows


def run_untraced(workload, seed, seconds, wdir, tally) -> dict:
    setups = [_setup(workload, seed, wdir, tally, unpack=i == 0)
              for i in range(SETUP_REPEATS)]
    _, _, cases, paths = setups[-1]
    rows = _measure(cases, paths, wdir / "out", tally, seconds, MIN_ITERATIONS)
    unpack = [r["unpack_s"] for r in rows]
    events = rows[0]["events"]
    print(f"{workload}: {len(rows)} iterations, {len(paths)} traces, "
          f"{events} events per iteration; unpack_s runs "
          + " ".join(f"{u:.4f}" for u in unpack))
    return {
        "unpack_s": statistics.median(unpack),
        "events_per_s": statistics.median(r["events"] / r["unpack_s"]
                                          for r in rows),
        "check_s": statistics.median(r["check_s"] for r in rows),
        "peak_rss_mb": setups[0][1],
        "setup_s": statistics.median(s[0] for s in setups),
    }


def _parsed_bytes(paths) -> int:
    """Bytes the parsed traces hold, by tracemalloc, outside any timing."""
    total = 0
    for path in paths:
        data = path.read_bytes()
        gc.collect()
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        trace = trace_model.parse_trace(data)
        total += tracemalloc.get_traced_memory()[0] - before
        tracemalloc.stop()
        del trace
    return total


def run_traced(workload, seed, seconds, wdir, tally) -> dict:
    cases, paths = _generate(workload, seed, wdir, contextlib.nullcontext)
    plain = _measure(cases, paths, wdir / "out", tally, seconds / 2,
                     MIN_TRACED_ITERATIONS)

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        first = tracer.mark()
        cases, paths = _generate(workload, seed, wdir, tracer.span)
        setup = tracer.summarize(first, tracer.mark())["total"]
        traced = _measure(cases, paths, wdir / "out", tally, seconds / 2,
                          MIN_TRACED_ITERATIONS, tracer)
    finally:
        tracer.uninstall()
    parsed = _parsed_bytes(paths)
    tracer.write(wdir / "spans")

    m = {name: statistics.median(r["layers"][name] for r in traced)
         for name in traced[0]["layers"]}
    events = traced[0]["events"]
    m["trace_model.parsed_bytes_per_event"] = parsed / events
    m["trace_model.write_s"] = setup.get("trace_model.write", 0.0)
    m["scenario_gen.generate_s"] = setup.get("scenario_gen.generate", 0.0)
    untraced_unpack = statistics.median(r["unpack_s"] for r in plain)
    traced_unpack = statistics.median(r["unpack_s"] for r in traced)
    m["trace.untraced_unpack_s"] = untraced_unpack
    m["trace.traced_unpack_s"] = traced_unpack
    m["trace.overhead_s"] = traced_unpack - untraced_unpack
    m["trace.overhead_share"] = (traced_unpack - untraced_unpack) / untraced_unpack
    m["trace.spans"] = statistics.median(r["spans"] for r in traced)
    m["sep.scan_share_of_analyze"] = (m["disasm.scan_s"]
                                      / m["pipeline.analyze_s"])
    m["sep.parse_share_of_unpack"] = m["trace_model.parse_s"] / traced_unpack
    print(f"{workload}: {len(plain)} untraced and {len(traced)} traced "
          f"iterations; spans in {wdir / 'spans'}")
    for line in separation_report(workload, m):
        print(line)
    return m


# The layer separation each workload exists to give, on the traced run.
SEPARATION = {
    "long_replay": [("sep.scan_share_of_analyze", "<", 0.10)],
    "big_image": [("sep.scan_share_of_analyze", ">", 0.50),
                  ("sep.parse_share_of_unpack", "<", 0.05)],
}


def separation_report(workload: str, m: dict) -> list[str]:
    lines = []
    for name, op, limit in SEPARATION.get(workload, []):
        ok = m[name] < limit if op == "<" else m[name] > limit
        lines.append(f"separation {name} = {m[name]:.4f} (want {op} {limit}): "
                     f"{'ok' if ok else 'MISSED'}")
    return lines


def layer_unit(name: str) -> str:
    if name.endswith("_us_per_event"):
        return "us/event"
    if name.endswith("_us_per_byte"):
        return "us/B"
    if name.endswith("bytes_per_event"):
        return "B/event"
    if name.endswith("_s"):
        return "s"
    if name.startswith("sep.") or name.endswith(("_share", "_yield")):
        return "ratio"
    if name.endswith(("_bytes", "bytes_written")):
        return "B"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    wdir = WORK / args.workload
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    tally = Tally()
    run = run_traced if args.trace else run_untraced
    values = run(args.workload, args.seed, args.seconds, wdir, tally)
    for sub in ("traces", "out", "child_out"):
        shutil.rmtree(wdir / sub, ignore_errors=True)

    units = END_TO_END_UNITS if not args.trace else {
        name: layer_unit(name) for name in values}
    for reason in tally.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{args.workload} {name} = {values[name]:.6g} {unit}")
    print(f"{args.workload} failed_ratio = "
          f"{tally.failed / max(tally.attempted, 1):.6g} ratio "
          f"({tally.failed} of {tally.attempted} traces)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
