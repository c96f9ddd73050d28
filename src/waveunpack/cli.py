"""Command line driver: unpack | gen | check."""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from . import pipeline
from .pe_builder import EmitError, PatchIntegrityError
from .scenario_gen import UnknownScenarioError, generate_scenario
from .trace_model import SystemTrace, TraceFormatError, iter_trace, write_trace


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="waveunpack",
        description="Rebuild PE32 files from whole-system instruction traces")
    sub = parser.add_subparsers(dest="command", required=True)

    p_unpack = sub.add_parser("unpack", help="run the full pipeline on a trace")
    p_unpack.add_argument("trace", help="trace file (JSON-Lines)")
    p_unpack.add_argument("-o", "--out", default="out", help="output directory")
    p_unpack.add_argument("--strict-semantics", action="store_true",
                          help="exit 2 when wave semantics checks fail")
    p_unpack.add_argument("--report", default=None,
                          help="also write a copy of report.json here")
    p_unpack.add_argument("--no-timing", action="store_true",
                          help="omit timing from the report")
    p_unpack.add_argument("--taint-log", default=None,
                          help="write a per-instruction taint debug log")

    p_gen = sub.add_parser("gen", help="generate a benchmark scenario trace")
    p_gen.add_argument("scenario", help="scenario id (d1-d4, c1, c2, c4, c5, m1)")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--out", default=None,
                       help="trace path (default <id>.jsonl)")
    p_gen.add_argument("--truth", default=None,
                       help="expectations path (default <id>.truth.json)")

    p_check = sub.add_parser("check", help="verify a prior unpack output")
    p_check.add_argument("trace")
    p_check.add_argument("out")
    return parser


# the trace parsed but the pipeline cannot make sense of it: exit 2
_PIPELINE_ERRORS = (EmitError, PatchIntegrityError)


def _streamed(path: str, command) -> int:
    """command(trace) on the trace at `path`, read while it is replayed.

    A format error anywhere in the trace exits 1 naming its line. Neither
    command writes under its output directory before the whole trace has
    been read.
    """
    try:
        with open(path, "rb") as fh:
            return command(iter_trace(fh))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except TraceFormatError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
    return 1


def _same_file(a: str, b: str) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist yet: compare the names
        return os.path.realpath(a) == os.path.realpath(b)


def cmd_unpack(args) -> int:
    # a path exits 1 before the trace is opened if it is an earlier one's file
    # or the new tree replaces it, bar --report naming the tree's report.json
    earlier = []  # (path, what it is to a later one)
    for option, path, what in (
            ("trace", args.trace, "the trace being read"),
            ("--taint-log", args.taint_log, "the --taint-log path too"),
            ("--report", args.report, None)):
        if not path:
            continue
        why = next((w for p, w in earlier if _same_file(path, p)), None)
        if not why and pipeline.tree_place(path, args.out) == "owned" and not (
                option == "--report"
                and _same_file(path, os.path.join(args.out, "report.json"))):
            why = f"replaced by the tree unpack writes to {args.out}"
        if why:
            print(f"error: {option}: {path} is {why}", file=sys.stderr)
            return 1
        earlier.append((path, what))
    return _streamed(args.trace, lambda trace: _unpack(args, trace))


def _unpack(args, trace: SystemTrace) -> int:
    # The log waits in a scratch file until the trace has been read to its
    # end, so a trace that fails to parse leaves --taint-log untouched.
    with (tempfile.TemporaryFile("w+", encoding="utf-8") if args.taint_log
          else contextlib.nullcontext()) as log:
        try:
            result, error = pipeline.analyze(trace, taint_log=log), None
        except _PIPELINE_ERRORS as exc:
            result, error = None, exc
        if log:
            log.seek(0)
            inside = pipeline.tree_place(args.taint_log, args.out) == "inside"
            try:  # a log inside -o gets -o made for it
                with (pipeline.output_dir(args.out) if inside
                      else contextlib.nullcontext()):
                    with open(args.taint_log, "w", encoding="utf-8") as fh:
                        shutil.copyfileobj(log, fh)
            except OSError as exc:
                print(f"error: --taint-log: {exc}", file=sys.stderr)
                return 1
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    try:
        report = pipeline.write_outputs(result, args.out,
                                        no_timing=args.no_timing,
                                        report_path=args.report)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = report["summary"]
    final = summary["final_wave"]
    print(f"procs={summary['procs']} waves={summary['waves']} "
          f"pe_files={summary['pe_files']}")
    if final:
        print(f"final wave: pid{final['pid']} wave{final['wave']} "
              f"api_calls={final['api_calls']} iat_size={final['iat_size']}")
    if result.violations:
        print(f"{len(result.violations)} wave semantics violation(s):")
        for v in result.violations:
            print(f"  {v}")
        if args.strict_semantics:
            return 2
    return 0


def cmd_gen(args) -> int:
    try:
        trace, truth = generate_scenario(args.scenario, args.seed)
    except UnknownScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    trace_path = Path(args.out or f"{args.scenario}.jsonl")
    truth_path = Path(args.truth or f"{args.scenario}.truth.json")
    if _same_file(truth_path, trace_path):
        print(f"error: --truth: {truth_path} is the trace path (-o) too",
              file=sys.stderr)
        return 1
    truth_doc = json.dumps(truth.to_json(), indent=1, sort_keys=True) + "\n"
    written = []  # files opened for writing, removed if a write fails
    try:
        for path, data in ((trace_path, write_trace(trace)),
                           (truth_path, truth_doc.encode())):
            with open(path, "wb") as fh:
                written.append(path)
                fh.write(data)
    except OSError as exc:
        for path in written:
            path.unlink(missing_ok=True)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {trace_path} and {truth_path}")
    return 0


def _print_integrity(issues: list[str]) -> None:
    for issue in issues:
        print(f"integrity: {issue}")


def cmd_check(args) -> int:
    return _streamed(args.trace, lambda trace: _check(args, trace))


def _check(args, trace: SystemTrace) -> int:
    try:
        issues, violations = pipeline.check_outputs(trace, args.out)
    except pipeline.CheckError as exc:
        _print_integrity(exc.issues)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _PIPELINE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_integrity(issues)
    for violation in violations:
        print(f"violation: {violation}")
    if violations:
        print(f"{len(violations)} violation(s), {len(issues)} integrity issue(s)")
        return 2
    if issues:
        return 1
    print("OK, 0 violations")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"unpack": cmd_unpack, "gen": cmd_gen, "check": cmd_check}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
