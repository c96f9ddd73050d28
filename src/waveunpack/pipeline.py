"""End-to-end driver: replay analysis, static reconstruction, reporting."""

from __future__ import annotations

import contextlib
import json
import os
import re
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

from .api_monitor import ApiCallRecord, attribute_calls
from .pe_builder import PEArtifact, build_artifact
from .regroup import WaveGrouping, group_wave
from .taint_engine import ByteMap
from .trace_model import SystemTrace
from .wave_collector import (
    CollectResult,
    InstrLog,
    Violation,
    WaveRecord,
    collect_waves,
    verify_wave_semantics,
)


@dataclass
class WaveOutput:
    record: WaveRecord
    grouping: WaveGrouping
    artifacts: list[PEArtifact]


@dataclass
class PipelineResult:
    page_size: int
    collect: CollectResult
    per_wave_calls: dict[tuple[int, int], list[ApiCallRecord]]
    outputs: list[WaveOutput]
    violations: list[Violation]
    report: dict = field(default_factory=dict)

    def final_wave(self) -> WaveRecord | None:
        if not self.collect.records:
            return None
        return max(self.collect.records, key=lambda r: r.last_seq)


def analyze(trace: SystemTrace, taint_log=None) -> PipelineResult:
    """Run taint, wave collection, attribution and PE reconstruction."""
    started = time.perf_counter()
    collect = collect_waves(trace, taint_log=taint_log)
    per_wave = attribute_calls(collect.calls, collect.records)

    outputs = []
    for rec in collect.records:
        grouping = group_wave(rec, trace.page_size,
                              per_wave[(rec.pid, rec.wave_index)])
        artifacts = [build_artifact(grp) for grp in grouping.kept]
        outputs.append(WaveOutput(record=rec, grouping=grouping,
                                  artifacts=artifacts))

    violations = verify_wave_semantics(collect.records, collect.records,
                                       collect.image)
    result = PipelineResult(page_size=trace.page_size, collect=collect,
                            per_wave_calls=per_wave, outputs=outputs,
                            violations=violations)
    result.report = build_report(result, time.perf_counter() - started)
    return result


def _unique_apis(calls) -> int:
    return len({(c.module_name, c.function_name) for c in calls})


def build_report(result: PipelineResult, elapsed: float | None = None) -> dict:
    procs: dict[int, list[dict]] = {}
    pe_files = 0
    for out in result.outputs:
        rec = out.record
        calls = result.per_wave_calls[(rec.pid, rec.wave_index)]
        groups = []
        for gi, art in enumerate(out.artifacts):
            pe_files += 1
            groups.append({
                "group": gi,
                "intervals": [[iv.base, iv.end] for iv in art.group.intervals],
                "entry": art.group.entry,
                "sections": len(art.group.intervals) + 1,  # and .idata
                "iat_size": _unique_apis(art.group.calls),
                "patched_sites": sum(1 for e in art.sidecar
                                     if e.get("kind") == "api" and e["patched"]),
                "sidecar_entries": len(art.sidecar),
            })
        procs.setdefault(rec.pid, []).append({
            "wave": rec.wave_index,
            "entry_vaddr": rec.entry_vaddr,
            "instructions": len(rec.instrs),
            "first_seq": rec.first_seq,
            "last_seq": rec.last_seq,
            "api_calls": len(calls),
            "unique_apis": _unique_apis(calls),
            "groups": groups,
            "dropped_pages": out.grouping.dropped_pages,
        })

    final = result.final_wave()
    final_block = None
    if final is not None:
        calls = result.per_wave_calls[(final.pid, final.wave_index)]
        unique = _unique_apis(calls)
        final_block = {
            "pid": final.pid,
            "wave": final.wave_index,
            "api_calls": len(calls),
            "unique_apis": unique,
            "iat_size": unique,
        }

    report = {
        "page_size": result.page_size,
        "summary": {
            "procs": len(procs),
            "waves": len(result.collect.records),
            "pe_files": pe_files,
            "api_calls": len(result.collect.calls),
            "final_wave": final_block,
        },
        "processes": [
            {"pid": pid, "waves": waves}
            for pid, waves in sorted(procs.items())
        ],
        "semantics": {"violations": [str(v) for v in result.violations]},
    }
    if elapsed is not None:
        report["timing"] = {"seconds": round(elapsed, 6)}
    return report


# the directory names an unpack gives processes and waves
_PID_NAME = re.compile(r"pid(-?\d+)")
_WAVE_NAME = re.compile(r"wave(\d+)")
# names an unpack writes at the top of its output directory
_OWNED_NAME = re.compile(rf"api_calls\.jsonl|report\.json|{_PID_NAME.pattern}")
# lines or pairs encoded per chunk, so one chunk, not a file, is held
_BATCH = 1024
# a full batch of [v, b] pairs as json.dumps spells them, 10 bytes a pair
_PAIRS = b", [%d, %d]" * _BATCH


def tree_place(path, out_dir) -> str:
    """Where `path` lies in the output directory `out_dir`: "outside",
    "owned" (`out_dir` or at or below a name unpack writes) or "inside"."""
    try:  # realpath, unlike Path.resolve, does not raise on a symlink loop
        rel = Path(os.path.realpath(path)).relative_to(os.path.realpath(out_dir))
    except ValueError:
        return "outside"
    owned = not rel.parts or _OWNED_NAME.fullmatch(rel.parts[0])
    return "owned" if owned else "inside"


def _render(result: PipelineResult, report: dict):
    """Yield (relative path, byte chunks) of each output file.

    The one place that names and encodes the tree's files: write_outputs
    writes these chunks, check_outputs compares them. Chunks encode lazily.
    `report` is the report.json document.
    """
    yield "api_calls.jsonl", _batched(
        json.dumps(rec.log_obj(), sort_keys=True) + "\n"
        for rec in result.collect.calls)
    for wave_out in result.outputs:
        rec = wave_out.record
        wdir = f"pid{rec.pid}/wave{rec.wave_index}"
        yield f"{wdir}/instrs.jsonl", _batched(_instr_lines(rec.instrs))
        yield f"{wdir}/shadow.json", _pair_chunks(rec.shadow_pairs)
        yield f"{wdir}/twrites.json", _pair_chunks(rec.twrite_pairs)
        for base, data in rec.page_dumps.items():
            yield f"{wdir}/pages/{base:08x}.bin", (data,)
        groups_doc = {
            "groups": [
                {"id": gi,
                 "intervals": [[iv.base, iv.end] for iv in grp.intervals],
                 "xrefs": sorted(list(x) for x in grp.xrefs)}
                for gi, grp in enumerate(wave_out.grouping.kept)
            ],
            "dropped_pages": wave_out.grouping.dropped_pages,
            "refs": sorted(list(x) for x in wave_out.grouping.refs),
        }
        yield f"{wdir}/groups.json", (_json_doc(groups_doc),)
        for gi, art in enumerate(wave_out.artifacts):
            yield f"{wdir}/group{gi}.exe", (art.data,)
            yield f"{wdir}/group{gi}.xrefs.json", (_json_doc(art.sidecar),)
    yield "report.json", (_json_doc(report),)


def _json_doc(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, indent=1).encode()


def _batched(lines):
    """Encode an iterator of text lines _BATCH at a time."""
    while batch := "".join(islice(lines, _BATCH)):
        yield batch.encode()


def _instr_lines(log: InstrLog):
    """instrs.jsonl's lines, the text json.dumps(sort_keys=True) gives;
    each distinct encoding is hex-encoded once, into a line template."""
    lines = ['{"bytes": "%s", "seq": %%d, "vaddr": %d}\n' % (code.hex(), vaddr)
             for vaddr, code in log.code]
    return (lines[i] % seq for seq, i in zip(log.seqs, log.ids))


def _pair_chunks(pairs: ByteMap):
    """[v, b] pairs in address order as one JSON array, the bytes
    json.dumps(sorted(pairs.items())) gives.

    Each batch of up to _BATCH pairs is one bytes % over the flat
    (v, b, v, b, ...) arguments, so no pair becomes a list. A run fills
    them by slice: its addresses into the even slots, its bytes into the
    odd ones.
    """
    args = [0] * (2 * _BATCH)
    held = 0  # pairs in args
    skip = 2  # the first pair has no ", " before it
    yield b"["
    for start, data in pairs.runs():
        pos = 0
        while pos < len(data):
            take = min(_BATCH - held, len(data) - pos)
            end = 2 * (held + take)
            args[2 * held:end:2] = range(start + pos, start + pos + take)
            args[2 * held + 1:end:2] = data[pos:pos + take]
            held += take
            pos += take
            if held == _BATCH:
                yield (_PAIRS % tuple(args))[skip:]
                held = skip = 0
    if held:
        yield (_PAIRS[:10 * held] % tuple(args[:2 * held]))[skip:]
    yield b"]"


def write_outputs(result: PipelineResult, out_dir, no_timing: bool = False,
                  report_path=None) -> dict:
    """Materialize wave directories, PE files, sidecars, logs and report.

    The tree is built in a staging directory inside `out_dir` and then
    moved into place, replacing whatever an earlier unpack left there, so
    the directory holds exactly this run's outputs. Entries an unpack never
    writes (a taint log, say) are left alone. `report_path` gets a copy of
    report.json before the move, so a failed copy leaves `out_dir` as it was,
    or absent if it was made here.
    """
    report = _untimed(result.report) if no_timing else dict(result.report)
    with output_dir(out_dir) as out:
        stage = Path(tempfile.mkdtemp(prefix=".unpack-", dir=out))
        try:
            made = set()  # staging directories created so far
            for rel, chunks in _render(result, report):
                path = stage / rel
                if path.parent not in made:
                    path.parent.mkdir(parents=True, exist_ok=True)
                    made.add(path.parent)
                with open(path, "wb") as fh:
                    fh.writelines(chunks)
            if report_path:
                shutil.copyfile(stage / "report.json", report_path)
            old = stage / ".old"
            old.mkdir()
            for entry in out.iterdir():
                if _OWNED_NAME.fullmatch(entry.name):
                    entry.rename(old / entry.name)
            for entry in stage.iterdir():
                if entry != old:
                    entry.rename(out / entry.name)
        finally:
            shutil.rmtree(stage, ignore_errors=True)
    return report


@contextlib.contextmanager
def output_dir(out_dir):
    """Make `out_dir` and its missing parents, as spelled, for the block;
    if the block raises, remove the ones made here again, deepest first."""
    out = Path(out_dir)
    made = [d for d in (out, *out.parents) if not d.exists()]
    try:
        out.mkdir(parents=True, exist_ok=True)
        yield out
    except BaseException:
        for d in made:
            with contextlib.suppress(OSError):
                d.rmdir()
        raise


def _untimed(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "timing"}


class CheckError(Exception):
    """Stored pipeline output disagrees with the trace or itself.

    `issues` are the integrity issues check_outputs found before the error.
    """

    def __init__(self, message: str, issues: list[str] | None = None):
        super().__init__(message)
        self.issues = issues or []


def _owned(directory: Path, name: re.Pattern) -> list[tuple[int, Path]]:
    """(number, path) of the directories `name` matches, sorted by path."""
    matches = ((name.fullmatch(p.name), p) for p in sorted(directory.iterdir()))
    return [(int(m.group(1)), p) for m, p in matches if m and p.is_dir()]


def load_wave_records(out_dir) -> list[WaveRecord]:
    """Rebuild an unpack's waves but their page dumps, which verify never reads."""
    out = Path(out_dir)
    records = []
    for pid, pid_dir in _owned(out, _PID_NAME):
        for wave_index, wdir in _owned(pid_dir, _WAVE_NAME):
            instrs = _read_instrs(wdir / "instrs.jsonl")
            if not instrs:
                raise CheckError(f"{wdir}: wave with no instructions")
            records.append(WaveRecord(
                pid=pid, wave_index=wave_index, instrs=instrs,
                shadow_pairs=_read_pairs(wdir / "shadow.json"),
                twrite_pairs=_read_pairs(wdir / "twrites.json"),
                page_dumps={}))
    return records


def _read_instrs(path: Path) -> InstrLog:
    instrs = InstrLog()
    line_no = 0
    with open(path, encoding="utf-8") as fh:
        try:
            for line_no, line in enumerate(fh, start=1):
                obj = json.loads(line)
                seq, vaddr = obj["seq"], obj["vaddr"]
                if type(seq) is not int or type(vaddr) is not int:
                    raise TypeError("'seq' and 'vaddr' must be integers")
                instrs.append(seq, vaddr, bytes.fromhex(obj["bytes"]))
        except KeyError as exc:
            raise CheckError(f"{path}: line {line_no}: missing key {exc}") from None
        except (ValueError, TypeError, OverflowError) as exc:
            raise CheckError(f"{path}: line {line_no}: {exc}") from None
    return instrs


def _read_pairs(path: Path) -> ByteMap:
    pairs = ByteMap()
    with open(path, encoding="utf-8") as fh:
        try:
            for v, b in json.load(fh):
                if type(v) is not int:  # bools are not addresses
                    raise TypeError("addresses must be integers")
                if type(b) is not int:
                    raise TypeError("bytes must be integers")
                pairs[v] = b  # a byte outside 0-255 raises ValueError
        except (ValueError, TypeError) as exc:
            raise CheckError(f"{path}: {exc}") from None
    return pairs


def check_outputs(trace: SystemTrace, out_dir) -> tuple[list[str], list[Violation]]:
    """Re-analyze the trace and compare every stored file with its rendering.

    The page size is the trace header's. Only the timing is taken from the
    stored report, which is read after the replay. Stored waves are parsed
    and verified only to explain a difference; without one they are the
    recomputed waves, with the recomputed violations.
    """
    out = Path(out_dir)
    result = analyze(trace)
    report = _untimed(result.report)
    try:
        stored_report = json.loads((out / "report.json").read_bytes())
    except (OSError, ValueError):  # reported below
        stored_report = None
    if isinstance(stored_report, dict) and "timing" in stored_report:
        report["timing"] = stored_report["timing"]

    issues: list[str] = []
    known = set()  # rendered paths and the directories above them
    for rel, chunks in _render(result, report):
        try:
            with open(out / rel, "rb") as fh:
                if (not all(fh.read(len(c)) == c for c in chunks)
                        or fh.read(1)):
                    issues.append(f"{rel}: differs")
        except (FileNotFoundError, NotADirectoryError):
            issues.append(f"{rel}: missing")
        except IsADirectoryError:
            issues.append(f"{rel}: differs")
        while rel not in known:
            known.add(rel)
            rel = rel.rpartition("/")[0]
    # everything under a name a rerun would replace was written by unpack
    for entry in sorted(out.iterdir()):
        if _OWNED_NAME.fullmatch(entry.name):
            below = sorted(entry.rglob("*")) if entry.is_dir() else []
            for path in [entry, *below]:
                if (rel := path.relative_to(out).as_posix()) not in known:
                    issues.append(f"{rel}: not rendered")

    if not issues:
        return issues, result.violations
    try:
        records = load_wave_records(out)
    except (OSError, CheckError) as exc:
        raise CheckError(str(exc), issues) from None
    return issues, verify_wave_semantics(
        records, result.collect.records, result.collect.image)
