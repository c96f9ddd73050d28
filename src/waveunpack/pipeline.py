"""End-to-end driver: replay analysis, static reconstruction, reporting."""

from __future__ import annotations

import json
import re
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from .api_monitor import ApiCallRecord, ApiMonitor, attribute_calls
from .pe_builder import PEArtifact, build_artifact
from .regroup import WaveGrouping, group_wave
from .trace_model import SystemTrace
from .wave_collector import (
    CollectResult,
    InstrRef,
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
    calls: list[ApiCallRecord]


@dataclass
class PipelineResult:
    trace: SystemTrace
    collect: CollectResult
    api_records: list[ApiCallRecord]
    per_wave_calls: dict[tuple[int, int], list[ApiCallRecord]]
    outputs: list[WaveOutput]
    violations: list[Violation]
    report: dict = field(default_factory=dict)

    def final_wave(self) -> WaveRecord | None:
        if not self.collect.records:
            return None
        return max(self.collect.records, key=lambda r: r.last_seq)


def analyze(trace: SystemTrace, patch: bool = True,
            taint_log=None) -> PipelineResult:
    """Run taint, wave collection, attribution and PE reconstruction."""
    started = time.perf_counter()
    monitor = ApiMonitor()
    collect = collect_waves(trace, monitor=monitor, taint_log=taint_log)
    per_wave = attribute_calls(monitor.records, collect.records)

    outputs = []
    for rec in collect.records:
        grouping = group_wave(rec, trace.page_size)
        calls = per_wave[(rec.pid, rec.wave_index)]
        artifacts = [build_artifact(rec, grp, calls, patch=patch)
                     for grp in grouping.kept]
        outputs.append(WaveOutput(record=rec, grouping=grouping,
                                  artifacts=artifacts, calls=calls))

    violations = verify_wave_semantics(collect.records, collect.mtrace,
                                       trace.image_event())
    result = PipelineResult(trace=trace, collect=collect,
                            api_records=monitor.records,
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
        groups = []
        for gi, art in enumerate(out.artifacts):
            pe_files += 1
            groups.append({
                "group": gi,
                "intervals": [[iv.base, iv.end] for iv in art.group.intervals],
                "entry": art.entry_rva,
                "sections": len(art.sections),
                "iat_size": art.import_table.unique_count,
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
            "api_calls": len(out.calls),
            "unique_apis": _unique_apis(out.calls),
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
        "page_size": result.trace.page_size,
        "summary": {
            "procs": len(procs),
            "waves": len(result.collect.records),
            "pe_files": pe_files,
            "api_calls": len(result.api_records),
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


def wave_dir(out_dir: Path, pid: int, wave_index: int) -> Path:
    return Path(out_dir) / f"pid{pid}" / f"wave{wave_index}"


# the directory names wave_dir makes
_PID_NAME = re.compile(r"pid(\d+)")
_WAVE_NAME = re.compile(r"wave(\d+)")
# names an unpack writes at the top of its output directory
_OWNED_NAME = re.compile(rf"api_calls\.jsonl|report\.json|{_PID_NAME.pattern}")


def write_outputs(result: PipelineResult, out_dir, no_timing: bool = False,
                  report_path=None) -> dict:
    """Materialize wave directories, PE files, sidecars, logs and report.

    The tree is built in a staging directory inside `out_dir` and then
    moved into place, replacing whatever an earlier unpack left there, so
    the directory holds exactly this run's outputs. Entries an unpack never
    writes (a taint log, say) are left alone.
    """
    report = dict(result.report)
    if no_timing:
        report.pop("timing", None)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=".unpack-", dir=out))
    try:
        _write_waves(result, stage)
        if not report_path:
            _write_report(report, stage / "report.json")
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
    if report_path:
        _write_report(report, Path(report_path))
    return report


def _write_report(report: dict, path: Path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=1)


def _write_waves(result: PipelineResult, out: Path):
    with open(out / "api_calls.jsonl", "w", encoding="utf-8") as fh:
        for rec in result.api_records:
            fh.write(json.dumps(rec.log_obj(), sort_keys=True) + "\n")

    for wave_out in result.outputs:
        rec = wave_out.record
        wdir = wave_dir(out, rec.pid, rec.wave_index)
        (wdir / "pages").mkdir(parents=True, exist_ok=True)
        with open(wdir / "instrs.jsonl", "w", encoding="utf-8") as fh:
            fh.writelines(map(_instr_line, rec.instrs))
        _write_pairs(wdir / "shadow.json", rec.shadow_pairs)
        _write_pairs(wdir / "twrites.json", rec.twrite_pairs)
        for base, data in rec.page_dumps.items():
            (wdir / "pages" / f"{base:08x}.bin").write_bytes(data)

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
        with open(wdir / "groups.json", "w", encoding="utf-8") as fh:
            json.dump(groups_doc, fh, sort_keys=True, indent=1)

        for gi, art in enumerate(wave_out.artifacts):
            (wdir / f"group{gi}.exe").write_bytes(art.data)
            with open(wdir / f"group{gi}.xrefs.json", "w",
                      encoding="utf-8") as fh:
                json.dump(art.sidecar, fh, sort_keys=True, indent=1)


def _instr_line(ref: InstrRef) -> str:
    """One instrs.jsonl line, the text json.dumps(sort_keys=True) gives."""
    return '{"bytes": "%s", "seq": %d, "vaddr": %d}\n' % (
        ref.bytes.hex(), ref.seq, ref.vaddr)


_PAIR_BATCH = 1024


def _write_pairs(path: Path, pairs: dict[int, int]):
    """Write sorted [v, b] pairs as one JSON array, the bytes json.dump gives.

    json.dumps runs the C encoder, which json.dump never does; encoding in
    batches keeps the text held in memory small. Tuples encode as arrays.
    """
    items = sorted(pairs.items())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[")
        for i in range(0, len(items), _PAIR_BATCH):
            if i:
                fh.write(", ")
            fh.write(json.dumps(items[i:i + _PAIR_BATCH])[1:-1])
        fh.write("]")


class CheckError(Exception):
    """Stored pipeline output disagrees with the trace or itself."""


def _owned(directory: Path, name: re.Pattern) -> list[tuple[int, Path]]:
    """(number, path) of the entries `name` matches, sorted by path."""
    matches = ((name.fullmatch(p.name), p) for p in sorted(directory.iterdir()))
    return [(int(m.group(1)), p) for m, p in matches if m]


def load_wave_records(out_dir, page_size: int = 4096) -> list[WaveRecord]:
    """Rebuild WaveRecords from the pid<N>/wave<N> directories of an unpack."""
    out = Path(out_dir)
    records = []
    for pid, pid_dir in _owned(out, _PID_NAME):
        for wave_index, wdir in _owned(pid_dir, _WAVE_NAME):
            instrs = _read_instrs(wdir / "instrs.jsonl", pid)
            shadow = _read_pairs(wdir / "shadow.json")
            twrites = _read_pairs(wdir / "twrites.json")
            dumps = {}
            touched = {v - v % page_size for v in list(shadow) + list(twrites)}
            for expected in sorted(touched):
                page_file = wdir / "pages" / f"{expected:08x}.bin"
                if not page_file.exists():
                    raise CheckError(f"missing page dump {page_file}")
                dumps[expected] = page_file.read_bytes()
            if not instrs:
                raise CheckError(f"{wdir}: wave with no instructions")
            records.append(WaveRecord(
                pid=pid, wave_index=wave_index, instrs=instrs,
                shadow_pairs=shadow, twrite_pairs=twrites, page_dumps=dumps))
    return records


def _read_instrs(path: Path, pid: int) -> list[InstrRef]:
    instrs = []
    line_no = 0
    with open(path, encoding="utf-8") as fh:
        try:
            for line_no, line in enumerate(fh, start=1):
                obj = json.loads(line)
                seq, vaddr = obj["seq"], obj["vaddr"]
                if type(seq) is not int or type(vaddr) is not int:
                    raise TypeError("'seq' and 'vaddr' must be integers")
                instrs.append(InstrRef(seq, pid, vaddr,
                                       bytes.fromhex(obj["bytes"])))
        except KeyError as exc:
            raise CheckError(f"{path}: line {line_no}: missing key {exc}") from None
        except (ValueError, TypeError) as exc:
            raise CheckError(f"{path}: line {line_no}: {exc}") from None
    return instrs


def _read_pairs(path: Path) -> dict[int, int]:
    with open(path, encoding="utf-8") as fh:
        try:
            pairs = {v: b for v, b in json.load(fh)}
            if not set(map(type, pairs)) <= {int}:  # bools are not addresses
                raise TypeError("addresses must be integers")
        except (ValueError, TypeError) as exc:
            raise CheckError(f"{path}: {exc}") from None
    return pairs


def check_outputs(trace: SystemTrace, out_dir) -> tuple[list[str], list[Violation]]:
    """Recompute the analysis and diff it against stored artifacts."""
    out = Path(out_dir)
    issues: list[str] = []
    result = analyze(trace)
    stored = load_wave_records(out, trace.page_size)

    recomputed = {(r.pid, r.wave_index): r for r in result.collect.records}
    stored_map = {(r.pid, r.wave_index): r for r in stored}
    for key in sorted(set(recomputed) | set(stored_map)):
        a, b = recomputed.get(key), stored_map.get(key)
        if a is None:
            issues.append(f"wave {key}: present on disk, not in recomputation")
            continue
        if b is None:
            issues.append(f"wave {key}: missing from disk")
            continue
        if [r.seq for r in a.instrs] != [r.seq for r in b.instrs]:
            issues.append(f"wave {key}: instruction list differs")
        if a.shadow_pairs != b.shadow_pairs:
            issues.append(f"wave {key}: shadow memory differs")
        if a.twrite_pairs != b.twrite_pairs:
            issues.append(f"wave {key}: tainted writes differ")
        for base, data in a.page_dumps.items():
            if b.page_dumps.get(base) != data:
                issues.append(f"wave {key}: page {base:#x} differs")

    report_file = out / "report.json"
    if report_file.exists():
        try:
            stored_report = json.loads(report_file.read_bytes())
        except ValueError as exc:
            raise CheckError(f"{report_file}: {exc}") from None
        fresh = dict(result.report)
        fresh.pop("timing", None)
        if isinstance(stored_report, dict):
            stored_report.pop("timing", None)
        if stored_report != fresh:
            issues.append("report.json aggregates differ from recomputation")
    else:
        issues.append("report.json missing")

    violations = verify_wave_semantics(stored, result.collect.mtrace,
                                       trace.image_event())
    return issues, violations
