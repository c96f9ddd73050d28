"""Span tracing for the traced benchmark run, from outside the program.

`Tracer.install()` replaces the public functions and monitor/store methods
listed in TARGETS with wrappers that record one span per call: name,
start, end and the span open when the call began. Spans live in flat
int64 arrays until `write()` stores them. Only the traced run imports this
module, so untraced runs execute the program unwrapped.
"""

from __future__ import annotations

import array
import contextlib
import functools
import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path


def _peak_tainted(counts, args, out):
    counts["peak_tainted"] = max(counts["peak_tainted"], len(out[0].tainted_mem))


def _inclusion(counts, args, out):
    counts["tainted"] += bool(out)


def _case(counts, args, out):
    counts[f"case{out}"] += 1


def _dump(counts, args, out):
    if out is not None:
        counts["pages_dumped"] += len(out.page_dumps)
        counts["waves"] += 1


def _attribute(counts, args, out):
    records = args[0]
    counts["calls_detected"] += len(records)
    counts["returns_captured"] += sum(r.return_value is not None for r in records)


def _scan(counts, args, out):
    # scan_refs returns at once when there is no candidate range
    if args[2]:
        counts["scanned_bytes"] += len(args[0])
    counts["ranges"] += len(args[2])
    counts["scans"] += 1
    counts["refs_found"] += len(out)


def _merge(counts, args, out):
    counts["intervals"] += len(args[0])


def _group(counts, args, out):
    counts["groups_kept"] += len(out.kept)
    counts["groups_dropped"] += len(out.dropped)


def _build(counts, args, out):
    counts["pe_bytes"] += len(out.data)
    for entry in out.sidecar:
        if entry.get("kind") == "api":
            counts["sites_patched" if entry["patched"] else "sites_unpatched"] += 1


# (module, attribute, span name, counter hook); the span name's prefix is
# the layer. Hooks run after the span closes, on the call's arguments and
# result, and must stay cheap: several run once per trace event.
TARGETS = [
    ("trace_model", "parse_trace", "trace_model.parse", None),
    ("trace_model", "write_trace", "trace_model.write", None),
    ("trace_model", "ObservedMemory.record_event", "trace_model.record", None),
    ("trace_model", "ObservedMemory.page", "trace_model.page", None),
    ("taint_engine", "init_taint", "taint_engine.init", None),
    ("taint_engine", "update", "taint_engine.update", _peak_tainted),
    ("taint_engine", "is_tainted_instruction", "taint_engine.inclusion",
     _inclusion),
    ("wave_collector", "collect_waves", "wave_collector.collect", None),
    ("wave_collector", "classify_case", "wave_collector.classify", _case),
    ("wave_collector", "dump_wave", "wave_collector.dump", _dump),
    ("wave_collector", "verify_wave_semantics", "wave_collector.verify", None),
    ("api_monitor", "ApiMonitor.on_module", "api_monitor.on_module", None),
    ("api_monitor", "ApiMonitor.on_return_site", "api_monitor.on_return_site",
     None),
    ("api_monitor", "ApiMonitor.on_malware_instr",
     "api_monitor.on_malware_instr", None),
    ("api_monitor", "ApiMonitor.on_procexit", "api_monitor.on_procexit", None),
    ("api_monitor", "attribute_calls", "api_monitor.attribute", _attribute),
    ("disasm", "scan_refs", "disasm.scan", _scan),
    ("regroup", "group_wave", "regroup.group", _group),
    ("regroup", "merge_groups", "regroup.merge", _merge),
    ("pe_builder", "build_artifact", "pe_builder.build", _build),
    ("pe_builder", "emit_pe", "pe_builder.emit", None),
    ("pipeline", "analyze", "pipeline.analyze", None),
    ("pipeline", "build_report", "pipeline.report", None),
    ("pipeline", "write_outputs", "pipeline.write", None),
    ("pipeline", "load_wave_records", "pipeline.load", None),
    ("pipeline", "check_outputs", "pipeline.check", None),
]

# layers that run inside an iteration; scenario_gen runs only in set-up
ITERATION_LAYERS = ("trace_model", "taint_engine", "wave_collector",
                    "api_monitor", "disasm", "regroup", "pe_builder",
                    "pipeline")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("q")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the benchmark's own code."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str, hook):
        open_, close, counts = self._open, self._close, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(idx)
            if hook is not None:
                hook(counts, args, out)
            return out

        return wrapper

    def install(self):
        """Wrap every target, including names other modules imported."""
        holders = [m for n, m in sys.modules.items()
                   if n == "waveunpack" or n.startswith("waveunpack.")]
        for mod_name, attr, name, hook in TARGETS:
            mod = importlib.import_module(f"waveunpack.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(original, name, hook))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(original, name, hook)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._set(holder, key, wrapper)

    def _set(self, obj, key: str, value):
        self._patched.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    def uninstall(self):
        for obj, key, original in reversed(self._patched):
            setattr(obj, key, original)
        self._patched.clear()

    def mark(self) -> int:
        return len(self.start)

    def summarize(self, first: int, last: int) -> dict:
        """Total time, call count and self time per span name over a range."""
        n = last - first
        dur = [self.end[i] - self.start[i] for i in range(first, last)]
        child = [0] * n
        for i in range(first, last):
            p = self.parent[i]
            if p >= first:
                child[p - first] += dur[i - first]
        total: Counter = Counter()
        calls: Counter = Counter()
        own: Counter = Counter()
        for k in range(n):
            name = self.names[self.name_id[first + k]]
            total[name] += dur[k]
            calls[name] += 1
            own[name] += dur[k] - child[k]
        ns = 1e-9
        return {"total": {k: v * ns for k, v in total.items()},
                "calls": dict(calls),
                "self": {k: v * ns for k, v in own.items()}}

    def write(self, out_dir: Path):
        """Store the spans: names as JSON, rows as int64 (name, start, end, parent)."""
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "span_names.json", "w", encoding="utf-8") as fh:
            json.dump(self.names, fh)
        rows = array.array("q")
        for i in range(len(self.start)):
            rows.extend((self.name_id[i], self.start[i], self.end[i],
                         self.parent[i]))
        with open(out_dir / "spans.bin", "wb") as fh:
            rows.tofile(fh)

    def layer_metrics(self, first: int, last: int, row: dict) -> dict:
        """Per-layer metrics of one iteration (one unpack plus one check).

        `row` carries what the benchmark counted outside the spans: trace
        events and memory locations parsed, files and bytes written.
        """
        summary = self.summarize(first, last)
        total, calls, own = summary["total"], summary["calls"], summary["self"]
        counts, events = self.counts, row["events"]

        def t(name):
            return total.get(name, 0.0)

        def c(name):
            return calls.get(name, 0)

        def ratio(a, b):
            return a / b if b else 0.0

        layer_self = Counter()
        for name, value in own.items():
            layer_self[name.split(".")[0]] += value
        all_self = sum(layer_self.values())
        scanned = counts["scanned_bytes"]
        monitor = sum(v for k, v in total.items()
                      if k.startswith("api_monitor.on_"))
        m = {
            "trace_model.parse_s": t("trace_model.parse"),
            "trace_model.parse_us_per_event":
                ratio(t("trace_model.parse"), events) * 1e6,
            "trace_model.events": events,
            "trace_model.memlocs": row["memlocs"],
            "trace_model.record_s": t("trace_model.record"),
            "trace_model.page_s": t("trace_model.page"),
            "trace_model.pages_rendered": c("trace_model.page"),
            "taint_engine.update_s": t("taint_engine.update"),
            "taint_engine.updates": c("taint_engine.update"),
            "taint_engine.inclusion_s": t("taint_engine.inclusion"),
            "taint_engine.tainted_share": ratio(counts["tainted"],
                                                c("taint_engine.inclusion")),
            "taint_engine.peak_tainted_bytes": counts["peak_tainted"],
            "wave_collector.collect_s": t("wave_collector.collect"),
            "wave_collector.classify_s": t("wave_collector.classify"),
            "wave_collector.case1": counts["case1"],
            "wave_collector.case2": counts["case2"],
            "wave_collector.case3": counts["case3"],
            "wave_collector.case4": counts["case4"],
            "wave_collector.dump_s": t("wave_collector.dump"),
            "wave_collector.waves": counts["waves"],
            "wave_collector.pages_dumped": counts["pages_dumped"],
            "wave_collector.verify_s": t("wave_collector.verify"),
            "api_monitor.monitor_s": monitor,
            "api_monitor.return_site_calls": c("api_monitor.on_return_site"),
            "api_monitor.calls_detected": counts["calls_detected"],
            "api_monitor.returns_captured": counts["returns_captured"],
            "api_monitor.attribute_s": t("api_monitor.attribute"),
            "disasm.scan_s": t("disasm.scan"),
            "disasm.scanned_bytes": scanned,
            "disasm.scan_us_per_byte": ratio(t("disasm.scan"), scanned) * 1e6,
            "disasm.mean_ranges": ratio(counts["ranges"], counts["scans"]),
            "disasm.refs_found": counts["refs_found"],
            "disasm.ref_yield": ratio(counts["refs_found"], scanned),
            "regroup.group_s": t("regroup.group"),
            "regroup.merge_s": t("regroup.merge"),
            "regroup.intervals": counts["intervals"],
            "regroup.groups_kept": counts["groups_kept"],
            "regroup.groups_dropped": counts["groups_dropped"],
            "pe_builder.build_s": t("pe_builder.build"),
            "pe_builder.emit_s": t("pe_builder.emit"),
            "pe_builder.pe_files": c("pe_builder.build"),
            "pe_builder.pe_bytes": counts["pe_bytes"],
            "pe_builder.sites_patched": counts["sites_patched"],
            "pe_builder.sites_unpatched": counts["sites_unpatched"],
            "pipeline.analyze_s": t("pipeline.analyze"),
            "pipeline.report_s": t("pipeline.report"),
            "pipeline.write_s": t("pipeline.write"),
            "pipeline.files_written": row["files"],
            "pipeline.bytes_written": row["bytes"],
            "pipeline.load_s": t("pipeline.load"),
        }
        for layer in ITERATION_LAYERS:
            m[f"{layer}.self_s"] = layer_self[layer]
            m[f"{layer}.self_share"] = ratio(layer_self[layer], all_self)
        return m
