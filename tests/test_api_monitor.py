from __future__ import annotations

from waveunpack.api_monitor import ApiMonitor, attribute_calls, detect_api_call
from waveunpack.scenario_gen import SCENARIO_IDS, TARGET_PID, generate_scenario
from waveunpack.trace_model import Branch, Export, TraceEvent
from waveunpack.wave_collector import collect_waves


def _module(pid=1, base=0x77000000, name="kernel32",
            exports=(("ExitProcess", 0x1234),)):
    return TraceEvent(kind="module", pid=pid, base=base, name=name,
                      exports=tuple(Export(n, r) for n, r in exports))


def _branch_instr(seq, target, btype="call", pid=1, code=b"\xff\xd0",
                  stack_top=None, vaddr=0x600000):
    return TraceEvent(kind="instr", pid=pid, seq=seq, tid=1, vaddr=vaddr,
                      gaddr=0x5000, bytes=code,
                      branch=Branch(target, btype), stack_top=stack_top)


def _monitor(*modules) -> ApiMonitor:
    monitor = ApiMonitor()
    for ev in modules:
        monitor.on_module(ev)
    return monitor


def _replay(monitor: ApiMonitor, events):
    """Feed events as collect_waves does, every instruction being tainted."""
    for ev in events:
        if ev.kind == "module":
            monitor.on_module(ev)
        elif ev.kind == "procexit":
            monitor.on_procexit(ev.pid)
        else:
            monitor.on_return_site(ev)
            monitor.on_malware_instr(ev, (ev.pid, 0))


class TestExportMap:
    def test_base_plus_rva(self):
        exports = _monitor(_module()).exports
        assert exports.lookup(1, 0x77001234) == ("kernel32", "ExitProcess")

    def test_no_modules_no_hits(self):
        exports = _monitor().exports
        assert exports.lookup(1, 0x77001234) is None

    def test_per_process_isolation(self):
        exports = _monitor(_module(pid=1)).exports
        assert exports.lookup(2, 0x77001234) is None

    def test_duplicate_address_keeps_first(self, caplog):
        dup = _module(exports=(("ExitProcess", 0x1234), ("AliasExit", 0x1234)))
        with caplog.at_level("WARNING"):
            exports = _monitor(dup).exports
        assert exports.lookup(1, 0x77001234) == ("kernel32", "ExitProcess")
        assert "duplicate export address" in caplog.text


class TestDetect:
    def test_register_indirect_call(self):
        exports = _monitor(_module()).exports
        rec = detect_api_call(_branch_instr(1, 0x77001234), exports)
        assert rec is not None
        assert rec.function_name == "ExitProcess"
        assert rec.caller_len == 2

    def test_ret_based_call_detected_at_ret(self):
        exports = _monitor(_module(exports=(("MessageBoxA", 0x10),))).exports
        rec = detect_api_call(
            _branch_instr(3, 0x77000010, btype="ret", code=b"\xc3",
                          stack_top=0x600100), exports)
        assert rec is not None and rec.btype == "ret"
        assert rec.return_address == 0x600100

    def test_branch_into_function_body_misses(self):
        exports = _monitor(_module()).exports
        assert detect_api_call(_branch_instr(1, 0x77001234 + 5), exports) is None

    def test_non_branch_never_detects(self):
        exports = _monitor(_module()).exports
        ev = TraceEvent(kind="instr", pid=1, seq=1, tid=1, vaddr=0x600000,
                        gaddr=0x5000, bytes=b"\x90")
        assert detect_api_call(ev, exports) is None


class TestCaptureReturn:
    def _site(self, seq, vaddr, eax=None, pid=1):
        return TraceEvent(kind="instr", pid=pid, seq=seq, tid=1, vaddr=vaddr,
                          gaddr=0x5000, bytes=b"\x90",
                          regvals={"eax": eax} if eax is not None else None)

    def test_return_value_captured(self):
        monitor = _monitor(_module(exports=(("GetProcAddress", 0x20),)))
        _replay(monitor, [_branch_instr(1, 0x77000020, stack_top=0x600100),
                          self._site(2, 0x600100, eax=0x77001234)])
        [call] = monitor.records
        assert call.return_value == 0x77001234

    def test_unexecuted_return_site_leaves_none(self):
        monitor = _monitor(_module())
        _replay(monitor, [_branch_instr(1, 0x77001234, stack_top=0x600100),
                          self._site(2, 0x699999)])
        [call] = monitor.records
        assert call.return_value is None

    def test_nested_same_site_matches_lifo(self):
        monitor = _monitor(_module(exports=(("Recurse", 0x30),)))
        _replay(monitor, [_branch_instr(1, 0x77000030, stack_top=0x600100),
                          _branch_instr(2, 0x77000030, stack_top=0x600100),
                          self._site(3, 0x600100, eax=222),
                          self._site(4, 0x600100, eax=111)])
        outer, inner = monitor.records
        assert inner.return_value == 222
        assert outer.return_value == 111

    def test_pending_expires_at_procexit(self):
        monitor = _monitor(_module())
        _replay(monitor, [_branch_instr(1, 0x77001234, stack_top=0x600100),
                          TraceEvent(kind="procexit", pid=1),
                          self._site(2, 0x600100, eax=7)])
        [call] = monitor.records
        assert call.return_value is None

    def test_monitor_matches_same_results(self):
        trace, _ = generate_scenario("d1", 2)
        calls = collect_waves(trace).calls
        gpa = [r for r in calls if r.function_name == "GetProcAddress"]
        assert gpa and all(r.return_value is not None for r in gpa)
        exit_calls = [r for r in calls if r.function_name == "ExitProcess"]
        assert exit_calls and exit_calls[0].return_value is None


class TestAttribution:
    def test_d1_final_wave_calls(self):
        trace, _ = generate_scenario("d1", 0)
        result = collect_waves(trace)
        per_wave = attribute_calls(result.calls, result.records)
        final = per_wave[(100, 1)]
        assert len(final) == 5
        assert len({(c.module_name, c.function_name) for c in final}) == 3

    def test_c4_single_loadlibrary(self):
        trace, _ = generate_scenario("c4", 0)
        result = collect_waves(trace)
        per_wave = attribute_calls(result.calls, result.records)
        assert [c.function_name for c in per_wave[(TARGET_PID, 0)]] == \
            ["LoadLibraryA"]

    def test_benign_calls_never_attributed(self):
        trace, truth = generate_scenario("c1", 8)
        result = collect_waves(trace)
        per_wave = attribute_calls(result.calls, result.records)
        planted = sum(len(w["calls"]) for w in truth.manifest)
        assert len(result.calls) == planted
        assert sum(len(v) for v in per_wave.values()) == planted

    def test_soundness_caller_in_wave(self):
        trace, _ = generate_scenario("m1", 1)
        result = collect_waves(trace)
        per_wave = attribute_calls(result.calls, result.records)
        by_key = {(r.pid, r.wave_index): set(r.instrs.seqs)
                  for r in result.records}
        for key, calls in per_wave.items():
            for call in calls:
                assert call.caller_seq in by_key[key]

    def test_stamped_wave_holds_caller(self):
        """The wave stamped at detection is the one whose instructions hold
        the caller, for every call of the 9 scenarios at seeds 0-9."""
        for sid in SCENARIO_IDS:
            for seed in range(10):
                trace, _ = generate_scenario(sid, seed)
                result = collect_waves(trace)
                owner = {seq: (rec.pid, rec.wave_index)
                         for rec in result.records for seq in rec.instrs.seqs}
                assert result.calls
                for call in result.calls:
                    assert call.wave_id == owner[call.caller_seq], \
                        (sid, seed, call)


def test_mid_trace_module_load_two_phase():
    exports_before = (("LoadLibraryA", 0x40),)
    module_late = _module(base=0x10000000, name="late",
                          exports=(("Boom", 0x10),))
    monitor = _monitor(_module(exports=exports_before))
    # the call to the not-yet-loaded module goes undetected
    _replay(monitor, [_branch_instr(1, 0x10000010), module_late,
                      _branch_instr(2, 0x10000010)])
    [rec] = monitor.records
    assert rec.caller_seq == 2 and rec.module_name == "late"
