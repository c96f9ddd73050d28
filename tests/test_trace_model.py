from __future__ import annotations

import gc
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveunpack.scenario_gen import SCENARIO_IDS, generate_scenario
from waveunpack.trace_model import (
    MemLoc,
    ObservedMemory,
    SystemTrace,
    TraceEvent,
    TraceFormatError,
    iter_trace,
    parse_trace,
    write_trace,
)


def _image(pid=1, base=0x400000, gbase=0x1000, data=b"\xcc" * 16):
    return TraceEvent(kind="image", pid=pid, base=base, gbase=gbase,
                      name="t.exe", bytes=data)


def _instr(seq, pid=1, vaddr=0x400000, gaddr=0x1000, code=b"\x90", **kw):
    return TraceEvent(kind="instr", pid=pid, seq=seq, tid=1, vaddr=vaddr,
                      gaddr=gaddr, bytes=code, **kw)


# each event list breaks one stream rule at the given line
_STREAM_FAULTS = {
    "multiple images": ([_image(), _instr(1), _image()], 4,
                        "multiple image events"),
    "instr before image": ([_instr(1), _image()], 3,
                           "instr event before any image event in the "
                           "malware pid 1"),
    "non-monotone seq": ([_image(), _instr(5),
                          _instr(5, vaddr=0x400001, gaddr=0x1001)], 4,
                         "non-monotone seq 5 (previous 5)"),
}


def _lines_of(events) -> bytes:
    """Header plus each event's canonical line, without the stream rules."""
    return write_trace(SystemTrace()) + b"".join(
        write_trace(SystemTrace(events=[ev])).split(b"\n", 1)[1]
        for ev in events)


class TestStreamRules:
    @pytest.mark.parametrize("fault", sorted(_STREAM_FAULTS))
    def test_parse_and_write_reject_alike(self, fault):
        events, line, message = _STREAM_FAULTS[fault]
        with pytest.raises(TraceFormatError) as parsed:
            parse_trace(_lines_of(events))
        with pytest.raises(TraceFormatError) as written:
            write_trace(SystemTrace(events=events))
        assert str(parsed.value) == str(written.value) == f"line {line}: {message}"
        assert parsed.value.line == written.value.line == line

    def test_first_bad_line_wins_either_way(self):
        stream_fault = _lines_of([_image(), _image()])
        with pytest.raises(TraceFormatError, match="line 3: multiple image"):
            parse_trace(stream_fault + b"not json\n")
        format_fault = _lines_of([_image()]) + b"not json\n"
        with pytest.raises(TraceFormatError, match="line 3: invalid JSON"):
            parse_trace(format_fault + _lines_of([_image()]).split(b"\n", 1)[1])


@pytest.mark.parametrize("base, size", [(-1, 16), ((1 << 32) - 15, 16),
                                        (1 << 32, 1)])
def test_image_outside_32_bits_rejected_alike(base, size):
    line = json.dumps({"kind": "image", "pid": 1, "base": base, "gbase": 0x1000,
                       "name": "t.exe", "bytes": "cc" * size}).encode()
    with pytest.raises(TraceFormatError) as parsed:
        parse_trace(write_trace(SystemTrace()) + line + b"\n")
    with pytest.raises(TraceFormatError) as written:
        write_trace(SystemTrace(events=[_image(base=base, data=b"\xcc" * size)]))
    assert str(parsed.value) == str(written.value) == (
        f"line 2: image at {base:#x} of {size:#x} bytes does not fit in 32 bits")


@pytest.mark.parametrize("base", [0, (1 << 32) - 16])
def test_image_at_either_end_of_32_bits_parses(base):
    trace = SystemTrace(events=[_image(base=base)])
    assert parse_trace(write_trace(trace)) == trace


class TestParse:
    def test_image_only_trace(self):
        trace = SystemTrace(events=[_image()])
        parsed = parse_trace(write_trace(trace))
        assert len(parsed.events) == 1
        assert [ev for ev in parsed.events if ev.kind == "instr"] == []

    def test_round_trip_on_generated_scenario(self):
        trace, _ = generate_scenario("d1", 5)
        assert parse_trace(write_trace(trace)) == trace

    def test_write_parse_write_is_canonical(self):
        trace, _ = generate_scenario("c1", 2)
        blob = write_trace(trace)
        assert write_trace(parse_trace(blob)) == blob

    def test_canonicalizes_whitespace_and_hex_case(self):
        trace = SystemTrace(events=[_image(data=b"\xab\xcd")])
        noisy = (b'{"page_size": 4096, "format": 1}\n'
                 b'{"kind": "image", "pid": 1, "base": 4194304, '
                 b'"gbase": 4096, "name": "t.exe", "bytes": "ABCD"}\n')
        assert write_trace(parse_trace(noisy)) == write_trace(trace)

    def test_non_monotone_seq_rejected(self):
        ok = write_trace(SystemTrace(events=[_image(), _instr(5)]))
        dup = ok + ok.splitlines()[2] + b"\n"  # seq 5 appears twice
        with pytest.raises(TraceFormatError, match="non-monotone seq"):
            parse_trace(dup)
        with pytest.raises(TraceFormatError, match="non-monotone seq"):
            write_trace(SystemTrace(events=[
                _image(), _instr(5), _instr(5, vaddr=0x400001, gaddr=0x1001)]))

    def test_instr_before_malware_image_rejected(self):
        header = b'{"format":1,"page_size":4096}'
        instr = json.dumps({"kind": "instr", "seq": 1, "pid": 1, "tid": 1,
                            "vaddr": 0x400000, "gaddr": 0x1000, "bytes": "90",
                            "reads": [], "writes": [], "rregs": [],
                            "wregs": []}).encode()
        image = json.dumps({"kind": "image", "pid": 1, "base": 0x400000,
                            "gbase": 0x1000, "name": "t", "bytes": "90"}).encode()
        data = b"\n".join([header, instr, image])
        with pytest.raises(TraceFormatError, match="image event in the malware pid"):
            parse_trace(data)

    def test_benign_pid_instr_before_image_allowed(self):
        header = b'{"format":1,"page_size":4096}'
        instr = json.dumps({"kind": "instr", "seq": 1, "pid": 9, "tid": 1,
                            "vaddr": 0x700000, "gaddr": 0x9000, "bytes": "90",
                            "reads": [], "writes": [], "rregs": [],
                            "wregs": []}).encode()
        image = json.dumps({"kind": "image", "pid": 1, "base": 0x400000,
                            "gbase": 0x1000, "name": "t", "bytes": "90"}).encode()
        trace = parse_trace(b"\n".join([header, instr, image]))
        assert len(trace.events) == 2

    def test_instruction_too_long(self):
        trace = SystemTrace(events=[_image(), _instr(1, code=b"\x90" * 16)])
        with pytest.raises(TraceFormatError, match="instruction too long"):
            write_trace(trace)

    def test_g_span_conflict_rejected(self):
        # the read maps the instruction's own g to a different location
        bad = _instr(1, reads=(MemLoc(g=0x1000, v=0x500000, space_pid=1,
                                      val=0),))
        with pytest.raises(TraceFormatError, match="mismatch"):
            write_trace(SystemTrace(events=[_image(), bad]))

    def test_multiple_images_rejected(self):
        with pytest.raises(TraceFormatError, match="multiple image"):
            write_trace(SystemTrace(events=[_image(), _image()]))

    def test_malformed_line_reports_line_number(self):
        data = b'{"format":1,"page_size":4096}\nnot json\n'
        with pytest.raises(TraceFormatError, match="line 2"):
            parse_trace(data)

    def test_empty_stream_rejected(self):
        with pytest.raises(TraceFormatError, match="header"):
            parse_trace(b"")

    @pytest.mark.parametrize("size", [0, 100, 0x800, 0x3000, -4096, "4096", None])
    def test_bad_header_page_size_rejected(self, size):
        header = json.dumps({"format": 1, "page_size": size}).encode()
        with pytest.raises(TraceFormatError, match="line 1: page size"):
            parse_trace(header + b"\n")
        with pytest.raises(TraceFormatError, match="line 1: page size"):
            write_trace(SystemTrace(page_size=size))

    def test_padded_lines_parse_as_canonical(self):
        canonical = write_trace(SystemTrace(events=[_image(), _instr(1)]))
        header, image, instr = canonical.splitlines()
        padded = (b"\xef\xbb\xbf" + header + b"\n  " + image + b"\t\n"
                  + b"\xef\xbb\xbf" + instr + b" \r\n")
        assert parse_trace(padded) == parse_trace(canonical)

    @pytest.mark.parametrize("line", [b'{"kind": "procexit", "pid": 1} x',
                                      b'{"kind": "procexit"', b"\xff{}",
                                      b"[1] [2]", b"[" * 100_000])
    def test_undecodable_line_reports_line_number(self, line):
        data = b'{"format":1,"page_size":4096}\n' + line + b"\n"
        with pytest.raises(TraceFormatError, match="line 2: invalid JSON"):
            parse_trace(data)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_restored(self, enabled):
        good = write_trace(SystemTrace(events=[_image(), _instr(1)]))
        (gc.enable if enabled else gc.disable)()
        try:
            parse_trace(good)
            assert gc.isenabled() is enabled
            with pytest.raises(TraceFormatError):
                parse_trace(good + b"{}\n")
            assert gc.isenabled() is enabled
        finally:
            gc.enable()

    def test_empty_event_list_is_header_only(self):
        blob = write_trace(SystemTrace(events=[]))
        assert blob == b'{"format":1,"page_size":4096}\n'
        assert parse_trace(blob).events == []


@st.composite
def small_traces(draw):
    n = draw(st.integers(0, 10))
    events = [_image(data=bytes(draw(st.lists(st.integers(0, 255),
                                              min_size=1, max_size=32))))]
    vaddr = 0x400000
    for seq in range(1, n + 1):
        length = draw(st.integers(1, 6))
        code = bytes(draw(st.lists(st.integers(0, 255), min_size=length,
                                   max_size=length)))
        writes = ()
        if draw(st.booleans()):
            writes = (MemLoc(g=0x9000 + seq, v=0x600000 + seq, space_pid=1,
                             val=draw(st.integers(0, 255))),)
        events.append(_instr(seq, vaddr=vaddr, gaddr=0x1000 + (vaddr - 0x400000),
                             code=code, writes=writes,
                             stack_top=draw(st.one_of(st.none(),
                                                      st.integers(0, 2**32 - 1))),
                             regvals={"eax": draw(st.integers(0, 2**32 - 1))}
                             if draw(st.booleans()) else None))
        vaddr += length
    return SystemTrace(events=events)


@settings(max_examples=60, deadline=None)
@given(small_traces())
def test_round_trip_property(trace):
    blob = write_trace(trace)
    assert parse_trace(blob) == trace
    assert write_trace(parse_trace(blob)) == blob


_HEADER = b'{"format":1,"page_size":4096}'
_BARE_INSTR = json.dumps({"kind": "instr", "seq": 1, "pid": 1, "tid": 1,
                          "vaddr": 0x400000, "gaddr": 0x1000, "bytes": "90",
                          "reads": [], "writes": [], "rregs": [],
                          "wregs": []}).encode()
_BARE_IMAGE = json.dumps({"kind": "image", "pid": 1, "base": 0x400000,
                          "gbase": 0x1000, "name": "t", "bytes": "90"}).encode()
_GOOD = write_trace(SystemTrace(events=[_image(), _instr(1)]))


def _image_line(base, size):
    return json.dumps({"kind": "image", "pid": 1, "base": base,
                       "gbase": 0x1000, "name": "t.exe",
                       "bytes": "cc" * size}).encode()


_JSON_ERROR = "invalid JSON: Expecting value"
_NO_HEADER = (None, "empty stream: missing header line")

# the inputs the tests above give parse_trace, plus line ends, each with the
# line and message start of its error, or None where it reads as _GOOD does
_MALFORMED = {
    **{f"stream fault: {name}": (_lines_of(events), (line, message))
       for name, (events, line, message) in _STREAM_FAULTS.items()},
    "stream fault before format fault": (
        _lines_of([_image(), _image()]) + b"not json\n",
        (3, "multiple image events")),
    "format fault before stream fault": (
        _lines_of([_image()]) + b"not json\n"
        + _lines_of([_image()]).split(b"\n", 1)[1],
        (3, _JSON_ERROR)),
    **{f"image at {base:#x} of {size} bytes": (
        write_trace(SystemTrace()) + _image_line(base, size) + b"\n",
        (2, f"image at {base:#x} of {size:#x} bytes does not fit in 32 bits"))
       for base, size in [(-1, 16), ((1 << 32) - 15, 16), (1 << 32, 1)]},
    "repeated seq": (_GOOD + _GOOD.splitlines()[2] + b"\n",
                     (4, "non-monotone seq 1 (previous 1)")),
    "instr before image": (
        b"\n".join([_HEADER, _BARE_INSTR, _BARE_IMAGE]),
        (3, "instr event before any image event in the malware pid 1")),
    "not json": (_HEADER + b"\nnot json\n", (2, _JSON_ERROR)),
    "empty": (b"", _NO_HEADER),
    **{f"header page size {size!r}": (
        json.dumps({"format": 1, "page_size": size}).encode() + b"\n",
        (1, f"page size {size!r} is not a power of two"))
       for size in [0, 100, 0x800, 0x3000, -4096, "4096", None]},
    **{f"undecodable {line[:20]!r}": (_HEADER + b"\n" + line + b"\n",
                                      (2, "invalid JSON: " + error))
       for line, error in [
           (b'{"kind": "procexit", "pid": 1} x', "Extra data"),
           (b'{"kind": "procexit"', "Expecting ',' delimiter"),
           (b"\xff{}", "'utf-8' codec can't decode byte 0xff"),
           (b"[1] [2]", "Extra data"),
           (b"[" * 100_000, "")]},
    "empty object": (_GOOD + b"{}\n", (4, "missing key 'kind'")),
    "blank header": (b"\n" + _GOOD, _NO_HEADER),
    # a CR before the LF, or on its own, is whitespace within its line
    "bare CR header": (b"\r" + _GOOD, None),
    "CR inside a line": (_GOOD[:-20] + b"\r" + _GOOD[-20:],
                         (3, "invalid JSON: Invalid control character")),
    "bad line after CR": (_GOOD.replace(b"\n", b"\r") + b"{}",
                          (1, "invalid JSON: Extra data")),
    "bad line after CR LF": (
        _GOOD.replace(b"\n", b"\r\n") + b"\r\r\n{}",
        (5, "missing key 'kind'")),
    "padded lines": (b"\xef\xbb\xbf" + _GOOD.replace(b"\n", b" \t\n", 1),
                     None),
}


def _outcome(read):
    """The (line, message) of the error read() raises, with its "line N: "
    dropped, or the events of the trace it returns."""
    try:
        return list(read().events)
    except TraceFormatError as exc:
        prefix = "" if exc.line is None else f"line {exc.line}: "
        assert str(exc).startswith(prefix)
        return exc.line, str(exc)[len(prefix):]


class TestIterTrace:
    @pytest.mark.parametrize("name", sorted(_MALFORMED))
    def test_agrees_with_parse_trace(self, name):
        """A stream and parse_trace's bytes read alike, as the table says."""
        data, expected = _MALFORMED[name]
        streamed = _outcome(lambda: iter_trace(io.BytesIO(data)))
        assert _outcome(lambda: parse_trace(data)) == streamed
        if expected is None:
            assert streamed == parse_trace(_GOOD).events
        else:
            line, message = streamed
            assert line == expected[0] and message.startswith(expected[1])

    @pytest.mark.parametrize("sid", SCENARIO_IDS)
    def test_scenario_events_stream_as_parsed(self, sid):
        blob = write_trace(generate_scenario(sid, 4)[0])
        trace = iter_trace(io.BytesIO(blob))
        assert not isinstance(trace.events, list)
        assert list(trace.events) == parse_trace(blob).events

    @pytest.mark.parametrize("sid", SCENARIO_IDS)
    def test_crlf_trace_parses_as_lf(self, sid):
        blob = write_trace(generate_scenario(sid, 4)[0])
        assert parse_trace(blob.replace(b"\n", b"\r\n")) == parse_trace(blob)

    def test_header_is_checked_before_any_event_is_read(self):
        with pytest.raises(TraceFormatError, match="line 1: page size 0"):
            iter_trace(io.BytesIO(b'{"format":1,"page_size":0}\nnot json\n'))

    def test_events_are_read_as_consumed(self):
        trace = iter_trace(io.BytesIO(_GOOD + b"not json\n"))
        assert next(trace.events).kind == "image"
        assert next(trace.events).kind == "instr"
        with pytest.raises(TraceFormatError, match="line 4: invalid JSON"):
            next(trace.events)


@pytest.fixture(scope="module")
def scenario_blobs():
    return [write_trace(generate_scenario(sid, 3)[0])
            for sid in ("d1", "c1", "m1")]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_damaged_line_fails_at_or_after_it(scenario_blobs, data):
    """Corrupt, blank or split one line of a scenario trace: reading it
    fails with a TraceFormatError naming that line or a later one, or
    yields the undamaged events up to that line."""
    blob = data.draw(st.sampled_from(scenario_blobs))
    lines = blob.split(b"\n")
    i = data.draw(st.integers(0, len(lines) - 1))
    line = lines[i]
    at = data.draw(st.integers(0, len(line)))
    how = data.draw(st.sampled_from(["byte", "truncate", "blank", "split"]))
    if how == "byte":
        line = line[:at] + bytes([data.draw(st.integers(0, 255))]) + line[at + 1:]
    elif how == "truncate":
        line = line[:at]
    elif how == "blank":
        line = data.draw(st.sampled_from([b"", b" ", b"\t \x0c"]))
    else:
        line = line[:at] + data.draw(st.sampled_from([b"\r", b"\r\n"])) + line[at:]
    lines[i] = line
    outcome = _outcome(lambda: iter_trace(io.BytesIO(b"\n".join(lines))))
    if isinstance(outcome, tuple):  # line numbers count from 1
        assert outcome[0] >= i + 1 if outcome[0] is not None else i == 0
    else:  # events sit on lines 2, 3, ...: those before line i + 1
        kept = max(i - 1, 0)
        assert outcome[:kept] == parse_trace(blob).events[:kept]


class TestObservedMemory:
    def test_untouched_page_is_zero(self):
        store = ObservedMemory()
        assert store.page(1, 0x4000) == bytes(4096)

    def test_image_page_round_trips(self):
        store = ObservedMemory()
        data = bytes(range(256)) * 16
        store.record_event(_image(base=0x4000, data=data))
        assert store.page(1, 0x4000) == data

    def test_write_overrides_image_byte(self):
        store = ObservedMemory()
        store.record_event(_image(base=0x4000, data=b"\xcc" * 4096))
        store.record_event(_instr(
            1, vaddr=0x400000, writes=(MemLoc(g=0x9008, v=0x4008, space_pid=1,
                                              val=0x90),)))
        page = store.page(1, 0x4000)
        assert page[8] == 0x90
        assert page[7] == 0xCC

    def test_unaligned_page_base_rejected(self):
        with pytest.raises(ValueError, match="aligned"):
            ObservedMemory().page(1, 0x4001)

    def test_prefix_determinism(self, micro_trace):
        trace = micro_trace(3, 80)
        full = ObservedMemory()
        for k, ev in enumerate(trace.events):
            full.record_event(ev)
            if k == 40:
                fresh = ObservedMemory()
                for prior in trace.events[:k + 1]:
                    fresh.record_event(prior)
                touched = _touched_pages(trace.events[:k + 1])
                assert touched
                for pid, base in touched:
                    assert fresh.page(pid, base) == full.page(pid, base)

    def test_writes_straddling_pages_and_processes(self):
        store = ObservedMemory()
        store.record_event(_image(base=0x4ffc, data=bytes(range(1, 9))))
        store.record_event(_instr(1, vaddr=0x5ffe, code=b"\xff\x15\x00\x10",
                                  writes=(MemLoc(g=0x9000, v=0x7fff, space_pid=2,
                                                 val=0xAB),)))
        assert store.page(1, 0x4000)[-4:] == bytes([1, 2, 3, 4])
        assert store.page(1, 0x5000)[:4] == bytes([5, 6, 7, 8])
        assert store.page(1, 0x5000)[-2:] == b"\xff\x15"
        assert store.page(1, 0x6000)[:2] == b"\x00\x10"
        assert store.page(2, 0x7000)[-1] == 0xAB
        assert store.page(1, 0x7000) == bytes(4096)

    @pytest.mark.parametrize("size", [0, 100, 0x800, 0x1800, 4096.0, True,
                                      0x800000, 1 << 34])
    def test_bad_page_size_rejected(self, size):
        with pytest.raises(ValueError, match="power of two from 0x1000 to "
                                             "0x400000"):
            ObservedMemory(size)

    @pytest.mark.parametrize("size", [0x1000, 0x400000])
    def test_page_size_bounds_accepted(self, size):
        assert ObservedMemory(size).page(1, size) == bytes(size)


def _touched_pages(events, page=4096):
    """(pid, page base) of every byte an event may have stored."""
    pairs = set()
    for ev in events:
        if ev.kind == "image":
            pairs.update((ev.pid, v) for v in range(ev.base, ev.base + len(ev.bytes)))
        elif ev.kind == "instr":
            pairs.update((ev.pid, v) for v in ev.vspan())
            pairs.update((loc.space_pid, loc.v) for loc in ev.writes)
    return {(pid, v - v % page) for pid, v in pairs}
