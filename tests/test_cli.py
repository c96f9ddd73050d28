from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from waveunpack.cli import main
from waveunpack.scenario_gen import SCENARIO_IDS, generate_scenario
from waveunpack.trace_model import MemLoc, SystemTrace, TraceEvent, write_trace


@pytest.fixture
def d1_files(tmp_path):
    trace = tmp_path / "d1.jsonl"
    truth = tmp_path / "d1.truth.json"
    assert main(["gen", "d1", "--seed", "5", "-o", str(trace),
                 "--truth", str(truth)]) == 0
    return trace, truth


class TestGen:
    def test_deterministic_pair(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        main(["gen", "c1", "--seed", "7", "-o", str(a),
              "--truth", str(tmp_path / "a.json")])
        main(["gen", "c1", "--seed", "7", "-o", str(b),
              "--truth", str(tmp_path / "b.json")])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_trace_not_truth(self, tmp_path):
        main(["gen", "m1", "--seed", "1", "-o", str(tmp_path / "1.jsonl"),
              "--truth", str(tmp_path / "1.json")])
        main(["gen", "m1", "--seed", "2", "-o", str(tmp_path / "2.jsonl"),
              "--truth", str(tmp_path / "2.json")])
        assert (tmp_path / "1.jsonl").read_bytes() != \
            (tmp_path / "2.jsonl").read_bytes()
        assert (tmp_path / "1.json").read_text() == \
            (tmp_path / "2.json").read_text()

    def test_unknown_scenario_exits_1(self, capsys):
        assert main(["gen", "zz"]) == 1
        assert "unknown scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["-o", "--truth"])
    def test_unwritable_path_exits_1(self, option, tmp_path, capsys):
        paths = {"-o": str(tmp_path / "d1.jsonl"),
                 "--truth": str(tmp_path / "d1.truth.json")}
        paths[option] = str(tmp_path / "missing" / "x")
        assert main(["gen", "d1", "-o", paths["-o"],
                     "--truth", paths["--truth"]]) == 1
        err = capsys.readouterr().err
        assert "error: " in err and str(tmp_path / "missing") in err
        assert "Traceback" not in err

    def test_truth_over_the_trace_exits_1(self, tmp_path, capsys):
        path = tmp_path / "x"
        assert main(["gen", "d1", "-o", str(path), "--truth", str(path)]) == 1
        assert capsys.readouterr().err == \
            f"error: --truth: {path} is the trace path (-o) too\n"
        assert list(tmp_path.iterdir()) == []

    def test_failed_truth_write_removes_the_trace(self, tmp_path, capsys):
        trace = tmp_path / "g.jsonl"
        assert main(["gen", "d1", "-o", str(trace),
                     "--truth", str(tmp_path / "missing" / "x.json")]) == 1
        assert "Traceback" not in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestUnpack:
    def test_d1_end_to_end(self, d1_files, tmp_path, capsys):
        trace, truth_file = d1_files
        out = tmp_path / "out"
        assert main(["unpack", str(trace), "-o", str(out)]) == 0
        truth = json.loads(truth_file.read_text())
        report = json.loads((out / "report.json").read_text())
        s = report["summary"]
        assert s["procs"] == truth["procs"]
        assert s["waves"] == truth["waves"]
        assert s["final_wave"]["api_calls"] == truth["final_wave_api_calls"]
        assert s["final_wave"]["iat_size"] == truth["iat_size"]
        wave_dirs = sorted(p.name for p in (out / "pid100").iterdir())
        assert wave_dirs == ["wave0", "wave1"]
        exes = list(out.glob("pid*/wave*/group*.exe"))
        assert len(exes) >= 2
        assert (out / "api_calls.jsonl").exists()
        assert report["semantics"]["violations"] == []

    def test_empty_trace(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_bytes(write_trace(SystemTrace(events=[])))
        out = tmp_path / "out"
        assert main(["unpack", str(empty), "-o", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["summary"]["waves"] == 0

    def test_trace_without_image_unpacks_to_nothing(self, tmp_path, capsys):
        # nothing is tainted without an image, so no wave and no call exist
        trace = tmp_path / "t.jsonl"
        trace.write_bytes(write_trace(SystemTrace(
            events=[TraceEvent(kind="procexit", pid=1)])))
        out = tmp_path / "out"
        assert main(["unpack", str(trace), "-o", str(out)]) == 0
        assert capsys.readouterr().out == "procs=0 waves=0 pe_files=0\n"
        assert main(["check", str(trace), str(out)]) == 0
        assert capsys.readouterr().out == "OK, 0 violations\n"

    def test_strict_semantics_passes_on_generated(self, d1_files, tmp_path):
        trace, _ = d1_files
        assert main(["unpack", str(trace), "-o", str(tmp_path / "o"),
                     "--strict-semantics"]) == 0

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert main(["unpack", str(tmp_path / "nope.jsonl"),
                     "-o", str(tmp_path / "o")]) == 1

    def test_parse_error_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"format":1,"page_size":4096}\n{"kind":"wat"}\n')
        assert main(["unpack", str(bad), "-o", str(tmp_path / "o")]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_zero_page_size_header_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"format":1,"page_size":0}\n')
        assert main(["unpack", str(bad), "-o", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "line 1: page size 0 is not a power of two" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("size", [1 << 23, 1 << 34])
    def test_oversized_header_page_size_exits_1(self, d1_files, tmp_path,
                                                capsys, size):
        # a page size is allocated per touched page: it is capped, not tried
        trace, _ = d1_files
        lines = trace.read_text().splitlines(keepends=True)
        lines[0] = json.dumps({"format": 1, "page_size": size}) + "\n"
        trace.write_text("".join(lines))
        assert main(["unpack", str(trace), "-o", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert (f"line 1: page size {size} is not a power of two from 0x1000 "
                f"to 0x400000") in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("option", [["--page-size", "8192"],
                                        ["--no-patch"]],
                             ids=["page-size", "no-patch"])
    def test_removed_options_are_usage_errors(self, option, d1_files,
                                              tmp_path, capsys):
        # the page size is the trace header's, and call sites are always
        # patched
        trace, _ = d1_files
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["unpack", str(trace), "-o", str(out), *option])
        assert exc.value.code == 2
        assert "unrecognized arguments: " + option[0] in capsys.readouterr().err
        assert not out.exists()

    def test_determinism_byte_identical_outputs(self, d1_files, tmp_path):
        trace, _ = d1_files
        outs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            assert main(["unpack", str(trace), "-o", str(out),
                         "--no-timing"]) == 0
            outs.append(out)
        files1 = sorted(p.relative_to(outs[0])
                        for p in outs[0].rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(outs[1])
                        for p in outs[1].rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()

    def test_taint_log_written(self, d1_files, tmp_path):
        trace, _ = d1_files
        log = tmp_path / "taint.log"
        assert main(["unpack", str(trace), "-o", str(tmp_path / "o"),
                     "--taint-log", str(log)]) == 0
        first = log.read_text().splitlines()[0]
        assert "tainted_instr:" in first

    def test_output_path_is_a_file_exits_1(self, d1_files, tmp_path, capsys):
        trace, _ = d1_files
        (tmp_path / "o").write_text("not a directory")
        assert main(["unpack", str(trace), "-o", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "error: " in err and "Traceback" not in err

    @pytest.mark.parametrize("option", ["--taint-log", "--report"])
    def test_option_over_the_trace_exits_1(self, option, d1_files, tmp_path,
                                           capsys):
        trace, _ = d1_files
        before = trace.read_bytes()
        out = tmp_path / "o"
        assert main(["unpack", str(trace), "-o", str(out),
                     option, str(trace)]) == 1
        assert capsys.readouterr().err == \
            f"error: {option}: {trace} is the trace being read\n"
        assert trace.read_bytes() == before and not out.exists()

    def test_report_over_the_taint_log_exits_1(self, d1_files, tmp_path,
                                               capsys):
        trace, _ = d1_files
        out, path, alias = tmp_path / "o", tmp_path / "x", f"{tmp_path}/./x"
        # neither exists yet: two spellings of one path
        assert main(["unpack", str(trace), "-o", str(out),
                     "--taint-log", str(path), "--report", alias]) == 1
        assert capsys.readouterr().err == \
            f"error: --report: {alias} is the --taint-log path too\n"
        assert not out.exists() and not path.exists()

    def test_unwritable_taint_log_exits_1(self, d1_files, tmp_path, capsys):
        trace, _ = d1_files
        log = tmp_path / "missing" / "taint.log"
        assert main(["unpack", str(trace), "-o", str(tmp_path / "o"),
                     "--taint-log", str(log)]) == 1
        err = capsys.readouterr().err
        assert "--taint-log" in err and "Traceback" not in err


def _tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


class TestOutputDirectory:
    def test_rerun_leaves_only_this_runs_tree(self, tmp_path, capsys):
        traces = {}
        for sid in ("d3", "d1"):
            traces[sid] = tmp_path / f"{sid}.jsonl"
            assert main(["gen", sid, "--seed", "4", "-o", str(traces[sid]),
                         "--truth", str(tmp_path / f"{sid}.json")]) == 0
        shared, fresh = tmp_path / "shared", tmp_path / "fresh"
        for trace, out in ((traces["d3"], shared), (traces["d1"], shared),
                           (traces["d1"], fresh)):
            assert main(["unpack", str(trace), "-o", str(out),
                         "--no-timing"]) == 0
        assert main(["check", str(traces["d1"]), str(shared)]) == 0
        assert _tree(shared) == _tree(fresh)

    def test_rerun_keeps_foreign_files(self, d1_files, tmp_path):
        trace, _ = d1_files
        out = tmp_path / "out"
        out.mkdir()
        for _ in range(2):
            assert main(["unpack", str(trace), "-o", str(out),
                         "--taint-log", str(out / "taint.log")]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["api_calls.jsonl", "pid100", "report.json",
                         "taint.log"]

    @pytest.mark.parametrize("option", ["--taint-log", "--report"])
    @pytest.mark.parametrize("rel", ["api_calls.jsonl", "pid100/wave0/x",
                                     "pid7/x", "."])
    def test_path_the_tree_replaces_exits_1(self, option, rel, d1_files,
                                            tmp_path, capsys):
        trace, _ = d1_files
        out = tmp_path / "out"
        assert main(["unpack", str(trace), "-o", str(out)]) == 0
        before = _tree(out)
        capsys.readouterr()
        path = f"{out}/{rel}"
        # refused before the trace is opened: this one does not exist
        assert main(["unpack", str(tmp_path / "none.jsonl"), "-o", str(out),
                     option, path]) == 1
        assert capsys.readouterr().err == (
            f"error: {option}: {path} is replaced by the tree unpack "
            f"writes to {out}\n")
        assert _tree(out) == before

    def test_taint_log_creates_the_output_directory(self, d1_files, tmp_path,
                                                    capsys):
        trace, _ = d1_files
        out = tmp_path / "new" / "out"
        # -o is made for the log, the directories below it are not
        assert main(["unpack", str(trace), "-o", str(out),
                     "--taint-log", str(out / "logs" / "taint.log")]) == 1
        assert "No such file or directory" in capsys.readouterr().err
        # and the failed run takes away the directories it made
        assert not (tmp_path / "new").exists()
        assert main(["unpack", str(trace), "-o", str(out),
                     "--taint-log", str(out / "taint.log")]) == 0
        assert "tainted_instr:" in (out / "taint.log").read_text()
        capsys.readouterr()
        assert main(["check", str(trace), str(out)]) == 0
        assert capsys.readouterr().out == "OK, 0 violations\n"

    def test_report_path_inside_output_directory(self, d1_files, tmp_path):
        trace, _ = d1_files
        out = tmp_path / "out"
        assert main(["unpack", str(trace), "-o", str(out),
                     "--report", str(out / "report.json")]) == 0
        assert json.loads((out / "report.json").read_text())["summary"]
        assert main(["check", str(trace), str(out)]) == 0

    def test_failed_report_copy_leaves_the_tree_as_it_was(self, d1_files,
                                                          tmp_path, capsys):
        trace, _ = d1_files
        out = tmp_path / "out"
        assert main(["unpack", str(trace), "-o", str(out)]) == 0
        before = _tree(out)
        assert main(["unpack", str(trace), "-o", str(out), "--no-timing",
                     "--report", str(tmp_path / "missing" / "r.json")]) == 1
        err = capsys.readouterr().err
        assert "error: " in err and "Traceback" not in err
        assert _tree(out) == before
        assert sorted(p.name for p in out.iterdir()) == \
            ["api_calls.jsonl", "pid100", "report.json"]
        assert main(["check", str(trace), str(out)]) == 0
        # a new -o, and the missing directory above it, are taken away again
        assert main(["unpack", str(trace), "-o", str(tmp_path / "new" / "out"),
                     "--report", str(tmp_path / "missing" / "r.json")]) == 1
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("rel", ["report.json", "pid100", "pid100/wave0/x",
                                     "."])
    def test_trace_the_tree_replaces_exits_1(self, rel, d1_files, tmp_path,
                                             capsys):
        trace, _ = d1_files
        out = tmp_path / "out"
        assert main(["unpack", str(trace), "-o", str(out)]) == 0
        moved = out / rel  # the trace, moved to where the tree writes
        if moved.is_dir():
            shutil.rmtree(moved)
        moved.parent.mkdir(parents=True, exist_ok=True)
        trace.replace(moved)
        before = _tree(tmp_path)
        capsys.readouterr()
        assert main(["unpack", str(moved), "-o", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: trace: {moved} is replaced by the tree unpack "
            f"writes to {out}\n")
        assert _tree(tmp_path) == before

    @pytest.mark.parametrize("option", ["--report", "--taint-log", "-o"])
    def test_symlink_loop_exits_1(self, option, d1_files, tmp_path, capsys):
        trace, _ = d1_files
        before = _tree(tmp_path)
        loop, out = tmp_path / "loop", tmp_path / "out"
        loop.symlink_to("loop")
        assert main(["unpack", str(trace), "-o", str(out),
                     option, str(loop)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert _tree(tmp_path) == before and not out.exists()

    @pytest.mark.parametrize("log", [False, True])
    def test_dangling_output_link_exits_1(self, log, d1_files, tmp_path,
                                          capsys):
        # -o is made as spelled: the link's target is not made for it
        trace, _ = d1_files
        out = tmp_path / "out"
        out.symlink_to("target")
        argv = ["unpack", str(trace), "-o", str(out)]
        if log:  # a log inside -o has -o made for it
            argv += ["--taint-log", str(out / "t.log")]
        assert main(argv) == 1
        assert "File exists" in capsys.readouterr().err
        assert not (tmp_path / "target").exists()

    def test_negative_pid_tree_is_owned(self, tmp_path, capsys):
        # an unpack names the process pid-100; a rerun replaces that tree
        # and check sees a stray file in it
        trace, out = tmp_path / "t.jsonl", tmp_path / "out"
        _write_negative_pid_trace(trace)
        for _ in range(2):
            assert main(["unpack", str(trace), "-o", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == \
            ["api_calls.jsonl", "pid-100", "report.json"]
        assert main(["check", str(trace), str(out)]) == 0
        (out / "pid-100" / "wave0" / "stray.txt").write_text("x")
        capsys.readouterr()
        assert main(["check", str(trace), str(out)]) == 1
        assert capsys.readouterr().out == \
            "integrity: pid-100/wave0/stray.txt: not rendered\n"


def _write_negative_pid_trace(path):
    """d1 at seed 0 with the malware's pid 100 changed to -100."""
    trace, _ = generate_scenario("d1", 0)

    def pid(value):
        return -100 if value == 100 else value

    def locs(held):
        return tuple(loc._replace(space_pid=pid(loc.space_pid))
                     for loc in held)

    events = [dataclasses.replace(ev, pid=pid(ev.pid), reads=locs(ev.reads),
                                  writes=locs(ev.writes))
              for ev in trace.events]
    path.write_bytes(write_trace(dataclasses.replace(trace, events=events)))


@pytest.fixture(scope="module")
def path_world(tmp_path_factory):
    """The d1 trace, its taint log, and an earlier tree to unpack over,
    whose report.json and a stray pid100/wave0/x hold the trace's bytes."""
    root = tmp_path_factory.mktemp("world")
    trace = root / "t.jsonl"
    trace.write_bytes(write_trace(generate_scenario("d1", 5)[0]))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["unpack", str(trace), "-o", str(root / "tree"),
                     "--taint-log", str(root / "t.log")]) == 0
    for rel in ("report.json", "pid100/wave0/x"):
        shutil.copyfile(trace, root / "tree" / rel)
    return root


# where a path may lead, relative to the example's directory ({o} is -o as
# spelled): the trace, a new name, one under a missing directory, and names
# in -o, all owned but t.log; -o leads to the earlier tree, a new name, one
# under a missing directory, the trace or an empty directory
_TARGETS = ["t.jsonl", "a", "missing/a", "{o}", "{o}/report.json",
            "{o}/pid100/wave0/x", "{o}/t.log"]
_OUT_TARGETS = ["tree", "new", "missing/new", "t.jsonl", "dir"]


def _spellings(targets):
    """A target as is, through sub/.. or through a symlink; or a dangling
    symlink, a symlink loop or a directory."""
    return st.sampled_from([(form, target)
                            for form in ("as is", "sub/..", "link")
                            for target in targets]
                           + ["dangling", "loop", "dir"])


def _spell(root: Path, spelling, out: str = "") -> str:
    """The path, relative to `root`, that `spelling` gives, making the
    symlink a "link" spelling needs."""
    if isinstance(spelling, str):
        return spelling
    form, target = spelling
    target = target.format(o=out)
    if form == "as is":
        return target
    if form == "sub/..":
        return f"sub/../{target}"
    link = f"link{len(list(root.glob('link*')))}"
    (root / link).symlink_to(root / target)
    return link


def _listing(root: Path) -> dict:
    """Each path below `root`: a link's target, a file's bytes, or None for
    a directory."""
    found = {}
    for top, dirs, files in os.walk(root):
        for name in dirs + files:
            path = os.path.join(top, name)
            found[os.path.relpath(path, root)] = (
                os.readlink(path) if os.path.islink(path)
                else None if os.path.isdir(path) else Path(path).read_bytes())
    return found


class TestPathRoles:
    @settings(max_examples=150, deadline=None)
    @given(out=_spellings(_OUT_TARGETS),
           trace=st.just(("as is", "t.jsonl")) | _spellings(_TARGETS),
           report=st.none() | _spellings(_TARGETS),
           log=st.none() | _spellings(_TARGETS))
    # the trace in the tree -o replaces, a symlink loop as each role, -o a
    # dangling link, and failures after a new -o is made, or a log written
    @example(out=("as is", "tree"), trace=("as is", "{o}/report.json"),
             report=None, log=None)
    @example(out=("as is", "tree"), trace=("as is", "{o}/pid100/wave0/x"),
             report=None, log=None)
    @example(out=("as is", "new"), trace=("as is", "t.jsonl"), report="loop",
             log=None)
    @example(out=("as is", "new"), trace=("as is", "t.jsonl"), report=None,
             log="loop")
    @example(out="loop", trace=("as is", "t.jsonl"), report=None, log=None)
    @example(out="dangling", trace=("as is", "t.jsonl"), report=None,
             log=("as is", "{o}/t.log"))
    @example(out=("as is", "missing/new"), trace=("as is", "t.jsonl"),
             report=("as is", "missing/a"), log=None)
    @example(out=("as is", "missing/new"), trace=("as is", "t.jsonl"),
             report="dir", log=("as is", "{o}/t.log"))
    @example(out=("as is", "new"), trace=("as is", "t.jsonl"), report="dir",
             log=("as is", "a"))
    def test_no_clash_harms_a_file(self, path_world, tmp_path_factory, out,
                                   trace, report, log):
        """Whatever the four paths are, unpack exits 0, 1 or 2 and the trace
        keeps its bytes; an exit 1 leaves every file as it was, but for a
        taint log written before the failure."""
        root = Path(os.path.realpath(tmp_path_factory.mktemp("roles")))
        shutil.copyfile(path_world / "t.jsonl", root / "t.jsonl")
        if isinstance(out, tuple) and out[1] == "tree":  # only -o leads there
            shutil.copytree(path_world / "tree", root / "tree")
        (root / "sub").mkdir()
        (root / "dir").mkdir()
        (root / "dangling").symlink_to("nothere")
        (root / "loop").symlink_to("loop")
        out = _spell(root, out)
        paths = {option: spelling and f"{root}/{_spell(root, spelling, out)}"
                 for option, spelling in (("trace", trace), ("-o", out),
                                          ("--report", report),
                                          ("--taint-log", log))}
        argv = ["unpack", paths["trace"]]
        for option in ("-o", "--report", "--taint-log"):
            argv += [option, paths[option]] if paths[option] else []
        trace_path = Path(paths["trace"])
        trace_bytes = trace_path.read_bytes() if trace_path.is_file() else None
        before = _listing(root)

        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert code in (0, 1, 2), stderr.getvalue()
        if trace_bytes is not None:
            assert trace_path.read_bytes() == trace_bytes
        if code != 1:
            return
        assert stderr.getvalue().startswith("error: ")
        after = _listing(root)
        # the taint log is written when the replay ends, before the tree, so
        # a later failure leaves it, and the directories made for it, behind
        log_path = paths["--taint-log"] and os.path.realpath(
            paths["--taint-log"])
        if log_path and Path(log_path).is_file() and \
                Path(log_path).read_bytes() == (path_world / "t.log").read_bytes():
            rel = os.path.relpath(log_path, root)
            before.pop(rel, None)
            after.pop(rel)
            while (rel := os.path.dirname(rel)) and rel not in before:
                after.pop(rel)
        assert after == before


def _typed_trace() -> list[dict]:
    """Header, image, module, one instruction with every optional key, exit."""
    return [
        {"format": 1, "page_size": 4096},
        {"kind": "image", "pid": 1, "base": 0x400000, "gbase": 0x1000,
         "name": "t.exe", "bytes": "90c3"},
        {"kind": "module", "pid": 1, "base": 0x77000000, "name": "kernel32",
         "exports": [{"name": "Sleep", "rva": 0x10}]},
        {"kind": "instr", "seq": 1, "pid": 1, "tid": 1, "vaddr": 0x400000,
         "gaddr": 0x1000, "bytes": "90",
         "reads": [{"g": 0x1001, "v": 0x400001, "space_pid": 1, "val": 0xC3}],
         "writes": [], "rregs": ["eax"], "wregs": ["ebx"],
         "branch": {"target_vaddr": 0x77000010, "btype": "call"},
         "stack_top": 0x400001, "regvals": {"eax": 0}},
        {"kind": "procexit", "pid": 1},
    ]


def _set(line, path, value):
    def apply(objs):
        obj = objs[line - 1]
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
    return apply


# (line the error is reported on, mutation of the trace objects)
_MISTYPED = {
    "seq-string": (4, _set(4, ["seq"], "a")),
    "vaddr-null": (4, _set(4, ["vaddr"], None)),
    "pid-string": (4, _set(4, ["pid"], "x")),
    "reads-int": (4, _set(4, ["reads"], 5)),
    "format-99": (1, _set(1, ["format"], 99)),
    "tid-bool": (4, _set(4, ["tid"], True)),
    "gaddr-float": (4, _set(4, ["gaddr"], 4096.0)),
    "bytes-int": (4, _set(4, ["bytes"], 144)),
    "writes-dict": (4, _set(4, ["writes"], {})),
    "read-not-object": (4, _set(4, ["reads"], [7])),
    "read-val-string": (4, _set(4, ["reads", 0, "val"], "c3")),
    "read-g-bool": (4, _set(4, ["reads", 0, "g"], False)),
    "rregs-int-entry": (4, _set(4, ["rregs"], [0])),
    "wregs-string": (4, _set(4, ["wregs"], "ebx")),
    "regvals-list": (4, _set(4, ["regvals"], [0])),
    "regvals-string-value": (4, _set(4, ["regvals", "eax"], "0")),
    "stack-top-null": (4, _set(4, ["stack_top"], None)),
    "branch-list": (4, _set(4, ["branch"], [])),
    "branch-target-string": (4, _set(4, ["branch", "target_vaddr"], "x")),
    "image-base-null": (2, _set(2, ["base"], None)),
    "image-name-int": (2, _set(2, ["name"], 1)),
    "module-exports-string": (3, _set(3, ["exports"], "Sleep")),
    "export-rva-string": (3, _set(3, ["exports", 0, "rva"], "0x10")),
    "procexit-pid-bool": (5, _set(5, ["pid"], True)),
    "event-not-object": (5, lambda objs: objs.__setitem__(4, [1])),
    "format-string": (1, _set(1, ["format"], "1")),
}


class TestTypedValidation:
    def test_unmutated_trace_unpacks(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("".join(json.dumps(o) + "\n" for o in _typed_trace()))
        assert main(["unpack", str(path), "-o", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("case", sorted(_MISTYPED))
    def test_mistyped_field_exits_1(self, case, tmp_path, capsys):
        line, mutate = _MISTYPED[case]
        objs = _typed_trace()
        mutate(objs)
        path = tmp_path / "t.jsonl"
        path.write_text("".join(json.dumps(o) + "\n" for o in objs))
        assert main(["unpack", str(path), "-o", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"line {line}: " in err
        assert "Traceback" not in err


class TestCheck:
    def test_fresh_output_is_ok(self, d1_files, tmp_path, capsys):
        trace, _ = d1_files
        out = tmp_path / "out"
        main(["unpack", str(trace), "-o", str(out)])
        assert main(["check", str(trace), str(out)]) == 0
        assert "OK, 0 violations" in capsys.readouterr().out

    def test_deleted_instruction_detected(self, d1_files, tmp_path, capsys):
        trace, _ = d1_files
        out = tmp_path / "out"
        main(["unpack", str(trace), "-o", str(out)])
        instrs = out / "pid100" / "wave1" / "instrs.jsonl"
        lines = instrs.read_text().splitlines()
        instrs.write_text("\n".join(lines[:-1]) + "\n")
        assert main(["check", str(trace), str(out)]) == 2
        assert "violation" in capsys.readouterr().out

    def test_missing_page_dump_is_integrity_error(self, d1_files, tmp_path,
                                                  capsys):
        trace, _ = d1_files
        out = tmp_path / "out"
        main(["unpack", str(trace), "-o", str(out)])
        page = next((out / "pid100" / "wave0" / "pages").glob("*.bin"))
        page.unlink()
        assert main(["check", str(trace), str(out)]) == 1
        assert (f"integrity: pid100/wave0/pages/{page.name}: missing\n"
                in capsys.readouterr().out)

    def test_tampered_page_reported(self, d1_files, tmp_path, capsys):
        trace, _ = d1_files
        out = tmp_path / "out"
        main(["unpack", str(trace), "-o", str(out)])
        page = next((out / "pid100" / "wave0" / "pages").glob("*.bin"))
        page.write_bytes(b"\xff" * 4096)
        assert main(["check", str(trace), str(out)]) == 1
        assert "differs" in capsys.readouterr().out

    def test_report_compared_byte_for_byte(self, d1_files, tmp_path, capsys):
        trace, _ = d1_files
        out = tmp_path / "out"
        main(["unpack", str(trace), "-o", str(out)])
        with open(out / "report.json", "a") as fh:
            fh.write("\n\n")
        capsys.readouterr()
        assert main(["check", str(trace), str(out)]) == 1
        assert "integrity: report.json: differs\n" in capsys.readouterr().out

    def test_missing_report_is_integrity_error(self, d1_files, tmp_path,
                                               capsys):
        trace, _ = d1_files
        out = tmp_path / "out"
        main(["unpack", str(trace), "-o", str(out)])
        (out / "report.json").unlink()
        capsys.readouterr()
        assert main(["check", str(trace), str(out)]) == 1
        assert "integrity: report.json: missing\n" in capsys.readouterr().out

    def test_integrity_lines_precede_parse_error(self, d1_files, tmp_path,
                                                 capsys):
        trace, _ = d1_files
        out = tmp_path / "out"
        main(["unpack", str(trace), "-o", str(out)])
        (out / "pid100" / "wave5").mkdir()
        capsys.readouterr()
        assert main(["check", str(trace), str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "integrity: pid100/wave5: not rendered\n"
        assert captured.err.startswith("error: ")
        assert "wave5/instrs.jsonl" in captured.err

    @pytest.mark.parametrize("option", [
        ["--no-timing"], ["--strict-semantics"],
        ["--report", "{dir}/report-copy.json"],
        ["--taint-log", "{out}/taint.log"]],
        ids=["no-timing", "strict-semantics", "report", "taint-log"])
    def test_every_option_writes_a_tree_that_checks_clean(
            self, option, d1_files, tmp_path, capsys):
        trace, _ = d1_files
        out = tmp_path / "out"
        assert main(["unpack", str(trace), "-o", str(out),
                     *(a.format(dir=tmp_path, out=out) for a in option)]) == 0
        capsys.readouterr()
        assert main(["check", str(trace), str(out)]) == 0
        assert capsys.readouterr().out == "OK, 0 violations\n"
        if option[0] == "--report":
            assert (tmp_path / "report-copy.json").read_bytes() == \
                (out / "report.json").read_bytes()


def _write_lines(path, keep):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(keep(lines)))


def _set_page_size(out, size):
    report = out / "report.json"
    report.write_text(json.dumps(dict(json.loads(report.read_text()),
                                      page_size=size)))


def _drop_vaddr(lines):
    obj = json.loads(lines[0])
    del obj["vaddr"]
    return [json.dumps(obj) + "\n"] + lines[1:]


# (damage to an unpacked d1 tree, exit code, text on stderr or stdout)
_DAMAGED_TREES = {
    "instrs-not-json": (
        lambda out: _write_lines(out / "pid100" / "wave1" / "instrs.jsonl",
                                 lambda ls: ls[:1] + ["not json\n"] + ls[2:]),
        1, "wave1/instrs.jsonl: line 2: "),
    "instrs-missing-vaddr": (
        lambda out: _write_lines(out / "pid100" / "wave0" / "instrs.jsonl",
                                 _drop_vaddr),
        1, "wave0/instrs.jsonl: line 1: missing key 'vaddr'"),
    "shadow-truncated": (
        lambda out: _write_lines(out / "pid100" / "wave0" / "shadow.json",
                                 lambda ls: ["".join(ls)[:-20]]),
        1, "wave0/shadow.json: "),
    "shadow-string-address": (
        lambda out: (out / "pid100" / "wave0" / "shadow.json").write_text(
            '[["0x5000000", 144]]'),
        1, "wave0/shadow.json: addresses must be integers"),
    "shadow-byte-too-large": (
        lambda out: (out / "pid100" / "wave0" / "shadow.json").write_text(
            '[[4476928, 144], [4476929, 300]]'),
        1, "wave0/shadow.json: byte must be in range(0, 256)"),
    "shadow-float-byte": (
        lambda out: (out / "pid100" / "wave0" / "shadow.json").write_text(
            '[[4476928, 10000.0]]'),
        1, "wave0/shadow.json: bytes must be integers"),
    "foreign-pid-directory": (
        lambda out: (out / "pidx" / "wave0").mkdir(parents=True),
        0, "OK, 0 violations"),
    "missing-directory": (
        lambda out: shutil.rmtree(out),
        1, "No such file or directory"),
    # the page size is the trace header's: a stored one is only compared
    "report-page-size-not-power-of-two": (
        lambda out: _set_page_size(out, 12288),
        1, "integrity: report.json: differs\n"),
    "report-page-size-too-large": (
        lambda out: _set_page_size(out, 1 << 34),
        1, "integrity: report.json: differs\n"),
    "report-page-size-string": (
        lambda out: _set_page_size(out, "4096"),
        1, "integrity: report.json: differs\n"),
    "report-not-json": (
        lambda out: (out / "report.json").write_text("not json"),
        1, "integrity: report.json: differs\n"),
    # a rendered path that is a directory is read as damage, not raised
    "report-directory": (
        lambda out: ((out / "report.json").unlink(),
                     (out / "report.json").mkdir()),
        1, "integrity: report.json: differs\n"),
    "groups-directory": (
        lambda out: ((out / "pid100" / "wave1" / "groups.json").unlink(),
                     (out / "pid100" / "wave1" / "groups.json").mkdir()),
        1, "integrity: pid100/wave1/groups.json: differs\n"),
    # anything under a name a rerun would replace is unpack's
    "stray-file-in-pid-directory": (
        lambda out: (out / "pid100" / "stray.txt").write_text("x"),
        1, "integrity: pid100/stray.txt: not rendered\n"),
    "stray-directory-in-pid-directory": (
        lambda out: (out / "pid100" / "wavex").mkdir(),
        1, "integrity: pid100/wavex: not rendered\n"),
    "empty-pid-directory": (
        lambda out: (out / "pid7").mkdir(),
        1, "integrity: pid7: not rendered\n"),
    "pid-file": (
        lambda out: (out / "pid7").write_text("x"),
        1, "integrity: pid7: not rendered\n"),
}


class TestCheckDamagedTree:
    @pytest.mark.parametrize("case", sorted(_DAMAGED_TREES))
    def test_damage_is_reported_not_raised(self, case, d1_files, tmp_path,
                                           capsys):
        damage, code, text = _DAMAGED_TREES[case]
        trace, _ = d1_files
        out = tmp_path / "out"
        assert main(["unpack", str(trace), "-o", str(out)]) == 0
        damage(out)
        capsys.readouterr()
        assert main(["check", str(trace), str(out)]) == code
        captured = capsys.readouterr()
        # integrity lines and a clean result are printed, errors go to stderr
        printed = text.startswith("integrity: ") or not code
        assert text in (captured.out if printed else captured.err)
        assert "Traceback" not in captured.err


@pytest.fixture(scope="module")
def scenario_trees(tmp_path_factory):
    """(trace, untimed unpacked tree) of every scenario, unpacked once.

    Untimed, so every byte of every file is compared: check carries a
    stored timing over instead of comparing it.
    """
    root = tmp_path_factory.mktemp("scenario-trees")
    trees = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for sid in SCENARIO_IDS:
            trace, out = root / f"{sid}.jsonl", root / sid
            assert main(["gen", sid, "--seed", "3", "-o", str(trace),
                         "--truth", str(root / f"{sid}.json")]) == 0
            assert main(["unpack", str(trace), "-o", str(out),
                         "--no-timing"]) == 0
            trees[sid] = trace, out
    return trees


def _damage(out: Path, draw):
    """Apply one drawn damage to the files and wave directories of a tree."""
    files = sorted(p for p in out.rglob("*") if p.is_file())
    kind = draw(st.sampled_from(["flip", "truncate", "delete", "append",
                                 "stray", "empty-wave"]))
    if kind in ("flip", "truncate"):
        path = draw(st.sampled_from([p for p in files if p.stat().st_size]))
        data = bytearray(path.read_bytes())
        at = draw(st.integers(0, len(data) - 1))
        if kind == "flip":
            data[at] ^= draw(st.integers(1, 255))
        else:
            del data[at:]
        path.write_bytes(bytes(data))
    elif kind == "delete":
        draw(st.sampled_from(files)).unlink()
    elif kind == "append":
        path = draw(st.sampled_from(files))
        with open(path, "ab") as fh:
            fh.write(draw(st.binary(min_size=1, max_size=8)))
    elif kind == "stray":
        # a file in a directory unpack wrote, or a pid<N> entry of its own
        dirs = sorted({p.parent for p in files if p.parent != out}
                      | set(out.glob("pid*")))
        where = draw(st.sampled_from([*dirs, out]))
        if where != out:
            (where / "stray").write_bytes(b"")
        elif draw(st.booleans()):
            (out / "pid999").mkdir()
        else:
            (out / "pid999").write_bytes(b"")
    else:
        pid = draw(st.sampled_from(
            sorted(p.name for p in out.glob("pid*")) + ["pid999"]))
        taken = {p.name for p in out.glob(f"{pid}/wave*")}
        wave = next(f"wave{n}" for n in range(99) if f"wave{n}" not in taken)
        (out / pid / wave).mkdir(parents=True)


class TestCheckDamagedFile:
    @settings(max_examples=60, deadline=None)
    @given(sid=st.sampled_from(SCENARIO_IDS), data=st.data())
    def test_damaged_tree_never_checks_clean(self, scenario_trees,
                                             tmp_path_factory, sid, data):
        trace, clean = scenario_trees[sid]
        out = tmp_path_factory.mktemp("damaged") / "out"
        shutil.copytree(clean, out)
        _damage(out, data.draw)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main(["check", str(trace), str(out)])
        assert code in (1, 2), stdout.getvalue()
        assert "Traceback" not in stderr.getvalue()


def _write_mismatched_site_trace(path):
    """d1 where a benign write flips a call site's first byte after the call.

    Seqs are doubled to make room for the writer right after the 6-byte
    `ff 15` call, so the dumped site no longer matches the traced bytes.
    """
    trace, _ = generate_scenario("d1", 1)
    events = []
    for ev in trace.events:
        if ev.kind == "instr":
            ev = dataclasses.replace(ev, seq=2 * ev.seq)
        events.append(ev)
        if ev.kind == "instr" and ev.vaddr == 0x5007001:
            assert ev.bytes[:2] == b"\xff\x15" and len(ev.bytes) == 6
            flip = MemLoc(ev.gaddr, ev.vaddr, ev.pid, ev.bytes[0] ^ 0xFF)
            events.append(TraceEvent(kind="instr", pid=300, seq=ev.seq + 1,
                                     tid=1, vaddr=0x700000, gaddr=0x7000000,
                                     bytes=b"\x90", writes=(flip,)))
    trace.events = events
    path.write_bytes(write_trace(trace))


class TestPipelineErrors:
    @pytest.mark.parametrize("command", ["unpack", "check"])
    def test_patch_mismatch_exits_2(self, command, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        _write_mismatched_site_trace(trace)
        out = str(tmp_path / "out")
        args = ([command, str(trace), "-o", out] if command == "unpack"
                else [command, str(trace), out])
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "error: dump/trace mismatch at 0x5007001" in err
        assert "Traceback" not in err

    def test_unpack_mismatch_still_writes_the_taint_log(self, tmp_path):
        # the trace was read to its end: its log is kept for debugging
        trace, log = tmp_path / "t.jsonl", tmp_path / "taint.log"
        _write_mismatched_site_trace(trace)
        assert main(["unpack", str(trace), "-o", str(tmp_path / "out"),
                     "--taint-log", str(log)]) == 2
        assert "tainted_instr:" in log.read_text()


def _shift_image(trace: Path, delta: int) -> int:
    """Move the trace's image by `delta`; returns the image's line number."""
    lines = trace.read_text().splitlines(keepends=True)
    for number, line in enumerate(lines, start=1):
        obj = json.loads(line)
        if obj.get("kind") == "image":
            obj["base"] += delta
            lines[number - 1] = json.dumps(obj) + "\n"
            trace.write_text("".join(lines))
            return number
    raise AssertionError("no image event")


def _run(command: str, trace, out) -> int:
    args = ([command, str(trace), "-o", str(out)] if command == "unpack"
            else [command, str(trace), str(out)])
    return main(args)


class TestAddressSpaceEnds:
    @pytest.mark.parametrize("command", ["unpack", "check"])
    @pytest.mark.parametrize("delta", [1 << 32, -0x10000000])
    def test_image_outside_32_bits_exits_1(self, command, delta, d1_files,
                                           tmp_path, capsys):
        trace, _ = d1_files
        line = _shift_image(trace, delta)
        assert _run(command, trace, tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert f"error: {trace}: line {line}: image at " in err
        assert "does not fit in 32 bits" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["unpack", "check"])
    def test_code_on_the_top_page_exits_2(self, command, tmp_path, capsys):
        top = 0xFFFFF000
        trace = tmp_path / "t.jsonl"
        trace.write_bytes(write_trace(SystemTrace(events=[
            TraceEvent(kind="image", pid=1, base=top, gbase=0x1000,
                       name="t.exe", bytes=b"\x90" * 0x1000),
            TraceEvent(kind="instr", pid=1, seq=1, tid=1, vaddr=top,
                       gaddr=0x1000, bytes=b"\x90"),
            TraceEvent(kind="procexit", pid=1),
        ])))
        assert _run(command, trace, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "error: section .wseg0 at 0xfffff000 does not fit in a 32-bit " \
               "image" in err
        assert "Traceback" not in err


def test_unpack_and_check_name_the_trace_in_parse_errors(tmp_path, capsys):
    trace = tmp_path / "bad.jsonl"
    trace.write_text('{"format": 1}\n{"kind": "bogus", "pid": 1}\n')
    errors = []
    for command in ("unpack", "check"):
        assert _run(command, trace, tmp_path / "out") == 1
        errors.append(capsys.readouterr().err)
    assert errors == [f"error: {trace}: line 2: unknown event kind 'bogus'\n"] * 2


def _write_taint_dies_early_trace(path, benign=200) -> int:
    """A one-byte image that runs once, then a benign write over that byte,
    so taint dies at line 4; `benign` benign instructions follow, and the
    last line is malformed. Returns that line's number."""
    image = TraceEvent(kind="image", pid=1, base=0x400000, gbase=0x1000,
                       name="t.exe", bytes=b"\x90")
    run = TraceEvent(kind="instr", pid=1, seq=1, tid=1, vaddr=0x400000,
                     gaddr=0x1000, bytes=b"\x90")
    # mov byte [0x400000], 0 in another process, through a shared mapping
    wipe = TraceEvent(kind="instr", pid=300, seq=2, tid=1, vaddr=0x700000,
                      gaddr=0x9000, bytes=b"\xc6\x05\x00\x00\x40\x00\x00",
                      writes=(MemLoc(0x1000, 0x400000, 1, 0),))
    rest = [TraceEvent(kind="instr", pid=300, seq=3 + i, tid=1,
                       vaddr=0x700007, gaddr=0x9007, bytes=b"\x90")
            for i in range(benign)]
    path.write_bytes(write_trace(SystemTrace(events=[image, run, wipe, *rest]))
                     + b'{"kind": "wat"}\n')
    return 5 + benign


class TestStreamedTrace:
    def test_unpack_after_taint_dies_still_reads_to_the_bad_line(
            self, tmp_path, capsys):
        trace, out = tmp_path / "t.jsonl", tmp_path / "out"
        log = tmp_path / "taint.log"
        line = _write_taint_dies_early_trace(trace)
        assert main(["unpack", str(trace), "-o", str(out),
                     "--taint-log", str(log)]) == 1
        assert capsys.readouterr().err == \
            f"error: {trace}: line {line}: unknown event kind 'wat'\n"
        assert not out.exists() and not log.exists()

    def test_check_after_taint_dies_still_reads_to_the_bad_line(
            self, tmp_path, capsys):
        trace, out = tmp_path / "t.jsonl", tmp_path / "out"
        line = _write_taint_dies_early_trace(trace)
        good = tmp_path / "good.jsonl"
        good.write_bytes(trace.read_bytes().rsplit(b"\n", 2)[0] + b"\n")
        log = tmp_path / "taint.log"
        assert main(["unpack", str(good), "-o", str(out),
                     "--taint-log", str(log)]) == 0
        assert len(log.read_text().splitlines()) == 2  # replayed to seq 2
        assert main(["check", str(good), str(out)]) == 0
        capsys.readouterr()
        assert main(["check", str(trace), str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"error: {trace}: line {line}: unknown event kind 'wat'\n"

    @pytest.mark.parametrize("argv", [
        ["unpack", "{trace}", "-o", "{out}", "--taint-log", "{dir}/no/log"],
        ["check", "{trace}", "{dir}/damaged"]])
    def test_bad_line_is_reported_before_other_errors(self, argv, tmp_path,
                                                      capsys):
        # as when the whole trace was parsed before anything else was done
        trace, out = tmp_path / "t.jsonl", tmp_path / "out"
        line = _write_taint_dies_early_trace(trace)
        (tmp_path / "damaged").mkdir()
        (tmp_path / "damaged" / "report.json").write_text("not json")
        assert main([a.format(trace=trace, out=out, dir=tmp_path)
                     for a in argv]) == 1
        assert capsys.readouterr().err == \
            f"error: {trace}: line {line}: unknown event kind 'wat'\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["file", "symlink", "fifo"])
    def test_bad_trace_leaves_an_existing_taint_log_alone(self, kind,
                                                         tmp_path, capsys):
        trace, out = tmp_path / "t.jsonl", tmp_path / "out"
        line = _write_taint_dies_early_trace(trace)
        earlier = tmp_path / "earlier.log"
        earlier.write_text("an earlier run's log\n")
        log = tmp_path / "taint.log"
        reader = None
        if kind == "file":
            log = earlier
        elif kind == "symlink":
            log.symlink_to(earlier)
        else:
            os.mkfifo(log)
            # a reader, so that opening the fifo to write would not block
            reader = os.open(log, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main(["unpack", str(trace), "-o", str(out),
                         "--taint-log", str(log)]) == 1
            if reader is not None:
                assert os.read(reader, 1) == b""  # nothing was written to it
        finally:
            if reader is not None:
                os.close(reader)
        assert capsys.readouterr().err == \
            f"error: {trace}: line {line}: unknown event kind 'wat'\n"
        assert os.path.lexists(log) and not out.exists()
        assert earlier.read_text() == "an earlier run's log\n"
        assert log.is_symlink() == (kind == "symlink")


def _write_undumped_tail_trace(path):
    """A one-page image whose last two bytes start a 5-byte `e9` jmp.

    The jmp runs from the image (case 4: partly shadowed, nothing freshly
    written), so its tail's page never enters the shadow and is not dumped.
    """
    image = bytearray(4096)
    image[0] = 0x90
    image[-2:] = b"\xe9\x00"
    trace = SystemTrace(events=[
        TraceEvent(kind="image", pid=1, base=0x400000, gbase=0x1000,
                   name="t.exe", bytes=bytes(image)),
        TraceEvent(kind="instr", pid=1, seq=1, tid=1, vaddr=0x400000,
                   gaddr=0x1000, bytes=b"\x90"),
        TraceEvent(kind="instr", pid=1, seq=2, tid=1, vaddr=0x400FFE,
                   gaddr=0x1FFE, bytes=b"\xe9\x00\x00\x00\x00"),
        TraceEvent(kind="procexit", pid=1),
    ])
    path.write_bytes(write_trace(trace))


class TestUndumpedInstructionTail:
    @pytest.mark.parametrize("argv, code", [
        (["unpack", "{trace}", "-o", "{out}"], 0),
        (["unpack", "--strict-semantics", "{trace}", "-o", "{out}"], 2),
        (["check", "{trace}", "{out}"], 2)])
    def test_exit_codes(self, argv, code, tmp_path, capsys):
        trace, out = tmp_path / "t.jsonl", tmp_path / "out"
        _write_undumped_tail_trace(trace)
        assert main(["unpack", str(trace), "-o", str(out)]) == 0
        capsys.readouterr()
        assert main([a.format(trace=trace, out=out) for a in argv]) == code
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "byte at 0x401000 missing from shadow" in captured.out
        if argv[0] == "unpack":
            assert "pe_files=1" in captured.out


@pytest.fixture(scope="module")
def scenario_trace_lines():
    """The JSON-Lines text of every scenario at seed 3, split into lines."""
    return {sid: write_trace(generate_scenario(sid, 3)[0]).decode()
            .splitlines(keepends=True) for sid in SCENARIO_IDS}


# values of another JSON type than any field holds
_RETYPED = [None, "x", 1.5, True, [], {}, [1], {"v": 1}]


def _int_paths(obj, path=()):
    """Paths to the integer leaves of a parsed JSON value."""
    if type(obj) is int:
        yield path
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from _int_paths(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _int_paths(value, path + (i,))


def _mutate(lines: list[str], draw) -> list[str]:
    """Apply one drawn mutation to one or two lines of a trace."""
    lines = list(lines)
    kind = draw(st.sampled_from(["delete", "retype", "duplicate", "nudge",
                                 "double", "truncate", "swap"]))
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
        return lines
    if kind == "truncate":
        lines[i] = lines[i][:draw(st.integers(0, len(lines[i]) - 1))]
        return lines
    obj = json.loads(lines[i])
    key = draw(st.sampled_from(sorted(obj)))
    if kind == "delete":
        del obj[key]
    elif kind == "retype":
        obj[key] = draw(st.sampled_from(_RETYPED))
    elif kind == "duplicate":
        # the key again, holding another field's value; the last one wins
        other = json.dumps(obj[draw(st.sampled_from(sorted(obj)))])
        lines[i] = lines[i].rstrip("\n")[:-1] + f', "{key}": {other}}}\n'
        return lines
    else:
        paths = list(_int_paths(obj))
        if not paths:
            return lines
        *parents, leaf = draw(st.sampled_from(paths))
        holder = obj
        for step in parents:
            holder = holder[step]
        if kind == "double":
            holder[leaf] <<= draw(st.integers(1, 40))
        else:
            holder[leaf] += draw(st.sampled_from([-3, -2, -1, 1, 2, 3,
                                                  -(1 << 32), 1 << 32]))
    lines[i] = json.dumps(obj) + "\n"
    return lines


class TestTraceFuzz:
    @settings(max_examples=80, deadline=None)
    @given(sid=st.sampled_from(SCENARIO_IDS), data=st.data())
    def test_mutated_trace_exits_cleanly(self, scenario_trace_lines,
                                         tmp_path_factory, sid, data):
        root = tmp_path_factory.mktemp("fuzz")
        trace, out = root / "t.jsonl", str(root / "out")
        trace.write_text("".join(_mutate(scenario_trace_lines[sid],
                                         data.draw)))
        for argv in (["unpack", str(trace), "-o", out],
                     ["check", str(trace), out]):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = main(argv)
            assert code in (0, 1, 2), (argv[0], stderr.getvalue())
            assert "Traceback" not in stderr.getvalue()


def test_decode_subcommand_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decode", "ff1500100000"])
    assert exc.value.code == 2
    assert "invalid choice: 'decode'" in capsys.readouterr().err


def _rename_in_modules(trace: Path, old: str, new: str) -> None:
    """Rename module `old`, or export `old` of every module, to `new`."""
    lines = trace.read_text().splitlines(keepends=True)
    for number, line in enumerate(lines):
        obj = json.loads(line)
        if obj.get("kind") != "module":
            continue
        if obj["name"] == old:
            obj["name"] = new
        for export in obj["exports"]:
            if export["name"] == old:
                export["name"] = new
        lines[number] = json.dumps(obj) + "\n"
    trace.write_text("".join(lines))


class TestImportNames:
    @pytest.mark.parametrize("command", ["unpack", "check"])
    @pytest.mark.parametrize("old,new,qualified", [
        ("GetModuleHandleA", "GetModuleHandle\u00e9",
         "'kernel32!GetModuleHandle\u00e9'"),
        ("kernel32", "k\u00e9rnel32", "'k\u00e9rnel32!GetModuleHandleA'"),
        ("GetModuleHandleA", "GetModule\0HandleA",
         "'kernel32!GetModule\\x00HandleA'"),
    ])
    def test_called_name_outside_ascii_exits_2(self, command, old, new,
                                               qualified, d1_files, tmp_path,
                                               capsys):
        trace, _ = d1_files
        _rename_in_modules(trace, old, new)
        assert _run(command, trace, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert f"error: cannot import {qualified}: names must be ASCII " \
               f"without NUL" in err
        assert "Traceback" not in err

    def test_uncalled_name_outside_ascii_unpacks(self, d1_files, tmp_path):
        trace, _ = d1_files
        _rename_in_modules(trace, "Sleep", "Sl\u00e9ep\0")
        out = tmp_path / "out"
        assert _run("unpack", trace, out) == 0
        assert _run("check", trace, out) == 0
