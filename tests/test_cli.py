import argparse
import contextlib
import functools
import io
import json
import os
import struct
import subprocess
import sys
import time
import zlib

import pytest

import mpart
from mpart import graph as gr
from mpart import obstruction as ob
from mpart import pattern as pat
from mpart import recognize as rec
from mpart import solver as sv
from mpart import verify as vf
from mpart.cli import build_parser, main
from test_obstruction import drop_k3_from_the_deck_of_k3_plus_k1


def run_cli(*args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(list(args))
    return rc, buf.getvalue()


C5 = gr.to_graph6(gr.cycle(5))
C6 = gr.to_graph6(gr.cycle(6))
TWO_K2 = gr.to_graph6(gr.disjoint_union(gr.complete(2), gr.complete(2)))
# The complement of 24 disjoint edges and a triangle, the triangle's vertices
# last (n = 51): only the triangle keeps it from being covered by two cliques,
# and a chronological search reaches it behind 24 independent choices.
CO_MATCHING_AND_TRIANGLE = gr.to_graph6(gr.complement(
    functools.reduce(gr.disjoint_union, [gr.complete(2)] * 24 + [gr.complete(3)])))


class TestSolve:
    def test_odd_cycle_negative(self):
        rc, out = run_cli("solve", "--matrix", "0*;*0", "--graph", C5)
        assert rc == 1
        assert json.loads(out) == {"result": "no-partition"}

    def test_2k2_negative(self):
        rc, _ = run_cli("solve", "--matrix", "0*;*1", "--graph", TWO_K2)
        assert rc == 1

    def test_p4_witness(self):
        rc, out = run_cli("solve", "--matrix", "0*;*1",
                          "--edges", "4; 0-1, 1-2, 2-3")
        assert rc == 0
        assert out == '{"parts": [0, 1, 1, 0]}\n'
        assert sv.validate(gr.path(4), pat.parse_matrix("0*;*1"), json.loads(out)["parts"])

    @pytest.mark.parametrize("matrix", ["1*;*1", "1*1;*1*;1*1"])
    def test_failure_behind_independent_choices_is_decided(self, matrix):
        rc, out = run_cli("solve", "--matrix", matrix, "--graph", CO_MATCHING_AND_TRIANGLE,
                          "--timeout", "5")
        assert rc == 1
        assert json.loads(out) == {"result": "no-partition"}

    def test_bad_matrix_exit_2(self):
        rc, _ = run_cli("solve", "--matrix", "0*;11", "--graph", C5)
        assert rc == 2

    def test_missing_graph_exit_2(self):
        rc, _ = run_cli("solve", "--matrix", "0*;*0")
        assert rc == 2

    def test_two_graph_sources_exit_2(self):
        rc, _ = run_cli("solve", "--matrix", "0*;*0", "--graph", C5,
                        "--edges", "2; 0-1")
        assert rc == 2

    @pytest.mark.parametrize("command", [("solve", "--graph", C5),
                                         ("check-minimal", "--graph", C5),
                                         ("enumerate", "--max-n", "3")])
    def test_two_matrix_sources_exit_2(self, command, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("01;11")
        data_dir = ("--data-dir", str(tmp_path / "data")) if command[0] == "enumerate" else ()
        rc, out = run_cli(*command, "--matrix", "0*;*1", "--matrix-file", str(path), *data_dir)
        assert rc == 2
        assert out == ""
        assert capsys.readouterr().err == (
            "error: exactly one matrix source required (--matrix or --matrix-file)\n")

    def test_missing_matrix_exit_2(self, capsys):
        rc, _ = run_cli("solve", "--graph", C5)
        assert rc == 2
        assert "exactly one matrix source" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, other", [("--matrix-file", ("--graph", C5)),
                                             ("--graph-file", ("--matrix", "0*;*1"))])
    def test_non_utf8_file_exit_2(self, flag, other, tmp_path, capsys):
        path = tmp_path / "input.txt"
        path.write_bytes(b"\xff\xfe0*;*1")
        rc, _ = run_cli("solve", flag, str(path), *other)
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestCheckMinimal:
    def test_minimal(self):
        rc, out = run_cli("check-minimal", "--matrix", "0*;*0", "--graph", C5)
        assert rc == 0
        data = json.loads(out)
        assert data["status"] == "minimal-obstruction"
        assert len(data["certificate"]["witnesses"]) == 5

    def test_partitionable(self):
        rc, out = run_cli("check-minimal", "--matrix", "0*;*0", "--graph", C6)
        assert json.loads(out)["status"] == "partitionable"

    def test_not_minimal(self):
        g6 = gr.to_graph6(gr.disjoint_union(gr.cycle(3), gr.cycle(3)))
        rc, out = run_cli("check-minimal", "--matrix", "0*;*0", "--graph", g6)
        assert json.loads(out)["status"] == "obstruction-not-minimal"


class TestEnumerate:
    def test_counts_and_catalog(self, tmp_path):
        rc, out = run_cli("enumerate", "--matrix", "0*;*0", "--class", "all",
                          "--max-n", "7", "--data-dir", str(tmp_path))
        assert rc == 0
        data = json.loads(out)
        assert data["counts"] == {"3": 1, "5": 1, "7": 1}
        base = tmp_path / "0s-s0" / "all"
        assert (base / "n5.g6").exists()
        manifest = json.loads((base / "manifest.json").read_text())
        assert manifest["matrix"] == "0*;*0"

    def test_tsv_output(self, tmp_path):
        rc, out = run_cli("enumerate", "--matrix", "0*;*1", "--class", "all",
                          "--max-n", "5", "--output", "tsv",
                          "--data-dir", str(tmp_path))
        assert rc == 0
        assert out.startswith("order\tcount\n")
        assert "n\tgraph6\tcertificate-ok" in out

    @pytest.mark.parametrize("matrix, class_name, max_n, want", [
        # a decided pair: no counts, and the empty block keeps its line
        ("0*;*1", "split", "9", "order\tcount\n\n\nn\tgraph6\tcertificate-ok\n"),
        ("0*;*0", "all", "5",
         "order\tcount\n3\t1\n5\t1\n\nn\tgraph6\tcertificate-ok\n3\tBw\tok\n5\tDLo\tok\n"),
    ])
    def test_tsv_bytes(self, matrix, class_name, max_n, want, tmp_path):
        rc, out = run_cli("enumerate", "--matrix", matrix, "--class", class_name,
                          "--max-n", max_n, "--output", "tsv", "--data-dir", str(tmp_path))
        assert rc == 0
        assert out == want

    def test_split_empty(self, tmp_path):
        rc, out = run_cli("enumerate", "--matrix", "0*;*1", "--class", "split",
                          "--max-n", "9", "--data-dir", str(tmp_path))
        assert rc == 0
        assert json.loads(out)["obstructions"] == []

    def test_decided_pair_writes_manifest_only(self, tmp_path):
        # a star between two zero-diagonal parts decides the bipartite class
        rc, out = run_cli("enumerate", "--matrix", "0*;*0", "--class", "bipartite",
                          "--max-n", "8", "--data-dir", str(tmp_path))
        assert rc == 0
        assert json.loads(out)["obstructions"] == []
        base = tmp_path / "0s-s0" / "bipartite"
        assert [p.name for p in base.iterdir()] == ["manifest.json"]
        assert json.loads((base / "manifest.json").read_text())["note"] == ""

    def test_too_large_exit_2(self, tmp_path):
        rc, _ = run_cli("enumerate", "--matrix", "0*;*0", "--class", "all",
                        "--max-n", "12", "--data-dir", str(tmp_path))
        assert rc == 2

    def test_negative_max_n_exit_2(self, tmp_path, capsys):
        rc, _ = run_cli("enumerate", "--matrix", "0", "--max-n", "-3",
                        "--data-dir", str(tmp_path))
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not any(tmp_path.iterdir())  # no manifest written

    @pytest.mark.parametrize("value", ["0", "-2", "two"])
    def test_bad_jobs_exit_2(self, value, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--matrix", "0", "--max-n", "3", "--jobs", value,
                  "--data-dir", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --jobs" in err
        assert not any(tmp_path.iterdir())


class TestConstruct:
    def test_thm5(self):
        rc, out = run_cli("construct", "thm5", "--n", "1")
        data = json.loads(out)
        assert data["n_vertices"] == 7
        assert data["matrix"] == pat.make_m_kt(3, 1).to_text()

    def test_gt(self):
        rc, out = run_cli("construct", "gt", "--t", "3")
        data = json.loads(out)
        assert data["n_vertices"] == 7

    def test_mkt(self):
        rc, out = run_cli("construct", "mkt", "--k", "5", "--t", "3")
        assert json.loads(out)["matrix"] == pat.make_m_kt(5, 3).to_text()

    def test_bad_parameters_exit_2(self):
        rc, _ = run_cli("construct", "gt", "--t", "2")
        assert rc == 2

    @pytest.mark.parametrize("args", [("thm5", "--n", "10000"), ("thm5", "--n", "1000000000"),
                                      ("gt", "--t", "1000000000"),
                                      ("mkt", "--k", "1000000000", "--t", "1")])
    def test_over_vertex_cap_exit_2(self, args, capsys):
        # refused before the size is computed or the edges are built
        rc, out = run_cli("construct", *args)
        assert rc == 2
        assert out == ""
        assert capsys.readouterr().err.startswith("error: ")


class TestRecognize:
    # the exact stdout and exit code: each class's witness on P4 (0-1-2-3),
    # and the reply on C5, which is in none of the classes
    P4 = "4; 0-1, 1-2, 2-3"

    def test_split_witness(self):
        want = '{"class": "split", "clique": [1, 2], "independent": [0, 3]}\n'
        assert run_cli("recognize", "--class", "split", "--edges", self.P4) == (0, want)

    @pytest.mark.parametrize("cls, want", [
        ("bipartite", '{"class": "bipartite", "coloring": [0, 1, 0, 1]}\n'),
        ("cobipartite", '{"class": "cobipartite", "coloring": [0, 0, 1, 1]}\n'),
        ("chordal", '{"class": "chordal", "elimination_order": [3, 2, 1, 0]}\n'),
    ])
    def test_witness(self, cls, want):
        assert run_cli("recognize", "--class", cls, "--edges", self.P4) == (0, want)

    def test_not_in_class(self):
        for cls in ("split", "chordal"):
            want = f'{{"result": "not-in-class", "class": "{cls}"}}\n'
            assert run_cli("recognize", "--class", cls, "--graph", C5) == (1, want)

    def test_bipartite(self):
        rc, out = run_cli("recognize", "--class", "bipartite", "--graph", C6)
        assert rc == 0
        assert len(json.loads(out)["coloring"]) == 6


def mycielski(G):
    """Mycielski's graph of G: a shadow u of each vertex v, joined to v's
    neighbours, and one more vertex joined to every shadow.  It has no
    triangle if G has none, and chromatic number one higher."""
    n = G.n
    edges = G.edges() + [(u, n + v) for u, v in G.edges()] + [(v, n + u) for u, v in G.edges()]
    return gr.from_edges(2 * n + 1, edges + [(n + v, 2 * n) for v in range(n)])


# M6, built from K2 by four Mycielski steps: 47 vertices, no triangle and
# chromatic number 6, so it has no 5-colouring, and `solve` takes seconds to
# refute one
M6 = gr.to_graph6(functools.reduce(lambda G, _: mycielski(G), range(4), gr.complete(2)))


class TestTimeout:
    def test_exit_3(self):
        # the exit code and stdout of a real `python -m mpart` process
        proc = subprocess.run(
            [sys.executable, "-m", "mpart", "solve", "--matrix", "0****;*0***;**0**;***0*;****0",
             "--graph", M6, "--timeout", "0.2"],
            capture_output=True, text=True)
        assert proc.returncode == 3
        assert json.loads(proc.stdout)["result"] == "indeterminate"

    @pytest.mark.parametrize("value", ["0.000001", "1e-300"])
    def test_a_timer_that_fires_at_once_exits_3(self, value):
        # the alarm can fall inside setitimer itself, before the search
        proc = subprocess.run(
            [sys.executable, "-m", "mpart", "solve", "--matrix", "0*;*0", "--graph", C5,
             "--timeout", value],
            capture_output=True, text=True)
        assert proc.returncode == 3
        assert json.loads(proc.stdout)["result"] == "indeterminate"
        assert "Traceback" not in proc.stderr

    def test_alarm_after_the_answer_keeps_it(self, tmp_path, monkeypatch):
        # the alarm falls while the catalog is written: the finished work
        # is reported in full with exit 0, not as "indeterminate"
        M = pat.parse_matrix("0*;*0")
        want = ob.report_to_json(ob.enumerate_minimal_obstructions(M, "all", 5)) + "\n"
        save = ob.save_catalog

        def slow_save(*args):
            time.sleep(0.5)
            return save(*args)

        monkeypatch.setattr(ob, "save_catalog", slow_save)
        rc, out = run_cli("enumerate", "--matrix", "0*;*0", "--class", "all", "--max-n", "5",
                          "--timeout", "0.2", "--data-dir", str(tmp_path))
        assert (rc, out) == (0, want)
        assert (tmp_path / "0s-s0" / "all" / "manifest.json").is_file()

    @pytest.mark.parametrize("value", ["-1", "nan", "1e10", "1e300"])
    def test_bad_value_exit_2(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--matrix", "0*;*0", "--graph", C5, "--timeout", value])
        assert exc.value.code == 2
        assert "--timeout" in capsys.readouterr().err


class TestVerifyCommand:
    def test_pass_and_fail_lines_and_exit_codes(self, monkeypatch):
        # the harness, on stub criteria: a failed check and a blown budget
        # both fail, and any failure makes the exit code 1
        passing = ("passes", 10, "quick", lambda: (True, "fine"))
        failing = ("fails", 10, "quick", lambda: (False, "wrong"))
        over_budget = ("over-budget", -1, "quick", lambda: (True, "slow"))
        monkeypatch.setattr(vf, "CRITERIA", [passing])
        rc, out = run_cli("verify", "--level", "quick")
        assert rc == 0
        assert [line.split("\t")[:2] for line in out.splitlines()] == [["PASS", "passes"]]
        monkeypatch.setattr(vf, "CRITERIA", [passing, failing, over_budget])
        rc, out = run_cli("verify", "--level", "quick")
        assert rc == 1
        lines = [line.split("\t") for line in out.splitlines()]
        assert [line[:2] for line in lines] == [
            ["PASS", "passes"], ["FAIL", "fails"], ["FAIL", "over-budget"]]
        assert [line[3] for line in lines] == ["fine", "wrong", "slow"]

    def test_level_filter(self, monkeypatch):
        # quick runs only the quick criteria, full runs every one, both in
        # CRITERIA's order
        full = ("full-only", 10, "full", lambda: (True, "thorough"))
        quick = ("quick-too", 10, "quick", lambda: (True, "fast"))
        monkeypatch.setattr(vf, "CRITERIA", [full, quick])
        for level, want in (("quick", ["quick-too"]), ("full", ["full-only", "quick-too"])):
            rc, out = run_cli("verify", "--level", level)
            assert rc == 0
            assert [line.split("\t")[1] for line in out.splitlines()] == want, level

    def test_negative_control(self):
        # a partitionable graph must never be reported as an obstruction
        rc, out = run_cli("check-minimal", "--matrix", "0*;*1",
                          "--graph", gr.to_graph6(gr.path(4)))
        assert rc == 0
        assert json.loads(out)["status"] == "partitionable"


def flip_byte_5000(table):
    table[5000] ^= 0xFF
    return table


def count_of_order_5_one_short(table):
    # the header's count of the graphs on 5 vertices, the fifth section's
    at = 4 * (gr._SECTIONS + 4)
    struct.pack_into("<I", table, at, struct.unpack_from("<I", table, at)[0] - 1)
    return table


def order_5_one_class_byte_short(table):
    # the fifth section, order 5, without its last class byte, the header's
    # end offsets from there on moved to match and its CRC-32 recomputed,
    # so that only its length fails to fit its count
    ends = struct.unpack_from(f"<{gr._SECTIONS}I", table)
    start, end = ends[3], ends[4]
    del table[start + 2 * struct.unpack_from("<I", table, 4 * (gr._SECTIONS + 4))[0] - 1]
    struct.pack_into(f"<{gr._SECTIONS - 4}I", table, 16, *(e - 1 for e in ends[4:]))
    struct.pack_into("<I", table, 4 * (2 * gr._SECTIONS + 4), zlib.crc32(table[start:end - 1]))
    return table


def order_8_one_packed_order_byte_flipped(table):
    # a byte in the middle of the packed orders that end the eighth
    # section, order 8: its length still fits, its CRC-32 does not
    start, end = struct.unpack_from("<2I", table, 4 * 6)
    count = struct.unpack_from("<I", table, 4 * (gr._SECTIONS + 7))[0]
    orders = 9 * sum(table[start:start + count])
    table[end - orders // 2] ^= 0xFF
    return table


class TestFault:
    """A fault inside mpart exits 4, with one line on stderr and no stdout."""

    @pytest.mark.parametrize("damage, why", [
        (flip_byte_5000, "CRC-32"), (lambda table: table[:100], "cannot read"),
        (count_of_order_5_one_short, "do not fit"), (None, "cannot read"),
        (order_5_one_class_byte_short, "do not fit"),
        (order_8_one_packed_order_byte_flipped, "CRC-32"),
    ], ids=["flipped-byte", "truncated", "count-one-short", "missing", "section-one-byte-short",
            "order-8-packed-order-flipped"])
    def test_a_damaged_table_exits_4(self, damage, why, tmp_path, monkeypatch, capsys):
        table = tmp_path / "generation.bin"
        if damage is not None:
            with open(gr._TABLE, "rb") as f:
                table.write_bytes(damage(bytearray(f.read())))
        monkeypatch.setattr(gr, "_TABLE", str(table))
        gr.generation.cache_clear()
        ob._candidates.cache_clear()
        try:
            rc = main(["enumerate", "--matrix", "0**;*0*;**0", "--class", "all", "--max-n", "8",
                       "--data-dir", str(tmp_path / "data")])
        finally:
            gr.generation.cache_clear()
            ob._candidates.cache_clear()
        out, err = capsys.readouterr()
        assert (rc, out) == (4, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("internal error: ") and "generation.bin" in err and why in err

    def test_a_broken_invariant_of_the_walk_exits_4(self, monkeypatch, tmp_path, capsys):
        drop_k3_from_the_deck_of_k3_plus_k1(monkeypatch)
        rc = main(["enumerate", "--matrix", "0*;*0", "--class", "all", "--max-n", "4",
                   "--data-dir", str(tmp_path)])
        out, err = capsys.readouterr()
        assert (rc, out) == (4, "")
        assert len(err.splitlines()) == 1 and err.startswith("internal error: ")
        assert not any(tmp_path.iterdir())

    def test_any_other_exception_exits_4_with_its_traceback(self, monkeypatch, capsys):
        def fail(G, M):
            raise ZeroDivisionError("a fault")

        monkeypatch.setattr(sv, "solve", fail)
        rc = main(["solve", "--matrix", "0*;*0", "--graph", C5])
        out, err = capsys.readouterr()
        assert (rc, out) == (4, "")
        assert err.startswith("Traceback") and "ZeroDivisionError: a fault" in err


def test_recognize_offers_every_recognizer():
    # the choices come from the enumeration classes, so that the CLI loads
    # recognize only in `mpart recognize`
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    cls = next(a for a in sub.choices["recognize"]._actions if a.dest == "class_name")
    assert cls.choices == sorted(rec.RECOGNIZERS)


def test_cold_imports_stay_lazy():
    # a fresh interpreter each, with no site module, whose .pth files may
    # load pathlib themselves: the CLI loads verify and recognize only in
    # their own commands and no dataclasses, inspect, pathlib or process
    # pool; enumeration reads class membership from the table and loads no
    # recognizer; and the package root loads no recognizer, enumeration or
    # CLI
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(mpart.__file__))}
    for module, absent in (
            ("mpart.cli", ["mpart.verify", "mpart.recognize", "dataclasses", "inspect",
                           "pathlib", "concurrent", "multiprocessing"]),
            ("mpart.obstruction", ["mpart.recognize"]),
            ("mpart", ["mpart.recognize", "mpart.obstruction", "mpart.cli"])):
        code = f"import sys, {module}; print([m for m in {absent!r} if m in sys.modules])"
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                              text=True, check=True, env=env)
        assert proc.stdout.strip() == "[]", module
