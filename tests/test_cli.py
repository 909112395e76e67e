"""Command-line interface: subcommands, formats, exit codes."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import bmpoints
from bmpoints import bench, cli
from bmpoints.cli import run_cli
from bmpoints.fields import PrimeField
from bmpoints.poly import Polynomial
from conftest import EX1_POINTS


def _write_points(path, pts):
    path.write_text("".join(f"{x},{y}\n" for x, y in pts))


def test_compute_json(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    _write_points(pts, EX1_POINTS)
    code = run_cli(["compute", "--field", "rational", "--order", "inlex",
                    "--points", str(pts), "--out", "json"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2) + "\n"
    assert code == 0
    assert doc["field"] == "rational" and doc["order"] == "inlex"
    assert doc["algorithm"] == "spbm"  # auto picks the seeded path for inlex
    assert len(doc["G"]) == 4 and len(doc["N"]) == 9 and len(doc["Q"]) == 9
    assert doc["N"][0] == [0, 0]
    assert sorted(doc["pointPermutation"]) == list(range(9))
    assert doc["verify"]["passed"] is True


def test_compute_text(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    _write_points(pts, [(0, 0), (1, 0), (2, 0)])
    code = run_cli(["compute", "--field", "q:7", "--order", "lex",
                    "--points", str(pts), "--algo", "bm"])
    out = capsys.readouterr().out
    assert code == 0
    assert "algorithm: bm" in out
    assert "x^3+4x^2+2x" in out and "verify: PASS" in out


def test_compute_rejects_bad_combo(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    _write_points(pts, [(0, 0), (1, 1)])
    code = run_cli(["compute", "--field", "q:7", "--order", "tdinlex",
                    "--points", str(pts), "--algo", "spbm"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_compute_usage_errors(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    _write_points(pts, [(0, 0)])
    assert run_cli(["compute", "--field", "q:6", "--order", "lex",
                    "--points", str(pts)]) == 2
    assert run_cli(["compute", "--field", "q:7", "--order", "lex",
                    "--points", str(tmp_path / "missing.txt")]) == 2
    assert run_cli(["compute", "--field", "q:7", "--order", "degrevlex",
                    "--points", str(pts)]) == 2
    capsys.readouterr()


def test_compute_names_the_line_of_a_bad_literal(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    for field, text, msg in [
            ("q:23", "1,2\n3,x\n", "line 2: bad prime-field literal 'x'"),
            ("rational", "1,2\n1/0,3\n", "line 2: zero denominator in '1/0'")]:
        pts.write_text(text)
        assert run_cli(["compute", "--field", field, "--order", "lex",
                        "--points", str(pts)]) == 2
        assert capsys.readouterr().err == f"error: {msg}\n"


def test_compute_rejects_empty_point_file(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    comments = tmp_path / "comments.txt"
    comments.write_text("# no points here\n\n   # nor here\n")
    for path in (empty, comments):
        for algo in ("bm", "spbm", "gpbm"):
            assert run_cli(["compute", "--field", "q:7", "--order", "lex",
                            "--algo", algo, "--points", str(path)]) == 2
            err = capsys.readouterr().err
            assert "error:" in err and "Traceback" not in err


def test_gen_round_trip(tmp_path, capsys):
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    for out in (out1, out2):
        assert run_cli(["gen", "--field", "q:17", "--n", "30",
                        "--seed", "5", "-o", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0].startswith("#") and len(lines) == 31
    code = run_cli(["compute", "--field", "q:17", "--order", "tdinlex",
                    "--points", str(out1), "--out", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and len(doc["N"]) == 30


def test_verify_round_trip(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    _write_points(pts, EX1_POINTS)
    res = tmp_path / "res.json"
    assert run_cli(["compute", "--field", "rational", "--order", "inlex",
                    "--points", str(pts), "--out", "json"]) == 0
    res.write_text(capsys.readouterr().out)
    assert run_cli(["verify", "--result", str(res),
                    "--points", str(pts)]) == 0
    assert "PASS overall" in capsys.readouterr().out

    doc = json.loads(res.read_text())
    doc["G"][0][0][2] = "5"  # tamper with one coefficient
    res.write_text(json.dumps(doc))
    assert run_cli(["verify", "--result", str(res),
                    "--points", str(pts)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_rejects_a_bad_stored_coefficient(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    _write_points(pts, [(0, 0), (1, 2)])
    res = tmp_path / "res.json"
    assert run_cli(["compute", "--field", "q:23", "--order", "lex",
                    "--points", str(pts), "--out", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    doc["G"][0][0][2] = "x"
    res.write_text(json.dumps(doc))
    assert run_cli(["verify", "--result", str(res),
                    "--points", str(pts)]) == 2
    assert capsys.readouterr().err == \
        "error: bad prime-field literal 'x'\n"


def test_verify_rejects_repeated_escalier_monomial(tmp_path, capsys):
    """N must hold one monomial per point; a repeat of N[0] is not hidden
    by counting distinct monomials."""
    pts = tmp_path / "pts.txt"
    _write_points(pts, [(0, 0), (1, 0), (2, 1), (3, 3), (4, 1), (5, 6)])
    res = tmp_path / "res.json"
    assert run_cli(["compute", "--field", "q:7", "--order", "lex",
                    "--points", str(pts), "--out", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    doc["N"].append(doc["N"][0])
    res.write_text(json.dumps(doc))
    assert run_cli(["verify", "--result", str(res),
                    "--points", str(pts)]) == 1
    assert "FAIL N size equals point count: 7 vs 6" in capsys.readouterr().out


def test_verify_rejects_a_repeated_monomial_at_the_point_count(tmp_path,
                                                              capsys):
    """N[2] replaced by N[1] keeps len(N) at the point count; the size
    check counts distinct monomials and names the repeat."""
    pts = tmp_path / "pts.txt"
    _write_points(pts, [(0, 0), (1, 0), (2, 3)])
    res = tmp_path / "res.json"
    assert run_cli(["compute", "--field", "q:23", "--order", "tdinlex",
                    "--points", str(pts), "--out", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    doc["N"][2] = doc["N"][1]
    res.write_text(json.dumps(doc))
    assert run_cli(["verify", "--result", str(res),
                    "--points", str(pts)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "FAIL N size equals point count: 3 vs 3, (1, 0) repeated" in out


def test_verify_rejects_q_outside_n(tmp_path, capsys):
    """x - 5 vanishes on the points (5, j) and ranks below y^3 under
    tdinlex, so adding it to Q[3] moves no value and no leading monomial;
    the support check names the term."""
    pts = tmp_path / "pts.txt"
    _write_points(pts, [(5, j) for j in range(4)])
    res = tmp_path / "res.json"
    assert run_cli(["compute", "--field", "q:23", "--order", "tdinlex",
                    "--points", str(pts), "--out", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    doc["Q"][3] += [[1, 0, "1"], [0, 0, "18"]]
    res.write_text(json.dumps(doc))
    assert run_cli(["verify", "--result", str(res),
                    "--points", str(pts)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("FAIL")] == [
        "FAIL Q supported in N: monomial (1, 0) outside N", "FAIL overall"]


def test_verify_fails_a_term_above_the_point_count_unevaluated(tmp_path,
                                                               capsys):
    """x^100000 appended to G[0] of a 10-point rational result fails the
    vanishing check by name, with no power above the point count built."""
    pts = tmp_path / "pts.txt"
    res = tmp_path / "res.json"
    assert run_cli(["gen", "--field", "rational", "--n", "10", "--seed", "1",
                    "-o", str(pts)]) == 0
    assert run_cli(["compute", "--field", "rational", "--order", "lex",
                    "--algo", "spbm", "--points", str(pts),
                    "--out", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    doc["G"][0].append([100000, 0, "1"])
    res.write_text(json.dumps(doc))
    assert run_cli(["verify", "--result", str(res),
                    "--points", str(pts)]) == 1
    assert ("FAIL vanishing: skipped: exponent (100000, 0) exceeds the "
            "point count 10" in capsys.readouterr().out.splitlines())


def test_verify_rejects_a_repeated_basis_element(tmp_path, capsys):
    """G = [x + 20, x + 20, y + 19] for the point (3, 4) over q:23 holds
    every other check: a repeated element is caught by the leading
    monomials' pairwise non-divisibility."""
    pts = tmp_path / "pts.txt"
    _write_points(pts, [(3, 4)])
    res = tmp_path / "res.json"
    x, y = [[1, 0, "1"], [0, 0, "20"]], [[0, 1, "1"], [0, 0, "19"]]
    res.write_text(json.dumps({
        "field": "q:23", "order": "lex", "G": [x, x, y], "N": [[0, 0]],
        "Q": [[[0, 0, "1"]]], "pointPermutation": [0]}))
    assert run_cli(["verify", "--result", str(res),
                    "--points", str(pts)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("FAIL")] == [
        "FAIL leading monomials pairwise non-divisible: (1, 0) divides "
        "(1, 0)", "FAIL overall"]


def test_bench_csv(tmp_path):
    out = tmp_path / "b.csv"
    code = run_cli(["bench", "--field", "q:17", "--order", "lex",
                    "--sizes", "8,12", "--reps", "3",
                    "--algos", "bm,spbm", "--seed", "2", "-o", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "algorithm,field,order,size,repetition,wallNanos,mcsRatio"
    data = [ln for ln in lines if ln and not ln.startswith("#")]
    assert len(data) == 1 + 2 * 2 * 3  # header + algos x sizes x reps
    assert any(ln.startswith("# median") for ln in lines)
    assert any(ln.startswith("# speedup") for ln in lines)
    cell = data[1].split(",")
    assert cell[0] == "bm" and cell[1] == "q:17" and cell[6] == ""


def test_bench_stdout(capsys):
    code = run_cli(["bench", "--field", "q:7", "--order", "tdinlex",
                    "--sizes", "6", "--reps", "2", "--algos", "gpbm",
                    "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [ln for ln in out.splitlines() if ln.startswith("gpbm")]
    assert len(rows) == 2
    ratio = float(rows[0].rsplit(",", 1)[1])
    assert 0.0 < ratio <= 1.0


def test_bench_rejects_empty_or_impossible_grid(capsys):
    base = ["bench", "--field", "q:3", "--order", "lex", "--algos", "bm"]
    for extra in (["--sizes", "4", "--reps", "0"],
                  ["--sizes", "4", "--reps", "-3"],
                  ["--sizes", "0", "--reps", "1"],
                  ["--sizes", "4,-1", "--reps", "1"],
                  ["--sizes", "10", "--reps", "1"],
                  ["--sizes", ",", "--reps", "1"],
                  ["--sizes", "4", "--reps", "1", "--algos", "qbm"]):
        assert run_cli(base + extra) == 2, extra
        assert "error:" in capsys.readouterr().err
    assert run_cli(base + ["--sizes", "9", "--reps", "1"]) == 0
    capsys.readouterr()


def test_bench_runner_fault_exits_3(capsys, monkeypatch):
    def broken(ps, order):
        raise ValueError("bad pivot")

    monkeypatch.setitem(bench.RUNNERS, "bm", broken)
    assert run_cli(["bench", "--field", "q:7", "--order", "lex",
                    "--sizes", "5", "--reps", "1", "--algos", "bm"]) == 3
    assert "internal error: ValueError: bad pivot" in capsys.readouterr().err


def _stored_result(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    _write_points(pts, [(0, 0), (1, 0), (2, 3)])
    assert run_cli(["compute", "--field", "q:7", "--order", "lex",
                    "--points", str(pts), "--out", "json"]) == 0
    return pts, json.loads(capsys.readouterr().out)


def test_verify_names_malformed_entries(tmp_path, capsys):
    pts, doc = _stored_result(tmp_path, capsys)
    res = tmp_path / "res.json"
    for key, entry, want in (("G", [], "G[0] is the zero polynomial"),
                             ("Q", [[0, 0, "7"]],
                              "Q[0] is the zero polynomial"),
                             ("N", [0, 0, 1], "N[0] is not a pair"),
                             ("N", 3, "N[0] is not a pair"),
                             ("G", [[0, 2, "x"]],
                              "bad prime-field literal 'x'")):
        bad = json.loads(json.dumps(doc))
        bad[key][0] = entry
        res.write_text(json.dumps(bad))
        assert run_cli(["verify", "--result", str(res),
                        "--points", str(pts)]) == 2, key
        assert want in capsys.readouterr().err


def test_verify_from_json_keeps_every_failure(tmp_path, capsys):
    """Stored G = [y^2+4y, xy+5y, x^2+6x+4y] and Q over N = [1, x, y]."""
    pts, doc = _stored_result(tmp_path, capsys)
    res = tmp_path / "res.json"

    def verify(bad):
        res.write_text(json.dumps(bad))
        return run_cli(["verify", "--result", str(res), "--points", str(pts)])

    bad = json.loads(json.dumps(doc))
    bad["G"][2].append([0, 5, "1"])  # below x^2 under lex, outside N
    assert verify(bad) == 1
    assert ("FAIL tails supported in N: monomial (0, 5) outside N"
            in capsys.readouterr().out.splitlines())
    bad = json.loads(json.dumps(doc))
    bad["Q"][2].insert(0, [3, 0, "2"])  # Q[2] now leads with x^3
    assert verify(bad) == 1
    assert ("FAIL Q leading monomials enumerate N"
            in capsys.readouterr().out.splitlines())
    bad = json.loads(json.dumps(doc))
    bad["G"][1] = [[1, 1, "3"], [1, 1, "4"]]  # 3 + 4 = 0 mod 7
    assert verify(bad) == 2
    assert "G[1] is the zero polynomial" in capsys.readouterr().err


def test_verify_fails_empty_result_without_traceback(tmp_path, capsys):
    """A result with no G, N, Q or pointPermutation is well formed and
    wrong: the checks report it, and nothing raises."""
    pts, doc = _stored_result(tmp_path, capsys)
    res = tmp_path / "res.json"
    res.write_text(json.dumps(dict(doc, G=[], N=[], Q=[],
                                   pointPermutation=[])))
    assert run_cli(["verify", "--result", str(res),
                    "--points", str(pts)]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert "FAIL N size equals point count: 0 vs 3" in lines
    assert lines[-1] == "FAIL overall"
    assert "Traceback" not in captured.err


def test_verify_names_wrong_json_types(tmp_path, capsys):
    pts, doc = _stored_result(tmp_path, capsys)
    res = tmp_path / "res.json"
    perm = doc["pointPermutation"]

    def term_at(key, k, t, term):
        """doc with doc[key][k][t] set to term, or term appended at t."""
        bad = json.loads(json.dumps(doc))
        bad[key][k][t:t + 1] = [term]
        return bad

    for bad, want in (
            (term_at("G", 0, 0, [1.0, 0, "1"]),
             """G[0][0] is not an [i, j, "c"] triple: [1.0, 0, '1']"""),
            (term_at("G", 2, 1, [True, 0, "1"]),
             """G[2][1] is not an [i, j, "c"] triple: [True, 0, '1']"""),
            (term_at("Q", 1, 0, [1, -1, "1"]),
             "Q[1][0] has a negative exponent: [1, -1, '1']"),
            (term_at("Q", 2, 1, [0, 0, "x"]), "bad prime-field literal 'x'"),
            (dict(doc, G=3), "G is not a list: 3"),
            (dict(doc, N=None), "N is not a list: None"),
            (dict(doc, field=7), "field is not a string: 7"),
            (dict(doc, order=["lex"]), "order is not a string"),
            ([doc], "the stored result is not a JSON object"),
            (dict(doc, pointPermutation=[None] + perm[1:]),
             "pointPermutation[0] is not an integer: None"),
            (dict(doc, pointPermutation=[1.9] + perm[1:]),
             "pointPermutation[0] is not an integer: 1.9"),
            (dict(doc, pointPermutation=["1"] + perm[1:]),
             "pointPermutation[0] is not an integer: '1'"),
            (dict(doc, G=[5] + doc["G"][1:]),
             "G[0] is not a list: 5"),
            (dict(doc, Q=[[[0, 0]]] + doc["Q"][1:]),
             'Q[0][0] is not an [i, j, "c"] triple: [0, 0]'),
            (dict(doc, G=[[[1, 0, 1]]] + doc["G"][1:]),
             'G[0][0] is not an [i, j, "c"] triple: [1, 0, 1]')):
        res.write_text(json.dumps(bad))
        assert run_cli(["verify", "--result", str(res),
                        "--points", str(pts)]) == 2, want
        assert want in capsys.readouterr().err


def test_verify_converts_each_stored_coefficient_once(tmp_path, capsys,
                                                     monkeypatch):
    """verify reads the points, then G and Q, one field.convert per
    coordinate and per stored term."""
    pts, doc = _stored_result(tmp_path, capsys)
    res = tmp_path / "res.json"
    res.write_text(json.dumps(doc))
    calls = []
    convert = PrimeField.convert

    def counted(self, raw):
        calls.append(raw)
        return convert(self, raw)

    monkeypatch.setattr(PrimeField, "convert", counted)
    assert run_cli(["verify", "--result", str(res),
                    "--points", str(pts)]) == 0
    assert calls == ["0", "0", "1", "0", "2", "3"] + [
        c for key in ("G", "Q") for terms in doc[key] for _, _, c in terms]


def test_verify_check_fault_exits_3(tmp_path, capsys, monkeypatch):
    pts, doc = _stored_result(tmp_path, capsys)
    res = tmp_path / "res.json"
    res.write_text(json.dumps(doc))

    def broken(*args):
        raise ValueError("bad table")

    monkeypatch.setattr(cli, "verify_parts", broken)
    assert run_cli(["verify", "--result", str(res),
                    "--points", str(pts)]) == 3
    assert "internal error: ValueError: bad table" in capsys.readouterr().err


def test_missing_subcommand(capsys):
    assert run_cli([]) == 2
    assert run_cli(["frobnicate"]) == 2
    capsys.readouterr()


def test_exit_codes_are_distinct(tmp_path, capsys, monkeypatch):
    pts = tmp_path / "pts.txt"
    _write_points(pts, [(0, 0), (1, 0), (2, 3)])
    args = ["compute", "--field", "q:7", "--order", "lex",
            "--points", str(pts)]
    assert run_cli(args) == 0
    assert run_cli(["compute", "--field", "q:8"] + args[3:]) == 2
    assert "error:" in capsys.readouterr().err

    real_spbm = cli.spbm_run

    def corrupted(ps, order):
        # add one to G[0]'s constant term, in the matrix that verify and
        # the writer read
        res = real_spbm(ps, order)
        G = res.G_dense
        c = G.exps.index((0, 0))
        G.coeffs[0, c] = (G.coeffs[0, c] + 1) % ps.field.char
        return res

    monkeypatch.setattr(cli, "spbm_run", corrupted)
    assert run_cli(args) == 1
    assert "verify: FAIL" in capsys.readouterr().out
    assert run_cli(args + ["--out", "json"]) == 1
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2) + "\n"
    assert doc["verify"]["passed"] is False
    assert any(c["detail"] for c in doc["verify"]["checks"])

    def broken(ps, order):
        raise RuntimeError("invariant broken")

    monkeypatch.setattr(cli, "spbm_run", broken)
    assert run_cli(args) == 3
    err = capsys.readouterr().err
    assert "internal error: RuntimeError: invariant broken" in err


def test_writer_fault_after_first_block_exits_3(tmp_path, capsys,
                                               monkeypatch):
    """compute writes each block as it is rendered, after verify: a
    renderer fault once bytes are out still exits 3, leaving a truncated
    result on stdout and the traceback on stderr."""
    pts = tmp_path / "pts.txt"
    _write_points(pts, [(0, 0), (1, 0), (2, 3)])
    args = ["compute", "--field", "q:7", "--order", "lex",
            "--points", str(pts)]
    for out, renderer_name, head, tail in (
            ("json", "_rows_json", '{\n  "field": "q:7"', '"Q": '),
            ("text", "text_rows", "field: q:7\n", "\nQ:")):
        real = getattr(cli, renderer_name)
        calls = []

        def renderer(polys, perm, real=real, calls=calls):
            calls.append(len(polys))
            if len(calls) == 2:  # Q, after G and N are written
                raise RuntimeError("renderer broke")
            yield from real(polys, perm)

        monkeypatch.setattr(cli, renderer_name, renderer)
        assert run_cli(args + ["--out", out]) == 3
        captured = capsys.readouterr()
        assert captured.out.startswith(head)
        assert "G:" in captured.out or '"G": [' in captured.out
        assert captured.out.endswith(tail)
        assert "Traceback" in captured.err
        assert "internal error: RuntimeError: renderer broke" in captured.err

    def broken(result):
        raise RuntimeError("check broke")

    monkeypatch.setattr(cli, "verify_result", broken)
    assert run_cli(args) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal error: RuntimeError: check broke" in captured.err


class _ClosedAfterFirstWrite:
    """A stdout whose reader goes away after the first block."""

    def __init__(self):
        self.writes = 0

    def write(self, text):
        self.writes += 1
        if self.writes > 1:
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self):
        if self.writes > 1:
            raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_exits_141_without_traceback(tmp_path, capsys,
                                                   monkeypatch):
    pts = tmp_path / "pts.txt"
    _write_points(pts, [(0, 0), (1, 0), (2, 3)])
    args = ["compute", "--field", "q:7", "--order", "lex",
            "--points", str(pts)]
    for out in ("json", "text"):
        stdout = _ClosedAfterFirstWrite()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert run_cli(args + ["--out", out]) == cli.EXIT_PIPE == 141
        assert stdout.writes == 2
        assert capsys.readouterr().err == ""


def test_closed_pipe_ends_the_process_quietly(tmp_path):
    """`bmpoints compute ... | head -c 100` with more output than the pipe
    holds: exit 141, nothing on stderr."""
    pts = tmp_path / "pts.txt"
    assert run_cli(["gen", "--field", "q:2147483647", "--n", "400",
                    "--seed", "1", "-o", str(pts)]) == 0
    src = str(Path(bmpoints.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    for out in ("json", "text"):
        with subprocess.Popen(
                [sys.executable, "-m", "bmpoints.cli", "compute", "--field",
                 "q:2147483647", "--order", "lex", "--points", str(pts),
                 "--out", out],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=env) as proc:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            assert proc.stderr.read() == b""
            assert proc.wait(timeout=120) == 141


def test_internal_value_and_key_errors_exit_3(tmp_path, capsys, monkeypatch):
    """Only reading the input may give 2; the runner's errors are faults."""
    pts = tmp_path / "pts.txt"
    _write_points(pts, [(0, 0), (1, 0), (2, 3)])
    args = ["compute", "--field", "q:7", "--order", "tdinlex",
            "--points", str(pts)]
    for exc in (ValueError("bad pivot"), KeyError("row")):
        def broken(ps, order, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "gpbm_run", broken)
        assert run_cli(args) == 3
        err = capsys.readouterr().err
        assert f"internal error: {type(exc).__name__}" in err


def test_verify_rejects_negative_exponent(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    _write_points(pts, [(0, 0), (1, 0)])
    res = tmp_path / "res.json"
    assert run_cli(["compute", "--field", "q:7", "--order", "lex",
                    "--points", str(pts), "--out", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    doc["G"][0].append([0, -1, "1"])
    res.write_text(json.dumps(doc))
    assert run_cli(["verify", "--result", str(res),
                    "--points", str(pts)]) == 2
    assert "negative exponent" in capsys.readouterr().err


def test_compute_under_optimize_flag(tmp_path):
    """Invariants are checked by raising, so python -O changes nothing."""
    pts = tmp_path / "pts.txt"
    _write_points(pts, [(x, (3 * x + 1) % 11) for x in range(11)]
                  + [(0, 0), (5, 7)])
    src = str(Path(bmpoints.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "bmpoints.cli", "compute",
         "--field", "q:11", "--order", "tdinlex", "--points", str(pts)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "verify: PASS" in proc.stdout


def test_no_assert_statements_in_package():
    """python -O strips assert statements, so the package checks its
    invariants by raising instead."""
    found = []
    for path in sorted(Path(bmpoints.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found
