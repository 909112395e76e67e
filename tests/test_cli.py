"""Command-line interface: subcommands, formats, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import bmpoints
from bmpoints import bench, cli
from bmpoints.cli import run_cli
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
                             ("N", 3, "N[0] is not a pair")):
        bad = json.loads(json.dumps(doc))
        bad[key][0] = entry
        res.write_text(json.dumps(bad))
        assert run_cli(["verify", "--result", str(res),
                        "--points", str(pts)]) == 2, key
        assert want in capsys.readouterr().err


def test_verify_names_wrong_json_types(tmp_path, capsys):
    pts, doc = _stored_result(tmp_path, capsys)
    res = tmp_path / "res.json"
    perm = doc["pointPermutation"]
    for bad, want in (
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
        res = real_spbm(ps, order)
        res.G[0] = res.G[0].add(Polynomial.constant(ps.field, 1))
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
