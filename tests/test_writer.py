"""The writers render G and Q from their coefficient matrices: JSON byte
for byte as json.dumps(indent=2) and term for term as poly_json_terms,
text byte for byte as recorded before both shared one renderer."""

import hashlib
import json
import random
from pathlib import Path
from fractions import Fraction as Fr

import pytest

from bmpoints.bench import RUNNERS
from bmpoints.cli import result_to_json, run_cli
from bmpoints.fields import make_field
from bmpoints.orders import order_by_name
from bmpoints.points import PointSet
from bmpoints.poly import Polynomial, poly_json_terms
from bmpoints.randgen import gen_points
from conftest import EX1_POINTS, EX2_POINTS, EX5_POINTS, order_algos

BIG = make_field("q:2147483647")
F23 = make_field("q:23")
# SHA-256 of the default (text) compute output of every run of _runs,
# keyed "case/order/algo"
TEXT_DIGESTS = json.loads(
    (Path(__file__).parent / "text_digests.json").read_text())


def _rational_grid(seed: int, width: int = 5, extra: int = 4) -> list:
    """A width-wide triangular cartesian block plus `extra` loose points
    on other coordinates, shuffled; coordinates are rationals of 7-bit
    numerator and denominator, as in perfbench's rational-grid."""
    rng = random.Random(seed)

    def distinct(k, avoid=()):
        out = []
        while len(out) < k:
            v = Fr(rng.choice((-1, 1)) * rng.randrange(64, 128),
                   rng.randrange(64, 128))
            if v not in out and v not in avoid:
                out.append(v)
        return out

    xs, ys = distinct(width), distinct(width)
    pts = [(xs[i], ys[j]) for j in range(width) for i in range(width - j)]
    while len(pts) < width * (width + 1) // 2 + extra:
        pt = (distinct(1, xs)[0], distinct(1, ys)[0])
        if pt not in pts:
            pts.append(pt)
    rng.shuffle(pts)
    return pts


CASES = {
    "q7-golden": ("q:7", EX5_POINTS),
    "q2^31-1": ("q:2147483647", gen_points(BIG, 30, seed=5).points),
    # Q spans two writer blocks, with each element's text rendered once
    # over q:23 and str() per term over q:2^31-1
    "q23-300": ("q:23", gen_points(F23, 300, seed=5).points),
    "q2^31-1-300": ("q:2147483647", gen_points(BIG, 300, seed=5).points),
    # G and Q hold negative and fractional coefficients
    "rational-ex1": ("rational", EX1_POINTS),
    "rational-ex2": ("rational", EX2_POINTS),
    "rational-single": ("rational", [(Fr(-7, 3), Fr(5, 2))]),
    # coefficients of up to ~100-digit numerators and denominators, whose
    # integer rows share factors with their denominators
    "rational-grid": ("rational", _rational_grid(24)),
    "q7-single": ("q:7", [(3, 5)]),
}


def _runs():
    for case in CASES:
        for order, algo in order_algos():
            yield case, order.name, algo


def _write_case(case, tmp_path):
    spec, points = CASES[case]
    path = tmp_path / "pts.txt"
    path.write_text("".join(f"{x},{y}\n" for x, y in points))
    return spec, path


@pytest.mark.parametrize("case, order, algo", list(_runs()))
def test_writer_matches_dumps_and_poly_terms(case, order, algo, tmp_path,
                                             capsys):
    spec, path = _write_case(case, tmp_path)
    assert run_cli(["compute", "--field", spec, "--order", order,
                    "--algo", algo, "--points", str(path),
                    "--out", "json"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2) + "\n"
    res = RUNNERS[algo](PointSet(make_field(spec), CASES[case][1]),
                        order_by_name(order))
    body = {k: v for k, v in doc.items() if k != "verify"}
    assert body == result_to_json(res)
    assert doc["G"] == [poly_json_terms(g, res.order) for g in res.G]
    assert doc["Q"] == [poly_json_terms(q, res.order) for q in res.Q]


@pytest.mark.parametrize("case, order, algo", list(_runs()))
def test_text_matches_recorded_digests(case, order, algo, tmp_path, capsys):
    spec, path = _write_case(case, tmp_path)
    assert run_cli(["compute", "--field", spec, "--order", order,
                    "--algo", algo, "--points", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\nverify: PASS\n")
    assert (hashlib.sha256(out.encode()).hexdigest()
            == TEXT_DIGESTS[f"{case}/{order}/{algo}"])


@pytest.mark.parametrize("spec, order", [("q:23", "lex"),
                                         ("q:23", "tdinlex"),
                                         ("rational", "tdinlex")])
def test_compute_json_builds_no_polynomial(spec, order, tmp_path, capsys,
                                           monkeypatch):
    """compute runs, verifies and writes either format from the matrices;
    a fallback to Polynomial dicts would raise here and exit 3."""
    field = make_field(spec)
    path = tmp_path / "pts.txt"
    path.write_text("".join(f"{x},{y}\n" for x, y in
                            gen_points(field, 40, seed=2)))

    def refuse(self, *args):
        raise AssertionError("compute built a Polynomial")

    monkeypatch.setattr(Polynomial, "__init__", refuse)
    args = ["compute", "--field", spec, "--order", order,
            "--points", str(path)]
    assert run_cli(args + ["--out", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["verify"]["passed"] is True
    assert run_cli(args + ["--out", "text"]) == 0
    assert capsys.readouterr().out.endswith("\nverify: PASS\n")
