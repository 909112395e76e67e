"""Seeded runs far above the oracle's cap: the runners agree and every
result certifies."""

import pytest

from bmpoints.bm import bm_run, gpbm_run, spbm_run
from bmpoints.fields import make_field
from bmpoints.orders import LEX, TDINLEX
from bmpoints.randgen import gen_points
from bmpoints.verify import verify_result


@pytest.mark.parametrize("field, order, size, runners", [
    ("q:23", LEX, 500, (bm_run, spbm_run, gpbm_run)),
    ("q:2147483647", TDINLEX, 500, (bm_run, gpbm_run)),
    ("q:101", TDINLEX, 1000, (gpbm_run,)),
], ids=["q23-lex-500", "q2^31-1-tdinlex-500", "q101-tdinlex-1000"])
def test_runners_agree_and_certify(field, order, size, runners):
    ps = gen_points(make_field(field), size, seed=5)
    runs = [run(ps, order) for run in runners]
    for res in runs:
        assert len(res.N) == size, res.algorithm
        assert res.G == runs[0].G, res.algorithm
        assert set(res.N) == set(runs[0].N), res.algorithm
        report = verify_result(res)
        assert report.passed, f"{res.algorithm}\n{report.text()}"
