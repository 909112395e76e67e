"""`compute` output stays bit-identical to the benchmark's recorded digests,
in the layout of json.dumps(..., indent=2)."""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from bmpoints.cli import run_cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
DIGEST_SEED = 1


def _workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads.WORKLOADS


WORKLOADS = _workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_compute_matches_recorded_digests(name, tmp_path, capsys):
    wl = WORKLOADS[name]
    recorded = json.loads((PERFBENCH / "digests.json").read_text())[name]
    got = []
    for path in wl.write(tmp_path, DIGEST_SEED):
        assert run_cli(["compute", "--field", wl.field, "--order", wl.order,
                        "--points", str(path), "--out", "json"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert out == json.dumps(doc, indent=2) + "\n"
        keep = {k: doc[k] for k in ("G", "N", "Q", "pointPermutation")}
        got.append(hashlib.sha256(
            json.dumps(keep, sort_keys=True).encode()).hexdigest())
    assert got == recorded
