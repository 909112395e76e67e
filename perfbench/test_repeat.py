"""The benchmark's exact counts repeat between two runs with the same seed.

Run from the repository root with either of

    python3 perfbench/test_repeat.py
    python3 -m pytest perfbench/test_repeat.py
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(RUN.parent)]

from spans import COUNTS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def traced_run(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=300)
    return json.loads(out.stdout.splitlines()[-1])


def test_counts_repeat_exactly():
    for workload in WORKLOADS:
        first, second = traced_run(workload, 7), traced_run(workload, 7)
        assert first["correct"] and second["correct"], workload
        for name in COUNTS:
            a = first["metrics"][name]
            b = second["metrics"][name]
            assert a["unit"] == "count" and a == b, (workload, name, a, b)


if __name__ == "__main__":
    test_counts_repeat_exactly()
    print("counts repeat exactly on", ", ".join(WORKLOADS))
