"""Benchmark harness: seeded algorithm grids with CSV output.

Each (size, repetition) cell draws one point set that every algorithm in
the grid shares, so wall-time ratios compare like against like.  Only the
algorithm call is timed; drawing the points is not.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from statistics import median

from .bm import bm_run, gpbm_run, spbm_run
from .fields import Field
from .orders import TermOrder
from .randgen import SplitMix64, gen_points

RUNNERS = {"bm": bm_run, "spbm": spbm_run, "gpbm": gpbm_run}


@dataclass
class BenchRecord:
    algorithm: str
    field: str
    order: str
    size: int
    repetition: int
    wall_nanos: int
    mcs_ratio: float | None  # preprocessed share of points; None for bm


def run_bench(field: Field, order: TermOrder, sizes, reps: int, algos,
              seed: int) -> list:
    """Run the grid; records come back sorted by (algorithm, size, rep)."""
    for a in algos:
        if a not in RUNNERS:
            raise ValueError(f"unknown algorithm {a!r}")
    seeder = SplitMix64(seed)
    records = []
    for size in sizes:
        for rep in range(reps):
            ps = gen_points(field, size, seeder.next_u64())
            for algo in algos:
                t0 = time.perf_counter_ns()
                result = RUNNERS[algo](ps, order)
                dt = time.perf_counter_ns() - t0
                ratio = None
                if algo != "bm":
                    ratio = result.seeded_count / size
                records.append(BenchRecord(algo, field.name, order.name,
                                           size, rep, dt, ratio))
    records.sort(key=lambda r: (r.algorithm, r.size, r.repetition))
    return records


def bench_csv(records) -> str:
    """Data rows plus '#' median and speedup summary lines."""
    lines = ["algorithm,field,order,size,repetition,wallNanos,mcsRatio"]
    for r in records:
        ratio = "" if r.mcs_ratio is None else f"{r.mcs_ratio:.6f}"
        lines.append(f"{r.algorithm},{r.field},{r.order},{r.size},"
                     f"{r.repetition},{r.wall_nanos},{ratio}")
    cells: dict = {}
    for r in records:
        cells.setdefault((r.algorithm, r.size), []).append(r.wall_nanos)
    meds = {key: median(vals) for key, vals in sorted(cells.items())}
    for (algo, size), m in meds.items():
        lines.append(f"# median algorithm={algo} size={size} "
                     f"wallNanos={int(m)}")
    sizes = sorted({size for _, size in meds})
    algos = sorted({algo for algo, _ in meds})
    for size in sizes:
        for algo in algos:
            if algo == "bm" or ("bm", size) not in meds:
                continue
            speedup = meds[("bm", size)] / meds[(algo, size)]
            lines.append(f"# speedup size={size} {algo}/bm={speedup:.3f}x")
    return "\n".join(lines) + "\n"
