"""The benchmark tracer still finds and restores every traced name."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_targets_round_trip():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(PERFBENCH))
    originals = [owner.__dict__[attr] for owner, attr, *_ in spans.TARGETS]
    tracer = spans.Tracer()
    try:
        tracer.install()
        for (owner, attr, *_), fn in zip(spans.TARGETS, originals):
            assert owner.__dict__[attr] is not fn, attr
    finally:
        tracer.uninstall()
    for (owner, attr, *_), fn in zip(spans.TARGETS, originals):
        assert owner.__dict__[attr] is fn, attr
