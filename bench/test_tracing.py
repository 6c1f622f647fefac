"""The tracer counts what the program does and never more time than passed.

    python3 -m pytest -q bench
"""

import argparse
import json

import numpy as np
import pytest

import run

workloads = run.import_package()

from nonsep import family, polytope  # noqa: E402
from tracing import LAYERS, LP, Tracer  # noqa: E402


def square_chain(n):
    """n unit squares, each overlapping the next: an NS family."""
    xs = np.array([[0.7 * i, 0.2 * (i % 2)] for i in range(n)])
    return family.HomotheticFamily(polytope.cube(2), xs, np.ones(n))


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_ns_family_costs_one_lp_per_bipartition(n):
    fam = square_chain(n)
    original = family.is_ns
    tracer = Tracer()
    tracer.install()
    try:
        assert family.is_ns(fam) == (True, None)
        assert tracer.stats[LP].calls == 2 ** (n - 1) - 1
        assert tracer.stats["family.is_ns"].lp_calls == 2 ** (n - 1) - 1
        assert family.is_wns(fam)[0]
        assert tracer.stats[LP].calls == 2 ** (n - 1) - 1
        assert tracer.stats["family.is_wns"].lp_calls == 0
    finally:
        tracer.uninstall()
    assert family.is_ns is original


def test_self_time_fits_in_the_traced_pass(tmp_path):
    ops = workloads.build("cover-certify", 3, run.ROOT, tmp_path)
    tally = run.Tally()
    metrics = run.traced(argparse.Namespace(seconds=0.0), ops, tally)
    assert tally.correct and tally.failed == 0
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: v["unit"] for name, v in metrics.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    total = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
    assert 0 < total <= metrics["trace.wall_s"]["value"]
    # lutwak_check reaches contains_translate through covering's own binding
    direct = sum(op.kind == "contains_translate" for op in ops)
    assert metrics["polytope.contains_translate.calls"]["value"] > direct
