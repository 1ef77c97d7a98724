"""Tests of the benchmark's own arithmetic: self time, tail, oracle, speed.

    python3 -m pytest perfbench
"""

import math
import random
import time

from oracle import is_unknown, mismatch
from run import tail
from speed import REFERENCE_S, Clock, Speedometer
from tracer import layer_metrics, outermost, self_times
from workloads import Task, round_tasks


def span(name, start, end, parent, task="t"):
    return (name, start, end, parent, task)


def test_self_time_subtracts_nested_children():
    spans = {
        0: span("a", 0.0, 10.0, -1),
        1: span("b", 1.0, 4.0, 0),
        2: span("c", 2.0, 3.0, 1),
        3: span("d", 5.0, 7.0, 0),
    }
    selfs = self_times(spans)
    assert math.isclose(selfs[0], 10.0 - 3.0 - 2.0)
    assert math.isclose(selfs[1], 3.0 - 1.0)
    assert math.isclose(selfs[2], 1.0)
    assert math.isclose(selfs[3], 2.0)
    assert math.isclose(sum(selfs.values()), 10.0)


def test_self_time_counts_overlapping_children_once():
    # children recorded from two threads may overlap; only their union
    # inside the parent's interval is covered
    spans = {
        0: span("a", 0.0, 10.0, -1),
        1: span("b", 2.0, 6.0, 0),
        2: span("b", 4.0, 8.0, 0),
        3: span("b", 9.0, 12.0, 0),
    }
    assert math.isclose(self_times(spans)[0], 10.0 - 6.0 - 1.0)


def test_total_time_skips_spans_nested_in_the_same_name():
    spans = {
        0: span("pairs.verify_pd", 0.0, 5.0, -1),
        1: span("chains.compose", 1.0, 2.0, 0),
        2: span("pairs.verify_pd", 2.0, 4.0, 0),
        3: span("pairs.verify_pd", 6.0, 7.0, -1),
    }
    assert outermost(spans, 0) and outermost(spans, 3)
    assert not outermost(spans, 2)
    layers = layer_metrics(spans, {}, 0, 0.0, rounds=2)
    assert math.isclose(layers["pairs.verify_pd.total_s"], (5.0 + 1.0) / 2)
    assert math.isclose(layers["pairs.verify_pd.self_s"],
                        (5.0 - 1.0 - 2.0 + 2.0 + 1.0) / 2)


def test_ratios_and_counts_per_round():
    spans = {
        0: span("intlinalg.sparse_solve", 0.0, 4.0, -1),
        1: span("intlinalg.snf", 1.0, 2.0, 0),
        2: span("intlinalg.sparse_solve", 5.0, 6.0, -1),
        3: span("intlinalg.snf", 7.0, 8.0, -1),
    }
    attrs = {0: {"ok": True, "nnz": 10}, 1: {"cells": 6, "bits": 3},
             2: {"ok": False, "nnz": 4}, 3: {"cells": 20, "bits": 9}}
    layers = layer_metrics(spans, attrs, 7, 0.0, rounds=2)
    assert layers["intlinalg.sparse_solve.calls"] == 1
    assert layers["intlinalg.sparse_solve.solved_ratio"] == 0.5
    assert layers["intlinalg.sparse_solve.nnz"] == 7
    assert layers["intlinalg.sparse_solve.core_cells"] == 3
    assert layers["intlinalg.snf.cells"] == 13
    assert layers["intlinalg.snf.max_cells"] == 20
    assert layers["intlinalg.snf.max_bits"] == 9
    assert layers["groups.mul.calls"] == 3.5
    assert layers["chains.find_contraction.found_ratio"] == 0.0


def test_tail_is_the_highest_percentile_with_ten_beyond():
    values = list(range(1, 101))          # 1..100
    assert tail(values) == (90, 90.0, 10)
    value, pct, beyond = tail(list(reversed(range(1, 21))))
    assert (value, pct, beyond) == (10, 50.0, 10)
    value, pct, beyond = tail(range(11))
    assert (value, beyond) == (0, 10) and math.isclose(pct, 100 / 11)


def test_tail_below_eleven_samples_is_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_oracle_accepts_any_answer_to_a_recorded_unknown():
    assert is_unknown({"exit": 2, "status": "unknown"})
    assert not is_unknown({"status": "pass", "squares": [["b", "unknown"]]})
    assert mismatch({"status": "pass", "squares": [["b", "unknown"]]},
                    {"status": "fail", "squares": [["b", "unknown"]]})
    assert mismatch({"exit": 2, "status": "unknown"},
                    {"exit": 0, "status": "pass"}) is None
    assert mismatch({"status": "pass"}, {"status": "fail"}).startswith(
        "wrong outcome")
    assert mismatch({"status": "pass"},
                    {"status": "pass", "_entry_seconds": 1.0}) is None


def test_reference_seconds_average_speed_not_kernel_time():
    speedometer = Speedometer()
    now = time.perf_counter()
    # the machine ran at half and then at full reference speed
    speedometer.taken = [now, now]
    speedometer.kernel_s = [2 * REFERENCE_S, REFERENCE_S]
    clock = Clock(speedometer, first=0)
    clock.raw = 1.0
    assert math.isclose(speedometer.reference(clock), 0.75)


def test_lead_task_runs_first_whatever_the_seed():
    strata = [[[Task(f"t{i}", None)]] for i in range(6)]
    strata.append([[Task("big", None, lead=True)]])
    for seed in range(20):
        tasks = round_tasks(strata, random.Random(seed))
        assert tasks[0].id == "big"
        assert sorted(t.id for t in tasks[1:]) == [f"t{i}" for i in range(6)]
