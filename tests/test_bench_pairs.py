"""tools/bench_pairs.py's seed parsing, pair summary and gain rule, on made-up runs."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "samples_per_ref", "better": "higher", "bound": 0.24},
           {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]
CLAIM = ("opent-cue", "samples_per_ref")


def test_parse_seeds_takes_ranges_and_single_seeds():
    assert bench_pairs.parse_seeds("5-8,11") == [5, 6, 7, 8, 11]
    assert bench_pairs.parse_seeds("3") == [3]


def _runs(parent, change, workload="opent-cue"):
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change)):
        for side, (spr, rss) in (("parent", p), ("change", c)):
            runs.append({"workload": workload, "seed": seed, "side": side, "correct": True,
                         "attempted": 100, "failed": 0,
                         "metrics": {"samples_per_ref": spr, "peak_rss_mb": rss}})
    return runs


def _verdict(runs):
    return bench_pairs.claim_verdict(bench_pairs.summarise(runs, METRICS), METRICS, *CLAIM)


def _clear_gain(pairs=10, rss=42.0):
    # the parent spreads 0.55 between its quartiles at ten pairs; the change wins every pair by 10
    parent = [(100.0 + 0.1 * i, 42.0) for i in range(pairs)]
    change = [(110.0 + 0.1 * i, rss) for i in range(pairs)]
    return _runs(parent, change)


def test_summary_counts_wins_in_each_metrics_better_direction():
    parent = [(100.0, 42.0), (101.0, 42.0), (102.0, 42.0), (103.0, 42.0)]
    change = [(105.0, 41.0), (99.0, 43.0), (107.0, 43.0), (108.0, 43.0)]
    entry = bench_pairs.summarise(_runs(parent, change), METRICS)["opent-cue"]
    assert entry["pairs"] == 4
    assert entry["correct_runs"] == {"parent": 4, "change": 4}
    assert entry["samples_per_ref"]["pairs_won_by_change"] == 3
    assert entry["peak_rss_mb"]["pairs_won_by_change"] == 1
    assert entry["samples_per_ref"]["parent_median"] == pytest.approx(101.5)
    assert not entry["peak_rss_mb"]["worse_beyond_bound"]


@pytest.mark.parametrize("change_spr,met", [(110.0, True), (100.3, False)])
def test_claim_needs_nine_in_ten_wins_and_a_gain_beyond_the_parent_spread(change_spr, met):
    parent = [(100.0 + 0.1 * i, 42.0) for i in range(10)]
    change = [(change_spr + 0.1 * i, 42.0) for i in range(10)]
    assert _verdict(_runs(parent, change))["met"] is met


def test_claim_needs_ten_pairs():
    verdict = _verdict(_clear_gain(pairs=2))
    assert not verdict["met"]
    assert verdict["missed"] == ["2 pairs, fewer than 10"]


def test_claim_fails_on_failed_operations_or_incorrect_runs_on_any_workload():
    runs = _clear_gain() + _runs([(50.0, 42.0)] * 3, [(60.0, 42.0)] * 3, workload="ep-cue")
    assert _verdict(runs)["met"]
    failing = [dict(r) for r in runs]
    next(r for r in failing if r["workload"] == "ep-cue" and r["side"] == "change")["failed"] = 1
    assert _verdict(failing)["missed"] == ["ep-cue: a larger share of failed operations than the parent"]
    wrong = [dict(r) for r in runs]
    next(r for r in wrong if r["workload"] == "opent-cue" and r["side"] == "change")["correct"] = False
    assert _verdict(wrong)["missed"] == ["opent-cue: fewer correct runs than the parent"]


def test_claim_fails_when_another_metric_is_worse_beyond_its_bound():
    runs = _clear_gain(rss=47.0)
    summary = bench_pairs.summarise(runs, METRICS)
    assert summary["opent-cue"]["peak_rss_mb"]["worse_beyond_bound"]
    assert _verdict(runs)["missed"] == ["opent-cue:peak_rss_mb worse beyond its bound"]


def test_metric_is_unresolved_when_the_parent_spreads_beyond_the_bound_and_the_change_loses_a_pair():
    parent = [(spr, 42.0) for spr in (60.0, 100.0, 140.0, 100.0)]
    change = [(spr, 42.0) for spr in (70.0, 95.0, 150.0, 110.0)]
    stats = bench_pairs.summarise(_runs(parent, change), METRICS)["opent-cue"]["samples_per_ref"]
    assert stats["unresolved"]
    change = [(spr, 42.0) for spr in (70.0, 105.0, 150.0, 110.0)]
    stats = bench_pairs.summarise(_runs(parent, change), METRICS)["opent-cue"]["samples_per_ref"]
    assert not stats["unresolved"]
