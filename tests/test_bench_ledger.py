"""Arithmetic check of the committed bench ledgers (``BENCH_*.json``).

A ledger records alternating parent/change runs of ``bench/run.py``:
each run's ``provenance`` line and final JSON line, and, per cell
(workload, seed, arguments) and metric, each side's median and q1–q3
and the change's pair wins. Every summary number here is recomputed
from the runs, so a hand-edited one fails, and so does a claim verdict
that its own cells do not support.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LEDGERS = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")


def _directions():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["better"]
            for metric in bench["end_to_end"] + bench["per_layer"]}


def percentile(values, q):
    """Linear-interpolated (type 7) percentile, as ``bench/run.py``."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _value(run, metric):
    return run["result"]["metrics"][metric]["value"]


def _by_pair(cell):
    """``{pair: {side: run}}``; each pair holds one run of each side."""
    pairs = {}
    for run in cell["runs"]:
        pairs.setdefault(run["pair"], {})[run["side"]] = run
    return pairs


def _wins(cell, metric, better):
    wins = 0
    for pair in _by_pair(cell).values():
        parent, change = _value(pair["parent"], metric), _value(
            pair["change"], metric)
        wins += change < parent if better == "lower" else change > parent
    return wins


@pytest.fixture(params=LEDGERS, ids=lambda path: path.name)
def ledger(request):
    return json.loads(request.param.read_text())


def test_a_ledger_is_committed():
    assert LEDGERS, "no BENCH_*.json at the repository root"


def test_every_run_is_correct(ledger):
    for cell in ledger["cells"]:
        for run in cell["runs"]:
            result = run["result"]
            assert result["correct"] is True, (cell["workload"], run)
            assert result["failed"] == 0 and result["attempted"] > 0


def test_runs_belong_to_their_cell_and_pair_up(ledger):
    for cell in ledger["cells"]:
        for run in cell["runs"]:
            prov = run["provenance"]
            assert (prov["workload"], prov["seed"]) == (cell["workload"],
                                                        cell["seed"])
            assert [prov["seconds"], prov["trace"]] == [
                float(cell["args"]["seconds"]), cell["args"]["trace"]]
            assert run["side"] in SIDES
        pairs = _by_pair(cell)
        assert sorted(pairs) == list(range(1, cell["pairs"] + 1))
        assert all(sorted(pair) == sorted(SIDES) for pair in pairs.values())
        assert len(cell["runs"]) == 2 * cell["pairs"]


def test_the_two_sides_ran_different_sources(ledger):
    digests = {side: {run["provenance"]["src_sha256"]
                      for cell in ledger["cells"] for run in cell["runs"]
                      if run["side"] == side} for side in SIDES}
    assert len(digests["parent"]) == 1 and len(digests["change"]) == 1
    assert digests["parent"] != digests["change"]


def test_summaries_equal_the_values_recomputed_from_the_runs(ledger):
    better = _directions()
    for cell in ledger["cells"]:
        runs = cell["runs"]
        metrics = set(runs[0]["result"]["metrics"])
        assert set(cell["summary"]) == metrics, cell["workload"]
        for metric, summary in cell["summary"].items():
            assert summary["better"] == better[metric], metric
            for side in SIDES:
                values = [_value(run, metric) for run in runs
                          if run["side"] == side]
                assert summary[side] == {
                    "median": statistics.median(values),
                    "q1": percentile(values, 0.25),
                    "q3": percentile(values, 0.75),
                }, (cell["workload"], cell["seed"], metric, side)
            assert summary["change_wins"] == _wins(
                cell, metric, summary["better"]), metric


def test_claim_verdicts_follow_from_their_cells(ledger):
    claim = ledger["claim"]
    metric = claim["metric"]
    seeds = []
    for verdict in claim["verdicts"]:
        cell = next(cell for cell in ledger["cells"]
                    if cell["workload"] == claim["workload"]
                    and cell["seed"] == verdict["seed"]
                    and cell["args"] == claim["args"])
        assert cell["pairs"] >= claim["min_pairs"] >= 10
        summary = cell["summary"][metric]
        parent, change = summary["parent"], summary["change"]
        gain = parent["median"] - change["median"]
        if summary["better"] == "higher":
            gain = -gain
        spread = parent["q3"] - parent["q1"]
        assert verdict == {
            "seed": cell["seed"],
            "pairs": cell["pairs"],
            "change_wins": summary["change_wins"],
            "median_gain": gain,
            "parent_q1_q3_spread": spread,
            "holds": (summary["change_wins"] >= 0.9 * cell["pairs"]
                      and gain > spread),
        }
        seeds.append(verdict["seed"])
    assert sorted(seeds) == sorted(claim["seeds"])
