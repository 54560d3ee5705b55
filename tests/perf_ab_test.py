#!/usr/bin/env python3
"""The A/B verdict of bench/perf_ab.py on canned pairs, against the bounds
in BENCHMARK.json, and which tree's bounds gate it. Builds and runs nothing.

    python3 tests/perf_ab_test.py
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "bench"))
import perf_ab  # noqa: E402

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
PARENT = {"ops_per_s": 100.0, "setup_s": 0.5, "peak_rss_mb": 100.0}


def doc(correct=True, **values):
    metrics = {k: {"value": v, "unit": "-"} for k, v in
               {**PARENT, **values}.items()}
    return {"correct": correct, "attempted": 1, "failed": 0,
            "metrics": metrics}


def pairs(n=5, **change):
    """n identical pairs of the parent's values against `change`'s."""
    return {"w": [(doc(), doc(**change)) for _ in range(n)]}


class Verdict(unittest.TestCase):
    def judge(self, pairs):
        rows, failures = perf_ab.verdict(END_TO_END, pairs)
        return {r["metric"]: r for r in rows}, failures

    def test_ops_per_s_median_of_0_70_fails_and_0_80_passes(self):
        rows, failures = self.judge(pairs(ops_per_s=70.0))
        self.assertAlmostEqual(rows["ops_per_s"]["ratio"], 0.70)
        self.assertFalse(rows["ops_per_s"]["ok"])
        self.assertEqual(len(failures), 1)
        self.assertIn("w ops_per_s", failures[0])
        rows, failures = self.judge(pairs(ops_per_s=80.0))
        self.assertTrue(rows["ops_per_s"]["ok"])
        self.assertEqual(failures, [])

    def test_the_median_decides_not_a_single_pair(self):
        # Two of five pairs at 0.5x, the median pair at 0.9x: passes.
        p = doc()
        ps = {"w": [(p, doc(ops_per_s=v)) for v in (50, 50, 90, 95, 99)]}
        rows, failures = self.judge(ps)
        self.assertAlmostEqual(rows["ops_per_s"]["ratio"], 0.90)
        self.assertEqual(failures, [])

    def test_setup_s_median_of_1_30_fails_lower_is_better(self):
        rows, failures = self.judge(pairs(setup_s=0.65))
        self.assertAlmostEqual(rows["setup_s"]["ratio"], 1.30)
        self.assertFalse(rows["setup_s"]["ok"])
        self.assertEqual(len(failures), 1)
        self.assertIn("w setup_s", failures[0])
        # Faster setup is a win, never a failure.
        rows, failures = self.judge(pairs(setup_s=0.1))
        self.assertEqual(rows["setup_s"]["change_wins"], 5)
        self.assertEqual(failures, [])

    def test_peak_rss_mb_median_of_1_06_fails(self):
        rows, failures = self.judge(pairs(peak_rss_mb=106.0))
        self.assertAlmostEqual(rows["peak_rss_mb"]["ratio"], 1.06)
        self.assertFalse(rows["peak_rss_mb"]["ok"])
        self.assertIn("w peak_rss_mb", failures[0])
        _, failures = self.judge(pairs(peak_rss_mb=104.0))
        self.assertEqual(failures, [])

    def test_a_tie_counts_for_neither_side(self):
        rows, failures = self.judge(pairs(n=3))
        for r in rows.values():
            self.assertEqual((r["change_wins"], r["parent_wins"]), (0, 0))
            self.assertEqual(r["ratio"], 1.0)
        self.assertEqual(failures, [])
        ps = {"w": [(doc(), doc()), (doc(), doc(ops_per_s=120.0)),
                    (doc(), doc(ops_per_s=90.0))]}
        rows, _ = self.judge(ps)
        self.assertEqual(rows["ops_per_s"]["change_wins"], 1)
        self.assertEqual(rows["ops_per_s"]["parent_wins"], 1)

    def test_one_incorrect_run_fails_the_whole_ab(self):
        ps = pairs()
        ps["w"][2] = (doc(), doc(correct=False))
        _, failures = self.judge(ps)
        self.assertEqual(failures, ["w: 1 run(s) not correct"])
        # A run that printed no result line counts the same.
        ps["w"][2] = (None, doc())
        _, failures = self.judge(ps)
        self.assertEqual(failures, ["w: 1 run(s) not correct"])

    def test_the_parents_bounds_gate_not_the_changes(self):
        # The change loosens ops_per_s to 0.50 in its own BENCHMARK.json;
        # the parent's 0.24 still fails a 0.70 median.
        loose = [{**m, "bound": 0.50} if m["name"] == "ops_per_s" else m
                 for m in END_TO_END]
        with tempfile.TemporaryDirectory() as tmp:
            trees = {side: Path(tmp) / side for side in perf_ab.SIDES}
            for side, end_to_end in (("parent", END_TO_END),
                                     ("change", loose)):
                trees[side].mkdir()
                (trees[side] / "BENCHMARK.json").write_text(json.dumps(
                    {"workloads": [{"name": "w"}], "end_to_end": end_to_end}))
            spec = perf_ab.gate(trees)
        self.assertEqual([w["name"] for w in spec["workloads"]], ["w"])
        _, failures = perf_ab.verdict(spec["end_to_end"],
                                      pairs(ops_per_s=70.0))
        self.assertEqual(len(failures), 1)
        self.assertIn("w ops_per_s", failures[0])

    def test_a_metric_the_change_adds_is_ungated_one_it_drops_fails(self):
        rows, failures = self.judge(pairs(new_metric=1.0))
        self.assertNotIn("new_metric", rows)
        self.assertEqual(failures, [])
        change = doc()
        del change["metrics"]["setup_s"]
        _, failures = self.judge({"w": [(doc(), change)] * 3})
        self.assertEqual(failures, ["w setup_s: not reported"])

    def test_every_end_to_end_metric_gets_a_row_per_workload(self):
        ps = {**pairs(), "v": pairs()["w"]}
        rows, failures = perf_ab.verdict(END_TO_END, ps)
        self.assertEqual(len(rows), 2 * len(END_TO_END))
        self.assertEqual(failures, [])


if __name__ == "__main__":
    unittest.main()
