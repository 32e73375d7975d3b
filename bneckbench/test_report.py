#!/usr/bin/env python3
"""Tests of the benchmark's own logic (report.py and BENCHMARK.json).

    python3 bneckbench/test_report.py
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import report  # noqa: E402

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def fake_pass(rounds=3, ops=30):
    return {
        "setup_s": [0.02, 0.01, 0.03],
        "rounds": [{"wall_s": 2.0, "packets": 1000.0, "quiescence_ms": 5.0,
                    "sessions": 100.0, "peak_rss_mb": 12.5} for _ in range(rounds)],
        "ops_ms": [float(i) for i in range(1, ops + 1)],
    }


class TailRule(unittest.TestCase):
    def test_hundred_samples_give_p90_with_ten_beyond(self):
        value, pct, n = report.tail([float(i) for i in range(1, 101)])
        self.assertEqual((value, pct, n), (90.0, 90, 100))

    def test_more_samples_stay_capped_at_p90(self):
        _, pct, n = report.tail([float(i) for i in range(1000)])
        self.assertEqual((pct, n), (90, 1000))

    def test_fewer_samples_fall_back_to_highest_percentile_with_ten_beyond(self):
        for n in (11, 20, 25, 50, 99):
            values = [float(i) for i in range(n)]
            value, pct, count = report.tail(values)
            self.assertEqual(count, n)
            rank = -(-pct * n // 100)  # ceil
            self.assertGreaterEqual(n - rank, 10, n)
            self.assertEqual(value, sorted(values)[rank - 1])
            # One percentile higher would leave fewer than ten beyond.
            higher = -(-(pct + 1) * n // 100)
            self.assertLess(n - higher, 10, n)

    def test_twenty_samples_report_p50(self):
        self.assertEqual(report.tail([float(i) for i in range(20)])[1], 50)

    def test_ten_or_fewer_samples_have_no_tail(self):
        self.assertEqual(report.tail([1.0] * 10), (0.0, 0, 10))
        self.assertEqual(report.tail([]), (0.0, 0, 0))

    def test_order_of_samples_does_not_matter(self):
        values = [float(i) for i in range(200)]
        self.assertEqual(report.tail(values), report.tail(values[::-1]))


class FailedShare(unittest.TestCase):
    def test_share(self):
        self.assertEqual(report.failed_share(200, 0), 0.0)
        self.assertEqual(report.failed_share(200, 50), 0.25)
        self.assertEqual(report.failed_share(3, 3), 1.0)

    def test_rejects_impossible_counts(self):
        for attempted, failed in ((0, 0), (5, 6), (5, -1)):
            with self.assertRaises(ValueError):
                report.failed_share(attempted, failed)
        with self.assertRaises(TypeError):
            report.failed_share(5.0, 1)


class Names(unittest.TestCase):
    def test_valid_names(self):
        for name in ("setup_s", "converge_ms.p50", "core.packets.SetBottleneck",
                     "overhead.ns_per_packet", "9lives", "a-b"):
            self.assertTrue(report.NAME_RE.match(name), name)

    def test_invalid_names(self):
        for name in ("", ".hidden", "_x", "has space", "ümlaut", "a/b",
                     "x" * 65, "semi;colon"):
            self.assertFalse(report.NAME_RE.match(name), name)

    def test_units(self):
        for unit in ("ms", "s", "1/s", "count", "%", "MB", "ratio"):
            self.assertTrue(report.UNIT_RE.match(unit), unit)
        for unit in ("", "m s", "x" * 17):
            self.assertFalse(report.UNIT_RE.match(unit), unit)

    def test_benchmark_json_is_consistent(self):
        report.check_spec(SPEC)

    def test_duplicate_names_are_rejected(self):
        spec = json.loads(json.dumps(SPEC))
        spec["per_layer"].append(dict(spec["end_to_end"][0]))
        with self.assertRaises(ValueError):
            report.check_spec(spec)


class Shape(unittest.TestCase):
    def test_end_to_end_metrics_of_a_pass(self):
        m = report.end_to_end(fake_pass())
        self.assertEqual(m["setup_s"], 0.02)
        self.assertEqual(m["run_s"], 2.0)
        self.assertEqual(m["ns_per_packet"], 2e6)
        self.assertEqual(m["packets"], 1000.0)
        self.assertEqual(m["converge_ms.p50"], 15.5)
        self.assertEqual(m["sessions_per_s"], 50.0)
        self.assertEqual(set(m), {x["name"] for x in SPEC["end_to_end"]})

    def test_result_line_has_exactly_the_contract_keys(self):
        values = report.end_to_end(fake_pass())
        line = report.result_line(True, 10, 1, values, SPEC["end_to_end"])
        obj = report.check_result_line(line, SPEC["end_to_end"])
        self.assertEqual(sorted(obj), sorted(report.RESULT_KEYS))
        for m in SPEC["end_to_end"]:
            self.assertEqual(obj["metrics"][m["name"]]["unit"], m["unit"])

    def test_result_line_rejects_missing_extra_and_bad_values(self):
        values = report.end_to_end(fake_pass())
        missing = dict(values)
        missing.pop("run_s")
        extra = dict(values, bogus=1.0)
        nan = dict(values, run_s=float("nan"))
        for bad in (missing, extra, nan):
            with self.assertRaises(ValueError):
                report.result_line(True, 10, 0, bad, SPEC["end_to_end"])
        with self.assertRaises(ValueError):
            report.result_line(True, 0, 0, values, SPEC["end_to_end"])

    def test_check_result_line_rejects_extra_keys(self):
        values = report.end_to_end(fake_pass())
        obj = json.loads(report.result_line(True, 1, 0, values, SPEC["end_to_end"]))
        obj["provenance"] = {}
        with self.assertRaises(ValueError):
            report.check_result_line(json.dumps(obj), SPEC["end_to_end"])

    def test_per_layer_of_a_traced_run(self):
        raw = {"untraced": fake_pass(), "traced": fake_pass(ops=100),
               "layers": {"sim.events": 7.0}}
        raw["traced"]["rounds"][0]["wall_s"] = 2.2
        raw["traced"]["rounds"][1]["wall_s"] = 2.2
        layers = report.per_layer(raw, [m["name"] for m in SPEC["end_to_end"]])
        self.assertEqual(layers["sim.events"], 7.0)
        self.assertEqual(layers["wire.encode_ns"], 0.0)  # layer not used
        self.assertEqual(layers["converge_ms.tail_pct"], 90)
        self.assertEqual(layers["converge_ms.samples"], 100)
        self.assertAlmostEqual(layers["overhead.run_s"], 0.1)
        line = report.result_line(True, 1, 0, layers, SPEC["per_layer"])
        report.check_result_line(line, SPEC["per_layer"])

    def test_undeclared_layer_metric_is_an_error(self):
        raw = {"untraced": fake_pass(), "traced": fake_pass(),
               "layers": {"sim.bogus": 1.0}}
        with self.assertRaises(ValueError):
            report.per_layer(raw, [m["name"] for m in SPEC["end_to_end"]])


if __name__ == "__main__":
    unittest.main()
