"""Self-tests of the benchmark's own arithmetic and request generator.

    python3 perfbench/test_perfbench.py

run.py also runs them at the start of every benchmark run, and counts a
failure like any other failed check.
"""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import measure  # noqa: E402
import mix  # noqa: E402
import paper  # noqa: E402

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures", "reports")


class PercentileRule(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond_it(self):
        self.assertEqual(measure.tail_percentile(10000), 99.9)
        self.assertEqual(measure.tail_percentile(1000), 99.0)
        self.assertEqual(measure.tail_percentile(999), 95.0)
        self.assertEqual(measure.tail_percentile(100), 90.0)
        self.assertEqual(measure.tail_percentile(40), 75.0)
        self.assertIsNone(measure.tail_percentile(39))

    def test_summary_reports_median_tail_and_n(self):
        summary = measure.summarize([float(v) for v in range(100, 0, -1)])
        self.assertEqual(summary["p50"], 50.5)
        self.assertEqual((summary["tail_p"], summary["tail"]), (90.0, 90.0))
        self.assertEqual(measure.format_summary("x", summary, "ms"),
                         "x: p50=50.500 ms p90=90.000 ms (n=100)")

    def test_few_samples_give_a_median_only(self):
        summary = measure.summarize([3.0, 1.0, 2.0])
        self.assertEqual(summary, {"n": 3, "p50": 2.0})


class PaperGap(unittest.TestCase):
    def reports(self):
        data = {}
        for experiment in paper.EXPERIMENTS:
            with open(os.path.join(FIXTURES, experiment + ".json")) as handle:
                data[experiment] = json.load(handle)["data"]
        return data

    def test_fixture_gaps(self):
        rows, gaps = paper.gap_table(self.reports())
        self.assertEqual(len(rows), len(paper.REFERENCES))
        # fig03: 55.8 vs 45.8 and 26.8 vs 16.8.
        self.assertAlmostEqual(gaps["fit"], 10.0)
        # fig10 4+4+2+2, sec33 4+4+2+2, table4 2.8+8.9+2.5+1.1 over 12 rows.
        self.assertAlmostEqual(gaps["heldout"], 39.3 / 12)

    def test_harmonic_means_and_unreached_sizes(self):
        measured = paper.measured_values(self.reports())
        self.assertAlmostEqual(measured["fig10 Hm basic/conv int @48"], 2.0)
        self.assertAlmostEqual(measured["fig10 Hm extended/conv int @48"], 7.0)
        self.assertAlmostEqual(measured["sec33 basic/conv fp @64"], -1.0)
        self.assertEqual(measured["table4 saved fp 79"], 0.0)
        self.assertNotIn("sec33 basic/conv int @48", measured)

    def test_missing_reference_is_an_error(self):
        reports = self.reports()
        reports["sec33"] = {"points": []}
        with self.assertRaises(KeyError):
            paper.gap_table(reports)


def span(id, parent, start, end, name="sim.run"):
    return {"id": id, "parent": parent, "start_ns": start, "end_ns": end, "name": name,
            "trace": ""}


class SpanSelfTime(unittest.TestCase):
    def test_children_are_unioned_and_clipped(self):
        spans = [span(1, 0, 0, 100, "experiments.resolve"),
                 span(2, 1, 10, 30), span(3, 1, 20, 50),  # overlap: two threads
                 span(4, 1, 90, 120),                      # ends after its parent
                 span(5, 3, 25, 35, "isa.decoded_trace_for")]
        own = measure.self_times(spans)
        self.assertEqual(own[1], 100 - 40 - 10)
        self.assertEqual(own[3], 30 - 10)
        self.assertEqual(own[5], 10)
        layers = measure.layer_self_seconds(spans)
        self.assertAlmostEqual(layers["experiments"], 50e-9)
        self.assertAlmostEqual(layers["sim"], (20 + 20 + 30) * 1e-9)
        self.assertAlmostEqual(layers["isa"], 10e-9)


class RequestMix(unittest.TestCase):
    IDS = {"workloads": ["w1", "w2", "w3"], "policies": ["p1", "p2"],
           "experiments": ["e1", "e2"]}

    def test_same_seed_same_sequence(self):
        self.assertEqual(mix.generate(7, self.IDS, 500), mix.generate(7, self.IDS, 500))
        self.assertNotEqual(mix.generate(7, self.IDS, 500), mix.generate(8, self.IDS, 500))

    def test_uses_only_discovered_ids_in_the_stated_shares(self):
        requests = mix.generate(3, self.IDS, 2000)
        points = [json.loads(body) for kind, _, body in requests if kind == "points"]
        runs = [json.loads(body) for kind, _, body in requests if kind == "run"]
        self.assertAlmostEqual(len(points) / len(requests), mix.POINTS_SHARE, delta=0.03)
        seen, repeats, total = set(), 0, 0
        for body in points:
            self.assertEqual(body["scale"], "bench")
            self.assertTrue(1 <= len(body["points"]) <= mix.MAX_POINTS)
            for point in body["points"]:
                self.assertIn(point["workload"], self.IDS["workloads"])
                self.assertIn(point["policy"], self.IDS["policies"])
                self.assertIn(point["phys_int"], mix.FIG11_SIZES)
                key = json.dumps(point, sort_keys=True)
                repeats += key in seen
                total += 1
                seen.add(key)
        self.assertGreater(repeats / total, 0.4)
        self.assertTrue(all(body["experiments"][0] in self.IDS["experiments"] for body in runs))

    def test_discover_reads_the_catalog(self):
        catalog = {key: [{"id": i} for i in ids] for key, ids in self.IDS.items()}
        self.assertEqual(mix.discover(catalog), self.IDS)
        catalog["policies"] = []
        with self.assertRaises(ValueError):
            mix.discover(catalog)


if __name__ == "__main__":
    unittest.main()
