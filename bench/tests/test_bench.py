"""Self-tests of the benchmark: tracer arithmetic, patching, generators, checks.

Run with ``python3 -m unittest discover -s bench/tests`` (pytest collects
them too).  They use small inputs and finish in about a second.
"""
import dataclasses
import json
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import logsurf  # noqa: E402
import logsurf.cli  # noqa: E402,F401

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def span(name, start, end, parent):
    return [name, start, end, parent, 0, 0, False]


class SelfTime(unittest.TestCase):
    def test_self_time_is_span_minus_covered_children(self):
        spans = [
            span("a", 0.0, 10.0, -1),
            span("b", 1.0, 3.0, 0),
            span("c", 2.0, 4.0, 0),  # overlaps b: the union counts once
            span("d", 8.0, 12.0, 0),  # sticks out of a: clipped at 10
            span("e", 2.5, 2.75, 1),  # grandchild: b's business, not a's
        ]
        selfs = tracer.self_times(spans)
        self.assertAlmostEqual(selfs[0], 10.0 - (3.0 + 2.0))
        self.assertAlmostEqual(selfs[1], 2.0 - 0.25)
        self.assertAlmostEqual(selfs[4], 0.25)

    def test_busy_time_does_not_count_recursion_twice(self):
        spans = [span("f", 0.0, 4.0, -1), span("f", 1.0, 2.0, 0), span("g", 5.0, 6.0, -1)]
        stats = tracer.aggregate(spans)
        self.assertEqual(stats["f"]["calls"], 2)
        self.assertAlmostEqual(stats["f"]["busy"], 4.0)
        self.assertAlmostEqual(stats["f"]["self"], 4.0)


class Patching(unittest.TestCase):
    def bindings(self):
        t = tracer.Tracer(run.layers(logsurf))
        return {(ns.__name__, k): v for ns in t.namespaces() for k, v in vars(ns).items()}

    def test_wrappers_patch_every_binding_and_restore_the_originals(self):
        before = self.bindings()
        t = tracer.Tracer(run.layers(logsurf), run.COUNTERS)
        with t:
            # names bound by `from ... import` and the package re-exports
            for module, name in [(logsurf.zariski, "pairing"), (logsurf.catalog, "volume"),
                                 (logsurf.catalog, "contract_lc_trivial"), (logsurf, "zariski_decompose"),
                                 (logsurf.zariski, "_solve")]:
                value = getattr(module, name)
                if name == "_solve":
                    value = value.solve_symmetric
                self.assertTrue(hasattr(value, "__wrapped__"), f"{module.__name__}.{name}")
            # birational imports zariski_decompose lazily, at call time
            cfg = logsurf.make_config([("C", 2, 1), ("E", -2, 0)], [("C", "E", 1)])
            logsurf.contract_lc_trivial(cfg, logsurf.QDivisor({"C": 1, "E": 1}))
        names = [s[tracer.NAME] for s in t.spans]
        parent = names.index("birational.contract_lc_trivial")
        self.assertTrue(any(s[tracer.NAME] == "zariski.zariski_decompose" and s[tracer.PARENT] == parent
                            for s in t.spans))
        after = self.bindings()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)

    def test_failed_call_is_marked_and_still_restored(self):
        t = tracer.Tracer(run.layers(logsurf))
        cfg = logsurf.make_config([("C", -1, 0)])
        d = logsurf.QDivisor({"C": -1})
        with self.assertRaises(logsurf.LatticeError), t:
            logsurf.zariski_decompose(cfg, d)
        self.assertTrue(t.spans[0][tracer.FAILED])
        self.assertFalse(hasattr(logsurf.zariski_decompose, "__wrapped__"))


class Generators(unittest.TestCase):
    def test_generators_are_deterministic_for_a_seed(self):
        def sample(seed):
            rng = gen.rng_for(seed, "test")
            return (gen.chain(rng, 30), gen.tree(rng, 30), gen.surgery_script(rng, 60)[0],
                    gen.surgery_lengths(rng), gen.surgery_divisor(rng))

        self.assertEqual(sample(7), sample(7))
        self.assertNotEqual(sample(7), sample(8))

    def test_chains_and_trees_are_diagonally_dominant(self):
        rng = gen.rng_for(3, "test")
        for family in (gen.chain, gen.tree):
            curves, edges, _ = family(rng, 50)
            self.assertTrue(gen.is_diagonally_dominant(curves, edges))

    def test_surgery_lengths_cover_the_range(self):
        lengths = gen.surgery_lengths(gen.rng_for(1, "test"))
        self.assertEqual(sorted(lengths), sorted(gen.SURGERY_LENGTHS))
        self.assertEqual((min(lengths), max(lengths)), (50, 200))


class Checks(unittest.TestCase):
    def test_corrupted_result_is_counted_as_failed(self):
        w = workloads.Scaling(logsurf, 5, ROOT)
        op = next(op for op in w.cycle if op.key.startswith("chain25"))
        good = op.fn()
        bad = dataclasses.replace(good, volume=good.volume + 1)
        tally = workloads.Tally(w)
        tally.add(op.key, bad)  # first sight: full check
        tally.add(op.key, good)
        tally.add(op.key, bad)  # repeat: must equal the verified output
        tally.add(op.key, None, RuntimeError("boom"))
        self.assertEqual((tally.attempted, tally.failed), (4, 3))

    def test_stored_ib_star_value_does_not_pass(self):
        report = json.loads(json.dumps(logsurf.table1()))
        checks.check_table1(report)
        cell = report["rows"][5]["samples"][0]
        self.assertEqual((report["rows"][5]["row"], cell["b"], cell["vol_min"]), ("I_b*", 0, "1/15"))
        cell["vol_min"], cell["match"] = "1/22", True
        with self.assertRaises(checks.CheckError):
            checks.check_table1(report)

    def test_surgery_round_trip_is_checked(self):
        w = workloads.Surgery(logsurf, 2, ROOT)
        op = min(w.cycle, key=lambda o: int(o.key.rsplit("-", 1)[1]))
        out = op.fn()
        w.check(op.key, out)
        broken = out[:5] + (out[0].top,) + out[6:]
        with self.assertRaises(checks.CheckError):
            w.check(op.key, broken)


class Contract(unittest.TestCase):
    def test_benchmark_json_names_the_reported_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
