"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

They cover the seeded generators, the percentile and tail rules, the
import-time parser, the search-leaf count, the two-party oracle, and that a
deliberately perturbed output is counted as a failed op.
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

from nwe import catalog, discrimination, signaling  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def fingerprint(wl) -> list:
    """Everything a Solve round feeds the program, as comparable values."""
    out = []
    for label, ens, cfg, leader, _key in wl.solves:
        out.append((label, leader, cfg.adaptive, ens.priors.tolist()))
        out.append([f.tolist() for st in ens.states for f in st.factors])
        out.append([m.tolist() for per in cfg.measurements for m in per])
    return out


class GeneratorTest(unittest.TestCase):
    def test_solve_is_deterministic_per_seed(self):
        self.assertEqual(fingerprint(workloads.Solve(7)), fingerprint(workloads.Solve(7)))
        self.assertNotEqual(fingerprint(workloads.Solve(7)), fingerprint(workloads.Solve(8)))

    def test_other_workloads_are_deterministic_per_seed(self):
        inputs = {
            workloads.Curve: lambda wl: (wl.grids, wl.sample),
            workloads.Certify: lambda wl: (wl.cases, wl.identities),
        }
        for cls, of in inputs.items():
            self.assertEqual(of(cls(3)), of(cls(3)))
            self.assertNotEqual(of(cls(3)), of(cls(4)))

    def test_random_instances_stay_within_engine_bounds(self):
        for seed in range(20):
            for _label, ens, cfg, _leader, _key in workloads.Solve(seed).solves:
                self.assertLessEqual(ens.arity, discrimination.MAX_ARITY)
                for per in cfg.measurements:
                    self.assertLessEqual(len(per), discrimination.MAX_MEASUREMENTS_PER_PARTY)

    def test_certify_always_includes_7_4_3(self):
        for seed in range(10):
            self.assertIn((7, 4, 3), workloads.Certify(seed).cases)


class StatsTest(unittest.TestCase):
    def test_tail_has_ten_samples_beyond(self):
        self.assertEqual(stats.tail(list(range(1, 101))), (90.0, 90.0, 10))
        value, pct, beyond = stats.tail(list(range(12, 0, -1)))
        self.assertEqual((value, beyond), (2.0, 10))
        self.assertAlmostEqual(pct, 100.0 * 2 / 12)
        self.assertEqual(stats.tail([5.0, 1.0, 3.0]), (5.0, 100.0, 0))


class ImportTimeTest(unittest.TestCase):
    SAMPLE = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |       numpy.core",
            "import time:       200 |        300 |     numpy",
            "import time:        50 |         50 |     nwe.systems",
            "import time:        10 |         10 |         numpy.linalg",
            "import time:        40 |         40 |         scipy",
            "import time:       400 |        450 |       scipy.optimize",
            "import time:        30 |        480 |     nwe.signaling",
            "import time:        20 |        850 |   nwe",
            "import time:         5 |          5 |   nwe.cli",
        ]
    )

    def test_parse(self):
        got = run.parse_importtime(self.SAMPLE)
        self.assertEqual(
            got,
            {
                "import.nwe_ms": 0.85,
                "import.numpy_ms": 0.3,
                "import.scipy_ms": 0.45,
                "import.nwe_self_ms": 0.1,
            },
        )


class SearchLeavesTest(unittest.TestCase):
    def test_counts(self):
        two_binary = ((2,), (2,))
        self.assertEqual(tracing.search_leaves(two_binary, True, None, 2), 8)
        self.assertEqual(tracing.search_leaves(two_binary, True, 1, 2), 4)
        self.assertEqual(tracing.search_leaves(two_binary, False, None, 2), 4)
        # Three parties, two binary measurements each: 3! * 4^3.
        self.assertEqual(tracing.search_leaves(((2, 2),) * 3, True, None, 3), 384)


class OracleTest(unittest.TestCase):
    def test_matches_known_optima(self):
        ens = catalog.load("s4")
        cfg = discrimination.SearchConfig.for_ensemble(ens)
        value = oracle.two_party_optimum(ens.priors, oracle.likelihoods(ens, cfg.measurements))
        self.assertAlmostEqual(value, 1.0, delta=1e-12)

    def test_matches_engine_on_seeded_instances(self):
        import random

        for seed in range(10):
            ens, cfg = workloads.random_instance(random.Random(seed), 2, (3, 6), (2, 4))
            want = oracle.two_party_optimum(ens.priors, oracle.likelihoods(ens, cfg.measurements))
            self.assertAlmostEqual(discrimination.optimal_local(ens, cfg).success, want, delta=1e-12)


class PerturbationTest(unittest.TestCase):
    def test_perturbed_solve_counts_as_failed(self):
        original = discrimination.optimal_local

        def perturbed(ens, cfg, leader=None):
            report = original(ens, cfg, leader)
            return discrimination.DiscriminationReport(
                report.success + 1e-9, report.delta - 1e-9, report.tree, report.leader
            )

        wl = workloads.Solve(1)
        discrimination.optimal_local = perturbed
        try:
            run_ = worker.measure(wl, worker.Timer(tracing.Tracer()), rounds=1)
        finally:
            discrimination.optimal_local = original
        self.assertGreater(run_["failed"], 0)
        self.assertLessEqual(run_["failed"], run_["attempted"])

    def test_clean_round_has_no_failures(self):
        run_ = worker.measure(workloads.Curve(1), worker.Timer(tracing.Tracer()), rounds=1)
        self.assertEqual(run_["failed"], 0)
        self.assertEqual(run_["attempted"], len(workloads.CURVE_STEPS))

    def test_merged_channels_count_as_failed(self):
        original = signaling.gpt_channel

        def first_state_only(sysn, encodings, decoding, eps=signaling.DEFAULT_EPS):
            return original(sysn, [encodings[0]] * len(encodings), decoding, eps)

        signaling.gpt_channel = first_state_only
        try:
            run_ = worker.measure(workloads.Certify(1), worker.Timer(tracing.Tracer()), rounds=1)
        finally:
            signaling.gpt_channel = original
        self.assertTrue(any(reason.startswith("build.") for reason in run_["reasons"]), run_["reasons"])

    def test_perturbed_certificate_is_rejected(self):
        ch = signaling.Channel(np.array([[0.3, 0.7], [0.6, 0.4]]))
        vertices = signaling.classical_vertices(2, 2, 2)
        result = signaling.in_classical_polytope(ch, 2, vertices)
        self.assertIsNone(workloads._check_membership(ch, result, vertices, True))
        bent = signaling.MembershipResult(True, result.weights * 1.01, None, result.margin)
        self.assertIsNotNone(workloads._check_membership(ch, bent, vertices, True))


if __name__ == "__main__":
    unittest.main()
