"""Tests of the benchmark's own accounting and tracing; no timing involved.

    python3 perfbench/selftest.py

They show that a forced failure is counted and earns no work, that a missed
check or a changed artifact counts as a failed operation, and that the tracer
computes self time, patches consumers and restores them.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
import unittest
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import tracer  # noqa: E402
from qpassage import ancillary, protocols  # noqa: E402
from qpassage.protocols import QubitModel  # noqa: E402


def _fake_result(fidelity: float):
    return SimpleNamespace(auxiliary={"fidelity_final": [fidelity]}, diagnostics={},
                           steps=[])


class FailureAccounting(unittest.TestCase):
    def _ghz5(self):
        work = child.Ghz5(1, Path("."))
        work.plan, work.model, work.units_per_run = None, QubitModel(qubits=5), 10_000
        return work

    def test_forced_failure_is_counted_and_earns_no_work(self):
        def run(plan, model, **kw):
            if model.kappa > 0:
                raise ValueError("forced failure\nsecond line")
            return _fake_result(1.0)

        outcome = child.Outcome()
        with mock.patch.object(protocols, "run_protocol", run):
            self._ghz5().iteration(outcome)
        self.assertEqual((outcome.attempted, len(outcome.failures), outcome.incorrect), (2, 1, 0))
        self.assertEqual(outcome.units, 10_000)
        self.assertEqual(outcome.failures, ["kappa_T=0.0145: ValueError: forced failure"])

        summary = child.summarize([(outcome, 2.0)])
        self.assertEqual((summary["attempted"], summary["failed"]), (2, 1))
        self.assertEqual(summary["throughput"], 5_000.0)

    def test_all_failed_gives_zero_throughput(self):
        outcome = child.Outcome()
        outcome.failed("a")
        outcome.failed("b")
        self.assertEqual(child.summarize([(outcome, 3.0)])["throughput"], 0.0)

    def test_missed_check_is_a_failed_incorrect_operation(self):
        with mock.patch.object(protocols, "run_protocol", lambda *a, **k: _fake_result(0.5)):
            outcome = child.Outcome()
            self._ghz5().iteration(outcome)
        self.assertEqual((outcome.attempted, len(outcome.failures), outcome.incorrect), (2, 2, 2))
        self.assertEqual(outcome.units, 0)


class BellDeterminism(unittest.TestCase):
    """The bell-cfg checks, against a stand-in for `qpassage run`."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.work = child.BellCfg(1, Path(self.tmp.name))
        self.work.config = SimpleNamespace(kappa_T=(0.0, 0.0145))
        self.work.units_per_run = 4000
        self.csv_text = "t,F\n0,1\n"

    def tearDown(self):
        self.tmp.cleanup()

    def fake_main(self, argv):
        out = Path(argv[argv.index("--out") + 1])
        out.mkdir(parents=True)
        ref = child.REFERENCE["bell-cfg"]["open"]["0.0145"]
        runs = []
        for index, kappa in enumerate(self.work.config.kappa_T):
            (out / f"bell-{index:02d}.csv").write_text(self.csv_text)
            steps = {"split": 1.0, "convert": 1.0} if kappa == 0 else \
                {name: value for name, (value, _) in ref.items()}
            runs.append({"index": index, "ok": True, "final_fidelity": 1.0,
                         "step_fidelities": steps, "csv": f"bell-{index:02d}.csv"})
        manifest = {"runs": runs, "duration_seconds": time.perf_counter()}
        (out / "manifest.json").write_text(json.dumps(manifest))
        return 0

    def iterate(self):
        outcome = child.Outcome()
        with mock.patch("qpassage.cli.main", self.fake_main):
            self.work.iteration(outcome)
        return outcome

    def test_identical_iterations_pass_despite_duration(self):
        first, second = self.iterate(), self.iterate()
        self.assertEqual((first.failures, second.failures), ([], []))
        self.assertEqual(second.units, 8000)

    def test_changed_csv_counts_as_failed(self):
        self.iterate()
        self.csv_text = "t,F\n0,0.9\n"
        outcome = self.iterate()
        self.assertEqual((outcome.attempted, len(outcome.failures), outcome.incorrect), (2, 2, 2))
        self.assertEqual(outcome.units, 0)

    def test_nonzero_exit_fails_every_run(self):
        outcome = child.Outcome()
        with mock.patch("qpassage.cli.main", lambda argv: 1):
            self.work.iteration(outcome)
        self.assertEqual((outcome.attempted, len(outcome.failures)), (2, 2))


class Tracing(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        tr = tracer.Tracer()
        tr.spans = [("outer", -1, 0.0, 10.0), ("inner", 0, 1.0, 4.0), ("inner", 0, 5.0, 6.0),
                    ("leaf", 1, 2.0, 3.0)]
        self_s = tr.self_times()
        self.assertEqual((self_s["outer"], self_s["inner"], self_s["leaf"]), (6.0, 3.0, 1.0))
        self.assertEqual(tr.calls_by_parent()[("inner", "outer")], 2)

    def test_patches_every_consumer_and_restores(self):
        original = ancillary.build_frame
        with tracer.Tracer() as tr:
            self.assertIsNot(protocols.build_frame, original)
            self.assertIs(protocols.build_frame, ancillary.build_frame)
            layout = ancillary.SubspaceLayout(1, 2)
            step = protocols.plan_bell(QubitModel(qubits=2)).steps[0]
            protocols.build_frame(layout, step.schedules, 0.5)
        self.assertIs(protocols.build_frame, original)
        self.assertIs(ancillary.build_frame, original)
        counts = tr.counts()
        self.assertEqual(counts["protocols.plan"], 1)
        self.assertEqual(counts["ancillary.build_frame"], 4 + 1)   # plan's transfer maps + ours
        self.assertGreater(counts["schedules.eval"], 0)
        metrics = tracer.layer_metrics(tr)
        self.assertEqual(metrics["protocols.build_step_hamiltonian.calls.plan"], 6)


if __name__ == "__main__":
    unittest.main()
