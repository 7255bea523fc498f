"""Each oracle check must reject a deliberately corrupted copy of a real output.

    python3 perfbench/oracle_tests.py

Runs each CLI job once on seed 1 (about 40 s in all), asserts that the
real output passes its checks, then corrupts a copy in one place, such as one
digit of a P or W value or one scaled channel yield, and asserts that the
named check rejects it.  The file name keeps it out of pytest's collection,
so the repository's own test suite stays as fast as it was.
"""

import json
import math
import re
import shutil
import sys
import tempfile
import time
import unittest
from pathlib import Path

import oracles
import run
import spans
import workloads as wl

SEED = 1


def bump_digit(text):
    """Change the first significant digit of a number written as text."""
    m = re.search(r"[1-9]", text)
    d = m.group()
    return text[: m.start()] + ("8" if d == "9" else str(int(d) + 1)) + text[m.end():]


def _remove_workdir(workdir):
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        run.WORK_ROOT.rmdir()
    except OSError:
        pass


class _Workload:
    """Tests shared by every workload; mixed into one TestCase per workload."""

    name = None

    @classmethod
    def setUpClass(cls):
        run.WORK_ROOT.mkdir(exist_ok=True)
        cls.workdir = Path(tempfile.mkdtemp(prefix="oracle-tests-", dir=run.WORK_ROOT))
        cls.addClassCleanup(_remove_workdir, cls.workdir)
        runner = run.JobRunner(wl.JOBS[cls.name], SEED, cls.workdir / cls.name,
                               time.perf_counter() + 150)
        runner.run()
        if runner.runs[0].rc != 0:
            raise RuntimeError(f"{cls.name}: the CLI job failed")
        cls.real = runner.kept

    def check(self, path):
        return {name for name, _ in oracles.CHECKS[self.name](path, SEED)}

    def corrupted(self, edit):
        """Copy of the real output with `edit` applied to its text."""
        path = self.workdir / "corrupted"
        path.write_text(edit(self.real.read_text()))
        return path

    def assertRejects(self, edit, check):
        self.assertIn(check, self.check(self.corrupted(edit)))

    def test_real_output_passes(self):
        self.assertEqual(self.check(self.real), set())


class _Yields(_Workload):
    def edit_report(self, change):
        def edit(text):
            report = json.loads(text)
            change(report)
            return json.dumps(report, sort_keys=True, indent=1)
        return edit

    @staticmethod
    def scale_channels(names, factor, with_spectra):
        def change(report):
            for c in report["channels"]:
                if c["name"] in names:
                    c["yield"] *= factor
                    c["stderr"] *= factor
            if with_spectra:
                for name in names:
                    sp = report["spectra"][name]
                    sp["values"] = [v * factor for v in sp["values"]]
        return change

    def test_one_scaled_channel_yield(self):
        self.assertRejects(self.edit_report(self.scale_channels({"a1+"}, 1.001, False)),
                           "yields.ratios")

    def test_scaled_channel_breaks_its_spectrum_integral(self):
        self.assertRejects(self.edit_report(self.scale_channels({"rho+"}, 1.001, False)),
                           self.integral_check)

    def test_wrong_pair_count(self):
        def change(report):
            report["mc"]["pairs"] += 1
        self.assertRejects(self.edit_report(change), "yields.mc")


class YieldsExactTests(_Yields, unittest.TestCase):
    name = "yields_exact"
    integral_check = "yields_exact.integral"

    def test_consistently_scaled_level(self):
        # ratios and integrals still hold; only the physics is off
        level = {"pi(1300)+", "rho(1450)+"}
        self.assertRejects(self.edit_report(self.scale_channels(level, 1 + 1e-8, True)),
                           "yields_exact.closed_form")

    def test_one_changed_spectrum_digit(self):
        def change(report):
            values = report["spectra"]["pi+"]["values"]
            i = max(range(len(values)), key=values.__getitem__)
            values[i] = float(bump_digit(repr(values[i])))
        self.assertRejects(self.edit_report(change), "yields_exact.spectrum")


class YieldsSampledTests(_Yields, unittest.TestCase):
    name = "yields_sampled_smeared"
    integral_check = "yields_sampled.integral"

    def test_consistently_scaled_level(self):
        level = {"b1+", "a0+", "a1+", "a2+"}
        self.assertRejects(self.edit_report(self.scale_channels(level, 1.5, True)),
                           "yields_sampled.estimate")

    def test_real_output_precision(self):
        # the 5-sigma test must be able to see a 50% error
        report = json.loads(self.real.read_text())
        for c in report["channels"]:
            self.assertLess(5 * c["stderr"] * math.sqrt(2), 0.5 * c["yield"], c["name"])


def edit_row(row, column, change):
    """Edit that applies `change` to one field of one CSV row after the two header lines."""
    def edit(text):
        lines = text.split("\n")
        fields = lines[2 + row].split(",")
        fields[column] = change(fields[column])
        lines[2 + row] = ",".join(fields)
        return "\n".join(lines)
    return edit


class ProbTableTests(_Workload, unittest.TestCase):
    name = "prob_table"

    def checked_row(self):
        return oracles._spread(wl.JOBS[self.name].items, oracles.PROB_ORACLE_ROWS,
                               SEED, 31)[5]

    def test_one_changed_p_digit(self):
        self.assertRejects(edit_row(self.checked_row(), 7, bump_digit), "prob.oracle")

    def test_negative_p(self):
        self.assertRejects(edit_row(17, 7, lambda s: "-1e-9"), "prob.nonnegative")

    def test_one_changed_v_digit(self):
        self.assertRejects(edit_row(100, 5, bump_digit), "prob.invariants")

    def test_levels_sum_above_one(self):
        self.assertRejects(edit_row(0, 7, lambda s: "1.5"), "prob.completeness")

    def test_missing_row(self):
        def edit(text):
            lines = text.split("\n")
            return "\n".join(lines[:10] + lines[11:])
        self.assertRejects(edit, "prob.format")


class WignerGridTests(_Workload, unittest.TestCase):
    name = "wigner_grid"

    def test_one_changed_w_digit(self):
        row = oracles._spread(wl.JOBS[self.name].items, oracles.WIGNER_CELLS, SEED, 37)[7]
        self.assertRejects(edit_row(row, 3, bump_digit), "wigner.factorized")

    def test_one_changed_axis_digit(self):
        self.assertRejects(edit_row(12345, 1, bump_digit), "wigner.format")

    def test_slice_without_nodes(self):
        def edit(text):
            head, rest = text.split("\n", 1)
            header = json.loads(head)
            header["nodes"][2] = []
            return json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n" + rest
        self.assertRejects(edit, "wigner.nodes")


class ContractTests(unittest.TestCase):
    def test_benchmark_json_names_every_metric_and_workload(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(w["name"], w["why"]) for w in bench["workloads"]],
                         [(w.name, w.why) for w in wl.WORKLOADS.values()])
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]},
                         spans.LAYER_METRICS)

    def test_self_time_subtracts_children(self):
        # job 1: cli.main [0, 10] > p_kl [1, 4] > quasi_prob_table [2, 3]
        # job 2: cli.main [0, 2] > quasi_prob_table [0, 1]; indices are per job
        job1 = [["cli.main", 0.0, 10.0, -1, 0, 0],
                ["coalescence.p_kl", 1.0, 4.0, 0, 0, 0],
                ["ho1d.quasi_prob_table", 2.0, 3.0, 1, 5, 0]]
        job2 = [["cli.main", 0.0, 2.0, -1, 0, 0],
                ["ho1d.quasi_prob_table", 0.0, 1.0, 0, 7, 0]]
        m = spans.layer_metrics([job1, job2])
        self.assertEqual(m["cli.main.self_s"], 8.0)
        self.assertEqual(m["coalescence.p_kl.self_s"], 2.0)
        self.assertEqual(m["ho1d.quasi_prob_table.calls"], 2)
        self.assertEqual(m["ho1d.quasi_prob_table.points"], 12)
        self.assertAlmostEqual(m["trace.span_coverage"], 100.0 * 4.0 / 12.0)


if __name__ == "__main__":
    sys.path.insert(0, str(run.SRC))
    unittest.main()
