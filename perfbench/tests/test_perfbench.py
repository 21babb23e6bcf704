"""Self-checks of the benchmark itself (not of xmodlab).

    python3 -m pytest perfbench/tests        # or: python3 -m unittest discover perfbench/tests

They check that the ``ref`` unit is pinned, that ``BENCHMARK.json`` and the
tracer name the same metrics, that the golden table agrees with the
program's stored reference and the README, that the output gate fails a
job on a wrong golden file, that traced counts repeat exactly, and that the
command refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
import types
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(SRC))

import xmodlab  # noqa: E402
import xmodlab.cli  # noqa: E402,F401

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def copy_benchmark(dest: Path, with_src: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(BENCH, dest / BENCH.name, ignore=ignore)
    if with_src:
        shutil.copytree(SRC, dest / "src", ignore=ignore)


def run_command(cwd: Path, workload: str):
    return subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


class PinnedDefinitions(unittest.TestCase):
    def test_kernel_source_matches_pinned_hash(self):
        pinned = (BENCH / "calibration.sha256").read_text().split()[0]
        self.assertEqual(calibrate.kernel_sha256(), pinned)

    def test_benchmark_json_names_the_tracer_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]],
            [(name, unit) for name, unit, _ in tracer.METRICS],
        )
        self.assertEqual(
            [w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS)
        )
        self.assertEqual(
            [m["name"] for m in spec["end_to_end"]],
            ["cost_ref", "setup_s", "peak_rss_mb"],
        )

    def test_golden_table_matches_reference_and_readme(self):
        rows = json.loads((BENCH / "golden" / "table_verify.json").read_text())
        expected = sys.modules["xmodlab.induce"].TABLE_EXPECTED
        got = [
            (r["induced_order"], tuple(r["pi2_invariants"]), r["pi1_name"])
            for r in rows
        ]
        self.assertEqual(got, list(expected))
        self.assertTrue(all(r["order_law_ok"] for r in rows))
        readme = ROOT / "README.md"
        if not readme.exists():
            self.skipTest("no README.md beside the benchmark")
        table = re.findall(
            r"^\| (\d) +\| [^|]+\| ([^|]+?) *\| ([^|]+?) *\| ([^|]+?) *\|$",
            readme.read_text(), re.M,
        )
        self.assertEqual(len(table), len(rows))
        for (row, induced, pi2, pi1), r in zip(table, rows):
            self.assertEqual(int(row), r["row"])
            self.assertEqual(int(induced.split()[-1]), r["induced_order"])
            name = induced.rsplit(",", 1)[0] if "," in induced else None
            self.assertEqual(name, r["induced_name"])
            self.assertEqual(
                sorted(map(int, re.findall(r"C(\d+)", pi2))),
                sorted(r["pi2_invariants"]),
            )
            self.assertEqual(pi1, r["pi1_name"])


class OutputGate(unittest.TestCase):
    def setUp(self):
        groups = workloads.s5_groups({})
        self.finishing, self.refusing = (
            next(j for [j] in groups if j.name == f"induce {sub}")
            for sub in ("(1,2)", "(1,2,3,4,5)")
        )

    def outcome(self, job, order, pi2, pi1, law=True):
        report = types.SimpleNamespace(
            induced_order=order, pi2_invariants=pi2, pi1_name=pi1, order_law_ok=law
        )
        return workloads.outcome(job, (None, report))

    def test_expected_refusal_is_counted_apart(self):
        exc = xmodlab.CosetLimitExceeded("too many", limit=65536)
        self.assertEqual(workloads.outcome(self.refusing, exc), workloads.REFUSED)

    def test_refusal_at_another_bound_or_elsewhere_fails(self):
        exc = xmodlab.CosetLimitExceeded("too many", limit=1000)
        self.assertNotIn(workloads.outcome(self.refusing, exc), workloads.PASSED)
        exc = xmodlab.CosetLimitExceeded("too many", limit=65536)
        self.assertNotIn(workloads.outcome(self.finishing, exc), workloads.PASSED)

    def test_wrong_triple_or_broken_law_fails(self):
        self.assertEqual(self.outcome(self.finishing, 240, (2,), "1"), workloads.OK)
        for bad in (
            (240, (4,), "1"),
            (120, (2,), "1"),
            (240, (2,), "C2"),
            (240, (2,), "1", False),
        ):
            self.assertNotIn(self.outcome(self.finishing, *bad), workloads.PASSED)

    def test_corrupted_golden_fails_the_job_and_the_command(self):
        with tempfile.TemporaryDirectory() as tmp:
            copy_benchmark(Path(tmp), with_src=True)
            golden = Path(tmp) / BENCH.name / "golden" / "table_verify.json"
            golden.write_text(golden.read_text().replace('"C2"', '"C3"', 1))
            proc = run_command(Path(tmp), "s4_table")
        self.assertEqual(proc.returncode, 1, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_refuses_without_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            copy_benchmark(Path(tmp), with_src=False)
            proc = run_command(Path(tmp), "s4_table")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


class TracedCounts(unittest.TestCase):
    def counts_of_traced_passes(self, name: str, seeds) -> list[dict]:
        out = []
        for seed in seeds:
            w = workloads.WORKLOADS[name]
            r = run.Run(w, seed, seconds=0)
            r.next_probe = math.inf
            state = w.inputs()
            workloads.catalogue_call(w, state)
            r.run_pass(0, state)
            t = tracer.Tracer()
            with t.installed():
                r.run_pass(1, state, t)
            self.assertEqual(r.counts()["failed"], 0)
            out.append({
                k: v["value"] for k, v in t.metrics(1.0).items()
                if v["unit"] == "count"
            })
        return out

    def test_counts_repeat_across_runs_and_seeds(self):
        for name in ("s4_table", "squares_calculus"):
            with self.subTest(workload=name):
                first, second = self.counts_of_traced_passes(name, (1, 2))
                self.assertEqual(first, second)
                self.assertGreater(first["perm.PermGroup.calls"], 0)

    def test_patches_are_removed(self):
        before = {
            mod: dict(vars(sys.modules[mod]))
            for mod in sys.modules if mod.startswith("xmodlab")
        }
        classes = (xmodlab.Permutation, xmodlab.PermGroup, xmodlab.GroupHom,
                   xmodlab.CrossedModule, xmodlab.DoubleGroupoidView)
        methods = [dict(vars(c)) for c in classes]
        with tracer.Tracer().installed():
            self.assertIsNot(sys.modules["xmodlab.fp"].todd_coxeter,
                             before["xmodlab.fp"]["todd_coxeter"])
        for mod, names in before.items():
            self.assertEqual(dict(vars(sys.modules[mod])), names, mod)
        self.assertEqual([dict(vars(c)) for c in classes], methods)


if __name__ == "__main__":
    unittest.main()
