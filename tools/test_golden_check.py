#!/usr/bin/env python3
"""Tests for tools/golden_check.py --all.

Stand-in benches are small Python scripts that write a fixed JSON
report to their --json path, so these tests need no build tree. Runs
under plain ``python3 -m unittest``; registered in ctest as part of
``diff_report_test``.
"""

import contextlib
import io
import json
import os
import stat
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import golden_check  # noqa: E402

FAKE_BENCH = """#!{python}
import json, sys
path = sys.argv[sys.argv.index("--json") + 1]
with open(path, "w") as f:
    json.dump({report}, f)
"""


class GoldenCheckAllTest(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.golden_dir = os.path.join(tmp.name, "golden")
        self.build_dir = os.path.join(tmp.name, "build")
        self.out_dir = os.path.join(tmp.name, "out")
        os.makedirs(self.golden_dir)
        os.makedirs(os.path.join(self.build_dir, "bench"))

    def golden(self, filename, report):
        with open(os.path.join(self.golden_dir, filename), "w") as f:
            json.dump(report, f)

    def bench(self, name, report):
        path = os.path.join(self.build_dir, "bench", name)
        with open(path, "w") as f:
            f.write(FAKE_BENCH.format(python=sys.executable,
                                      report=repr(report)))
        os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)

    def run_all(self, mode="diff"):
        """Invoke main(); returns (exit_code, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = golden_check.main([
                "--mode", mode, "--all",
                "--build-dir", self.build_dir,
                "--golden-dir", self.golden_dir,
                "--out-dir", self.out_dir])
        return code, out.getvalue(), err.getvalue()

    def test_missing_binary_is_named_and_fails(self):
        self.golden("fig_a.golden.json", {"v": 1})
        self.golden("fig_b.golden.json", {"v": 2})
        self.golden("fig_full.json", {"v": 3})  # full scale: not --all's
        self.bench("fig_a", {"v": 1})
        code, out, err = self.run_all()
        self.assertEqual(code, 2)
        self.assertIn("1 of 2 goldens failed", err)
        self.assertIn("fig_b (no binary at", err)
        self.assertNotIn("fig_a (", err)
        self.assertNotIn("fig_full", err + out)

    def test_mismatch_is_named_and_later_goldens_still_run(self):
        self.golden("fig_a.golden.json", {"v": 1})
        self.golden("fig_b.golden.json", {"v": 2})
        self.bench("fig_a", {"v": 5})
        self.bench("fig_b", {"v": 2})
        code, out, err = self.run_all()
        self.assertEqual(code, 1)
        self.assertIn("fig_a (does not match)", err)
        self.assertNotIn("fig_b (", err)
        self.assertIn("fig_b.golden.json: matches", out)

    def test_all_match(self):
        self.golden("fig_a.golden.json", {"v": 1})
        self.bench("fig_a", {"v": 1})
        code, out, _ = self.run_all()
        self.assertEqual(code, 0)
        self.assertIn("all 1 goldens match", out)

    def test_update_rewrites_every_golden(self):
        self.golden("fig_a.golden.json", {"v": 1})
        self.bench("fig_a", {"v": 7})
        code, out, _ = self.run_all(mode="update")
        self.assertEqual(code, 0)
        self.assertIn("all 1 goldens updated", out)
        with open(os.path.join(self.golden_dir,
                               "fig_a.golden.json")) as f:
            self.assertEqual(json.load(f), {"v": 7})

    def test_all_rejects_other_modes_and_single_bench_flags(self):
        for argv in (["--mode", "determinism", "--all"],
                     ["--mode", "diff", "--all", "--name", "fig_a"],
                     ["--mode", "diff", "--name", "fig_a"]):
            with contextlib.redirect_stderr(io.StringIO()), \
                    self.assertRaises(SystemExit) as ctx:
                golden_check.parse_args(argv)
            self.assertEqual(ctx.exception.code, 2)


if __name__ == "__main__":
    unittest.main()
