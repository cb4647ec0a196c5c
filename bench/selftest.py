"""Tests of the benchmark itself: each output check rejects a tampered output,
and the trace shim skips names the program no longer has.

  python3 bench/selftest.py
"""

import copy
import json
import os
import sys
import tempfile
import threading
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
import spans  # noqa: E402
import workloads as wk  # noqa: E402
from landscape_lab import cli  # noqa: E402


def cli_results(argv):
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        path = os.path.join(tmp, "out.json")
        rc = cli.main(argv + ["--output", path])
        with open(path, encoding="utf-8") as fh:
            return rc, json.load(fh)["results"]


class CensusCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        rc, cls.res = cli_results(["basins", "--count", "2", "--seed", "5"])
        assert rc == 0
        cls.j_start = [wk.census_start_objective(5 + i) for i in range(2)]

    def problems(self, res):
        return wk.check_census(res, 2, 5, self.j_start)[1]

    def test_program_output_passes(self):
        self.assertEqual(self.problems(self.res), [])

    def test_tampered_outputs_fail(self):
        def tamper(edit):
            res = copy.deepcopy(self.res)
            edit(res)
            return self.problems(res)

        run = "runs"
        self.assertTrue(tamper(lambda r: r[run][0].update(j_terminal=ref.SQRT_1_5 + 1e-6)))
        self.assertTrue(tamper(lambda r: r[run][1].update(j_terminal=self.j_start[1] - 1e-6)))
        self.assertTrue(tamper(lambda r: r[run][0].update(trapped=not r[run][0]["trapped"])))
        self.assertTrue(tamper(lambda r: r[run][1].update(seed=99)))
        self.assertTrue(tamper(lambda r: r.update(j_max=1.2)))
        self.assertTrue(tamper(lambda r: r[run].pop()))

    def test_failed_counts_unconverged_runs(self):
        res = copy.deepcopy(self.res)
        for r in res["runs"]:
            r["converged"] = False
        self.assertEqual(wk.check_census(res, 2, 5, self.j_start)[0], 2)


class SweepCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl = wk.LandscapeSweep(3, HERE)
        cls.out = cls.wl.run_unit()

    def test_program_output_passes(self):
        self.assertEqual(self.wl.check(self.out), (0, []))

    def test_tampered_outputs_fail(self):
        system, grid, basis = self.wl.cases[1]
        want = wk.SweepReference(system, grid, basis, np.random.default_rng(0))
        g, rows, rank = self.out[1]
        U = ref.total_propagator(np.array(grid.values), basis.stack, grid.horizon)
        self.assertEqual(wk.check_sweep_case(U, g, rows, rank, want), [])
        g2 = g.copy()
        g2.ravel()[want.coords[0]] += 1e-5
        self.assertTrue(wk.check_sweep_case(U, g2, rows, rank, want))
        rows2 = rows.copy()
        rows2[3, 2] += 1e-8
        self.assertTrue(wk.check_sweep_case(U, g, rows2, rank, want))
        self.assertTrue(wk.check_sweep_case(U, g, rows, rank - 1, want))
        self.assertTrue(wk.check_sweep_case(U * np.exp(1e-10j), g, rows, rank, want))


class CertifyCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.rows = {N: wk.corner_rows(N) for N in (2, 3)}
        cls.boundary = cli_results(["ce-boundary", "--expect-trap", "--seed", "4"])[1]
        cls.rank3 = cli_results(["rank", "--grid-kind", "corner", "--kappa", "auto",
                                 "--N", "3", "--seed", "4"])[1]
        cls.slice = cli_results(["ce-slice", "--verify"])[1]
        cls.scan = cli_results(["ce-scan2d"])[1]

    def test_program_outputs_pass(self):
        self.assertEqual(wk.check_ce_boundary(self.boundary, self.rows[2]), [])
        self.assertEqual(wk.check_rank_corner(3, self.rank3, self.rows[3]), [])
        self.assertEqual(wk.check_ce_slice(self.slice), [])
        self.assertEqual(wk.check_ce_scan2d(self.scan), [])

    def test_tampered_boundary_fails(self):
        for edit in (dict(is_trap=False), dict(max_inward_gain=1e-9),
                     dict(j_global_max=1.3), dict(cone_surjective=True, witness=None),
                     dict(j_at_corner=self.boundary["j_at_corner"] + 1e-9)):
            res = dict(self.boundary, **edit)
            self.assertTrue(wk.check_ce_boundary(res, self.rows[2]), edit)

    def test_witness_inside_the_cone_fails(self):
        # All controls sit at +kappa, so d = -1 is admissible and rows^T d lies in the cone.
        for N, res in ((2, self.boundary), (3, self.rank3)):
            inside = -self.rows[N].sum(axis=0)
            res = dict(res, witness=list(inside / np.linalg.norm(inside)))
            check = wk.check_ce_boundary if N == 2 else lambda r, m: wk.check_rank_corner(3, r, m)
            self.assertTrue(any("in the admissible cone" in p for p in check(res, self.rows[N])))

    def test_tampered_slice_fails(self):
        rows = np.array(self.slice["rows"])
        swapped = rows[:, [0, 3, 4, 1, 2]]
        self.assertTrue(wk.check_ce_slice({"rows": swapped.tolist()}))
        shifted = rows.copy()
        shifted[7, 1] += 1e-4
        self.assertTrue(wk.check_ce_slice({"rows": shifted.tolist()}))

    def test_tampered_scan_fails(self):
        m = self.scan["min_grad_norm"]
        self.assertTrue(wk.check_ce_scan2d(dict(self.scan, min_grad_norm=1.01 * m)))
        self.assertTrue(wk.check_ce_scan2d(dict(self.scan, argmin_e1=0.0, argmin_e2=0.0)))


class TraceShim(unittest.TestCase):
    def setUp(self):
        pkg = types.ModuleType("fakepkg")
        layer = types.ModuleType("fakepkg.layer")
        user = types.ModuleType("fakepkg.user")

        def inner(x):
            return x + 1

        def outer(x):
            return user.inner(x) * 2

        def fan_out(x):
            t = threading.Thread(target=user.inner, args=(x,))
            t.start()
            t.join(timeout=10)
            return t.is_alive()

        layer.inner = inner
        user.inner = inner
        user.outer = outer
        user.fan_out = fan_out
        self.mods = {"fakepkg": pkg, "fakepkg.layer": layer, "fakepkg.user": user}
        sys.modules.update(self.mods)
        self.layer, self.user, self.inner = layer, user, inner

    def tearDown(self):
        for key in self.mods:
            sys.modules.pop(key, None)

    def test_missing_name_is_skipped_and_bindings_restored(self):
        tracer = spans.Tracer("fakepkg", names=("layer.inner", "user.outer", "layer.gone"))
        tracer.install()
        self.assertEqual(tracer.skipped, ["layer.gone"])
        self.assertEqual(self.user.outer(1), 4)
        tracer.uninstall()
        self.assertIs(self.user.inner, self.inner)
        self.assertIs(self.layer.inner, self.inner)
        got = tracer.take()
        self.assertEqual(sorted(s.name for s in got), ["layer.inner", "user.outer"])
        child = next(s for s in got if s.name == "layer.inner")
        self.assertEqual(child.parent.name, "user.outer")

    def test_worker_thread_spans_hang_under_the_tracing_thread(self):
        tracer = spans.Tracer("fakepkg", names=("layer.inner", "user.fan_out"))
        tracer.install()
        self.assertFalse(self.user.fan_out(1))
        tracer.uninstall()
        got = tracer.take()
        child = next(s for s in got if s.name == "layer.inner")
        self.assertEqual(child.parent.name, "user.fan_out")
        totals = spans.LayerTotals()
        totals.add_unit(got)
        parent = child.parent
        want = (parent.end - parent.start) - (child.end - child.start)
        self.assertAlmostEqual(totals.self_s["user.fan_out"], want, places=12)
        self.assertEqual(totals.calls["layer.inner"], 1)


if __name__ == "__main__":
    unittest.main()
