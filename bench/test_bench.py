"""Determinism and neutrality checks of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_library()

import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Check  # noqa: E402

# one cheap operation per workload, enough to cover every layer
CHEAP_OPS = {"p1-anchors": "li2", "p1-table": "t2_",
             "elliptic-ek": "ek11_skew", "exact-identities": "co_jacobi"}


def _only(workload, op_name):
    workload.ops = [op for op in workload.ops if op.name == op_name]
    assert workload.ops
    return workload


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_is_bit_identical(name):
    wl = _only(workloads.make_workload(name, 5), CHEAP_OPS[name])
    plain = run.run_pass(wl)
    t = tracer.Tracer()
    t.install()
    try:
        traced = run.run_pass(wl)
    finally:
        t.uninstall()
    assert t.spans, "the tracer saw no call"
    assert traced.keys() == plain.keys()
    assert all(c.ok for c in plain.checks())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_untraced_runs_repeat_bit_for_bit(name):
    a = run.run_pass(_only(workloads.make_workload(name, 5), CHEAP_OPS[name]))
    b = run.run_pass(_only(workloads.make_workload(name, 5), CHEAP_OPS[name]))
    assert a.keys() == b.keys()


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_is_a_pure_function_of_the_seed(name):
    first = workloads.make_workload(name, 3)
    assert first.inputs == workloads.make_workload(name, 3).inputs
    assert first.inputs != workloads.make_workload(name, 4).inputs
    assert [op.name for op in first.ops] == \
        [op.name for op in workloads.make_workload(name, 4).ops]


def test_tracer_restores_every_function():
    import hodgecor.engine as engine
    import hodgecor.geometry as geometry
    import hodgecor.tree_calculus as tc
    before = (engine.compile_tree, engine.enumerate_trivalent_trees,
              geometry.EllipticCurve.__dict__["log_abs_theta1"],
              tc.PlaneTree.__dict__["from_raw"], tc.ForestVector.__init__)
    t = tracer.Tracer()
    t.install()
    assert engine.compile_tree is not before[0]
    assert engine.enumerate_trivalent_trees is not before[1]
    t.uninstall()
    after = (engine.compile_tree, engine.enumerate_trivalent_trees,
             geometry.EllipticCurve.__dict__["log_abs_theta1"],
             tc.PlaneTree.__dict__["from_raw"], tc.ForestVector.__init__)
    assert after == before


def test_self_time_subtracts_child_spans():
    t = tracer.Tracer()
    t.spans.extend([("outer", 0.0, 10.0, -1), ("inner", 1.0, 4.0, 0),
                    ("inner", 5.0, 6.0, 0), ("leaf", 2.0, 3.0, 1)])
    assert t.self_times() == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}


def test_time_to_tol_matches_the_formula():
    a = Check("li4", True, 1.0 + 0j, 0.02, 1.0 + 0j, 0.05)
    b = Check("bw", True, 2.0 + 0j, 0.04, -2.0 + 0j, 0.01)
    pair = Check("dihedral2", True, 0j, 0.1, None, 0.05)
    p = run.Pass(9.0, [run.OpRun("li4", 4.0, [a]), run.OpRun("bw", 1.0, [b]),
                       run.OpRun("pair", 2.0, [pair]),
                       run.OpRun("exact", 2.0, [Check("d2", True)])])
    want = 4.0 * (0.02 / 0.05) ** 2 + 1.0 * (0.04 / (0.01 * 2.0)) ** 2 + 2.0
    assert run.time_to_tol(p) == pytest.approx(want, rel=1e-15)


def test_metric_names_and_counts():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    name_re = re.compile(r"[A-Za-z0-9_.-]+")
    assert len(run.END_TO_END) <= 16 and len(run.PER_LAYER) <= 128
    for metrics in (run.END_TO_END, run.PER_LAYER):
        assert all(name_re.fullmatch(n) for n in metrics)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_fails_without_the_library(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "p1-anchors",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
