"""hodgecor benchmark: one workload, closed loop, one caller in one process.

    python3 bench/run.py --workload p1-anchors --seed 1 --seconds 28 --trace 0

Set-up builds the workload from the seed (per-operation seeds, random words
and closed-form references) and runs one small warm-up call; it is repeated
SETUP_REPS times and `setup_s` is the median repetition.  The one-shot import
of numpy and the library is reported apart, as `import_s` in the traced run:
it cannot be repeated in one process, and its run medians moved by a third
between sets of runs in which the pass times moved by less than 5%.
The run then makes passes over the workload's fixed operation list, each
operation starting after the previous one ends, until another pass would
overrun `--seconds`.  Every pass checks every output, and must repeat the
first pass bit for bit.

`--trace 0` prints the end-to-end metrics (setup_s, wall_s, peak_rss_mb).
`--trace 1` spends half the time on untraced passes and half on traced
ones, checks that both give bit-identical outputs, and prints the per-layer
metrics of `tracer.py` plus the untraced time_to_tol_s and samples_per_s and
the tracing overhead.  The last line of standard output is the JSON result.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5
WORKLOADS = ("p1-anchors", "p1-table", "elliptic-ek", "exact-identities")
ANCHORS = ("bw", "li2", "li3", "li4", "ek11", "ek21", "ek11_skew")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def _per_layer_units() -> dict:
    units = {"time_to_tol_s": "s", "samples_per_s": "1/s",
             "tracing_overhead_s": "s", "import_s": "s"}
    for name in ("engine.integrand", "engine.compile_tree", "engine.correlate",
                 "tree_calculus.enumerate_trivalent_trees",
                 "geometry.log_abs_theta1", "geometry.theta1_log_derivative",
                 "form_calculus.alt"):
        units[name + ".self_s"] = "s"
        units[name + ".calls"] = "count"
    units["engine.integrand.rows"] = "count"
    units["engine.compile_tree.pruned"] = "count"
    units["engine.compile_tree.terms"] = "count"
    units["geometry.log_abs_theta1.points"] = "count"
    units["geometry.theta1_log_derivative.points"] = "count"
    units.update({"engine.samples": "count", "engine.rejected": "count",
                  "engine.rejected_frac": "ratio", "engine.max_abs_z": "sigma"})
    for a in ANCHORS:
        units[f"engine.{a}.rel_stderr"] = "ratio"
    for name in ("geometry.green_function", "geometry.green_dz",
                 "geometry.ek_correlator_value", "form_calculus.dC",
                 "form_calculus.d_omega_identity", "form_calculus.xi_eta",
                 "form_calculus.omega_star", "derivations.kappa",
                 "derivations.morphism_check",
                 "exact_algebra.derivative_identity_check",
                 "exact_algebra.dilog_coproduct"):
        units[name + ".self_s"] = "s"
    for name in ("differential", "cobracket", "cobracket_squared",
                 "tree_sum_map", "tree_sum_ext"):
        units[f"tree_calculus.{name}.self_s"] = "s"
        units[f"tree_calculus.{name}.calls"] = "count"
    for name in ("geometry.log_abs_eta.calls",
                 "tree_calculus.PlaneTree.from_raw.calls",
                 "tree_calculus.ForestVector.allocs",
                 "form_calculus.FormPolynomial.allocs",
                 "exact_algebra.CyclicElement.allocs",
                 "exact_algebra.AlgebraElement.allocs"):
        units[name] = "count"
    return units


PER_LAYER = _per_layer_units()


def load_library():
    """Import the library from this checkout's sources, never another copy."""
    src = ROOT / "src"
    if not (src / "hodgecor" / "__init__.py").is_file():
        raise SystemExit(f"bench: no hodgecor sources at {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import hodgecor
    if Path(hodgecor.__file__).resolve().parent != (src / "hodgecor").resolve():
        raise SystemExit(f"bench: imported hodgecor from {hodgecor.__file__}")


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------

@dataclass
class OpRun:
    name: str
    wall: float
    checks: list


@dataclass
class Pass:
    wall: float
    ops: list

    def checks(self):
        return [c for op in self.ops for c in op.checks]

    def keys(self):
        return [c.key() for c in self.checks()]


def run_pass(workload) -> Pass:
    from workloads import Check
    ops = []
    t_pass = time.perf_counter()
    for op in workload.ops:
        t0 = time.perf_counter()
        try:
            checks = op.run()
        except Exception:  # a raising operation is a failed one; go on
            traceback.print_exc(file=sys.stderr)
            checks = [Check(op.name, False)]
        ops.append(OpRun(op.name, time.perf_counter() - t0, checks))
    return Pass(time.perf_counter() - t_pass, ops)


def measure(workload, budget: float, on_pass=None) -> list:
    """Passes until another one of median length would overrun `budget`."""
    t_end = time.perf_counter() + budget
    passes = []
    while True:
        passes.append(run_pass(workload))
        if on_pass is not None:
            on_pass(passes[-1])
        if time.perf_counter() + statistics.median(p.wall for p in passes) > t_end:
            return passes


def time_to_tol(p: Pass) -> float:
    """Sum over operations of the projected time to meet every tolerance of
    the operation: wall * max (stderr / (tol |ref|))^2 over its anchors,
    the wall itself for exact checks (met after one evaluation); symmetry
    pairs and finiteness-only outputs carry no relative target."""
    total = 0.0
    for op in p.ops:
        ratios = [(c.stderr / (c.tol * abs(c.ref))) ** 2
                  for c in op.checks if c.ref is not None]
        if ratios:
            total += op.wall * max(ratios)
        elif all(c.value is None for c in op.checks):
            total += op.wall
    return total


def engine_metrics(p: Pass) -> dict:
    checks = p.checks()
    samples = sum(c.samples for c in checks)
    rejected = sum(c.rejected for c in checks)
    z = [abs(c.value - (c.ref if c.ref is not None else 0)) / c.stderr
         for c in checks if c.tol is not None and c.stderr > 0]
    out = {"engine.samples": samples, "engine.rejected": rejected,
           "engine.rejected_frac": rejected / samples if samples else 0.0,
           "engine.max_abs_z": max(z, default=0.0)}
    for a in ANCHORS:
        out[f"engine.{a}.rel_stderr"] = 0.0
    for c in checks:
        if c.name in ANCHORS:
            out[f"engine.{c.name}.rel_stderr"] = c.stderr / abs(c.ref)
    return out


def tail(values):
    """(p, value) for the highest of p99/p90/p50 with >= 10 samples beyond."""
    n = len(values)
    for p in (99, 90, 50):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------

def report(wl, passes, extra_checks):
    """Print per-operation timings and checks; return (attempted, failed)."""
    print(f"workload {wl.name}  seed {wl.seed}  passes {len(passes)}")
    print(f"  {'operation':22s} {'median_s':>10s} {'n':>3s}  tail  checks")
    for i, op in enumerate(passes[0].ops):
        walls = [p.ops[i].wall for p in passes]
        t = tail(walls)
        tail_txt = f"p{t[0]}={t[1]:.4f}" if t else "-"
        bad = [c.name for c in op.checks if not c.ok]
        print(f"  {op.name:22s} {statistics.median(walls):10.4f} {len(walls):3d}"
              f"  {tail_txt}  {len(op.checks) - len(bad)}/{len(op.checks)} ok"
              + (f"  FAILED {bad}" if bad else ""))
    for c in passes[0].checks():
        if c.tol is not None:
            target = c.ref if c.ref is not None else 0
            print(f"  {c.name:22s} value={c.value:.6g} ref={target:.6g} "
                  f"stderr={c.stderr:.3g} tol={c.tol} samples={c.samples}")
    attempted = sum(len(p.checks()) for p in passes) + len(extra_checks)
    failed = (sum(not c.ok for p in passes for c in p.checks())
              + sum(not ok for _, ok in extra_checks))
    for label, ok in extra_checks:
        print(f"  {label}: {'ok' if ok else 'FAILED'}")
    print(f"  attempted {attempted}  failed {failed}  "
          f"failed_frac {failed / attempted:.4g}")
    return attempted, failed


def untraced_run(wl, seconds, setup_s):
    passes = measure(wl, seconds)
    extra = [(f"pass {i} repeats pass 0 bit for bit", p.keys() == passes[0].keys())
             for i, p in enumerate(passes[1:], 1)]
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return report(wl, passes, extra) + (metrics,)


def traced_run(wl, seconds, import_s):
    """Untraced passes for half the time, then a traced set-up and traced
    passes; per-layer metrics are medians over the traced passes."""
    import tracer as tracing
    plain = measure(wl, seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    layer_runs = []

    def collect(p):
        layer_runs.append((tracer.self_times(), dict(tracer.counts),
                           engine_metrics(p)))
        tracer.reset()
    try:
        import workloads
        wl = workloads.make_workload(wl.name, wl.seed)
        setup_self = tracer.self_times()
        tracer.reset()
        traced = measure(wl, seconds / 2, on_pass=collect)
    finally:
        tracer.uninstall()
    extra = [(f"traced pass {i} repeats untraced pass 0 bit for bit",
              p.keys() == plain[0].keys()) for i, p in enumerate(traced)]
    extra += [(f"untraced pass {i} repeats pass 0 bit for bit",
               p.keys() == plain[0].keys()) for i, p in enumerate(plain[1:], 1)]

    metrics = {}
    for name in PER_LAYER:
        vals = []
        for self_t, counts, eng in layer_runs:
            if name in eng:
                vals.append(eng[name])
            elif name.endswith(".self_s"):
                vals.append(self_t.get(name[:-len(".self_s")], 0.0))
            else:
                vals.append(counts.get(name, 0))
        metrics[name] = statistics.median(vals)
    # the reference lattice sums run in set-up only
    metrics["geometry.ek_correlator_value.self_s"] = \
        setup_self.get("geometry.ek_correlator_value", 0.0)
    wall_plain = statistics.median(p.wall for p in plain)
    wall_traced = statistics.median(p.wall for p in traced)
    metrics["time_to_tol_s"] = statistics.median(time_to_tol(p) for p in plain)
    metrics["samples_per_s"] = statistics.median(
        sum(c.samples for c in p.checks()) / p.wall for p in plain)
    metrics["tracing_overhead_s"] = wall_traced - wall_plain
    metrics["import_s"] = import_s

    counts = report(wl, plain, extra)
    print(f"self time by span in traced pass 0 ({traced[0].wall:.4f} s), "
          f"untraced pass median {wall_plain:.4f} s:")
    for name, t in sorted(layer_runs[0][0].items(), key=lambda kv: -kv[1]):
        print(f"  {name:46s} {t:10.4f} s {100 * t / traced[0].wall:6.2f}%")
    return counts + (metrics,)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")

    load_library()
    import workloads
    import_s = time.perf_counter() - T_START

    setups = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl = workloads.make_workload(args.workload, args.seed)
        wl.warmup()
        setups.append(time.perf_counter() - t0)
    setup_s = statistics.median(setups)

    if args.trace:
        attempted, failed, metrics = traced_run(wl, args.seconds, import_s)
        units = PER_LAYER
    else:
        attempted, failed, metrics = untraced_run(wl, args.seconds, setup_s)
        units = END_TO_END
    print(f"  {'metric':48s} {'value':>14s} unit")
    for name, unit in units.items():
        print(f"  {name:48s} {metrics[name]:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u}
                    for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
