"""Benchmark for nilk: run one workload and print its metrics.

    python3 perfbench/run.py --workload verify|companion|cli|all
                             [--seed N] [--seconds S] [--trace 0|1]

With --trace 0 it times passes over the workload's ops and reports the
end-to-end metrics, scaled to a reference speed (see CALIBRATION_REF_S).
It runs --seconds / workloads.PASS_S passes (at least two): --seconds at
the reference speed, and the same number of samples on every run, so a
percentile keeps its rank from run to run.  With --trace 1 it
runs a warm-up pass, then two traced passes with spans.Tracer installed and
an untraced one between them, and reports the per-layer metrics.  Every op's output is checked in both
modes.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  `--workload all` runs every
workload in both modes, each in its own process.

The program under test is the nilk package in src/ next to this directory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
MIN_PASSES = 2
TRACED_PASSES = 2
TAIL_BEYOND = 10  # op_tail_ms is the highest percentile with this many samples above it

# The end-to-end times are scaled to a reference speed.  A shared 2-core box
# changes speed by up to 1.75x within seconds, with other tenants' load, so
# a fixed calibration snippet runs between ops (and around every set-up),
# and a time is reported as
#     raw seconds * CALIBRATION_REF_S / (mean of the nearby snippet times),
# the time it would take where the snippet takes CALIBRATION_REF_S.  Raw
# times are kept in the record line.
CALIBRATION_REF_S = 0.004


def _purge_nilk():
    for name in [n for n in sys.modules if n == "nilk" or n.startswith("nilk.")]:
        del sys.modules[name]


def _calibration() -> float:
    """Seconds taken by a fixed slice of interpreter work of the kind nilk
    does: tuple keys, dict updates and Fraction sums."""
    t0 = time.perf_counter()
    acc = {}
    for i in range(1500):
        key = (i % 7, i % 5)
        acc[key] = acc.get(key, 0) + Fraction(i % 13, 1 + i % 4)
    return time.perf_counter() - t0


def _scale(raw: float, before: float, after: float) -> float:
    return raw * 2 * CALIBRATION_REF_S / (before + after)


def _setup(workload: str, seed: int, workdir: Path):
    """Import nilk afresh and build the workload's ops.
    Returns (ops, raw seconds, scaled seconds)."""
    from workloads import WORKLOADS
    _purge_nilk()
    importlib.invalidate_caches()
    gc.collect()
    before = _calibration()
    t0 = time.perf_counter()
    ops = WORKLOADS[workload](seed, workdir)
    raw = time.perf_counter() - t0
    return ops, raw, _scale(raw, before, _calibration())


def _run_pass(ops):
    """Run every op once; returns [(op, output, raw seconds, scaled seconds)].

    An op's time includes a full garbage collection right after it, so the
    reference cycles an op leaves behind (Matrix.det's memo is one, 120 MB at
    size 30) are reclaimed on its own time and not on some later op's."""
    clock = time.perf_counter
    calibrations = [(clock(), _calibration())]  # (start, seconds)
    timed = []
    for op in ops:
        t0 = clock()
        try:
            out = op.run()
        except Exception as e:  # a raising op is a wrong output, checked below
            out = e
        gc.collect()
        t1 = clock()
        timed.append((op, out, t0, t1))
        calibrations.append((t1, _calibration()))
    # An op is scaled by the calibrations within its own duration (and at
    # least the two next to it) on either side of it: a long op spans
    # several changes of the machine's speed.
    results = []
    for op, out, t0, t1 in timed:
        reach = (t1 - t0) + 1e-3
        near = [c for start, c in calibrations if t0 - reach <= start + c and start <= t1 + reach]
        results.append((op, out, t1 - t0, (t1 - t0) * CALIBRATION_REF_S / statistics.mean(near)))
    return results


def _wall(results):
    """A pass's wall time at the reference speed: the sum of its ops' times."""
    return sum(r[3] for r in results)


def _problem(op, out):
    if isinstance(out, Exception):
        return f"raised {type(out).__name__}: {out}"
    try:
        return op.check(out)
    except Exception as e:
        return f"check raised {type(e).__name__}: {e}"


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures = []       # (op name, problem)
        self.known_defects = {}  # op name -> (times wrong, times run, last problem)

    def add(self, results):
        for op, out, _, _ in results:
            self.attempted += 1
            problem = _problem(op, out)
            if op.known_defect:
                wrong, runs, last = self.known_defects.get(op.name, (0, 0, None))
                self.known_defects[op.name] = (wrong + bool(problem), runs + 1, problem or last)
            elif problem:
                self.failures.append((op.name, problem))

    def failed_ratio(self):
        wrong = len(self.failures) + sum(w for w, _, _ in self.known_defects.values())
        return wrong / self.attempted


def _tail(samples):
    """(value, percentile): the highest sample with TAIL_BEYOND samples above it."""
    s = sorted(samples)
    k = max(0, len(s) - TAIL_BEYOND - 1)
    return s[k], 100.0 * (k + 1) / len(s)


def _environment(seed):
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    src = hashlib.sha256()
    for f in sorted((SRC / "nilk").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "git_commit": commit, "nilk_source_sha256": src.hexdigest(), "seed": seed}


def _check_names(metrics: dict, section: str):
    """The printed metric names must be the ones BENCHMARK.json declares."""
    spec = ROOT / "BENCHMARK.json"
    if spec.is_file():
        declared = [m["name"] for m in json.loads(spec.read_text())[section]]
        if sorted(declared) != sorted(metrics):
            raise SystemExit(f"metric names differ from BENCHMARK.json {section}: "
                             f"{sorted(set(declared) ^ set(metrics))}")


def run_untraced(ops, n_passes, tally):
    """Runs n_passes passes; returns every pass's results."""
    passes = []
    for _ in range(n_passes):
        passes.append(_run_pass(ops))
        tally.add(passes[-1])
    return passes


def end_to_end(passes, setups, record):
    """The end-to-end metrics from scaled times; raw ones go to the record."""
    ops = [r[0] for r in passes[0]]
    out, raw = {}, {}
    for table, k in ((out, 3), (raw, 2)):
        per_op = [statistics.median(res[i][k] for res in passes) for i in range(len(ops))]
        tail, pct = _tail([r[k] for res in passes for r in res])
        table["setup_s"] = (statistics.median(s[k - 2] for s in setups), "s")
        table["wall_s"] = (statistics.median(sum(r[k] for r in res) for res in passes), "s")
        table["op_p50_ms"] = (1000 * statistics.median_low(per_op), "ms")
        table["op_tail_ms"] = (1000 * tail, "ms")
        if k == 3:
            record["op_median_ms"] = {op.name: 1000 * t for op, t in zip(ops, per_op)}
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    record["raw"] = {name: value for name, (value, _) in raw.items()}
    record["samples"] = {"setups": len(setups), "passes": len(passes), "ops_per_pass": len(ops),
                         "op_latencies": len(ops) * len(passes),
                         "op_tail_percentile": pct, "op_tail_samples_beyond": TAIL_BEYOND}
    return out


def run_traced(ops, workload, tally, record):
    import spans
    from workloads import VERIFY_EVAL_WORD_CALLS

    tally.add(_run_pass(ops))  # warm-up, so first-run costs stay out of the overhead
    tracer = spans.Tracer()
    untraced, walls, exact, layer = [], [], [], []
    for i in range(TRACED_PASSES):
        if i:  # untraced and traced passes take turns
            results = _run_pass(ops)
            tally.add(results)
            untraced.append(_wall(results))
        tracer.reset()
        tracer.install()
        try:
            results = _run_pass(ops)
        finally:
            tracer.uninstall()
        tally.add(results)
        walls.append(_wall(results))
        exact.append(tracer.exact())
        layer.append(tracer.metrics())
    # self-checks on the counters
    if any(e != exact[0] for e in exact[1:]):
        diff = sorted(k for k in exact[0].keys() | exact[1].keys()
                      if exact[0].get(k) != exact[1].get(k))
        tally.failures.append(("trace counters", f"traced passes disagree on {diff}"))
    if workload == "verify":
        got = exact[0].get("words.eval_word.calls", 0)
        if got != VERIFY_EVAL_WORD_CALLS:
            tally.failures.append(("trace counters", f"eval_word calls {got} != "
                                   f"{VERIFY_EVAL_WORD_CALLS} derived from the op list"))
    metrics = {name: statistics.mean(m[name] for m in layer) for name in layer[0]}
    for name in exact[0]:
        if name in metrics:
            metrics[name] = exact[0][name]
    metrics["trace.overhead_s"] = statistics.median(walls) - statistics.median(untraced)
    record["samples"] = {"warm_up_passes": 1, "untraced_passes": len(untraced),
                         "traced_passes": len(walls), "untraced_wall_s": untraced,
                         "traced_wall_s": walls}
    units = dict(spans.per_layer_names())
    return {name: (metrics[name], units[name]) for name, _ in spans.per_layer_names()}


def run_workload(args) -> int:
    if not (SRC / "nilk" / "__init__.py").is_file():
        print(f"perfbench: nilk sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    record = {"workload": args.workload, "trace": args.trace,
              "environment": _environment(args.seed)}
    tally = Tally()
    try:
        setups = []
        for _ in range(SETUP_REPEATS if not args.trace else 1):
            ops, *times = _setup(args.workload, args.seed, workdir)
            setups.append(times)
        import nilk
        if Path(nilk.__file__).resolve().parent != (SRC / "nilk").resolve():
            print(f"perfbench: imported nilk from {nilk.__file__}, not {SRC}", file=sys.stderr)
            return 2
        if args.trace:
            metrics = run_traced(ops, args.workload, tally, record)
            section = "per_layer"
        else:
            from workloads import PASS_S
            n_passes = max(MIN_PASSES, round(args.seconds / PASS_S[args.workload]))
            metrics = end_to_end(run_untraced(ops, n_passes, tally), setups, record)
            section = "end_to_end"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is using it
            pass

    _check_names(metrics, section)
    record["failed_ratio"] = tally.failed_ratio()
    record["failures"] = tally.failures[:20]
    record["known_defects"] = [
        {"op": name, "wrong": wrong, "runs": runs, "problem": problem}
        for name, (wrong, runs, problem) in tally.known_defects.items()]
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>16.6g} {unit}")
    print(f"{'failed_ratio (known defects included)':48s} {record['failed_ratio']:>16.6g} ratio")
    print(json.dumps({"record": record}))
    correct = not tally.failures
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": len(tally.failures),
                      "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for workload in ("verify", "companion", "cli"):
        for trace in (0, 1):
            print(f"== {workload} --trace {trace}", flush=True)
            done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                   "--workload", workload, "--seed", str(args.seed),
                                   "--seconds", str(args.seconds), "--trace", str(trace)])
            status = status or done.returncode
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["verify", "companion", "cli", "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=18)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
