"""Benchmark of the tritronquee pole pipeline.

Run from the repository root:

    python3 bench/run.py --workload {catalog,track,seeds} [--seed N]
                         [--seconds S] [--trace 0|1]

The workloads are described in ``workloads.py``.  The benchmark imports the
package from ``src/`` next to this directory and runs it in one process with
one closed-loop caller: a pass starts when the previous one has returned,
and ``build_catalog`` runs with ``jobs=1``.

``--trace 0`` repeats passes for about ``--seconds`` and reports the
end-to-end metrics of ``END_TO_END``: ``setup_s`` (median over fresh
interpreters that import the package and pay its lazy set-up), ``ops_per_s``
(checked operations over the summed pass time) and ``peak_rss_mb``.
``--trace 1`` alternates an untraced and a traced pass for about
``--seconds`` and reports the per-layer metrics of ``LAYER_METRICS``: counts,
which repeat exactly, and self times, as medians over the traced passes;
``trace.overhead_s`` is the traced minus the untraced wall time of a pass.
No wrapper is installed while an untraced pass runs.

Both modes print every metric by name and unit, plus ``failed_ops``, the
share of operations that failed their check.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The run record (environment, per-pass times next to the work
counts, and in traced runs every span) goes to
``bench/out/<workload>-seed<N>-trace<T>.json``.  Self-tests:
``python3 -m pytest bench``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 7


#: (name, unit, better) of every end-to-end metric of an untraced run.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

_SEEDS = "ops_per_s on seeds"
_CATALOG = "ops_per_s on catalog"
_TRACK = "ops_per_s on track"
_ODE = "ops_per_s on track and seeds"

#: (name, unit, better, what it should move) of every per-layer metric of a
#: traced run; the last field is written into the run record.
LAYER_METRICS = (
    ("elliptic.PeriodData.compute.calls", "count", "lower", _SEEDS),
    ("elliptic.PeriodData.compute.self_s", "s", "lower", _SEEDS),
    ("elliptic.turning_points.calls", "count", "lower",
     "ops_per_s on seeds and catalog"),
    ("elliptic.turning_points.self_s", "s", "lower",
     "ops_per_s on seeds and catalog"),
    ("stokes.trace_stokes_lines.calls", "count", "lower", _SEEDS),
    ("stokes.trace_stokes_lines.self_s", "s", "lower", _SEEDS),
    ("stokes.trace_stokes_lines.points", "count", "lower", _SEEDS),
    ("bsb.solve_bsb.calls", "count", "lower", _SEEDS),
    ("bsb.solve_bsb.self_s", "s", "lower", _SEEDS),
    ("bsb.solve_period_targets.calls", "count", "lower", _SEEDS),
    ("bsb.solve_period_targets.self_s", "s", "lower", _SEEDS),
    ("oscillator.refine_pole.calls", "count", "lower", _CATALOG),
    ("oscillator.refine_pole.self_s", "s", "lower", _CATALOG),
    ("oscillator.refine_pole.newton_iterations", "count", "lower", _CATALOG),
    ("oscillator.dependence_residual.calls", "count", "lower", _CATALOG),
    ("oscillator.dependence_residual.self_s", "s", "lower", _CATALOG),
    ("oscillator.psi_logderivative.calls", "count", "lower", _CATALOG),
    ("oscillator.psi_logderivative.self_s", "s", "lower", _CATALOG),
    ("oscillator.u_values.calls", "count", "lower", _CATALOG),
    ("oscillator.u_values.self_s", "s", "lower", _CATALOG),
    ("oscillator.residual_evals_per_iteration", "ratio", "lower", _CATALOG),
    ("painleve.seed_asymptotic.self_s", "s", "lower", _TRACK),
    ("painleve.track.self_s", "s", "lower", _TRACK),
    ("painleve.track.poles", "count", "higher", _TRACK),
    ("complex_ode.integrate.calls", "count", "lower", _ODE),
    ("complex_ode.integrate.self_s", "s", "lower", _ODE),
    ("complex_ode.integrate.steps", "count", "lower", _ODE),
    ("complex_ode.integrate_along_path.self_s", "s", "lower", _TRACK),
    ("complex_ode.steps_per_s", "1/s", "higher", _ODE),
    ("catalog.compute_entry.calls", "count", "lower", _CATALOG),
    ("catalog.compute_entry.self_s", "s", "lower", _CATALOG),
    ("catalog.write_catalog.self_s", "s", "lower", _CATALOG),
    ("catalog.read_catalog.self_s", "s", "lower", _CATALOG),
    ("trace.overhead_s", "s", "lower",
     "nothing; traced minus untraced wall time of one pass"),
)


def layer_metrics(tr: tracer.Tracer, overhead_s: float) -> dict[str, float]:
    """Every LAYER_METRICS value of one traced pass (0 for idle layers)."""
    totals = tracer.layer_totals(tr.spans, tr.counts)
    iterations = totals.get("oscillator.refine_pole.newton_iterations", 0)
    ode_s = totals.get("complex_ode.integrate.self_s", 0.0)
    totals["oscillator.residual_evals_per_iteration"] = (
        totals.get("oscillator.dependence_residual.calls", 0) / iterations
        if iterations else 0.0)
    totals["complex_ode.steps_per_s"] = (
        totals.get("complex_ode.integrate.steps", 0) / ode_s if ode_s else 0.0)
    totals["trace.overhead_s"] = overhead_s
    return {name: totals.get(name, 0) for name, *_ in LAYER_METRICS}


def _setup_probe() -> float:
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
            "print(repr(workloads.setup(sys.argv[2])))")
    out = subprocess.run([sys.executable, "-c", code, str(BENCH_DIR), str(SRC)],
                         cwd=ROOT, capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _environment() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def _timed_pass(workload: workloads.Workload) -> tuple[float, workloads.PassOutcome]:
    t0 = time.perf_counter()
    outcome = workload.run_pass()
    return time.perf_counter() - t0, outcome


def _pass_row(seconds: float, outcome: workloads.PassOutcome,
              traced: bool) -> dict:
    return {"seconds": seconds, "traced": traced,
            "attempted": outcome.attempted, "failed": outcome.failed,
            "work": outcome.work}


def _another_round(start: float, rounds: int, seconds: float) -> bool:
    """Whether one more round ends nearer to ``seconds`` than stopping now."""
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / rounds < seconds


def run_untraced(workload: workloads.Workload, seconds: float) -> dict:
    rows = []
    start = time.perf_counter()
    while not rows or _another_round(start, len(rows), seconds):
        if tracer.is_installed():
            raise RuntimeError("tracer wrappers present in a timed pass")
        elapsed, outcome = _timed_pass(workload)
        rows.append(_pass_row(elapsed, outcome, False))
    # a time-weighted rate: the host's speed drifts by up to a third over
    # tens of seconds, which the mean over the run averages best
    done = sum(r["attempted"] - r["failed"] for r in rows)
    return {"passes": rows, "ops_per_s": done / sum(r["seconds"] for r in rows)}


def run_traced(workload: workloads.Workload, seconds: float) -> dict:
    rows, per_pass, spans = [], [], []
    start = time.perf_counter()
    while not per_pass or _another_round(start, len(per_pass), seconds):
        if tracer.is_installed():
            raise RuntimeError("tracer wrappers present in a timed pass")
        plain_s, outcome = _timed_pass(workload)
        rows.append(_pass_row(plain_s, outcome, False))
        with tracer.Tracer() as tr:
            traced_s, outcome = _timed_pass(workload)
        rows.append(_pass_row(traced_s, outcome, True))
        per_pass.append(layer_metrics(tr, traced_s - plain_s))
        spans.append(tr.spans)
    counts = [{name: m[name] for name, unit, *_ in LAYER_METRICS
               if unit == "count"} for m in per_pass]
    medians = {name: (statistics.median_low if unit == "count"
                      else statistics.median)(m[name] for m in per_pass)
               for name, unit, *_ in LAYER_METRICS}
    return {"passes": rows, "layers": medians, "layer_passes": per_pass,
            "counts_repeat": all(c == counts[0] for c in counts),
            "spans": spans}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tritronquee" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'tritronquee'}",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)

    # the first import compiles the sources; the probes then time warm imports
    workloads.setup(str(SRC))
    setup_samples = ([] if args.trace
                     else [_setup_probe() for _ in range(SETUP_REPEATS)])
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)

    if args.trace:
        result = run_traced(workload, args.seconds)
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit, *_ in LAYER_METRICS}
    else:
        result = run_untraced(workload, args.seconds)
        values = {
            "setup_s": statistics.median(setup_samples),
            "ops_per_s": result["ops_per_s"],
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in END_TO_END}
    attempted = sum(r["attempted"] for r in result["passes"])
    failed = sum(r["failed"] for r in result["passes"])

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "inputs": workload.inputs, "ops_per_pass": workload.ops_per_pass,
        "environment": _environment(), "setup_samples_s": setup_samples,
        "metrics": metrics,
        "failed_ops": {"value": failed / attempted, "unit": "share"},
        **result,
    }
    if args.trace:
        record["moves"] = {name: moves for name, *_, moves in LAYER_METRICS}
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record) + "\n", encoding="utf-8")

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(result['passes'])} record={out_path.relative_to(ROOT)}")
    for name, metric in {**metrics, "failed_ops": record["failed_ops"]}.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    if args.trace and not result["counts_repeat"]:
        print("  warning: work counts differ between traced passes")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
