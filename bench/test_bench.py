"""Self-tests of the benchmark: reference checks, span arithmetic, tracer
removal, and agreement with BENCHMARK.json.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

import run
import tracer
import workloads

workloads.setup(str(run.SRC))


# ---------------------------------------------------------------------------
# reference checks


def _catalog_doc(poles=workloads.REF_POLES):
    entries = [{"q": "1/1", "k": k, "pole_a": [a, 0.0], "status": "ok"}
               for k, a in enumerate(poles)]
    return {"meta": {"version": "x"}, "entries": entries}


def _round_trip(doc):
    return json.loads(json.dumps(doc))


def test_catalog_check_accepts_reference_poles():
    doc = _catalog_doc()
    assert workloads.check_catalog(doc, _round_trip(doc)) == 0


def test_catalog_check_rejects_perturbed_pole():
    poles = list(workloads.REF_POLES)
    poles[2] += 2 * workloads.POLE_TOL
    doc = _catalog_doc(poles)
    assert workloads.check_catalog(doc, _round_trip(doc)) == 1


def test_catalog_check_rejects_inexact_round_trip_and_bad_status():
    doc = _catalog_doc()
    back = _round_trip(doc)
    first = back["entries"][0]["pole_a"]
    first[0] = math.nextafter(first[0], 0.0)  # one ulp off
    assert workloads.check_catalog(doc, back) == 1
    doc["entries"][4]["status"] = "error:NewtonDiverged"
    assert workloads.check_catalog(doc, _round_trip(doc)) == 1
    doc["entries"].pop()
    assert workloads.check_catalog(doc, _round_trip(doc)) == 5


def test_track_check_rejects_perturbed_and_missing_poles():
    poles = [SimpleNamespace(a=complex(a)) for a in workloads.REF_POLES[:4]]
    assert workloads.check_track(poles) == 0
    poles[3] = SimpleNamespace(a=poles[3].a + 2j * workloads.POLE_TOL)
    assert workloads.check_track(poles) == 1
    assert workloads.check_track(poles[:3]) == workloads.TRACK_POLES


def _solution(a, b, residual=1e-13):
    return SimpleNamespace(point=SimpleNamespace(a=a, b=b), residual=residual)


def test_seeds_check_needs_residuals_and_conjugate_swaps():
    sols = {(1, 1): [_solution(-2.3 + 0j, -0.06 + 0j)],
            (1, 2): [_solution(-4 - 1.3j, -0.15 + 0.06j)],
            (2, 1): [_solution(-4 + 1.3j, -0.15 - 0.06j)]}
    assert workloads.check_seeds(sols, 1e-10) == set()
    sols[(1, 2)] = [_solution(-4 - 1.3j + 1e-8, -0.15 + 0.06j)]
    assert workloads.check_seeds(sols, 1e-10) == {(1, 2), (2, 1)}
    sols[(1, 2)] = [_solution(-4 - 1.3j, -0.15 + 0.06j), _solution(0, 0, 1e-9)]
    assert workloads.check_seeds(sols, 1e-10) == {(1, 2)}
    sols[(2, 1)] = None
    assert workloads.check_seeds(sols, 1e-10) == {(1, 2), (2, 1)}


def test_seeds_pairs_are_seeded_fixed_in_count_and_swap_closed():
    pool = workloads.coprime_pool()
    assert len(pool) == 19
    draws = {seed: workloads.seeds_pairs(seed) for seed in range(20)}
    assert draws[3] == workloads.seeds_pairs(3)
    assert len({tuple(p) for p in draws.values()}) > 1
    for pairs in draws.values():
        assert len(pairs) == len(set(pairs)) == 1 + 2 * workloads.SEEDS_CLASSES
        assert set(pairs) <= set(pool)
        assert {(m, n) for n, m in pairs} == set(pairs)


# ---------------------------------------------------------------------------
# spans


def test_self_times_of_nested_span_tree():
    spans = [["root", 0.0, 10.0, -1],
             ["mid", 1.0, 4.0, 0],
             ["leaf", 2.0, 3.0, 1],
             ["leaf", 5.0, 9.0, 0],
             ["other", 11.0, 12.5, -1]]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.5]
    totals = tracer.layer_totals(spans, {"leaf.calls": 2})
    assert totals == {"root.self_s": 3.0, "mid.self_s": 2.0,
                      "leaf.self_s": 5.0, "other.self_s": 1.5,
                      "leaf.calls": 2}


def test_tracer_patches_callers_namespaces_and_nests_spans():
    elliptic = workloads._pkg("elliptic")
    ticks = iter(range(10_000))
    with tracer.Tracer(clock=lambda: float(next(ticks))) as tr:
        elliptic.PeriodData.compute(
            elliptic.Potential(*workloads.REFERENCE_POINT))
    names = [span[0] for span in tr.spans]
    assert names[0] == "elliptic.PeriodData.compute"
    # _cycle_integral reaches turning_points through elliptic's own globals
    assert names.count("elliptic.turning_points") == tr.counts[
        "elliptic.turning_points.calls"] > 0
    assert all(span[3] == 0 for span in tr.spans[1:])
    assert tracer.self_times(tr.spans)[0] == (
        tr.spans[0][2] - tr.spans[0][1]
        - sum(s[2] - s[1] for s in tr.spans[1:]))


def _solve_anchor_pass():
    bsb = workloads._pkg("bsb")
    bsb.solve_bsb(bsb.QuantumPair(1, 1))
    return workloads.PassOutcome(1, 0)


def test_traced_run_restores_every_patched_name():
    before = tracer.original_bindings()
    assert not tracer.is_installed()
    workload = workloads.Workload(1, _solve_anchor_pass, {})
    result = run.run_traced(workload, seconds=0.0)
    assert not tracer.is_installed()
    for (owner, key), obj in before.items():
        assert vars(owner)[key] is obj, f"{owner.__name__}.{key}"
    layers = result["layers"]
    assert layers["bsb.solve_bsb.calls"] == 1
    assert layers["stokes.trace_stokes_lines.calls"] == 1
    assert layers["complex_ode.integrate.calls"] == 9
    assert [row["traced"] for row in result["passes"]] == [False, True]


# ---------------------------------------------------------------------------
# contract


def test_benchmark_json_matches_the_metrics_and_workloads():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [metric[:3] for metric in run.LAYER_METRICS]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_fails_without_package_source(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "track", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_inputs_do_not_depend_on_seed_except_seeds(name, tmp_path):
    a = workloads.WORKLOADS[name](1, tmp_path).inputs
    b = workloads.WORKLOADS[name](2, tmp_path).inputs
    assert (a != b) == (name == "seeds")
