"""The three benchmark workloads and their reference checks.

Each workload runs in passes.  A pass is a fixed unit of work made of
operations; every operation is checked against reference values and counted
as failed when it raises, comes back non-``ok`` or misses its reference.

* ``catalog`` (route 2): ``build_catalog([QuantumPair(1, 1)], K=4)`` without
  the Painleve cross-check, then ``write_catalog`` and ``read_catalog``.  One
  operation is one catalog entry.  ``oscillator`` does nearly all the work.
* ``track`` (route 3): ``seed_asymptotic(40)`` and ``track`` to -12 through
  the first four real poles.  One operation is one pole passed.  All the
  work is ``painleve`` on top of ``complex_ode``.
* ``seeds`` (route 1): ``solve_bsb`` with the Stokes-graph check and
  ``descendant`` for k = 1..4, for pairs drawn from the 19 coprime pairs
  with n, m <= 5.  One operation is one pair with its descendants.  The work
  is ``stokes`` and ``elliptic``, with many short ``complex_ode`` calls.

This module imports neither numpy nor the package at import time, so that
``setup`` measures the whole import.
"""

from __future__ import annotations

import importlib
import json
import math
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

#: q = 1 real-axis poles for k = 0..4, as route 2 and route 3 both give them.
REF_POLES = (-2.384168769569, -5.664602914216, -8.513523796756,
             -11.139362023275, -13.617994713467)
POLE_TOL = 1e-8
CONJUGATE_TOL = 1e-9

CATALOG_K = 4
TRACK_FROM = 40.0
TRACK_TO = -12.0
TRACK_POLES = 4
DESCENDANTS = 4
#: Swap classes {(n, m), (m, n)} with n != m that one ``seeds`` pass solves,
#: both orders each, after the self-conjugate anchor (1, 1).
SEEDS_CLASSES = 8

#: Parameter point at which ``setup`` computes one set of periods.
REFERENCE_POINT = (-2.3475919932, -0.0639977427)


def _pkg(module: str):
    """Package module, looked up at call time so tracer wrappers apply."""
    return importlib.import_module(f"tritronquee.{module}")


def setup(src: str) -> float:
    """Import the package and pay its once-per-process lazy set-up.

    Returns the seconds taken: importing the package and its catalog
    module, the Laurent recurrence table and the Gauss-Legendre node cache
    filled by one period computation.
    """
    t0 = time.perf_counter()
    if src not in sys.path:
        sys.path.insert(0, src)
    importlib.import_module("tritronquee")
    _pkg("catalog")
    painleve = _pkg("painleve")
    elliptic = _pkg("elliptic")
    painleve.laurent_coefficients(painleve.LAURENT_ORDER)
    elliptic.PeriodData.compute(elliptic.Potential(*REFERENCE_POINT))
    return time.perf_counter() - t0


@dataclass
class PassOutcome:
    attempted: int
    failed: int
    work: dict = field(default_factory=dict)


@dataclass
class Workload:
    ops_per_pass: int
    run_pass: Callable[[], PassOutcome]
    inputs: dict


def _report(exc: BaseException) -> None:
    traceback.print_exception(exc, file=sys.stderr)


# ---------------------------------------------------------------------------
# catalog


def check_catalog(doc: dict, back: dict) -> int:
    """Failed entries: not ``ok``, off the reference pole, or not read back
    bit-exactly.  A missing entry or a changed header fails them all."""
    n_ops = CATALOG_K + 1
    entries = doc.get("entries", [])
    if (len(entries) != n_ops or len(back.get("entries", [])) != n_ops
            or json.dumps(doc.get("meta")) != json.dumps(back.get("meta"))):
        return n_ops
    failed = 0
    for k, (entry, again, ref) in enumerate(zip(entries, back["entries"],
                                                REF_POLES)):
        pole = complex(*entry["pole_a"]) if entry.get("pole_a") else None
        ok = (entry.get("q") == "1/1" and entry.get("k") == k
              and entry.get("status") == "ok" and pole is not None
              and abs(pole - ref) <= POLE_TOL
              and json.dumps(entry) == json.dumps(again))
        failed += not ok
    return failed


def catalog_workload(seed: int, out_dir: Path) -> Workload:
    path = out_dir / "catalog.json"

    def run_pass() -> PassOutcome:
        catalog = _pkg("catalog")
        quantum = _pkg("bsb").QuantumPair(1, 1)
        n_ops = CATALOG_K + 1
        try:
            doc = catalog.build_catalog([quantum], K=CATALOG_K)
            catalog.write_catalog(doc, str(path))
            back = catalog.read_catalog(str(path))
        except Exception as exc:  # one failed pass must not end the run
            _report(exc)
            return PassOutcome(n_ops, n_ops)
        return PassOutcome(n_ops, check_catalog(doc, back),
                           {"entries": len(doc["entries"]),
                            "catalog_bytes": path.stat().st_size})

    return Workload(CATALOG_K + 1, run_pass,
                    {"q": ["1/1"], "K": CATALOG_K, "painleve": False,
                     "jobs": 1})


# ---------------------------------------------------------------------------
# track


def check_track(poles) -> int:
    """Failed poles: each of the first four real poles must be passed, in
    order, within POLE_TOL of its reference."""
    if len(poles) != TRACK_POLES:
        return TRACK_POLES
    return sum(abs(pole.a - ref) > POLE_TOL
               for pole, ref in zip(poles, REF_POLES))


def track_workload(seed: int, out_dir: Path) -> Workload:
    def run_pass() -> PassOutcome:
        painleve = _pkg("painleve")
        try:
            state = painleve.seed_asymptotic(TRACK_FROM)
            _, poles = painleve.track(state, [TRACK_FROM, TRACK_TO])
        except Exception as exc:  # one failed pass must not end the run
            _report(exc)
            return PassOutcome(TRACK_POLES, TRACK_POLES)
        return PassOutcome(TRACK_POLES, check_track(poles),
                           {"poles": len(poles)})

    return Workload(TRACK_POLES, run_pass,
                    {"from": TRACK_FROM, "to": TRACK_TO})


# ---------------------------------------------------------------------------
# seeds


def coprime_pool(limit: int = 5) -> list[tuple[int, int]]:
    """All (n, m) with n, m <= limit and 2n-1, 2m-1 coprime (19 for 5)."""
    return [(n, m) for n in range(1, limit + 1) for m in range(1, limit + 1)
            if math.gcd(2 * n - 1, 2 * m - 1) == 1]


def seeds_pairs(seed: int) -> list[tuple[int, int]]:
    """(1, 1) and both orders of SEEDS_CLASSES swap classes chosen by seed.

    Solving both orders of every pair lets the conjugate-symmetry check
    apply to each operation.
    """
    classes = [(n, m) for n, m in coprime_pool() if n < m]
    chosen = random.Random(seed).sample(classes, SEEDS_CLASSES)
    return [(1, 1)] + [p for n, m in chosen for p in ((n, m), (m, n))]


def check_seeds(solved: dict, tol_newton: float) -> set:
    """Failed pairs: ``solved[(n, m)]`` is None (it raised), a residual of
    the primitive or a descendant is not below tol_newton, or the point is
    not the complex conjugate of the swapped pair's point."""
    failed = set()
    for pair, sols in solved.items():
        if sols is None or any(not s.residual < tol_newton for s in sols):
            failed.add(pair)
            continue
        swap = solved.get(pair[::-1])
        if swap is None:
            failed.add(pair)
            continue
        p, q = sols[0].point, swap[0].point
        if (abs(p.a - q.a.conjugate()) > CONJUGATE_TOL
                or abs(p.b - q.b.conjugate()) > CONJUGATE_TOL):
            failed.add(pair)
    return failed


def seeds_workload(seed: int, out_dir: Path) -> Workload:
    pairs = seeds_pairs(seed)

    def run_pass() -> PassOutcome:
        bsb = _pkg("bsb")
        solved = {}
        for n, m in pairs:
            try:
                primitive = bsb.solve_bsb(bsb.QuantumPair(n, m))
                solved[(n, m)] = [primitive] + [
                    bsb.descendant(primitive, k)
                    for k in range(1, DESCENDANTS + 1)]
            except Exception as exc:  # count the pair, keep going
                _report(exc)
                solved[(n, m)] = None
        failed = check_seeds(solved, bsb.TOL_NEWTON)
        return PassOutcome(len(pairs), len(failed),
                           {"pairs": len(pairs),
                            "descendants": DESCENDANTS * len(pairs)})

    return Workload(len(pairs), run_pass,
                    {"pairs": [list(p) for p in pairs],
                     "descendants_k": [1, DESCENDANTS]})


WORKLOADS = {
    "catalog": catalog_workload,
    "track": track_workload,
    "seeds": seeds_workload,
}
