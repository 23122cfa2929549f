"""Pole catalog: batch pipeline, JSON persistence, convergence analysis.

A catalog is one JSON object with a "meta" header (tool version, config
hash, effective tolerances) and an "entries" array, one entry per (q, k).
Complex numbers serialize as [re, im] pairs and rationals as "p/r" strings;
floats go through Python's shortest round-trip representation, so a write
followed by a read reproduces every value bit-exactly.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat

import numpy as np

from . import __version__
from .bsb import BsbSolution, QuantumPair, descendant, solve_bsb
from .config import ToolConfig
from .errors import InsufficientData, NumericalError
from .oscillator import refine_pole
from .painleve import seed_asymptotic, track


@dataclass(frozen=True)
class CatalogEntry:
    q: Fraction
    k: int
    seed_a: complex
    seed_b: complex
    pole_a: complex
    pole_b: complex
    dep_residual: float
    bsb_residual: float
    wkb_gap2: float
    wkb_gapm2: float
    error_a: float
    status: str = "ok"
    painleve_a: complex | None = None
    painleve_b: complex | None = None


@dataclass(frozen=True)
class ConvergenceReport:
    q: Fraction
    ks: list[int]
    errors: list[float]
    fitted_exponent: float
    fit_stderr: float


def _c(value: complex | None):
    if value is None:
        return None
    return [float(value.real), float(value.imag)]


def _uc(value):
    if value is None:
        return None
    return complex(value[0], value[1])


def entry_to_json(entry: CatalogEntry) -> dict:
    return {
        "q": f"{entry.q.numerator}/{entry.q.denominator}",
        "k": entry.k,
        "seed_a": _c(entry.seed_a),
        "seed_b": _c(entry.seed_b),
        "pole_a": _c(entry.pole_a),
        "pole_b": _c(entry.pole_b),
        "dep_residual": entry.dep_residual,
        "bsb_residual": entry.bsb_residual,
        "wkb_gap2": entry.wkb_gap2,
        "wkb_gapm2": entry.wkb_gapm2,
        "error_a": entry.error_a,
        "status": entry.status,
        "painleve_a": _c(entry.painleve_a),
        "painleve_b": _c(entry.painleve_b),
    }


def entry_from_json(data: dict) -> CatalogEntry:
    num, den = data["q"].split("/")
    return CatalogEntry(
        q=Fraction(int(num), int(den)),
        k=int(data["k"]),
        seed_a=_uc(data["seed_a"]),
        seed_b=_uc(data["seed_b"]),
        pole_a=_uc(data["pole_a"]),
        pole_b=_uc(data["pole_b"]),
        dep_residual=data["dep_residual"],
        bsb_residual=data["bsb_residual"],
        wkb_gap2=data["wkb_gap2"],
        wkb_gapm2=data["wkb_gapm2"],
        error_a=data["error_a"],
        status=data.get("status", "ok"),
        painleve_a=_uc(data.get("painleve_a")),
        painleve_b=_uc(data.get("painleve_b")),
    )


def _painleve_crosscheck(pole_a: complex, z_seed: float):
    """Track from the asymptotic sector to just past the predicted pole."""
    state = seed_asymptotic(complex(z_seed, 0.0))
    direction = (pole_a - state.z) / abs(pole_a - state.z)
    end = pole_a + 0.6 * direction
    _, poles = track(state, [state.z, end])
    best = None
    for p in poles:
        if best is None or abs(p.a - pole_a) < abs(best.a - pole_a):
            best = p
    if best is not None and abs(best.a - pole_a) < 0.1 * (1.0 + abs(pole_a)):
        return best.a, best.b
    return None, None


def compute_entry(quantum: QuantumPair, k: int, painleve: bool = False,
                  cfg: ToolConfig | None = None) -> CatalogEntry:
    """Full pipeline for one (q, k): solve, descend, refine, cross-check."""
    cfg = cfg or ToolConfig()
    primitive = solve_bsb(quantum, tol_newton=cfg.tol_newton)
    seed = descendant(primitive, k) if k else primitive
    return _seed_entry(seed, painleve, cfg)


def _seed_entry(seed: BsbSolution, painleve: bool,
                cfg: ToolConfig) -> CatalogEntry:
    """Refine one quantization seed and cross-check it."""
    try:
        rec = refine_pole(seed, radius_policy=(cfg.disc_alpha, cfg.disc_eps),
                          tol_dep=cfg.tol_dep, rtol=cfg.tol_ode)
    except NumericalError as exc:
        nan = float("nan")
        return CatalogEntry(q=seed.q, k=seed.k, seed_a=seed.point.a,
                            seed_b=seed.point.b, pole_a=complex(nan, nan),
                            pole_b=complex(nan, nan), dep_residual=nan,
                            bsb_residual=seed.residual, wkb_gap2=nan,
                            wkb_gapm2=nan, error_a=nan,
                            status=f"error:{type(exc).__name__}")
    pa, pb = (None, None)
    if painleve:
        pa, pb = _painleve_crosscheck(rec.pole.a, cfg.z_seed)
    return CatalogEntry(q=seed.q, k=seed.k, seed_a=seed.point.a,
                        seed_b=seed.point.b, pole_a=rec.pole.a,
                        pole_b=rec.pole.b, dep_residual=rec.dep_residual,
                        bsb_residual=seed.residual,
                        wkb_gap2=rec.wkb_gap[0], wkb_gapm2=rec.wkb_gap[1],
                        error_a=abs(rec.pole.a - seed.point.a),
                        painleve_a=pa, painleve_b=pb)


def build_catalog(q_list, K: int, cfg: ToolConfig | None = None,
                  painleve: bool = False, jobs: int = 1) -> dict:
    """Catalog document for all (q, k <= K), deterministically ordered.

    Each primitive is solved, Stokes check included, once per q; its
    k-seeds are rescalings of it.
    """
    cfg = cfg or ToolConfig()
    seeds = []
    for q in q_list:
        primitive = solve_bsb(q, tol_newton=cfg.tol_newton)
        seeds.append(primitive)
        seeds += [descendant(primitive, k) for k in range(1, K + 1)]
    if jobs > 1 and len(seeds) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            entries = list(pool.map(_seed_entry, seeds, repeat(painleve),
                                    repeat(cfg)))
    else:
        entries = [_seed_entry(seed, painleve, cfg) for seed in seeds]
    entries.sort(key=lambda e: (e.q, e.k))
    return {
        "meta": {
            "tool": "tritronquee",
            "version": __version__,
            "config_hash": cfg.digest(),
            "tolerances": dataclasses.asdict(cfg),
        },
        "entries": [entry_to_json(e) for e in entries],
    }


def write_catalog(doc: dict, path: str) -> None:
    """Atomic write: temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, allow_nan=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_catalog(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def catalog_entries(doc: dict) -> list[CatalogEntry]:
    return [entry_from_json(e) for e in doc["entries"]]


def convergence_report(doc: dict, q: Fraction) -> ConvergenceReport:
    """Least-squares slope of log(error_a) against log(2k+1) for one q."""
    rows = [(e.k, e.error_a) for e in catalog_entries(doc)
            if e.q == q and e.status == "ok" and math.isfinite(e.error_a)]
    if len(rows) < 3:
        raise InsufficientData(
            f"need at least 3 entries for q={q}, found {len(rows)}")
    rows.sort()
    ks = [k for k, _ in rows]
    errors = [err for _, err in rows]
    x = np.log([2 * k + 1 for k in ks])
    y = np.log(errors)
    n = len(x)
    xbar = x.mean()
    ybar = y.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - ybar)) / sxx)
    intercept = ybar - slope * xbar
    resid = y - (slope * x + intercept)
    stderr = math.sqrt(float(np.sum(resid ** 2)) / max(n - 2, 1) / sxx)
    return ConvergenceReport(q=q, ks=ks, errors=errors,
                             fitted_exponent=slope, fit_stderr=stderr)


def pole_scatter(doc: dict) -> dict:
    """Plot-JSON document with the refined poles as points."""
    points = []
    labels = []
    for e in catalog_entries(doc):
        if e.status != "ok":
            continue
        points.append([e.pole_a.real, e.pole_a.imag])
        labels.append(f"q={e.q} k={e.k}")
    return {"polylines": [], "points": points, "labels": labels}
