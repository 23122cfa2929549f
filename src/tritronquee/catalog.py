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
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat

from . import __version__
from .bsb import BsbSolution, descendant, solve_bsb
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
        dep_residual=float(data["dep_residual"]),
        bsb_residual=float(data["bsb_residual"]),
        wkb_gap2=float(data["wkb_gap2"]),
        wkb_gapm2=float(data["wkb_gapm2"]),
        error_a=float(data["error_a"]),
        status=data.get("status", "ok"),
        painleve_a=_uc(data.get("painleve_a")),
        painleve_b=_uc(data.get("painleve_b")),
    )


def _route3(seeds: list[BsbSolution], cfg: ToolConfig) -> list:
    """Route-3 pole (a, b) of each seed of one q-sequence, the passed pole
    nearest its seed a within 0.1 (1 + |a|)^(-1/4), else None.  One track on
    a ray through 0: along the real axis to 0, then past the largest seed;
    a ``NumericalError`` of it leaves every seed without a pole."""
    state = seed_asymptotic(complex(cfg.z_seed, 0.0), tol_seed=cfg.tol_seed,
                            tol_match=cfg.tol_match, margin=cfg.seed_margin)
    end = seeds[-1].point.a
    try:
        _, poles = track(state, [state.z, 0.0, end + 0.6 * end / abs(end)],
                         fit_radius=cfg.fit_radius,
                         blowup_threshold=cfg.blowup_threshold,
                         laurent_order=cfg.laurent_order, tol_fit=cfg.tol_fit)
    except NumericalError:
        return [None] * len(seeds)
    starts = []
    for seed in seeds:
        a = seed.point.a
        p = min(poles, key=lambda pole: abs(pole.a - a), default=None)
        near = p is not None and abs(p.a - a) < 0.1 * (1.0 + abs(a)) ** -0.25
        starts.append((p.a, p.b) if near else None)
    return starts


def compute_entry(seed: BsbSolution, cfg: ToolConfig | None = None,
                  start: tuple[complex, complex] | None = None
                  ) -> CatalogEntry:
    """Refine one quantization seed by route 2 from ``start``, its route-3
    pole (a, b) kept as ``painleve_a``/``painleve_b``, or from the seed if
    None; a ``NumericalError`` makes an error entry."""
    cfg = cfg or ToolConfig()
    painleve_a, painleve_b = start or (None, None)
    known = dict(q=seed.q, k=seed.k, seed_a=seed.point.a,
                 seed_b=seed.point.b, bsb_residual=seed.residual,
                 painleve_a=painleve_a, painleve_b=painleve_b)
    try:
        rec = refine_pole(seed, radius_policy=(cfg.disc_alpha, cfg.disc_eps),
                          tol_dep=cfg.tol_dep, rtol=cfg.tol_ode, start=start)
    except NumericalError as exc:
        nan = float("nan")
        return CatalogEntry(**known, pole_a=complex(nan, nan),
                            pole_b=complex(nan, nan), dep_residual=nan,
                            wkb_gap2=nan, wkb_gapm2=nan, error_a=nan,
                            status=f"error:{type(exc).__name__}")
    return CatalogEntry(**known, pole_a=rec.pole.a, pole_b=rec.pole.b,
                        dep_residual=rec.dep_residual,
                        wkb_gap2=rec.wkb_gap[0], wkb_gapm2=rec.wkb_gap[1],
                        error_a=abs(rec.pole.a - seed.point.a))


def build_catalog(q_list, K: int, cfg: ToolConfig | None = None,
                  jobs: int = 1) -> dict:
    """Catalog document for all (q, k <= K), deterministically ordered.

    Each primitive is solved, Stokes check included, once per q; its
    k-seeds are rescalings of it.  Route 3 runs first, one track per
    q-sequence (``_route3``), and route 2 refines each seed from its
    route-3 pole, or from the seed where route 3 has none.  With ``jobs``
    > 1 the tracks run here and the refinements in a process pool.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs}")
    if K < 0:
        raise ValueError(f"K must be at least 0, not {K}")
    cfg = cfg or ToolConfig()
    seeds, starts = [], []
    for q in q_list:
        primitive = solve_bsb(q, tol_newton=cfg.tol_newton)
        sequence = [descendant(primitive, k) for k in range(K + 1)]
        seeds += sequence
        starts += _route3(sequence, cfg)
    if jobs > 1 and len(seeds) > 1:
        # imported here: loading it costs every other run about 19 ms
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            entries = list(pool.map(compute_entry, seeds, repeat(cfg), starts))
    else:
        entries = list(map(compute_entry, seeds, repeat(cfg), starts))
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
    """Entries of ``doc``; ``ValueError`` names a malformed one and why."""
    if not isinstance(doc, dict) or not isinstance(doc.get("entries"), list):
        raise ValueError('catalog is not an object with an "entries" list')
    entries = []
    for i, data in enumerate(doc["entries"]):
        try:
            entries.append(entry_from_json(data))
        except (LookupError, TypeError, ValueError, AttributeError,
                ArithmeticError) as exc:
            raise ValueError(f"catalog entry {i} is malformed: "
                             f"{type(exc).__name__} {exc}") from None
    return entries


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
    x = [math.log(2 * k + 1) for k in ks]
    y = [math.log(err) for err in errors]
    n = len(x)
    xbar = math.fsum(x) / n
    ybar = math.fsum(y) / n
    sxx = math.fsum((xi - xbar) ** 2 for xi in x)
    slope = math.fsum((xi - xbar) * (yi - ybar) for xi, yi in zip(x, y)) / sxx
    intercept = ybar - slope * xbar
    stderr = math.sqrt(math.fsum((yi - (slope * xi + intercept)) ** 2
                                 for xi, yi in zip(x, y))
                       / max(n - 2, 1) / sxx)
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
