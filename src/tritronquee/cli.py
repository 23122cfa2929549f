"""Command-line interface.

Subcommands: periods, stokes, bsb, refine, track, catalog, convergence.
Exit codes: 0 success, 2 bad arguments, 3 numerical failure (the error name
goes to stderr), 4 I/O failure.

Complex values are written RE or RE,IM; use the --opt=value form for
negative numbers (e.g. --a=-2.34).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import __version__
from .bsb import QuantumPair, descendant, solve_bsb
from .catalog import (build_catalog, convergence_report, pole_scatter,
                      read_catalog, write_catalog)
from .config import ToolConfig, load_config
from .elliptic import PeriodData, Potential, legendre_residual
from .errors import (EXIT_CODE_BAD_ARGS, EXIT_CODE_IO, EXIT_CODE_NUMERICAL,
                     NumericalError)
from .oscillator import refine_pole
from .painleve import seed_asymptotic, track
from .stokes import classify_graph, polylines, trace_stokes_lines

_ERROR_NOTE = """\
error-name -> exit-code mapping:
  2  bad arguments (argument parsing, invalid quantum numbers, bad config)
  3  numerical failure: DegenerateTurningPoints, QuadratureNotConverged,
     TraceStalled, UnresolvedTopology, NewtonDiverged, NotType320,
     PathNearTurningPoint, OdeToleranceNotMet, StepUnderflow,
     DependentBasis, OutsideDisc, SeedNotConverged, PoleFitFailed,
     InsufficientData (name is printed on stderr)
  4  I/O failure (unreadable config, unwritable output)
"""


def _complex_arg(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise argparse.ArgumentTypeError(f"cannot parse complex value {text!r}")


def _quantum_arg(text: str) -> QuantumPair:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("quantum pair must be n,m")
    return QuantumPair(int(parts[0]), int(parts[1]))


def _fraction_arg(text: str) -> Fraction:
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise argparse.ArgumentTypeError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text), 1)


def _fmt_c(z: complex) -> str:
    return f"{z.real:+.12e} {z.imag:+.12e}i"


def _emit_plot(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tritronquee",
        description="Poles of the Painleve I tritronquee solution: "
                    "quantization-condition seeds, oscillator-monodromy "
                    "refinement, and direct-integration cross-checks.",
        epilog=_ERROR_NOTE,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    json_opt = argparse.ArgumentParser(add_help=False)
    json_opt.add_argument("--json", action="store_true",
                          help="machine-readable output on stdout")
    config_opt = argparse.ArgumentParser(add_help=False)
    config_opt.add_argument("--config", help="key = value configuration file")
    plot_opt = argparse.ArgumentParser(add_help=False)
    plot_opt.add_argument("--emit-plot", metavar="PATH",
                          help="write plot-JSON (polylines/points/labels)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("periods", parents=[json_opt],
                       help="cycle periods and the Legendre residual")
    p.add_argument("--a", type=_complex_arg, required=True)
    p.add_argument("--b", type=_complex_arg, required=True)

    p = sub.add_parser("stokes", parents=[json_opt, plot_opt],
                       help="trace and classify the Stokes graph")
    p.add_argument("--a", type=_complex_arg, required=True)
    p.add_argument("--b", type=_complex_arg, required=True)

    p = sub.add_parser("bsb", parents=[json_opt, config_opt],
                       help="solve the quantization system")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    p = sub.add_parser("refine", parents=[json_opt, config_opt],
                       help="refine a quantization seed to a certified pole")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--no-gap", action="store_true",
                   help="skip the WKB-gap measurement")

    p = sub.add_parser("track", parents=[json_opt, config_opt, plot_opt],
                       help="integrate the tritronquee solution along a path")
    p.add_argument("--z0", type=_complex_arg, default=None,
                   help="seed point (default from config)")
    p.add_argument("--to", type=_complex_arg, action="append", required=True,
                   help="waypoint (repeatable)")

    p = sub.add_parser("catalog", parents=[json_opt, config_opt, plot_opt],
                       help="build the pole catalog")
    p.add_argument("--q", type=_quantum_arg, action="append", default=[],
                   metavar="N,M", help="primitive quantum pair (repeatable)")
    p.add_argument("--K", type=int, default=0,
                   help="largest descendant index")
    p.add_argument("--out", required=True, help="catalog path")
    p.add_argument("--painleve", action="store_true",
                   help="cross-check each pole by direct integration")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")

    p = sub.add_parser("convergence", parents=[json_opt],
                       help="fit the decay exponent of a q-sequence")
    p.add_argument("--catalog", required=True)
    p.add_argument("--q", type=_fraction_arg, required=True, metavar="P/R")
    return parser


def _cmd_periods(args, cfg: ToolConfig) -> int:
    pot = Potential(args.a, args.b)
    pd = PeriodData.compute(pot)
    res = legendre_residual(pd)
    if args.json:
        print(json.dumps({
            "chi2": [pd.chi2.real, pd.chi2.imag],
            "chi_m2": [pd.chi_m2.real, pd.chi_m2.imag],
            "dchi2_da": [pd.dchi2_da.real, pd.dchi2_da.imag],
            "dchi2_db": [pd.dchi2_db.real, pd.dchi2_db.imag],
            "dchim2_da": [pd.dchim2_da.real, pd.dchim2_da.imag],
            "dchim2_db": [pd.dchim2_db.real, pd.dchim2_db.imag],
            "legendre_residual": res,
        }))
    else:
        print(f"chi2   = {_fmt_c(pd.chi2)}   (chi2 / i pi = "
              f"{(pd.chi2 / (1j * math.pi)).real:.9f})")
        print(f"chi_m2 = {_fmt_c(pd.chi_m2)}   (chi_m2 / i pi = "
              f"{(pd.chi_m2 / (1j * math.pi)).real:.9f})")
        print(f"legendre residual = {res:.3e}")
    return 0


def _cmd_stokes(args, cfg: ToolConfig) -> int:
    pot = Potential(args.a, args.b)
    graph = trace_stokes_lines(pot)
    label = classify_graph(graph)
    if args.emit_plot:
        _emit_plot(args.emit_plot, {
            "polylines": polylines(graph),
            "points": [[r.real, r.imag] for r in graph.turning_points.roots],
            "labels": [f"line {i}" for i in range(len(graph.lines))],
        })
    if args.json:
        print(json.dumps({
            "label": label,
            "turning_points": [[r.real, r.imag]
                               for r in graph.turning_points.roots],
            "lines": [{"origin": ln.origin, "terminus_kind": ln.terminus_kind,
                       "terminus_index": ln.terminus_index}
                      for ln in graph.lines],
        }))
    else:
        print(f"topology: {label}")
        for ln in graph.lines:
            print(f"  from {ln.origin}: {ln.terminus_kind} {ln.terminus_index}")
    return 0


def _cmd_bsb(args, cfg: ToolConfig) -> int:
    sol = solve_bsb(QuantumPair(args.n, args.m), tol_newton=cfg.tol_newton)
    if args.json:
        print(json.dumps({
            "a": [sol.point.a.real, sol.point.a.imag],
            "b": [sol.point.b.real, sol.point.b.imag],
            "residual": sol.residual,
            "q": f"{sol.q.numerator}/{sol.q.denominator}",
        }))
    else:
        print(f"a = {_fmt_c(sol.point.a)}")
        print(f"b = {_fmt_c(sol.point.b)}")
        print(f"residual = {sol.residual:.3e}")
    return 0


def _cmd_refine(args, cfg: ToolConfig) -> int:
    primitive = solve_bsb(QuantumPair(args.n, args.m),
                          tol_newton=cfg.tol_newton)
    seed = descendant(primitive, args.k) if args.k else primitive
    rec = refine_pole(seed, radius_policy=(cfg.disc_alpha, cfg.disc_eps),
                      tol_dep=cfg.tol_dep, rtol=cfg.tol_ode,
                      compute_gap=not args.no_gap)
    if args.json:
        print(json.dumps({
            "q": f"{rec.q.numerator}/{rec.q.denominator}",
            "k": rec.k,
            "seed_a": [rec.seed.a.real, rec.seed.a.imag],
            "seed_b": [rec.seed.b.real, rec.seed.b.imag],
            "pole_a": [rec.pole.a.real, rec.pole.a.imag],
            "pole_b": [rec.pole.b.real, rec.pole.b.imag],
            "dep_residual": rec.dep_residual,
            "wkb_gap": list(rec.wkb_gap),
        }))
    else:
        print(f"seed  a = {_fmt_c(rec.seed.a)}   b = {_fmt_c(rec.seed.b)}")
        print(f"pole  a = {_fmt_c(rec.pole.a)}   b = {_fmt_c(rec.pole.b)}")
        print(f"dependence residual = {rec.dep_residual:.3e}")
        if not args.no_gap:
            print(f"wkb gap = ({rec.wkb_gap[0]:.3e}, {rec.wkb_gap[1]:.3e})")
    return 0


def _cmd_track(args, cfg: ToolConfig) -> int:
    z0 = complex(cfg.z_seed, 0.0) if args.z0 is None else args.z0
    state = seed_asymptotic(z0, tol_seed=cfg.tol_seed,
                            tol_match=cfg.tol_match, margin=cfg.seed_margin)
    # the dense trail costs about five times the track itself
    trail = [] if args.emit_plot else None
    final, poles = track(state, [z0] + list(args.to),
                         fit_radius=cfg.fit_radius,
                         blowup_threshold=cfg.blowup_threshold,
                         laurent_order=cfg.laurent_order,
                         tol_fit=cfg.tol_fit,
                         record_to=trail)
    if args.emit_plot:
        _emit_plot(args.emit_plot, {
            "polylines": [[[z.real, z.imag] for z, _, _ in trail]],
            "points": [[p.a.real, p.a.imag] for p in poles],
            "labels": [f"pole {i}" for i in range(len(poles))],
        })
    if args.json:
        print(json.dumps({
            "final": {"z": [final.z.real, final.z.imag],
                      "y": [final.y.real, final.y.imag],
                      "yp": [final.yp.real, final.yp.imag],
                      "chart": final.chart},
            "poles": [{"a": [p.a.real, p.a.imag], "b": [p.b.real, p.b.imag],
                       "fit_residual": p.fit_residual,
                       "fit_residual_a": p.fit_residual_a,
                       "fit_residual_b": p.fit_residual_b} for p in poles],
        }))
    else:
        print(f"final state at z = {_fmt_c(final.z)} ({final.chart} chart)")
        for p in poles:
            print(f"pole a = {_fmt_c(p.a)}  b = {_fmt_c(p.b)}  "
                  f"fit residual = {p.fit_residual:.3e}")
    return 0


def _cmd_catalog(args, cfg: ToolConfig) -> int:
    for q in args.q:
        if not q.is_primitive:
            raise ValueError(f"quantum pair ({q.n},{q.m}) is not primitive")
    doc = build_catalog(args.q, args.K, cfg, painleve=args.painleve,
                        jobs=args.jobs)
    write_catalog(doc, args.out)
    if args.emit_plot:
        _emit_plot(args.emit_plot, pole_scatter(doc))
    n_ok = sum(1 for e in doc["entries"] if e["status"] == "ok")
    if args.json:
        print(json.dumps({"path": args.out, "entries": len(doc["entries"]),
                          "ok": n_ok}))
    else:
        print(f"wrote {args.out}: {len(doc['entries'])} entries, {n_ok} ok")
    return 0


def _cmd_convergence(args, cfg: ToolConfig) -> int:
    doc = read_catalog(args.catalog)
    report = convergence_report(doc, args.q)
    if args.json:
        print(json.dumps({
            "q": f"{report.q.numerator}/{report.q.denominator}",
            "ks": report.ks,
            "errors": report.errors,
            "fitted_exponent": report.fitted_exponent,
            "fit_stderr": report.fit_stderr,
        }))
    else:
        print(f"q = {report.q}: {len(report.ks)} entries")
        for k, err in zip(report.ks, report.errors):
            print(f"  k = {k}: |pole_a - seed_a| = {err:.6e}")
        print(f"fitted exponent = {report.fitted_exponent:.6f} "
              f"(stderr {report.fit_stderr:.3f}, target -6/5)")
    return 0


_DISPATCH = {
    "periods": _cmd_periods,
    "stokes": _cmd_stokes,
    "bsb": _cmd_bsb,
    "refine": _cmd_refine,
    "track": _cmd_track,
    "catalog": _cmd_catalog,
    "convergence": _cmd_convergence,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(getattr(args, "config", None))
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CODE_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODE_BAD_ARGS
    try:
        return _DISPATCH[args.command](args, cfg)
    except NumericalError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CODE_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODE_BAD_ARGS
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODE_IO


if __name__ == "__main__":
    sys.exit(main())
