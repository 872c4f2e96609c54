"""Command-line interface.

Subcommands:
  census    seeded Monte Carlo census over a random graph model
  section8  compare a census against a published table row
  zeta      zeta data for one graph file (char poly, identity, series,
            contour count)
  traces    Monte Carlo or exact expected non-backtracking traces
  spectrum  adjacency (and optionally Hashimoto) spectrum of a graph file
"""

import argparse
import json
import sys

from . import polys
from .census import (
    CensusConfig,
    PAPER_SECTION8,
    reproduce_section8,
    run_census,
    section8_table,
    summary_fields,
)
from .errors import InvalidParams, NbzetaError
from .graphs import parse_graph
from .spectra import (
    adjacency_spectrum,
    classify_non_ramanujan,
    hashimoto_spectrum,
)
from .traces import estimate_expected_trace, exact_expected_trace_small
from .zeta import (
    ContourSpec,
    contour_pole_count,
    essential_log_derivative_coeffs,
    hashimoto_char_poly,
    verify_ihara,
)


def _read_graph(path):
    with open(path) as fh:
        return parse_graph(fh.read())


def _nonnegative_int(text):
    """argparse type of counts that may be zero (--k, --series-K)."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


_SIGNS = {"+": +1, "+1": +1, "plus": +1, "-": -1, "-1": -1, "minus": -1}


def _contour_spec(text):
    """argparse type of --contour: eps,delta,sign,points."""
    try:
        eps, delta, sign, points = (f.strip() for f in text.split(","))
        spec = ContourSpec(float(eps), float(delta), _SIGNS[sign], int(points))
        spec.validate()
    except (ValueError, KeyError):
        raise argparse.ArgumentTypeError(
            "expected eps,delta,sign,points: eps and delta finite and positive, "
            f"points positive, sign one of {' '.join(_SIGNS)}"
        ) from None
    return spec


def _cmd_census(args):
    base_text = None
    if args.model == "cover":
        if not args.base:
            raise NbzetaError("--base is required for the cover model")
        with open(args.base) as fh:
            base_text = fh.read()
    config = CensusConfig(
        model=args.model,
        d=args.d,
        n=args.n,
        samples=args.samples,
        master_seed=args.seed,
        mode="at_least_2sqrt" if args.mode == "at2sqrt" else "strict_nonramanujan",
        base_graph_text=base_text,
        threshold_tol=args.tol,
        workers=args.workers,
    )
    result = run_census(config, out_path=args.out)
    print(json.dumps(summary_fields(result), allow_nan=False))
    if result.samples == 0:
        reason, times = max(result.failure_reasons.items(), key=lambda kv: kv[1])
        print(
            f"error: all {result.failures} samples failed; most often "
            f"({times}x): {reason}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_section8(args):
    row = reproduce_section8(
        args.preset, samples_override=args.samples, seed=args.seed,
        workers=args.workers,
    )
    print(section8_table([row]))
    return 0


def _cmd_zeta(args):
    g = _read_graph(args.graph)
    out = {}
    mu_poly, u_poly = hashimoto_char_poly(g)
    out["char_poly_mu"] = polys.to_decimal_strings(mu_poly)
    out["char_poly_u"] = polys.to_decimal_strings(u_poly)
    if args.check_ihara:
        report = verify_ihara(g)
        out["ihara_identity"] = report.holds
    if args.series_K is not None:
        series = essential_log_derivative_coeffs(g, args.series_K)
        out["series"] = [str(c) for c in series.coefficients]
    if args.contour:
        cc = contour_pole_count(g, args.contour)
        out["contour"] = {
            "numeric_real": cc.numeric.real,
            "numeric_imag": cc.numeric.imag,
            "exact": cc.exact,
        }
    print(json.dumps(out, indent=2))
    return 0


def _cmd_traces(args):
    if args.exact:
        if args.model != "perm":
            raise InvalidParams("--exact enumerates the perm model only")
        value = exact_expected_trace_small(args.n, args.d, args.k)
        print(json.dumps({"exact_mean": str(value)}))
        return 0
    est = estimate_expected_trace(
        args.model, args.n, args.d, args.k, args.samples, args.seed
    )
    print(
        json.dumps(
            {
                "model": est.model, "n": est.n, "d": est.d, "k": est.k,
                "samples": est.samples, "mean": est.mean, "stderr": est.stderr,
            }
        )
    )
    return 0


def _cmd_spectrum(args):
    g = _read_graph(args.graph)
    out = {"adjacency": [float(x) for x in adjacency_spectrum(g)]}
    if args.hashimoto:
        mu = hashimoto_spectrum(g)
        out["hashimoto"] = [[float(z.real), float(z.imag)] for z in mu]
    if args.classify:
        nr = classify_non_ramanujan(g)
        out["non_ramanujan"] = {
            "h_positive": nr.h_positive,
            "h_negative": nr.h_negative,
            "a_positive": nr.a_positive,
            "a_negative": nr.a_negative,
            "is_ramanujan": nr.is_ramanujan,
        }
    print(json.dumps(out, indent=2))
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="nbzeta",
        description="Non-backtracking spectra, zeta data, and spectral censuses",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("census", help="run a seeded Monte Carlo census")
    c.add_argument("--model", required=True, choices=["perm", "cycle", "match", "cover"])
    c.add_argument("--base", help="base graph file (cover model)")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--d", type=int, default=4)
    c.add_argument("--samples", type=int, required=True)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--mode", choices=["at2sqrt", "strict"], default="at2sqrt")
    c.add_argument("--tol", type=float, default=None)
    c.add_argument("--workers", type=int, default=1)
    c.add_argument("--out", help="CSV output path (aggregate JSON written beside it)")
    c.set_defaults(func=_cmd_census)

    s = sub.add_parser("section8", help="reproduce a published census row")
    s.add_argument("--preset", required=True, choices=sorted(PAPER_SECTION8))
    s.add_argument("--samples", type=int, default=None)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--workers", type=int, default=1)
    s.set_defaults(func=_cmd_section8)

    z = sub.add_parser("zeta", help="zeta data for a graph file")
    z.add_argument("--graph", required=True)
    z.add_argument("--check-ihara", action="store_true")
    z.add_argument("--series-K", type=_nonnegative_int, default=None)
    z.add_argument("--contour", type=_contour_spec,
                   help="eps,delta,sign,points (sign: + or -)")
    z.set_defaults(func=_cmd_zeta)

    t = sub.add_parser("traces", help="expected non-backtracking traces")
    t.add_argument("--model", default="perm", choices=["perm", "cycle", "match"])
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--d", type=int, default=4)
    t.add_argument("--k", type=_nonnegative_int, required=True)
    t.add_argument("--samples", type=int, default=1000)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--exact", action="store_true",
                   help="exact tiny-n enumeration instead of Monte Carlo")
    t.set_defaults(func=_cmd_traces)

    sp = sub.add_parser("spectrum", help="spectrum of a graph file")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--hashimoto", action="store_true")
    sp.add_argument("--classify", action="store_true")
    sp.set_defaults(func=_cmd_spectrum)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NbzetaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
