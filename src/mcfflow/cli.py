"""Command line interface.

Subcommands: exact, run, geom, diagnose, classify, rescale.  Exit codes:
0 success, 2 validation error (bad flags, config, schema), 3 numerical
abort.  All state flows through flags and config files; reruns with the
same inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

import numpy as np

from . import analysis, diagnostics, exact, geometry, trajio
from ._solvers import InfeasibleError
from .bodies import CapState, NonConvexBodyError, random_convex_curve, random_convex_profile
from .engine import (ConvexityLostError, FlowControls, PoleSingularityError, StepFailedError,
                     evolve, evolve_cap)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
# `geom --directions` at most.  A body's width is a trigonometric polynomial
# of degree at most N in the angle, which 2N + 1 directions determine: 32,769
# at the largest grid a run config allows (N = trajio.MAX_GRID = 16,384).
# The cap is the next power of two, and bounds the work at one interpolant
# call per direction.
MAX_DIRECTIONS = 65536


def build_parser():
    p = argparse.ArgumentParser(prog="mcfflow",
                                description="mean curvature flow laboratory "
                                            "for convex bodies")
    p.add_argument("--seed", type=int, default=0, help="global RNG seed")
    sub = p.add_subparsers(dest="command", required=True)

    px = sub.add_parser("exact", help="write an exact-family snapshot")
    px.add_argument("--family", required=True,
                    choices=["sphere", "cylinder", "grim-reaper", "oval", "cap"])
    px.add_argument("--n", type=int, default=1)
    px.add_argument("--k", type=int, default=1, help="cylinder flat factors")
    px.add_argument("--R", type=float, default=1.0, help="ambient radius")
    px.add_argument("--t", type=float, required=True)
    px.add_argument("--resolution", type=int, default=256)
    px.add_argument("--out", required=True)

    pr = sub.add_parser("run", help="evolve a configured flow")
    pr.add_argument("--config", required=True)
    pr.add_argument("--out", required=True)

    pg = sub.add_parser("geom", help="measure a snapshot body")
    pg.add_argument("--body", required=True, help="snapshot file")
    pg.add_argument("--directions", type=int, default=0,
                    help="also report the width over this many sampled directions")

    pd = sub.add_parser("diagnose", help="per-slice curvature diagnostics")
    pd.add_argument("--traj", required=True)
    pd.add_argument("--sigma", type=float, default=0.05)
    pd.add_argument("--p", type=float, default=2.0)
    pd.add_argument("--k", type=int, default=0)
    pd.add_argument("--out", required=True, help="CSV output path")

    pc = sub.add_parser("classify", help="sphere-characterization verdicts")
    pc.add_argument("--traj", required=True)
    pc.add_argument("--out", required=True)

    ps = sub.add_parser("rescale", help="type-II rescaling around the curvature max")
    ps.add_argument("--traj", required=True)
    ps.add_argument("--window", type=float, required=True)
    ps.add_argument("--out", required=True, help="rescaled trajectory path")
    ps.add_argument("--report", required=True, help="rescaling report path")
    return p


def _cmd_exact(args):
    if args.resolution > trajio.MAX_GRID:
        raise ValueError(f"--resolution must be at most {trajio.MAX_GRID}, "
                         f"got {args.resolution}")
    family = exact.ExactFamily(args.family, n=args.n, k=args.k, R=args.R)
    t = args.t
    if family.kind in ("sphere", "oval", "cap"):
        trajio.write_slice(exact.sample_trajectory(family, [t], args.resolution).slices[0],
                           args.out)
    elif family.kind == "cylinder":
        # reference curvature configuration only; no support representation
        lambdas = exact.cylinder_reference_curvatures(args.n, args.k, t)
        payload = {
            "schema": trajio.SCHEMA_VERSION, "kind": "cylinder-reference",
            "n": args.n, "k": args.k, "t": t,
            "radius": exact.cylinder_radius(args.n, args.k, t),
            "lambdas": list(lambdas),
            "H": float(np.sum(lambdas)),
            "A2": float(np.sum(lambdas ** 2)),
            "ratio_A2_H2": float(np.sum(lambdas ** 2) / np.sum(lambdas) ** 2),
        }
        trajio.emit_report(payload, args.out)
    else:  # grim-reaper: graph samples (non-compact translating curve)
        x = np.linspace(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3, args.resolution)
        height, curv = exact.grim_reaper_profile(x, t)
        payload = {
            "schema": trajio.SCHEMA_VERSION, "kind": "grim-reaper-graph",
            "t": t, "x": list(x), "height": list(height), "curvature": list(curv),
        }
        trajio.emit_report(payload, args.out)
    return EXIT_OK


def _initial_from_config(cfg, seed):
    """(body, seed) of a curve or axisym run: the seed it was drawn from at
    random, None for a file or family body."""
    engine_kind = cfg["engine"]
    n = cfg["n"]
    N = cfg.get("N", 256)
    init = cfg.get("initial", {})
    named = [key for key in ("file", "family", "random") if key in init]
    if len(named) > 1:
        raise ValueError(f"initial names {' and '.join(named)}; it may name only one body")
    if "file" in init:
        body = trajio.read_slice(init["file"]).body
        if isinstance(body, CapState):
            raise ValueError("a geodesic cap snapshot cannot seed the curve or axisym engine")
        return body, None
    if "family" in init:
        fam = init["family"]
        t = fam.get("t", cfg["t0"])
        scale = fam.get("scale", 1.0)
        if fam["kind"] == "sphere":
            body = exact.sphere_slice(n, t, N)
        else:
            body = exact.angenent_oval_slice(t, N)
        return (body.scaled(scale) if scale != 1.0 else body), None
    rnd = init.get("random", {})
    rseed = rnd.get("seed", seed)
    kwargs = {k: rnd[k] for k in ("modes", "amplitude", "radius") if k in rnd}
    if engine_kind == "curve":
        return random_convex_curve(N, rseed, **kwargs), rseed
    return random_convex_profile(n, N, rseed, **kwargs), rseed


def _cmd_run(args):
    cfg, digest = trajio.load_config(args.config)
    controls = FlowControls(**cfg.get("controls", {}))
    if cfg["engine"] == "cap":
        cap = cfg.get("cap")
        if not cap:
            raise ValueError("cap engine requires the 'cap' config block")
        if "initial" in cfg:
            raise ValueError("a cap run starts from its 'cap' block; it takes no 'initial' block")
        traj = evolve_cap(cap["R"], cap["rho0"], cfg["t0"], controls,
                          n=cfg["n"], t_stop=cfg.get("t_stop"))
        seed = None
    else:
        body, seed = _initial_from_config(cfg, args.seed)
        if (cfg["engine"] == "curve") != (body.mode == "curve"):
            raise ValueError("engine does not match the initial body mode")
        traj = evolve(body, cfg["t0"], controls)
    traj.meta["config_hash"] = digest
    traj.meta["seed"] = seed
    trajio.write_trajectory(traj, args.out)
    return EXIT_OK


def _cmd_geom(args):
    if not 0 <= args.directions <= MAX_DIRECTIONS:
        raise ValueError(f"--directions must lie in [0, {MAX_DIRECTIONS}], "
                         f"got {args.directions}")
    sl = trajio.read_slice(args.body)
    if isinstance(sl.body, CapState):
        raise ValueError("geom measures Euclidean bodies, not a geodesic cap")
    m = geometry.measure(sl.body)
    record = {"t": sl.t, "n": sl.body.n}
    record.update(m.as_dict())
    if args.directions > 0:
        angles = np.linspace(0.0, math.pi, args.directions, endpoint=False)
        record["width_samples"] = [geometry.width(sl.body, float(a)) for a in angles]
    sys.stdout.write(trajio._dumps(record) + "\n")
    return EXIT_OK


_DIAG_COLUMNS = ["t", "eps_min", "f0_max", "fsigma_lp", "harnack_min", "typeI",
                 "diam", "rho_minus", "rho_plus", "iso_ratio", "grad_ratio"]


def _cmd_diagnose(args):
    # checked before any slice: only slices with min H > H_FLOOR reach the deficit
    diagnostics._require_sigma(args.sigma)
    diagnostics._require_exponent(args.p)
    traj = trajio.read_trajectory(args.traj)
    if args.k and not 1 <= args.k <= traj.n:
        raise ValueError(f"--k = {args.k} is out of range: the slices have n = {traj.n}")
    s = diagnostics._Series(traj)
    ts = s["t"]
    positive = s["minH"] > diagnostics.H_FLOOR
    flp = [diagnostics.umbilic_deficit(sl, args.sigma).lp_integral(args.p) ** (1.0 / args.p)
           if pos else math.nan for sl, pos in zip(traj.slices, positive)]
    columns = [ts, np.where(positive, s["eps_min"], math.nan),
               np.where(positive, s["f0"], math.nan), flp, s["harnack_min"],
               np.where(ts < 0.0, s["typeI"], math.nan), s["diam"], s["rho_minus"],
               s["rho_plus"], s["iso_ratio"], s["grad_ratio"]]
    rows = [[None if math.isnan(v) else v for v in row] for row in zip(*columns)]
    trajio.emit_report({"columns": _DIAG_COLUMNS, "rows": rows}, args.out, format="csv")
    summary = {"slices": len(rows), "window": [float(ts[0]), float(ts[-1])],
               "sigma": args.sigma, "p": args.p}
    if args.k:
        margin = diagnostics._kconvex_margin(s, args.k)
        summary["k"] = args.k
        summary["kconvex_margin"] = margin if margin < math.inf else None
    sys.stdout.write(trajio._dumps(summary) + "\n")
    return EXIT_OK


def _cmd_classify(args):
    traj = trajio.read_trajectory(args.traj)
    report = analysis.check_conditions(traj)
    trajio.emit_report(report, args.out)
    sys.stdout.write(trajio._dumps(
        {k: v.verdict for k, v in report.conditions.items()}) + "\n")
    return EXIT_OK


def _cmd_rescale(args):
    traj = trajio.read_trajectory(args.traj)
    if traj.engine == "cap":
        raise ValueError("rescale applies to Euclidean flows, not a geodesic cap")
    rf = analysis.type_two_rescale(traj, args.window)
    fit = analysis.soliton_proximity(rf)
    trajio.write_trajectory(rf, args.out)
    trajio.emit_report({
        "window": args.window,
        "t_k": rf.t_k,
        "L_k": rf.L_k,
        "marked_index": rf.marked_index,
        "type_one_like": rf.type1_flag,
        "soliton_residual": fit.residual,
        "soliton_V": list(fit.V),
    }, args.report)
    return EXIT_OK


_DISPATCH = {
    "exact": _cmd_exact,
    "run": _cmd_run,
    "geom": _cmd_geom,
    "diagnose": _cmd_diagnose,
    "classify": _cmd_classify,
    "rescale": _cmd_rescale,
}


# a decimal number, sign and exponent included
_FLOAT_LITERAL = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")


def _join_time_values(argv):
    """argv with every number that follows --t passed as --t=<number>.

    argparse takes a token with a leading '-' for an option unless it looks
    like a plain negative number, so '--t -1e3' would lose its value.
    """
    argv = list(argv)
    for i in range(len(argv) - 2, -1, -1):
        if argv[i] == "--t" and _FLOAT_LITERAL.fullmatch(argv[i + 1]):
            argv[i:i + 2] = [f"--t={argv[i + 1]}"]
    return argv


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(_join_time_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as err:
        return EXIT_VALIDATION if err.code not in (0, None) else EXIT_OK
    try:
        return _DISPATCH[args.command](args)
    except (ValueError, KeyError, NonConvexBodyError, trajio.SchemaMismatchError,
            trajio.CorruptRecordError,
            OSError,  # a path the user gave: missing, a directory, not writable
            # both come from the input body, not from the integrator
            InfeasibleError, diagnostics.NonPositiveCurvatureError) as err:
        sys.stderr.write(f"mcfflow: {err}\n")
        return EXIT_VALIDATION
    except (StepFailedError, ConvexityLostError, PoleSingularityError,
            ArithmeticError) as err:
        sys.stderr.write(f"mcfflow: numerical abort: {err}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
