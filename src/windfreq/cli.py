"""Command-line front end.

Subcommands: solve, synthesize, simulate, compare, sweep, plus --dump-preset.
Exit codes: 0 success, 2 scenario/argument validation failure, 3 solver
failure. All outputs are plain CSV/JSON, byte-reproducible for identical
inputs at a fixed OpenBLAS thread count. ``main`` loads the subcommand's
scenario and creates its output directory, in that order, so a scenario that
fails validation creates none; each ``cmd_*`` reads them from ``args.sc``,
``args.prov`` and ``args.out``.
"""

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .aapc import synthesize
from .lp import InfeasibleError, SimplexError, UnboundedError
from .presets import PRESET_NAMES, load_preset, preset_checksum
from .scenario import ScenarioError, scenario_from_dict
from .simulator import (
    E_R_BAND_PCT,
    allocation_shares,
    compare_strategies,
    insensitivity_sweep,
    metrics,
    run,
    solve_hypothetical,
    solved_alpha,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
DEFAULT_OUT = "out"


def _write_csv(path: Path, header, columns):
    """CSV of equal-length numeric columns, every value written as %.12g.

    Rows are formatted and written in blocks, so only one block is held as
    Python floats and text at a time.
    """
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    row_fmt = ",".join(["%.12g"] * len(header)) + "\n"
    with path.open("w") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, len(table), 500):
            f.write("".join([row_fmt % tuple(row)
                             for row in table[start:start + 500].tolist()]))


def _write_json(path: Path, doc):
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, default=_json_default) + "\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _load_scenario(args) -> tuple:
    """(scenario, provenance dict) from --scenario or --preset."""
    if args.preset:
        doc = load_preset(args.preset)
        prov = {"preset": args.preset, "checksum": preset_checksum(args.preset)}
    elif args.scenario:
        doc = json.loads(Path(args.scenario).read_text())
        prov = {"file": str(args.scenario)}
    else:
        raise ScenarioError("one of --scenario or --preset is required")
    sc = scenario_from_dict(doc)
    if args.nodes is not None:
        sc = replace(sc, solver=replace(sc.solver, nodes=args.nodes)).check()
    return sc, prov


def cmd_solve(args) -> int:
    sc, out = args.sc, args.out
    sol = solve_hypothetical(sc)
    exact = sol.step_hold
    error = abs(sol.nadir_pu - exact.nadir_pu) / abs(exact.nadir_pu)
    doc = sol.metrics_dict()
    doc["provenance"] = args.prov
    doc["convergence"] = {
        "nodes": sc.solver.nodes,
        "exact_nadir_pu": exact.nadir_pu,
        "exact_alpha": exact.alpha,
        "transcription_error_rel": error,
        "step_hold_margin": exact.min_w,
    }
    _write_csv(out / "trajectory.csv",
               ["t_s", "df_pu", "dpe_pu", "denergy_pu_s", "dpm_pu"],
               [sol.t, sol.df_pu, sol.dpe_pu, sol.denergy_pu_s, sol.dpm_pu])
    _write_json(out / "solve_metrics.json", doc)
    print(f"nadir {sol.nadir_hz:+.4f} Hz  alpha {sol.alpha:.4f}  "
          f"(transcription error {error:.2e})")
    return EXIT_OK


def cmd_synthesize(args) -> int:
    sc = args.sc
    alpha = sc.alpha if sc.alpha is not None else solved_alpha(sc)
    ctrl = synthesize(sc.grid, list(sc.governors), alpha)
    shares = allocation_shares(sc)
    doc = {
        "alpha": alpha,
        "gain_kw": ctrl.gain_kw,
        "regulation_gain": ctrl.k_g,
        "response_rate_1_s": ctrl.response_rate,
        "allocation": list(shares),
        "turbines": [t.name for t in sc.turbines],
        "mirror": {"a": ctrl.mirror.a, "b": ctrl.mirror.b,
                   "c": ctrl.mirror.c, "d": ctrl.mirror.d},
        "provenance": args.prov,
    }
    _write_json(args.out / "controller.json", doc)
    print(f"alpha {alpha:.4f}  K_w {ctrl.gain_kw:+.4f}  allocation "
          + " ".join(f"{s:.4f}" for s in shares))
    return EXIT_OK


def _write_sim(out: Path, tag: str, res, rec):
    sc = res.scenario
    header = ["t_s", "df_hz", "df_pu", "rocof_hz_s", "dpm_pu", "dpe_pu", "p_d_pu"]
    cols = [res.t, res.df_hz, res.df_pu, res.dfdot_pu_s * sc.grid.f_base_hz,
            res.dpm_pu, res.dpe_pu, res.p_d_pu]
    for j, t in enumerate(sc.turbines):
        header += [f"{t.name}_pe_mw", f"{t.name}_omega_pu"]
        cols += [res.wt_pe_mw[:, j],
                 res.wt_omega_rad_s[:, j] / t.spec.rated_speed_rad]
    _write_csv(out / f"{tag}_trace.csv", header, cols)
    doc = asdict(rec)
    doc["alpha"] = res.alpha
    doc["gain_kw"] = res.gain_kw
    doc["allocation"] = list(res.shares)
    _write_json(out / f"{tag}_metrics.json", doc)


def cmd_simulate(args) -> int:
    res = run(args.sc)
    rec = metrics(res)
    _write_sim(args.out, "sim", res, rec)
    print(f"nadir {rec.nadir_hz:+.4f} Hz at {rec.t_nadir_s:.2f} s; "
          f"max |RoCoF| {rec.max_rocof_hz_s:.4f} Hz/s; "
          f"{len(res.exit_events)} exit event(s)")
    return EXIT_OK


def cmd_compare(args) -> int:
    results = compare_strategies(args.sc)
    table = {}
    for strat, (res, rec) in results.items():
        _write_sim(args.out, f"compare_{strat}", res, rec)
        table[strat] = {"nadir_hz": rec.nadir_hz, "t_nadir_s": rec.t_nadir_s,
                        "secondary_dip": rec.secondary_dip,
                        "limit_events": len(rec.limit_events)}
    _write_json(args.out / "compare.json", {"strategies": table, "provenance": args.prov})
    for strat in ("none", "classic_vic", "optimal_aapc"):
        if strat in table:
            print(f"{strat:14s} nadir {table[strat]['nadir_hz']:+.4f} Hz")
    return EXIT_OK


def cmd_sweep(args) -> int:
    sc, out = args.sc, args.out
    lo, hi, n = args.range
    fracs = np.linspace(lo, hi, int(n))
    p_d_list = [f * sc.grid.load_pu for f in fracs]
    rows, p_d_max = insensitivity_sweep(sc, p_d_list)
    _write_csv(out / "sweep.csv",
               ["p_d_pu", "p_d_frac_of_load", "nadir_hz", "e_r_pct", "limit_events"],
               [[r["p_d_pu"] for r in rows],
                [r["p_d_pu"] / sc.grid.load_pu for r in rows],
                [r["nadir_hz"] for r in rows],
                [r["e_r_pct"] for r in rows],
                [r["limit_events"] for r in rows]])
    _write_json(out / "sweep.json",
                {"rows": rows, "p_d_max_pu": p_d_max, "e_r_limit_pct": E_R_BAND_PCT,
                 "provenance": args.prov})
    print(f"insensitive up to P_d = {p_d_max:.4f} pu "
          f"({p_d_max / sc.grid.load_pu:.3f} of load)" if p_d_max is not None
          else f"no deficit within the {E_R_BAND_PCT:g}% band")
    return EXIT_OK


def cmd_dump_preset(args) -> int:
    doc = load_preset(args.dump_preset)
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{args.dump_preset}.json").write_text(text)
        print(f"wrote {out / (args.dump_preset + '.json')}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _range_arg(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected lo:hi:count, e.g. 0.02:0.20:10")
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    # a deficit is a positive fraction of the load, and a sweep has a point
    if lo <= 0 or hi <= 0:
        raise argparse.ArgumentTypeError(f"lo and hi must be > 0, got {text}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"count must be >= 1, got {text}")
    return lo, hi, n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="windfreq",
        description="Nadir-optimal wind-turbine frequency support: solve the "
                    "trajectory optimization, synthesize the feedback "
                    "controller, and validate it in closed-loop simulation.",
    )
    parser.add_argument("--dump-preset", choices=PRESET_NAMES, default=None,
                        help="print a shipped preset scenario, or write it to --out, "
                             "and exit")
    parser.add_argument("--out", default=None,
                        help=f"output directory (default {DEFAULT_OUT!r} for the "
                             "subcommands)")
    sub = parser.add_subparsers(dest="command")
    for name, fn in (("solve", cmd_solve), ("synthesize", cmd_synthesize),
                     ("simulate", cmd_simulate), ("compare", cmd_compare),
                     ("sweep", cmd_sweep)):
        p = sub.add_parser(name)
        p.add_argument("--scenario", default=None, help="scenario JSON file")
        p.add_argument("--preset", choices=PRESET_NAMES, default=None,
                       help="use a shipped preset instead of a file")
        # the top-level --out holds the one value; given here, it wins
        p.add_argument("--out", default=argparse.SUPPRESS, help="output directory")
        p.add_argument("--nodes", type=int, default=None,
                       help="override the collocation order")
        if name == "sweep":
            p.add_argument("--range", type=_range_arg, default=(0.02, 0.20, 10),
                           help="deficit sweep as fractions of load, lo:hi:count")
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.dump_preset:
        return cmd_dump_preset(args)
    if not getattr(args, "func", None):
        parser.print_help()
        return EXIT_VALIDATION
    try:
        args.sc, args.prov = _load_scenario(args)
        args.out = Path(DEFAULT_OUT if args.out is None else args.out)
        args.out.mkdir(parents=True, exist_ok=True)
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (FileNotFoundError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (InfeasibleError, UnboundedError, SimplexError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
