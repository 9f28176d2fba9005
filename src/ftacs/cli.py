"""Command-line interface.

Subcommands: simulate, montecarlo, predict-bounds, verify, check-gains.
Exit status 0 on success/pass, 1 on a usage error or validation failure, 2
on a violated or unattainable bound, a failed gain condition, a non-finite
state or a failed campaign instance; main() is the one place where a raised
failure becomes an exit status: a ValueError or OSError exits 1, an
FtacsError 2. The output directory defaults to the current directory and can
be overridden by --out or the FTACS_OUT_DIR environment variable.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from .bounds import compute_coefficients, predict
from .controller import check_gain_conditions
from .errors import FtacsError, GainConditionViolated, NotContractive
from .harness import (
    export_bound_trace_jsonl,
    export_summary_jsonl,
    export_trace_csv,
    json_record,
    run_campaign,
    run_scenario,
    verify,
)
from .scenario import PRESETS, load_scenario

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VIOLATED = 2


def _out_dir(args) -> Path:
    out = getattr(args, "out", None) or os.environ.get("FTACS_OUT_DIR") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:  # checked once the file is, before the output directory
        scenario = scenario.with_seed(args.seed)
    out = _out_dir(args) / f"{scenario.name}-seed{scenario.seed}.csv"
    trace = run_scenario(scenario)
    record = trace.record
    export_trace_csv(trace, out)
    print(f"wrote {out}")
    print(
        f"tail maxima: theta_e {record['theta_tail_max_deg']:.6g} deg, "
        f"|omega_e| {math.degrees(record['omega_tail_max_rad_s']):.6g} deg/s, "
        f"|qe_vec| {record['qe_tail_max']:.6g}"
    )
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    scenario = load_scenario(args.scenario)
    out = _out_dir(args) / f"{scenario.name}-campaign-n{args.n}.jsonl"
    summary = run_campaign(scenario, args.n)
    export_summary_jsonl(summary, out)
    record = summary.record()
    print(f"wrote {out}")
    print(
        f"campaign maxima over {args.n - len(record['failures'])} of {args.n} finished instances: "
        f"theta_e {record['theta_tail_max_deg']:.6g} deg, "
        f"|omega_e| {math.degrees(record['omega_tail_max_rad_s']):.6g} deg/s"
    )
    for line in record["failures"]:
        print(f"FAILED: {line}", file=sys.stderr)
    return EXIT_VIOLATED if record["failures"] else EXIT_OK


def cmd_predict_bounds(args) -> int:
    scenario = load_scenario(args.scenario)
    out = _out_dir(args) / f"{scenario.name}-bounds.jsonl"
    trace = predict(scenario.budget, scenario.gains)
    export_bound_trace_jsonl(trace, out)
    print(f"wrote {out}")
    print(
        f"iterations {trace.total_iterations} (loop2 "
        f"{'active' if trace.loop2 else 'inactive'}); "
        f"|qe| bound {trace.q_final:.6g}, "
        f"|omega_e| bound {math.degrees(trace.omega_bound):.6g} deg/s, "
        f"theta_e bound {math.degrees(trace.theta_bound):.6g} deg"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    scenario = load_scenario(args.scenario)
    out = _out_dir(args) / f"{scenario.name}-verify-n{args.n}.json"
    report = verify(scenario, args.n, strict=True)
    out.write_text(json_record(report, indent=2) + "\n")
    print(f"wrote {out}")
    print(
        f"PASS: theta_e tail max {report['theta_tail_max_deg']:.6g} deg <= "
        f"bound {report['theta_bound_deg']:.6g} deg "
        f"(margin x{report['theta_margin_ratio']:.2f}); "
        f"|omega_e| tail max {math.degrees(report['omega_tail_max_rad_s']):.6g} deg/s <= "
        f"bound {math.degrees(report['omega_bound_rad_s']):.6g} deg/s "
        f"(margin x{report['omega_margin_ratio']:.2f})"
    )
    if min(report["theta_margin_ratio"], report["omega_margin_ratio"]) < 1.0:
        print(f"a tail max exceeds its bound by at most the round-off floor "
              f"{report['roundoff_floor']:g}")
    return EXIT_OK


def cmd_check_gains(args) -> int:
    scenario = load_scenario(args.scenario)
    coeffs = compute_coefficients(scenario.budget, scenario.gains)
    report = check_gain_conditions(scenario.gains, coeffs, scenario.budget)
    print(
        f"lambda_min(K) = {report.lambda_min_K:.6g} vs threshold "
        f"{report.k_threshold:.6g}: {'PASS' if report.k_condition else 'FAIL'} "
        f"(margin {report.k_margin:.6g})"
    )
    print(
        f"epsilon = {report.epsilon:.6g} vs rho_s = {report.rho_s:.6g}: "
        f"{'PASS' if report.epsilon_condition else 'FAIL'} "
        f"(margin {report.epsilon_margin:.6g})"
    )
    print(f"kappa = {coeffs.kappa:.6g}, kappa' = {coeffs.kappa_prime:.6g}")
    return EXIT_OK if report.passed else EXIT_VIOLATED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftacs",
        description="Fault-tolerant attitude tracking simulation and "
        "steady-state bound prediction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    preset_help = f"preset name ({', '.join(PRESETS)}) or YAML scenario file"

    p = sub.add_parser("simulate", help="run one closed-loop instance, export CSV trace")
    p.add_argument("--scenario", required=True, help=preset_help)
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("montecarlo", help="run an n-instance campaign, export JSONL summary")
    p.add_argument("--scenario", required=True, help=preset_help)
    p.add_argument("-n", type=int, default=10, help="number of instances (default 10)")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("predict-bounds", help="run the fixed-point bound prediction")
    p.add_argument("--scenario", required=True, help=preset_help)
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=cmd_predict_bounds)

    p = sub.add_parser("verify", help="check that campaign tail maxima stay within bounds")
    p.add_argument("--scenario", required=True, help=preset_help)
    p.add_argument("-n", type=int, default=10, help="number of instances (default 10)")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("check-gains", help="evaluate the stability gain conditions")
    p.add_argument("--scenario", required=True, help=preset_help)
    p.set_defaults(func=cmd_check_gains)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_INVALID if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (GainConditionViolated, NotContractive) as exc:
        print(f"prediction failed: {exc}", file=sys.stderr)
        return EXIT_VIOLATED
    except FtacsError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return EXIT_VIOLATED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
