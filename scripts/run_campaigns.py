#!/usr/bin/env python3
"""Run the fault-free and faulty Monte Carlo campaigns and compare the
campaign tail maxima against the predicted bounds.

Usage: run_campaigns.py [n_instances]   (default 10; the original study
used 100, which takes roughly ten times longer)
"""

import math
import os
import sys
from pathlib import Path

from ftacs import export_summary_jsonl, run_campaign
from ftacs.scenario import paper_fault_free, paper_faulty

OUT = Path(os.environ.get("FTACS_OUT_DIR", "."))


def campaign(scenario, n):
    summary = run_campaign(scenario, n)
    record = summary.record()
    print(f"\n=== {scenario.name} ({n} instances, {scenario.duration:.0f} s each) ===")
    print(
        f"  predicted: theta_e <= {record['theta_bound_deg']:.4g} deg, "
        f"|omega_e| <= {math.degrees(record['omega_bound_rad_s']):.4g} deg/s"
    )
    print(
        f"  simulated: theta_e tail max {record['theta_tail_max_deg']:.4g} deg, "
        f"|omega_e| tail max {math.degrees(record['omega_tail_max_rad_s']):.4g} deg/s"
    )
    print(
        f"  margins  : theta x{record['theta_margin_ratio']:.2f}, "
        f"omega x{record['omega_margin_ratio']:.2f}"
    )
    for line in record["failures"]:
        print(f"  FAILED   : {line}")
    print(f"  envelope : {'holds' if record['passed'] else 'VIOLATED'}")
    out = OUT / f"campaign-{scenario.name}-n{n}.jsonl"
    export_summary_jsonl(summary, out)
    print(f"  wrote {out}")
    return record["passed"]


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    OUT.mkdir(parents=True, exist_ok=True)
    ok = campaign(paper_fault_free(), n)
    ok &= campaign(paper_faulty(), n)
    sys.exit(0 if ok else 2)


if __name__ == "__main__":
    main()
