#!/usr/bin/env python3
"""Reproduce the published steady-state bound predictions.

Runs the two-stage fixed-point iteration for the fault-free and faulty
configurations, prints the iteration histories, and writes both bound traces
as JSONL next to this script (or into FTACS_OUT_DIR).
"""

import math
import os
from pathlib import Path

from ftacs import export_bound_trace_jsonl, predict
from ftacs.scenario import paper_budget, paper_gains

OUT = Path(os.environ.get("FTACS_OUT_DIR", "."))


def show(label, rho_E):
    budget = paper_budget(rho_E=rho_E)
    gains = paper_gains()
    trace = predict(budget, gains)
    print(f"\n=== {label} (rho_E = {rho_E}) ===")
    for i, (s, q) in enumerate(trace.loop1, start=1):
        print(f"  loop1 {i:2d}: s_bar = {s:.6e}  q_bar = {q:.6e}")
    for i, (s, q) in enumerate(trace.loop2, start=1):
        print(f"  loop2 {i:2d}: s_bar = {s:.6e}  q_bar = {q:.6e}")
    print(f"  total iterations : {trace.total_iterations}")
    print(f"  |q_e| bound      : {trace.q_final:.6e}")
    print(f"  |omega_e| bound  : {math.degrees(trace.omega_bound):.6e} deg/s")
    print(f"  theta_e bound    : {math.degrees(trace.theta_bound):.6e} deg")
    out = OUT / f"bounds-{label}.jsonl"
    export_bound_trace_jsonl(trace, out)
    print(f"  wrote {out}")


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    show("fault-free", 0.0)
    show("faulty", 0.08)


if __name__ == "__main__":
    main()
