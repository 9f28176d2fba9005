#!/usr/bin/env python3
"""Benchmark of ftacs: three closed-loop workloads, output checks, end-to-end
metrics, and a traced run that gives per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload campaign-faulty --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload in turn

--trace 0 measures with tracing off and reports the end-to-end metrics.
--trace 1 runs every unit twice on the same inputs, once untraced and once
with every layer boundary wrapped (tracer.py), in alternating order; it
reports the per-layer metrics and checks that both runs of each unit produced
bit-identical outputs.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A full record with provenance goes to
perfbench/out/. The metric names and units are those of BENCHMARK.json;
perfbench/README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 11
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def load_spec() -> dict:
    """BENCHMARK.json: the workloads, metric names, units and run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv, spec: dict):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[*(w["name"] for w in spec["workloads"]), "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and build the inputs once, print the seconds taken")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ftacs").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def os_threads() -> int | None:
    status = Path("/proc/self/status")
    if status.is_file():
        for line in status.read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return None


def provenance(args, numpy, yaml, heldout_seed: int) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "blas": blas,
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "os_threads": os_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "heldout_seed": heldout_seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_unit(wl, x, r: int, span) -> dict:
    """Time one unit's body inside `span`, then check its outputs."""
    from workloads import Check

    with span("bench.unit"):
        t0 = time.perf_counter()
        try:
            out = wl.body(x)
        except Exception:
            out = traceback.format_exc()
        wall = time.perf_counter() - t0
    if isinstance(out, str):
        check = Check(wl.attempts(x), wl.attempts(x), "", [f"unit {r}: {out}"])
    else:
        check = wl.check(x, out)
    return {"r": r, "wall_s": wall, "ops": wl.ops(x), "steps": wl.steps(x), "check": check}


def measure(wl, seconds: float, tracer=None,
            between=lambda progress: None) -> tuple[list[dict], list[dict], bool]:
    """Run units with fresh inputs until `seconds` have passed.

    Each untraced unit gets `ref_s`, the mean time of the reference kernel
    run just before and just after it. With a tracer, each unit's inputs run
    twice, untraced and traced, in an order that alternates, so both sides
    see the same machine state. The tracer is installed only around traced
    units. `between(progress)` runs after each unit, untimed, with the
    share of `seconds` gone. Returns the untraced units, the traced units,
    and whether every wrapped name was restored.
    """
    from workloads import reference_kernel

    def reference_s() -> float:
        t0 = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - t0

    untraced, traced = [], []
    restored = True
    ref_before = reference_s()
    start = time.perf_counter()
    r = 1
    while True:
        sides = (False, True) if tracer else (False,)
        for with_trace in sides if r % 2 else reversed(sides):
            x = wl.prepare(r)
            if not with_trace:
                unit = run_unit(wl, x, r, lambda name: contextlib.nullcontext())
                ref_after = reference_s()
                unit["ref_s"] = 0.5 * (ref_before + ref_after)
                ref_before = ref_after
                untraced.append(unit)
                continue
            tracer.install()
            try:
                traced.append(run_unit(wl, x, r, tracer.span))
            finally:
                restored = tracer.restore() and restored
        r += 1
        progress = (time.perf_counter() - start) / seconds
        if progress >= 1.0:
            return untraced, traced, restored
        between(progress)


def summarize(wl, units: list[dict]) -> dict:
    walls = [u["wall_s"] for u in units]
    s = {"units": len(units), "wall_s": statistics.median(walls),
         "ops_per_s": statistics.median(u["ops"] / u["wall_s"] for u in units),
         "ops": sum(u["ops"] for u in units), "unit_walls_s": walls}
    if "ref_s" in units[0]:
        s["ref_s"] = statistics.median(u["ref_s"] for u in units)
        s["ops_per_ref"] = statistics.median(u["ops"] * u["ref_s"] / u["wall_s"] for u in units)
    op_times = [t for u in units for t in (u["check"].op_times or ())]
    if op_times:
        s["point_us_p50"] = 1e6 * statistics.median(op_times)
        s["point_us_p90"] = 1e6 * statistics.quantiles(op_times, n=10)[8]
        s["point_samples"] = len(op_times)
    return s


def fresh_setup_s(args) -> float:
    """Set-up time (import plus building the inputs) in a fresh process: the
    cost a user pays per invocation."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, timeout=120)
    return float(out.stdout.split()[-1])


def run_workload(args, spec: dict) -> int:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    try:
        import ftacs.cli  # noqa: F401  (the import users pay for)
    except ImportError as exc:
        print(f"error: cannot import ftacs from {SRC}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    import ftacs
    if Path(ftacs.__file__).resolve().parent != SRC / "ftacs":
        print(f"error: imported ftacs from {ftacs.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy
    import yaml
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS as IMPLEMENTATIONS
    from workloads import unit_seed

    OUT.mkdir(exist_ok=True)
    wl = IMPLEMENTATIONS[args.workload]()
    t0 = time.perf_counter()
    wl.setup(args.seed, OUT)
    setup_once_s = import_s + time.perf_counter() - t0
    if args.setup_only:
        print(setup_once_s)
        return 0
    setup_times = []

    def sample_setup(progress: float):
        # SETUP_REPS set-ups spread evenly over the run, so that their median
        # does not hang on the machine's speed at one moment.
        while len(setup_times) <= progress * (SETUP_REPS - 1):
            setup_times.append(fresh_setup_s(args))

    sample_setup(0.0)

    with contextlib.ExitStack() as stack:
        if hasattr(wl, "open"):
            wl.open()
            stack.callback(wl.close)
        checks, first = wl.warm_up()
        tracer = Tracer() if args.trace else None
        untraced, traced, restored = measure(wl, args.seconds, tracer, sample_setup)
        sample_setup(1.0)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        checks["tracer_restored"] = restored
        checks["traced_outputs_identical"] = bool(traced) and all(
            u["check"].digest == t["check"].digest for u, t in zip(untraced, traced))

    units = untraced + traced
    checked = [first] + [u["check"] for u in units]
    attempted = sum(c.attempted for c in checked)
    failed = sum(c.failed for c in checked)
    notes = [n for c in checked for n in c.notes]
    outcomes = {}
    for c in checked:
        for kind, count in c.outcomes.items():
            outcomes[kind] = outcomes.get(kind, 0) + count
    correct = failed == 0 and all(checks.values())

    base = summarize(wl, untraced)
    setup_s = statistics.median(setup_times)
    end_to_end = {"setup_s": setup_s, "ops_per_ref": base["ops_per_ref"],
                  "peak_rss_mb": rss_mb}
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if set(end_to_end) != set(e2e_units):
        print(f"error: metrics {sorted(end_to_end)} do not match BENCHMARK.json", file=sys.stderr)
        return 2
    # Wall-clock figures under the names users know them by; they are
    # reported but not gated, since a shared machine's speed drifts too much.
    named = {"setup_s": (setup_s, e2e_units["setup_s"]), "wall_s": (base["wall_s"], "s")}
    if wl.op == "gain point":
        named["points_per_s"] = (base["ops_per_s"], "1/s")
        named["point_us_p50"] = (base["point_us_p50"], "us")
        named["point_us_p90"] = (base["point_us_p90"], "us")
    else:
        named["sim_steps_per_s"] = (base["ops_per_s"], "1/s")
    named["ops_per_ref"] = (base["ops_per_ref"], e2e_units["ops_per_ref"])
    named["ref_s"] = (base["ref_s"], "s")
    named["peak_rss_mb"] = (rss_mb, e2e_units["peak_rss_mb"])
    named["failed_frac"] = (failed / attempted, "frac")

    record = {
        "provenance": provenance(args, numpy, yaml, unit_seed(args.seed, 0xFFFFFFFF)),
        "correct": correct, "attempted": attempted, "failed": failed, "checks": checks,
        "notes": notes[:20], "outcomes": outcomes,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "samples": {"wall_s": base["units"], "point_us": base.get("point_samples"),
                    "setup_s": SETUP_REPS},
        "import_s": import_s, "setup_in_process_s": setup_once_s, "setup_reps_s": setup_times,
        "untraced": base,
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"({base['units']} units of {wl.op}s, {base['ops']} ops)")
    for k, (v, u) in named.items():
        extra = ""
        if k == "wall_s":
            extra = f"  median of {base['units']} units"
        elif k.startswith("point_us"):
            extra = f"  over {base['point_samples']} points"
        elif k == "failed_frac":
            extra = f"  ({failed}/{attempted})"
        print(f"  {k:<22} {v:.6g} {u}{extra}")
    if outcomes:
        print("  outcomes " + ", ".join(f"{kind} {n}" for kind, n in outcomes.items()))
    for name, ok in checks.items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    for note in notes[:5]:
        print(f"  note: {note}")

    metrics, units_spec = end_to_end, e2e_units
    if args.trace:
        traced_summary = summarize(wl, traced)
        agg = tracer.by_name()
        per_layer = layer_metrics(
            agg, tracer.phi_calls, units=len(traced),
            steps=sum(u["steps"] for u in traced),
            export_bytes=sum(u["check"].export_bytes for u in traced))
        per_layer["trace.overhead_frac"] = statistics.median(
            t["wall_s"] / u["wall_s"] for u, t in zip(untraced, traced)) - 1.0
        metrics = per_layer
        units_spec = {m["name"]: m["unit"] for m in spec["per_layer"]}
        if set(metrics) != set(units_spec):
            print(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json",
                  file=sys.stderr)
            return 2
        record.update(per_layer=per_layer, traced=traced_summary, spans_by_name=agg)
        tracer.write(OUT / f"{args.workload}-spans.npz")
        print("  per layer (traced units):")
        for k, v in per_layer.items():
            print(f"  {k:<36} {v:.6g} {units_spec[k]}")

    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(f"  wrote {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units_spec[k]}
                                  for k, v in metrics.items()}}))
    return 0


def run_all(args, spec: dict) -> int:
    """Each workload in its own process, one after the other."""
    results = {}
    for name in (w["name"] for w in spec["workloads"]):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 2
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(argv, spec)
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
