"""curvelab benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload helix_frames --seed 1 \\
        --seconds 30 --trace 0

Run from a checkout of the repository; the program is imported from its
``src/``.  With ``--trace 0`` the run alternates driven and ``cli.main``
passes until ``--seconds`` have passed (at least one of each) and reports
the end-to-end metrics of BENCHMARK.json, in reference seconds (see
``reference_s``); with ``--trace 1`` it runs one untraced pass, one traced
pass and the jet micro-benchmarks, and reports the per-layer metrics.
Every run checks the program's outputs; the last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``.  ``--workload all``
runs every workload in turn and prints a table.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_SETUPS = 3
REF_ITERS = 80_000
REF_NOMINAL_S = 0.045       # the reference loop on that VM in a fast phase


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="constructed_check, helix_frames, synth_roundtrip, "
                        "verify_all, or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every workload (for the smoke test)")
    return p.parse_args(argv)


def _pass_guarded(run, checks, label):
    """Run one pass; a raised error is a failed check, not a crash."""
    try:
        return run()
    except Exception:
        traceback.print_exc()
        checks.append((f"{label} pass completed", False))
        return None


def reference_s() -> float:
    """Time of a fixed pure-Python loop that never touches curvelab.

    The shared VM these bounds were set on runs 1.5-1.7x slower in phases
    lasting from seconds to minutes.  Timing this loop beside every pass
    measures that drift, so that the pass times can be scaled by it.
    """
    gc.collect()
    gc.disable()          # so the heap a pass left behind does not matter
    try:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(REF_ITERS):
            v = (i * 0.5, i + 1.0, 2.0)
            acc += sum(x * x for x in v) ** 0.5
        return time.perf_counter() - t0
    finally:
        gc.enable()


def timed_run(w, seconds: float, checks: list) -> dict[str, float]:
    """Alternate driven and cli passes; times are in reference seconds.

    Each pass is bracketed by two timings of ``reference_s`` and scaled by
    REF_NOMINAL_S over their mean, so a pass that ran in a slow phase of
    the machine is not read as a slower program.
    """
    from workloads import cli_pass, driven_pass, setup_only

    passes, setups, margins, raw = [], [], [], []
    reference = None
    refs = [reference_s()]
    start = time.perf_counter()
    n = 0
    while n < 2 or time.perf_counter() - start < seconds:
        gc.collect()
        if n % 2 == 0:
            o = _pass_guarded(lambda: driven_pass(w.steps), checks, "driven")
        else:
            o = _pass_guarded(lambda: cli_pass(w.steps), checks, "cli")
        if o is None:
            break
        refs.append(reference_s())
        scale = REF_NOMINAL_S / (0.5 * (refs[-2] + refs[-1]))
        if n % 2 == 0:
            checks.extend(w.check(o))
            if reference is not None:
                checks.append(("driven output repeats",
                               o.commands == reference))
            reference = o.commands
            margins.append(w.margin(o))
            setups.append(o.setup_s * scale)
        else:
            checks.append(("byte-identical to cli.main",
                           o.commands == reference))
        passes.append(o.wall_s * scale)
        raw.append(o.wall_s)
        n += 1
    if not margins:
        return {}
    while len(setups) < MIN_SETUPS:
        gc.collect()
        before = reference_s()
        t = setup_only(w.steps)
        setups.append(t * REF_NOMINAL_S / (0.5 * (before + reference_s())))
    print(f"# passes={n} wall={[round(x, 3) for x in raw]} "
          f"reference={[round(x * 1e3, 1) for x in refs]}ms "
          f"pass_s={[round(x, 3) for x in passes]} "
          f"setup_s={[round(x, 3) for x in setups]}")
    pass_s, setup = statistics.median(passes), statistics.median(setups)
    return {
        "pass_s": pass_s,
        "setup_s": setup,
        "samples_per_s": w.items / (pass_s - setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "tol_margin_log10": min(margins),
    }


def traced_run(w, checks: list) -> dict[str, float]:
    from tracing import ROOT_SPAN, Tracer, micro_benchmarks
    from workloads import cli_pass, driven_pass, fresh_curvelab

    micro = micro_benchmarks(fresh_curvelab())
    gc.collect()
    plain = _pass_guarded(lambda: driven_pass(w.steps), checks, "driven")
    if plain is None:
        return {}
    checks.extend(w.check(plain))
    gc.collect()
    tracer = Tracer()

    def traced_pass():
        with tracer.region(ROOT_SPAN):
            return driven_pass(w.steps,
                               emit=lambda: tracer.region("cli.emit"),
                               on_import=tracer.install)
    traced = _pass_guarded(traced_pass, checks, "traced")
    if traced is None:
        return {}
    checks.append(("traced output identical", traced.commands == plain.commands))
    gc.collect()
    ref = _pass_guarded(lambda: cli_pass(w.steps), checks, "cli")
    if ref is not None:
        checks.append(("byte-identical to cli.main",
                       ref.commands == plain.commands))
    bytes_out = sum(len(c.stdout.encode()) + len((c.file or "").encode())
                    for c in traced.commands)
    metrics = {**micro, **tracer.metrics(bytes_out)}
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - plain.wall_s
    return metrics


def run_one(args) -> int:
    from workloads import WORKLOADS, make

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 64
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    w = make(args.workload, args.seed, tiny=args.size == "tiny")
    print(f"# {w.name} seed={args.seed} inputs={w.params}")
    checks: list[tuple[str, bool]] = []
    if args.trace:
        values = traced_run(w, checks)
    else:
        values = timed_run(w, args.seconds, checks)
    if not checks:
        checks.append(("a pass completed", False))
    failed = [name for name, ok in checks if not ok]
    for name in failed:
        print(f"check failed: {name}", file=sys.stderr)
    if values:
        names = {m["name"] for m in listed}
        if set(values) != names:
            print(f"metrics differ from BENCHMARK.json: "
                  f"{sorted(set(values) ^ names)}", file=sys.stderr)
            return 2
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed if values},
    }))
    return 0 if not failed else 1


def run_all(args) -> int:
    """Every workload in its own process, one table of metrics."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"{name}: no result (exit {proc.returncode})",
                  file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, mv in res["metrics"].items():
            print(f"{name:18} {metric:42} {mv['value']:>16.6g} {mv['unit']}")
            combined["metrics"][f"{name}.{metric}"] = mv
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "curvelab" / "__init__.py").is_file():
        print(f"no curvelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
