"""wbansim benchmark: one workload per run, or repeated runs with quartiles.

    python3 bench/run.py --workload star64-calibrated --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --repeat 10 --seconds 30

A run is one process and one thread, driving wbansim as a closed loop:
each call starts only after the previous one returned.  It repeats its
workload's operation for ``--seconds`` after one untimed warm-up and prints
one JSON object as its last line of standard output.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` untraced and traced
operations alternate, and it reports the per-layer metrics of the traced
ones plus the tracing overhead.

``pass_s`` and ``setup_s`` are scaled to the machine's current speed.  On a
shared host the same code runs up to 1.6 times slower for minutes at a
time.  Before every timed operation the run times a fixed reference loop
(``reference.py``) and reports ``pass_s = REFERENCE_S * median(operation
times) / median(loop times)``: seconds on a machine where the loop takes
``REFERENCE_S``.  Starting an interpreter does not follow that loop, so each
set-up probe is paired with an import probe, a fresh interpreter importing
what wbansim imports, and ``setup_s = REFERENCE_IMPORT_S * median(set-up
times) / median(import times)``.  Neither reference touches wbansim, and each
slows down with what it stands for, so the ratios cancel most of the drift.
The unscaled medians are printed beside them.

wbansim is imported from ``src/`` beside this directory; without it the
benchmark exits with status 2.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "bench" / "results"
WORKLOAD_NAMES = ("star64-calibrated", "lossy-retry-sweep", "paper-models")
DEFAULT_SEED = 1
SETUP_PROBES = 7          # fresh interpreters timed per run for setup_s
CHILD_TIMEOUT_S = 170
REFERENCE_S = 0.1         # about the reference loop's time here on a quiet host
REFERENCE_IMPORT_S = 0.12  # about the import probe's time here on a quiet host
# A fresh interpreter importing what wbansim imports, but not wbansim.
IMPORT_PROBE = ("import time, argparse, csv, dataclasses, hashlib, heapq, json, numpy; "
                "print(time.monotonic())")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, metavar="N",
                        help="run every workload (or --workload) N times and summarise")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeat is None and args.workload is None:
        parser.error("--workload is required unless --repeat is given")
    return args


# ------------------------------------------------------------- one run

def _probe_seconds(argv: list[str]) -> float:
    """Time from starting `argv` to the monotonic time it prints last."""
    started = time.monotonic()
    probe = subprocess.run(argv, capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S, check=True)
    return float(probe.stdout.split()[-1]) - started


def setup_seconds(args) -> tuple[float, float]:
    """Time from starting a fresh interpreter to the point where the workload
    could start its first timed operation, scaled and unscaled: the median
    over fresh interpreters, each timed after an import probe."""
    setup, imports = [], []
    for _ in range(SETUP_PROBES):
        imports.append(_probe_seconds([sys.executable, "-c", IMPORT_PROBE]))
        setup.append(_probe_seconds(
            [sys.executable, __file__, "--setup-probe", "--workload", args.workload,
             "--seed", str(args.seed)]))
    raw = statistics.median(setup)
    return REFERENCE_IMPORT_S * raw / statistics.median(imports), raw


class Tally:
    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.first_output = None

    def attempt(self):
        """One operation: returns its wall seconds and its output, or None
        for the output when the call raised or the output failed a check."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            output = self.workload.run()
        except Exception:
            seconds = time.perf_counter() - started
            self.failed += 1
            traceback.print_exc()
            return seconds, None
        seconds = time.perf_counter() - started
        try:
            problems = self.workload.check(output)
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            print(f"{self.workload.name}: check failed: {'; '.join(problems)}",
                  file=sys.stderr)
            return seconds, None
        if self.first_output is None:
            self.first_output = output
        return seconds, output


def single_run(args) -> dict:
    import oracle
    import reference
    import workloads

    setup_s, setup_raw = (None, None) if args.trace else setup_seconds(args)
    RESULTS.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, RESULTS)
    workload.setup()
    tally = Tally(workload)
    tally.attempt()   # warm-up, untimed

    plain_s, reference_s, rates, traced_s, layers = [], [], [], [], []
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    deadline = time.perf_counter() + args.seconds
    while True:
        if not args.trace:
            reference_s.append(reference.seconds())
        seconds, output = tally.attempt()
        plain_s.append(seconds)
        exchanges = None if output is None else workload.exchanges(output)
        if exchanges is not None:
            rates.append(exchanges / seconds)
        if args.trace:
            tracer.reset()
            with tracer.installed():
                seconds, output = tally.attempt()
            traced_s.append(seconds)
            layers.append(tracer.layer_metrics())
        if time.perf_counter() >= deadline:
            break

    z_scores = workload.z_scores(tally.first_output) if tally.first_output else {}
    correct = all(abs(z) <= oracle.Z_LIMIT for z in z_scores.values())
    if args.trace:
        tracer.write(RESULTS / f"trace-{args.workload}-seed{args.seed}.tsv")
        metrics = {name: {"value": statistics.median(m[name] for m in layers),
                          "unit": unit}
                   for name, unit in tracing.LAYER_UNITS.items()}
        overhead = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
        metrics["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
    else:
        scale = REFERENCE_S / statistics.median(reference_s)
        metrics = {
            "pass_s": {"value": scale * statistics.median(plain_s), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
    summary = (f"{args.workload} seed {args.seed}: {len(plain_s)} timed operations, "
               f"unscaled pass median {statistics.median(plain_s):.4f} s")
    if reference_s:
        summary += (f", reference loop median {statistics.median(reference_s):.4f} s, "
                    f"unscaled setup median {setup_raw:.4f} s")
    if rates:
        summary += f", exchanges_per_s median {statistics.median(rates):.0f} exchanges/s"
    if z_scores:
        summary += f", max |z| {max(abs(z) for z in z_scores.values()):.2f}"
    print(summary)
    for name, z in z_scores.items():
        print(f"  z {name}: {z:+.3f}")
    return {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics}


# -------------------------------------------------------- repeated runs

def repeat(args) -> dict:
    bounds = {}
    spec = ROOT / "BENCHMARK.json"
    if spec.is_file():
        bounds = {m["name"]: m["bound"] for m in json.loads(spec.read_text())["end_to_end"]}
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    summary = {}
    for name in names:
        runs = []
        for seed in range(args.seed, args.seed + args.repeat):
            child = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 60, check=True)
            lines = child.stdout.splitlines()
            result = json.loads(lines[-1])
            runs.append(result)
            values = ", ".join(f"{k} {v['value']:.6g} {v['unit']}"
                               for k, v in result["metrics"].items())
            print(f"{name} seed {seed}: attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}, {values}\n"
                  f"  {lines[0]}", flush=True)
        summary[name] = {}
        for metric, first in runs[0]["metrics"].items():
            values = [run["metrics"][metric]["value"] for run in runs]
            q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                              else values * 3)
            spread = (q3 - q1) / median
            summary[name][metric] = {"median": median, "q1": q1, "q3": q3,
                                     "spread": spread, "unit": first["unit"]}
            bound = bounds.get(metric)
            note = f" (bound {bound}, spread/bound {spread / bound:.2f})" if bound else ""
            print(f"  {metric}: median {median:.6g} {first['unit']}, "
                  f"quartiles {q1:.6g}..{q3:.6g}, spread {spread:.4f}{note}", flush=True)
    return summary


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wbansim" / "__init__.py").is_file():
        print(f"error: no wbansim package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.repeat is not None:
        print(json.dumps(repeat(args)))
        return 0
    if args.setup_probe:
        import workloads
        workloads.WORKLOADS[args.workload](args.seed, RESULTS).setup()
        print(time.monotonic())
        return 0
    print(json.dumps(single_run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
