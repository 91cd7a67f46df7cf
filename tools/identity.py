"""Byte identity of a fixed corpus between a git revision and the working tree.

    python3 tools/identity.py [--rev REV | --paths] [--expect NAME ...]

Extracts REV (default ``HEAD``) with ``git archive`` into a temporary
directory outside the checkout and runs one fixed corpus against that tree
and against the working tree this script sits in.  With ``--paths`` it
extracts nothing: it runs the corpus in the working tree twice, once as it
is and once with ``simulator.send_clean`` returning 0 and
``simulator.join_clean`` returning False, so that every join and packet
takes the frame path, and compares the two.  Each run's cases go to
fresh interpreters that import only that tree's ``src/``, at most two at a
time.  The corpus:

- golden: every case of the working tree's ``tests/test_golden.py``, run
  through ``wbansim.cli.main``; the exit status, the stdout and every file
  the case writes;
- demo: the stdout of each script in the working tree's ``demos/``, each
  tree running its own copy;
- run: ``RUNS`` seeded random ``run_experiment`` configs (1-8 nodes, every
  preset, ``ber`` 0-0.03, ``payload_len`` 0-255, ``max_retries`` 0-8), a
  quarter of them traced; the ``LinkResult``s and the trace;
- sweep: one ``sweep`` per axis; the rows;
- optimize: ``optimize_payload`` on a BER grid from four starts (``MIN_START``,
  1, 15 and 255) at three step budgets (1, 40 and the default), with both
  gradients;
- invert: ``invert_fer_analytic`` at targets 1e-1 ... 1e-300 and payloads 0,
  10 and 255.

A case that raises is compared by its exception's type and message, so a
join failure's ``ConfigError`` must match too.  ``--expect NAME``, which may
be repeated, names a case id (``golden-optimize``) or a case class
(``optimize``) whose outputs a change means to move: its mismatches are
expected.  The script prints the cases and mismatches per class, lists each
unexpected mismatch with what it ran, then each expected one apart, and ends
with one summary line that counts the two kinds.  It exits 1 on an
unexpected mismatch, and 2 when an ``--expect`` name matches no case, REV
cannot be extracted or a worker fails.  Standard library only.
"""

import argparse
import ast
import concurrent.futures
import io
import json
import math
import os
import random
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKERS = 2
CHUNKS = 4          # fresh interpreters per tree
RUNS = 1000         # random run_experiment configs
CORPUS_SEED = 19
PRESETS = ("wireless", "wired", "explicit")
SWEEPS = {"distance": [1.0, 4.0, 10.0], "max_retries": [0, 2, 4], "payload_len": [0, 60, 255]}
OPTIMIZE_BERS = (1e-6, 1e-5, 1e-4, 5e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.05, 0.1, 0.2, 0.28, 0.3)
OPTIMIZE_STARTS = {"min": math.sqrt(sys.float_info.min), "1": 1.0, "15": 15.0, "255": 255.0}
OPTIMIZE_CAPS = (1, 40, None)   # None: the default step budget
INVERT_TARGETS = [float(f"1e-{k}") for k in range(1, 301)]
INVERT_PAYLOADS = (0, 10, 255)

# Runs one chunk of cases in the tree it is started in; argv: cases file,
# results file, and "frame-path" to make both twins decline.  Each case
# gives the sha256 of what it produced, or the exception it raised.
WORKER = r'''
import contextlib, hashlib, io, json, os, runpy, sys, tempfile
from pathlib import Path
import wbansim
from wbansim import analytics, cli, optimizer, simulator

if not os.path.abspath(wbansim.__file__).startswith(os.path.abspath("src") + os.sep):
    sys.exit(f"wbansim imported from {wbansim.__file__}, outside this tree")
if sys.argv[3:] == ["frame-path"]:
    simulator.send_clean = lambda *args: 0
    simulator.join_clean = lambda *args: False


def config(spec):
    spec = dict(spec)
    if isinstance(spec.get("distance_map"), list):
        spec["distance_map"] = tuple(tuple(entry) for entry in spec["distance_map"])
    return simulator.ExperimentConfig(**spec)


def golden(case, out):
    # in a directory of its own, named relative to it, as the stdout names it
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            argv = case["argv"] + ["--output", "out.csv"]
            if case["traced"]:
                argv += ["--trace", "trace.txt"]
            with contextlib.redirect_stdout(out):
                status = cli.main(argv)
            files = {name: Path(name).read_bytes().hex() for name in sorted(os.listdir())}
        finally:
            os.chdir(home)
    return [status, files]


def demo(case, out):
    with contextlib.redirect_stdout(out):
        runpy.run_path(os.path.join("demos", case["name"]), run_name="__main__")


def run(case, out):
    trace = [] if case["traced"] else None
    links = simulator.run_experiment(config(case["config"]), trace=trace).links
    return [repr(links), repr(trace)]


def sweep(case, out):
    return repr(simulator.sweep(config(case["base"]), case["axis"], case["values"]))


def optimize(case, out):
    budget = {} if case["cap"] is None else {"max_iterations": case["cap"]}
    return repr(optimizer.optimize_payload(case["p_ber"], payload_0=case["start"],
                                           verbatim_gradient=case["verbatim"], **budget))


def invert(case, out):
    return repr(analytics.invert_fer_analytic(case["target"], case["payload"]))


cases = json.loads(Path(sys.argv[1]).read_text())
results = {}
for case in cases:
    os.environ.pop("WBAN_SEED", None)
    out = io.StringIO()
    try:
        produced = globals()[case["kind"]](case, out)
    except (Exception, SystemExit) as exc:   # argparse exits on a bad argv
        results[case["id"]] = f"raised {type(exc).__name__}: {exc}"
        continue
    blob = json.dumps([produced, out.getvalue()]).encode()
    results[case["id"]] = hashlib.sha256(blob).hexdigest()
Path(sys.argv[2]).write_text(json.dumps(results))
'''


def golden_cases() -> list[dict]:
    """The CLI cases of ``tests/test_golden.py``, read as literals."""
    path = ROOT / "tests" / "test_golden.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(t.id == "CASES" for t in node.targets):
            cases = ast.literal_eval(node.value)
            return [{"kind": "golden", "id": f"golden-{name}", "argv": argv, "traced": traced}
                    for name, (argv, traced, _digests) in sorted(cases.items())]
    raise SystemExit(f"no CASES literal in {path}")


def random_config(rng: random.Random) -> dict:
    nodes = rng.randint(1, 8)
    spec = {"node_count": nodes, "payload_len": rng.randint(0, 255),
            "max_retries": rng.randint(0, 8), "duration_s": round(rng.uniform(0.02, 3.0), 3),
            "seed": rng.randrange(2**32), "preset": rng.choice(PRESETS)}
    if rng.random() < 0.5:
        spec["distance_m"] = round(rng.uniform(0.5, 12.0), 2)
    else:
        spec["distance_m"] = [round(rng.uniform(0.5, 12.0), 2) for _ in range(nodes)]
    if spec["preset"] == "explicit" and rng.random() < 0.3:
        low = rng.uniform(0.0, 0.01)
        spec["distance_map"] = [[1.0, low], [10.0, rng.uniform(low, 0.03)]]
    elif spec["preset"] == "explicit" or rng.random() < 0.25:
        spec["ber"] = rng.choice([0.0, rng.uniform(0.0, 0.03), rng.uniform(0.0, 3e-3)])
    return spec


def corpus() -> list[dict]:
    cases = golden_cases()
    cases += [{"kind": "demo", "id": f"demo-{path.name}", "name": path.name}
              for path in sorted((ROOT / "demos").glob("*.py"))]
    rng = random.Random(CORPUS_SEED)
    cases += [{"kind": "run", "id": f"run-{i}", "config": random_config(rng),
               "traced": i % 4 == 0} for i in range(RUNS)]
    base = {"node_count": 2, "duration_s": 0.5, "seed": 88}
    cases += [{"kind": "sweep", "id": f"sweep-{axis}", "base": base, "axis": axis,
               "values": values} for axis, values in SWEEPS.items()]
    cases += [{"kind": "optimize",
               "id": f"optimize-{p_ber:g}-start-{start}-cap-{cap or 'default'}-{gradient}",
               "p_ber": p_ber, "start": payload_0, "cap": cap,
               "verbatim": gradient == "verbatim"}
              for p_ber in OPTIMIZE_BERS for start, payload_0 in OPTIMIZE_STARTS.items()
              for cap in OPTIMIZE_CAPS for gradient in ("exact", "verbatim")]
    cases += [{"kind": "invert", "id": f"invert-{target:g}-payload-{payload}",
               "target": target, "payload": payload}
              for target in INVERT_TARGETS for payload in INVERT_PAYLOADS]
    return cases


def extract(rev: str, into: Path) -> str:
    """Write REV's tree into `into`; give its short commit id."""
    def git(*args) -> bytes:
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              check=True).stdout
    commit = git("rev-parse", "--short", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tar:
        tar.extractall(into, filter="data")
    return commit


def run_chunk(tree: Path, frame_path: bool, cases: list[dict], scratch: Path,
              tag: str) -> dict:
    cases_file, results_file = scratch / f"{tag}.cases.json", scratch / f"{tag}.results.json"
    cases_file.write_text(json.dumps(cases))
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    argv = [sys.executable, "-c", WORKER, str(cases_file), str(results_file)]
    done = subprocess.run(argv + ["frame-path"] * frame_path,
                          cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"the worker for {tag} failed:\n{done.stderr}")
    return json.loads(results_file.read_text())


def describe(case: dict) -> str:
    return json.dumps({k: v for k, v in case.items() if k not in ("kind", "id")})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    against = parser.add_mutually_exclusive_group()
    against.add_argument("--rev", default="HEAD", help="the revision to compare against")
    against.add_argument("--paths", action="store_true",
                         help="compare the working tree with its own frame path instead")
    parser.add_argument("--expect", action="append", default=[], metavar="NAME",
                        help="a case id or class whose mismatches are expected; repeatable")
    args = parser.parse_args()
    start = time.monotonic()
    cases = corpus()
    names = {case["id"] for case in cases} | {case["kind"] for case in cases}
    unknown = [name for name in args.expect if name not in names]
    if unknown:
        print(f"--expect names no case id or class: {', '.join(unknown)}")
        return 2
    chunks = [cases[i::CHUNKS] for i in range(CHUNKS)]
    with tempfile.TemporaryDirectory(prefix="wbansim-identity-") as scratch:
        scratch = Path(scratch)
        if args.paths:
            base, title = "frame path", "the working tree's frame path"
            runs = {"base": (ROOT, True), "tree": (ROOT, False)}
        else:
            try:
                base = extract(args.rev, scratch / "rev")
            except subprocess.CalledProcessError as exc:
                print(f"cannot extract {args.rev}: {exc.stderr.decode().strip()}")
                return 2
            title = f"{args.rev} ({base})"
            runs = {"base": (scratch / "rev", False), "tree": (ROOT, False)}
        results = {name: {} for name in runs}
        with concurrent.futures.ThreadPoolExecutor(WORKERS) as pool:
            futures = {name: [pool.submit(run_chunk, *run, chunk, scratch, f"{name}-{i}")
                              for i, chunk in enumerate(chunks)]
                       for name, run in runs.items()}
            try:
                for name, parts in futures.items():
                    for part in parts:
                        results[name].update(part.result())
            except RuntimeError as exc:
                print(exc)
                return 2
    theirs, ours = results["base"], results["tree"]

    mismatches = [case for case in cases if theirs[case["id"]] != ours[case["id"]]]
    mismatched = {case["id"] for case in mismatches}
    expected = [case for case in mismatches
                if case["id"] in args.expect or case["kind"] in args.expect]
    unexpected = [case for case in mismatches if case not in expected]
    print(f"identity: {title} against the working tree")
    for kind in dict.fromkeys(case["kind"] for case in cases):
        of_kind = [case for case in cases if case["kind"] == kind]
        raised = sum(ours[case["id"]].startswith("raised ") for case in of_kind)
        missed = sum(case["id"] in mismatched for case in of_kind)
        traced = sum(case.get("traced", False) for case in of_kind)
        notes = f" ({traced} traced, {raised} raised)" if kind == "run" else ""
        print(f"  {kind:<9}{len(of_kind):4d} cases, {missed} mismatches{notes}")
    for label, listed in (("MISMATCH", unexpected), ("EXPECTED MISMATCH", expected)):
        for case in listed:
            print(f"{label} {case['id']}: {describe(case)}\n"
                  f"  {base}: {theirs[case['id']]}\n  working tree: {ours[case['id']]}")
    print(f"identity: {len(cases)} cases, {len(unexpected)} unexpected and {len(expected)} "
          f"expected mismatches against {base} in {time.monotonic() - start:.0f} s")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
