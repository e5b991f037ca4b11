"""Record a parent/change benchmark comparison as one BENCH_*.json file.

Runs `bench/run.py --trace 0` on every workload for two checkouts of
stormlab, alternating which side runs first from pair to pair, keeps the
final JSON line of each run, and writes per-workload medians and quartiles
of every end-to-end metric, the change's wins per pair, the machine and the
wall time of acceptance criteria 6-9 in each checkout:

    python3 tools/bench_record.py --parent ../parent --change . \\
        --pairs 5 --seeds 1 7 --out BENCH_6.json

Every run uses bench/run.py's own default run length.

Each checkout runs its own `bench/` against its own `src/`, so compare two
checkouts whose `bench/` directories are identical.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("bench_run", os.path.join(ROOT, "bench", "run.py"))
bench_run_module = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run_module)

WORKLOADS = bench_run_module.WORKLOADS
# metric -> True when higher is better
BETTER_HIGHER = {"setup_s": False, "wall_s": False, "seed_steps_per_s": True,
                 "peak_rss_mb": False}
CRITERIA = ("06", "07", "08", "09")
CRITERION_LINE = re.compile(r"^(PASS|FAIL) criterion +(\d+) .*\[([0-9.]+)s < ")


def machine_block() -> dict:
    """The bench's own machine block plus the BLAS numpy was built with."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {**bench_run_module.machine_block(),
            "blas": {"name": blas.get("name"), "version": blas.get("version")}}


def source_digest(checkout) -> str:
    """SHA-256 over the names and bytes of the checkout's src/ Python files."""
    h = hashlib.sha256()
    src = os.path.join(checkout, "src")
    for root, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    h.update(os.path.relpath(path, src).encode() + b"\0" + fh.read())
    return h.hexdigest()


def run_bench(checkout, workload, seed) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def tier1_criteria(checkout) -> dict:
    """Wall seconds of acceptance criteria 6-9, as the tests report them."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    select = " or ".join(f"criterion_{c}" for c in CRITERIA)
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "tests/test_acceptance.py", "-k", select]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                          check=False)
    times = {}
    for line in proc.stdout.splitlines():
        match = CRITERION_LINE.match(line.lstrip("."))
        if match:
            times[f"criterion_{int(match[2])}"] = {"passed": match[1] == "PASS",
                                                    "s": float(match[3])}
    return times


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs) -> dict:
    """Per-workload statistics of both sides, from pairs of runs."""
    out = {}
    for key, pairs in runs.items():
        entry = {"failed_operations": {side: sum(p[side]["failed"] for p in pairs)
                                       for side in ("parent", "change")},
                 "metrics": {}}
        for metric, higher in BETTER_HIGHER.items():
            values = {side: [p[side]["metrics"][metric]["value"] for p in pairs]
                      for side in ("parent", "change")}
            wins = sum((c > p) if higher else (c < p)
                       for p, c in zip(values["parent"], values["change"]))
            stats = {side: quartiles(v) for side, v in values.items()}
            entry["metrics"][metric] = {
                **stats,
                "unit": pairs[0]["parent"]["metrics"][metric]["unit"],
                "better": "higher" if higher else "lower",
                "change_over_parent": stats["change"]["median"] / stats["parent"]["median"],
                "change_wins": f"{wins}/{len(pairs)}",
                "runs": values,
            }
        out[key] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2: quartiles need two runs per side")
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    runs = {}
    for workload in WORKLOADS:
        for seed in args.seeds:
            key = f"{workload} seed {seed}"
            runs[key] = []
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                result = {}
                for side in order:
                    result[side] = run_bench(checkouts[side], workload, seed)
                    print(f"{key} pair {pair + 1} {side}: "
                          + json.dumps({m: round(v["value"], 4)
                                        for m, v in result[side]["metrics"].items()}),
                          flush=True)
                runs[key].append(result)

    doc = {
        "recorded": time.strftime("%Y-%m-%d", time.gmtime()),
        "machine": machine_block(),
        "command": "bench/run.py --trace 0",
        "pairs": args.pairs,
        "order": "alternating: parent first in odd-numbered pairs",
        "sources": {side: {"src_sha256": source_digest(path)} for side, path in checkouts.items()},
        "workloads": summarize(runs),
        "tier1_criteria_s": {side: tier1_criteria(path) for side, path in checkouts.items()},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
