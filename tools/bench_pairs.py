"""Benchmark a change against its parent in alternating pairs and write a BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent HEAD --workloads opent-cue ep-cue:4 \
        --seeds 1001-1012 --out BENCH_n.json --claim opent-cue:samples_per_ref

Run from the root of a checkout.  Both sides hold the same files in a
temporary directory of their own: src/, perfbench/, BENCHMARK.json and
pyproject.toml, taken by `git archive` from the --parent rev on the
parent side and copied from the working tree on the change side, so
that neither side runs on the other's files or perfbench/out/ and
neither is laid out differently.  Pair i runs `perfbench/run.py` once
on each side with the i-th seed for BENCHMARK.json's run_seconds, the
parent first on odd pairs (1, 3, ...) and the change first on even
ones.  Pairs run in seed order, and each pair runs the workloads in the
order given; a workload given as name:k runs in the first k pairs only.
Every result line is kept, with the side that ran first, the run's
failed checks and its `setup_parts` from perfbench's run record.

Per workload and end-to-end metric of BENCHMARK.json, the summary holds
each side's median and quartiles (statistics.quantiles, n = 4,
exclusive method), the parent's quartile spread, the pairs the change
won in the direction the metric counts as better, whether the change's
median is worse than the parent's by more than the metric's relative
bound, and whether the metric is unresolved: the parent's quartile
spread exceeds the bound relative to its median and the change did not
win every pair.  With --claim workload:metric, the report says whether
that gain holds: at least ten pairs, better on at least nine in ten of
them, a median better by more than the parent's quartile spread, no
larger share of failed operations and no fewer correct runs than the
parent on any workload, and no metric worse beyond its bound anywhere.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib.metadata import version

SIDE_FILES = ("src", "perfbench", "BENCHMARK.json", "pyproject.toml")
IGNORED = shutil.ignore_patterns("out", "__pycache__", "*.pyc")
SIDES = ("parent", "change")
MIN_PAIRS = 10


def parse_seeds(text: str) -> list[int]:
    """'24201-24212' or '1,5,9' (ranges and single seeds, comma separated) as a list."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout.strip()


def prepare(parent: str, workdir: str) -> dict[str, str]:
    """The two sides' directories, each holding SIDE_FILES: the parent rev's and the working tree's."""
    dirs = {side: os.path.join(workdir, side) for side in SIDES}
    for path in dirs.values():
        os.makedirs(path)
    archive = subprocess.run(["git", "archive", parent, "--", *SIDE_FILES],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dirs["parent"]], input=archive, check=True)
    for name in SIDE_FILES:
        if os.path.isdir(name):
            shutil.copytree(name, os.path.join(dirs["change"], name), ignore=IGNORED)
        else:
            shutil.copy2(name, dirs["change"])
    return dirs


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in `root`: its result line, failed checks and setup_parts."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "error": proc.stderr.strip().splitlines()[-5:]}
    result = json.loads(lines[-1])
    out = {"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
           "metrics": {name: m["value"] for name, m in result["metrics"].items()}}
    try:
        with open(os.path.join(root, "perfbench", "out", f"run-{workload}-seed{seed}.json"),
                  encoding="utf-8") as fh:
            record = json.load(fh)
        out["setup_parts"] = record.get("setup_parts")
        out["failed_checks"] = record.get("problems", [])
    except (OSError, ValueError):
        pass
    return out


def quartiles(values: list[float]) -> list[float]:
    """[Q1, Q3]; a single value is both."""
    if len(values) < 2:
        return values * 2
    q = statistics.quantiles(values, n=4)
    return [q[0], q[2]]


def summarise(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload: run health, and per metric the medians, quartiles, pairs won and bound checks."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        by_seed = {}
        for r in mine:
            by_seed.setdefault(r["seed"], {})[r["side"]] = r
        pairs = [p for p in by_seed.values() if len(p) == 2]
        entry = {
            "pairs": len(pairs),
            "correct_runs": {s: sum(r["correct"] for r in mine if r["side"] == s) for s in SIDES},
            "attempted_operations": {s: sum(r["attempted"] for r in mine if r["side"] == s) for s in SIDES},
            "failed_operations": {s: sum(r["failed"] for r in mine if r["side"] == s) for s in SIDES},
        }
        for metric in metrics:
            name, lower, bound = metric["name"], metric["better"] == "lower", metric["bound"]
            both = [p for p in pairs if all(name in p[s]["metrics"] for s in SIDES)]
            if not both:
                continue
            values = {s: [p[s]["metrics"][name] for p in both] for s in SIDES}
            q = {s: quartiles(values[s]) for s in SIDES}
            won = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
            median = {s: statistics.median(values[s]) for s in SIDES}
            spread = q["parent"][1] - q["parent"][0]
            worse = (median["change"] - median["parent"]) * (1 if lower else -1)
            entry[name] = {
                "parent_median": median["parent"],
                "change_median": median["change"],
                "parent_quartiles": q["parent"],
                "change_quartiles": q["change"],
                "parent_quartile_spread": spread,
                "pairs": len(both),
                "pairs_won_by_change": won,
                "bound": bound,
                "worse_beyond_bound": worse > bound * abs(median["parent"]),
                "unresolved": spread > bound * abs(median["parent"]) and won < len(both),
            }
        summary[workload] = entry
    return summary


def claim_verdict(summary: dict, metrics: list[dict], workload: str, metric: str) -> dict:
    """Whether the change's claimed gain on workload:metric holds, and the conditions it misses."""
    missed = []
    stats = summary.get(workload, {}).get(metric)
    if stats is None:
        missed.append(f"no pairs of {workload}:{metric}")
    else:
        lower = next(m["better"] == "lower" for m in metrics if m["name"] == metric)
        gain = (stats["change_median"] - stats["parent_median"]) * (-1 if lower else 1)
        if stats["pairs"] < MIN_PAIRS:
            missed.append(f"{stats['pairs']} pairs, fewer than {MIN_PAIRS}")
        if 10 * stats["pairs_won_by_change"] < 9 * stats["pairs"]:
            missed.append(f"won {stats['pairs_won_by_change']} of {stats['pairs']} pairs")
        if gain <= stats["parent_quartile_spread"]:
            missed.append("median gain not beyond the parent's quartile spread")
    for name, entry in summary.items():
        correct, attempted, failed = (entry[k] for k in
                                      ("correct_runs", "attempted_operations", "failed_operations"))
        if correct["change"] < correct["parent"]:
            missed.append(f"{name}: fewer correct runs than the parent")
        if failed["change"] * max(attempted["parent"], 1) > failed["parent"] * max(attempted["change"], 1):
            missed.append(f"{name}: a larger share of failed operations than the parent")
        missed += [f"{name}:{m} worse beyond its bound" for m, stats in entry.items()
                   if isinstance(stats, dict) and stats.get("worse_beyond_bound")]
    return {"workload": workload, "metric": metric, "met": not missed, "missed": missed}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Alternating parent/change pairs of perfbench runs.")
    p.add_argument("--parent", required=True, help="git rev of the parent side")
    p.add_argument("--workloads", nargs="+", required=True, help="name, or name:k for the first k pairs")
    p.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 24201-24212 or 1,3,5")
    p.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    p.add_argument("--claim", default=None, help="workload:metric whose gain the change claims")
    args = p.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        benchmark = json.load(fh)
    seconds = benchmark["run_seconds"]
    workloads = {}
    for spec in args.workloads:
        name, _, pairs = spec.partition(":")
        workloads[name] = int(pairs) if pairs else len(args.seeds)
    parent_sha = git("rev-parse", args.parent)
    workdir = tempfile.mkdtemp(prefix="bench-pairs-")
    try:
        dirs = prepare(args.parent, workdir)
        runs = []
        for i, seed in enumerate(args.seeds, start=1):
            order = SIDES if i % 2 else SIDES[::-1]
            for workload in [w for w, pairs in workloads.items() if i <= pairs]:
                for side in order:
                    run = {"workload": workload, "seed": seed, "pair": i, "side": side,
                           "ran_first": side == order[0]}
                    run.update(run_once(dirs[side], workload, seed, seconds))
                    runs.append(run)
                    print(json.dumps({k: run[k] for k in ("workload", "seed", "side", "correct", "metrics")}),
                          file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    summary = summarise(runs, benchmark["end_to_end"])
    report = {
        "what": "Alternating parent/change pairs of untraced perfbench runs"
                + (f", claiming a gain on {args.claim}" if args.claim else ""),
        "command": f"OPENBLAS_NUM_THREADS=1 python3 perfbench/run.py --workload <workload> "
                   f"--seed <seed> --seconds {seconds:g} --trace 0",
        "commits": {
            "parent": parent_sha,
            "change": f"the working tree over {git('rev-parse', 'HEAD')}",
            "how": "each side holds " + ", ".join(SIDE_FILES) + " in a directory of its own: "
                   "the parent's from a git archive of its rev, the change's copied from the working tree",
        },
        "protocol": {
            "pairs": workloads,
            "seeds": args.seeds,
            "order": "parent first on odd pairs, change first on even pairs; each pair runs "
                     "its workloads in the listed order; pair i uses the i-th seed on both sides",
            "run_seconds": seconds,
            "quartiles": "statistics.quantiles(n=4), exclusive method",
            "unresolved": "the parent's quartile spread exceeds the metric's bound relative to "
                          "its median, and the change did not win every pair",
            "host": f"{os.cpu_count()} cores, Python {platform.python_version()}, "
                    f"numpy {version('numpy')}",
        },
        "unresolved": [f"{w}:{m}" for w, entry in summary.items() for m, stats in entry.items()
                       if isinstance(stats, dict) and stats.get("unresolved")],
    }
    if args.claim:
        report["claim"] = claim_verdict(summary, benchmark["end_to_end"], *args.claim.split(":", 1))
    report.update(summary=summary, runs=runs)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
