#!/usr/bin/env python3
"""Paired A/B timing of the end-to-end benchmark between two git revisions.

  tools/ab_pairs.py --base REV --head REV [--workload W ...] [--seed N ...]
                    [--pairs 10] [--seconds 1] [--cpu 2] [--json out.jsonl]
                    [--summary out.md] [--workdir DIR] [--keep]

Each revision is checked out into its own `git worktree` under --workdir,
and bench/e2e is configured and built fresh there (Release). A fresh
configure matters: a build directory copied from another tree keeps the
source path it was configured with (CMAKE_HOME_DIRECTORY) and silently
builds that tree instead, so the script also checks the cache.

For every workload and seed it then runs N pairs of one-workload runs
(`e2e_bench --workload W --seed S --seconds T --trace 0`), each pinned with
`taskset` to one CPU, alternating which side runs first. A run is scored
with bench/e2e/run.py's own end-to-end metrics (ops_per_s is its fastest
rep's rate). A child's CPU time comes from os.wait4; a pair is dropped when
either side's CPU/wall ratio is below 0.95 (the run was descheduled). Over
the kept pairs it reports the median head/base ratio, a seeded bootstrap
95% confidence interval of that median, the sign count (pairs where head
beat base) and a verdict: faster when the interval lies above 1, slower
when below, else unresolved. It also applies the benchmark's rule for a
claimed gain ("gain shown"): head faster in at least nine pairs of ten, and
head's median ops/s ahead of base's by more than base's p25..p75 distance
(run.py's quartiles). Both sides' simulated metrics are compared too: a
change that claims only host speed must leave them identical.

One JSONL row per (workload, seed) carries the statistics, every pair's raw
numbers and provenance (both revisions, host, CPU, settings). Exits
nonzero when a build fails or a run reports a failed operation.
"""

import argparse
import importlib.util
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True  # leave no __pycache__ in bench/e2e


def _load_e2e_runner():
    """bench/e2e/run.py, read-only: its workloads, per-run metrics and spread
    are the benchmark's own, so this tool scores runs the way its verdict does."""
    path = os.path.join(ROOT, "bench", "e2e", "run.py")
    spec = importlib.util.spec_from_file_location("e2e_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


e2e = _load_e2e_runner()
# A run whose CPU/wall ratio (os.wait4) is below this was descheduled.
MIN_CPU_RATIO = 0.95
BOOTSTRAP_ITERS = 10000
BOOTSTRAP_SEED = 12345


# --- Statistics (pinned by tools/ab_pairs_test.py). ---

def bootstrap_ci(xs):
    """Percentile bootstrap 95% interval of the median, from a seeded RNG."""
    rng = random.Random(BOOTSTRAP_SEED)
    n = len(xs)
    meds = sorted(statistics.median([xs[rng.randrange(n)] for _ in range(n)])
                  for _ in range(BOOTSTRAP_ITERS))
    return meds[int(0.025 * (BOOTSTRAP_ITERS - 1))], meds[int(0.975 * (BOOTSTRAP_ITERS - 1))]


def summarize(pairs):
    """Statistics over `pairs`, each {"base": run, "head": run} where a run
    has "ops_per_s" and "cpu_ratio". A pair with either side under
    MIN_CPU_RATIO is dropped."""
    kept = [p for p in pairs
            if p["base"]["cpu_ratio"] >= MIN_CPU_RATIO and p["head"]["cpu_ratio"] >= MIN_CPU_RATIO]
    out = {"pairs": len(pairs), "kept": len(kept), "dropped": len(pairs) - len(kept)}
    if not kept:
        return {**out, "verdict": "unresolved", "gain_shown": False}
    ratios = [p["head"]["ops_per_s"] / p["base"]["ops_per_s"] for p in kept]
    base_q1, base_med, base_q3 = e2e.quartiles([p["base"]["ops_per_s"] for p in kept])
    head_q1, head_med, head_q3 = e2e.quartiles([p["head"]["ops_per_s"] for p in kept])
    wins = sum(r > 1 for r in ratios)
    lo, hi = bootstrap_ci(ratios)
    out.update({
        "median_ratio": statistics.median(ratios),
        "ci95": [lo, hi],
        "head_wins": wins,
        "head_losses": sum(r < 1 for r in ratios),
        "base_ops_per_s": {"median": base_med, "p25_p75": [base_q1, base_q3]},
        "head_ops_per_s": {"median": head_med, "p25_p75": [head_q1, head_q3]},
        # A claimed gain counts as shown when head wins at least nine pairs
        # in ten and its median leads the base's by more than the base's
        # p25..p75 distance.
        "gain_shown": wins >= 0.9 * len(kept) and head_med - base_med > base_q3 - base_q1,
        "verdict": "faster" if lo > 1 else "slower" if hi < 1 else "unresolved",
    })
    return out


# --- Builds and runs. ---

def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def prepare(repo, rev, workdir):
    """Checks `rev` out into a worktree and builds its e2e_bench there."""
    sha = git("rev-parse", "--verify", rev + "^{commit}", cwd=repo)
    tree = os.path.join(workdir, sha[:12])
    if not os.path.isdir(tree):
        git("worktree", "add", "--detach", tree, sha, cwd=repo)
    src = os.path.join(tree, "bench", "e2e")
    build = os.path.join(tree, "build", "ab-e2e")
    subprocess.run(["cmake", "-S", src, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=subprocess.DEVNULL)
    home = None
    with open(os.path.join(build, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                home = line.split("=", 1)[1].strip()
    if home is None or os.path.realpath(home) != os.path.realpath(src):
        raise SystemExit(f"ab_pairs: {build} is configured for {home}, not {src}")
    subprocess.run(["cmake", "--build", build, "--target", "e2e_bench", "-j", "4"],
                   check=True, stdout=subprocess.DEVNULL)
    return {"rev": rev, "sha": sha, "tree": tree,
            "subject": git("log", "-1", "--format=%s", sha, cwd=repo),
            "binary": os.path.join(build, "e2e_bench")}


def run_once(binary, workload, seed, seconds, cpu):
    """One pinned run: the benchmark's end-to-end metrics and the CPU/wall ratio."""
    cmd = ["taskset", "-c", str(cpu), binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"ab_pairs: {' '.join(cmd)} exited {proc.returncode}")
    row = json.loads(lines[-1])
    if row.get("failed", 0) != 0:
        raise SystemExit(f"ab_pairs: {workload} seed {seed} reported failed operations")
    cpu_s = usage.ru_utime + usage.ru_stime
    return {**e2e.e2e_metrics(row), "cpu_ratio": cpu_s / wall, "wall_s": wall}


def markdown(rows):
    out = ["| workload | seed | kept | head/base (median) | 95% CI | head wins | verdict "
           "| gain shown | sim |",
           "|---|---|---|---|---|---|---|---|---|"]
    for r in rows:
        s = r["stats"]
        if "median_ratio" not in s:
            out.append(f"| {r['workload']} | {r['seed']} | 0/{s['pairs']} | - | - | - | "
                       f"unresolved | no | - |")
            continue
        out.append(f"| {r['workload']} | {r['seed']} | {s['kept']}/{s['pairs']} | "
                   f"{s['median_ratio']:.3f}x | {s['ci95'][0]:.3f}-{s['ci95'][1]:.3f} | "
                   f"{s['head_wins']}/{s['kept']} | {s['verdict']} | "
                   f"{'yes' if s['gain_shown'] else 'no'} | "
                   f"{'identical' if r['sim_identical'] else 'CHANGED'} |")
    return "\n".join(out) + "\n"


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--base", required=True, help="revision measured as the baseline")
    p.add_argument("--head", required=True, help="revision measured against it")
    p.add_argument("--workload", action="append", choices=e2e.WORKLOADS,
                   help="repeatable; default lookup_8k")
    p.add_argument("--seed", action="append", type=int, help="repeatable; default 1")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=1.0, help="e2e_bench --seconds per run")
    p.add_argument("--cpu", type=int, default=min(2, (os.cpu_count() or 1) - 1),
                   help="CPU every run is pinned to")
    p.add_argument("--repo", default=ROOT, help="repository the revisions live in")
    p.add_argument("--workdir", default=os.path.join(ROOT, "build", "ab_pairs"),
                   help="where the worktrees go")
    p.add_argument("--keep", action="store_true", help="keep the worktrees (reuse builds)")
    p.add_argument("--json", help="append one JSONL row per workload and seed here")
    p.add_argument("--summary", help="append a markdown table here")
    args = p.parse_args()

    os.makedirs(args.workdir, exist_ok=True)
    sides = {}
    try:
        for name in ("base", "head"):
            sides[name] = prepare(args.repo, getattr(args, name), args.workdir)
        host = {"nproc": os.cpu_count(), "machine": platform.machine(),
                "kernel": platform.release(), "cpu": args.cpu}
        try:
            with open("/proc/cpuinfo") as f:
                host["model"] = next(l.split(":", 1)[1].strip() for l in f
                                     if l.startswith("model name"))
        except (OSError, StopIteration):
            pass
        rows = []
        for workload in args.workload or ["lookup_8k"]:
            for seed in args.seed or [1]:
                pairs = []
                for i in range(args.pairs):
                    order = ("base", "head") if i % 2 == 0 else ("head", "base")
                    pair = {"first": order[0]}
                    for name in order:
                        pair[name] = run_once(sides[name]["binary"], workload, seed,
                                              args.seconds, args.cpu)
                    pairs.append(pair)
                stats = summarize(pairs)
                row = {
                    "tool": "ab_pairs", "workload": workload, "seed": seed,
                    "metric": "ops_per_s (fastest rep, bench/e2e/run.py)",
                    "base": {k: sides["base"][k] for k in ("rev", "sha", "subject")},
                    "head": {k: sides["head"][k] for k in ("rev", "sha", "subject")},
                    "seconds": args.seconds, "min_cpu_ratio": MIN_CPU_RATIO,
                    "host": host, "stats": stats,
                    "sim_identical": all(pp["base"][m] == pp["head"][m]
                                         for pp in pairs for m in e2e.SIM_METRICS),
                    "setup_ratio": statistics.median([pp["head"]["setup_s"] / pp["base"]["setup_s"]
                                           for pp in pairs]),
                    "rss_ratio": statistics.median([pp["head"]["peak_rss_mb"] / pp["base"]["peak_rss_mb"]
                                         for pp in pairs]),
                    "pairs": pairs,
                }
                rows.append(row)
                s = stats
                if "median_ratio" in s:
                    print(f"{workload} seed {seed}: head/base {s['median_ratio']:.3f}x "
                          f"(95% CI {s['ci95'][0]:.3f}-{s['ci95'][1]:.3f}), head faster in "
                          f"{s['head_wins']}/{s['kept']} kept pairs ({s['dropped']} dropped), "
                          f"{s['verdict']}, gain {'shown' if s['gain_shown'] else 'not shown'}; sim {'identical' if row['sim_identical'] else 'CHANGED'}",
                          flush=True)
                else:
                    print(f"{workload} seed {seed}: every pair dropped, unresolved", flush=True)
                if args.json:
                    with open(args.json, "a") as f:
                        f.write(json.dumps(row) + "\n")
        if args.summary:
            with open(args.summary, "a") as f:
                f.write(f"### ab_pairs: {args.head} vs {args.base}\n\n" + markdown(rows))
    finally:
        if not args.keep:
            for side in sides.values():
                subprocess.run(["git", "worktree", "remove", "--force", side["tree"]],
                               cwd=args.repo, capture_output=True)
            if os.path.isdir(args.workdir) and not os.listdir(args.workdir):
                shutil.rmtree(args.workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
