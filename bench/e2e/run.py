#!/usr/bin/env python3
"""End-to-end benchmark runner (see README.md).

  run.py [--seed N] [--json out.jsonl]     full run: build, 5 rounds of every
                                           workload plus one traced round,
                                           every metric printed with its unit
  run.py --workload W --seed N --seconds S --trace 0|1
                                           one measured run; the last stdout
                                           line is the result object
  run.py --compare A.jsonl B.jsonl         verdict per workload x metric,
                                           using the bounds in BENCHMARK.json
  run.py --smoke --binary PATH             the e2e_smoke ctest

Builds bench/e2e into build/e2e/ from the checkout's own src/. Exits nonzero
when the build fails, a result is wrong, or (--compare) a metric regressed.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
BUILD = os.path.join(ROOT, "build", "e2e")
WORKLOADS = ["lookup_8k", "sharded_churn", "sharded_open_25", "tc_paper"]
# Simulated statistics repeat exactly for a seed: any change is a change to
# the model, never noise.
SIM_METRICS = ("sim_cycles_per_op", "sim_latency_p50_cycles", "sim_latency_p99_cycles")
ROUNDS = 5
SECONDS_PER_PROCESS = 3
SMOKE_SCALE = "0.02"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "e2e_bench", "-j", "4"],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "e2e_bench")


def run_binary(binary, workload, seed, *args):
    """Runs one e2e_bench process; returns (row or None, exit code)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), *args]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    row = json.loads(lines[-1]) if lines else None
    return row, proc.returncode


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def e2e_metrics(row):
    """End-to-end metric values of one untraced process."""
    sim = row["sim"]
    return {
        # The fastest rep: interference from other tenants of the host only
        # ever slows a rep down, and lasts seconds, so the fastest of a run's
        # reps is the steadiest estimate of the program's own speed.
        "ops_per_s": max(r["ops"] / r["wall_s"] for r in row["reps"]),
        "setup_s": row["setup_s"]["median"],
        "peak_rss_mb": row["peak_rss_mb"],
        "sim_cycles_per_op": sim["cycles"] / sim["ops"],
        "sim_latency_p50_cycles": sim["latency_p50"],
        "sim_latency_p99_cycles": sim["latency_p99"],
    }


def provenance(row):
    """The process's own provenance plus what only the checkout knows."""
    prov = dict(row["provenance"])
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    prov["git_rev"] = rev
    prov["src_sha256"] = digest.hexdigest()
    return prov


def single_run(args, spec):
    """One run for an outside driver: the last stdout line is the result."""
    binary = build()
    row, code = run_binary(binary, args.workload, args.seed, "--seconds", str(args.seconds),
                           "--trace", str(args.trace))
    if row is None:
        log(f"e2e_bench produced no result (exit {code})")
        return 1
    if args.trace:
        values, units = row["layers"], {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values, units = e2e_metrics(row), {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print("# provenance " + json.dumps(provenance(row), sort_keys=True))
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name} {values[name]!r} {unit}")
    correct = code == 0 and row["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": row["attempted"],
                      "failed": row["failed"], "metrics": metrics}))
    return 0 if correct else 1


def full_run(args, spec):
    binary = build()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    per = {w: {"rows": [], "codes": []} for w in WORKLOADS}
    for rnd in range(ROUNDS):
        order = WORKLOADS if rnd % 2 == 0 else WORKLOADS[::-1]
        for w in order:
            log(f"round {rnd + 1}/{ROUNDS}: {w}")
            row, code = run_binary(binary, w, args.seed, "--seconds", str(SECONDS_PER_PROCESS))
            per[w]["codes"].append(code)
            if row is not None:
                per[w]["rows"].append(row)
    for w in WORKLOADS:
        log(f"traced round: {w}")
        row, code = run_binary(binary, w, args.seed, "--seconds", str(SECONDS_PER_PROCESS),
                               "--trace", "1")
        per[w]["codes"].append(code)
        per[w]["traced"] = row

    ok = True
    out_rows = []
    for w in WORKLOADS:
        rows, traced = per[w]["rows"], per[w].get("traced")
        if len(rows) != ROUNDS or traced is None:
            log(f"{w}: a process produced no result (exit codes {per[w]['codes']})")
            ok = False
            continue
        attempted = sum(r["attempted"] for r in rows) + traced["attempted"]
        failed = sum(r["failed"] for r in rows) + traced["failed"]
        per_process = [e2e_metrics(r) for r in rows]
        samples = {m: [v[m] for v in per_process] for m in per_process[0]}
        sims_repeat = all(r["sim"] == rows[0]["sim"] for r in rows)
        if failed or not sims_repeat or any(per[w]["codes"]):
            ok = False
        metrics = {}
        print(f"\n{w}  (seed {args.seed})")
        for name, vals in samples.items():
            q1, med, q3 = quartiles(vals)
            metrics[name] = {"median": med, "p25": q1, "p75": q3, "n": len(vals),
                             "unit": units[name], "samples": vals}
            print(f"  {name:<28} {med:>16.6g} {units[name]:<10} p25 {q1:.6g}  p75 {q3:.6g}"
                  f"  n {len(vals)}")
        print(f"  {'failed_frac':<28} {failed / max(attempted, 1):>16.6g} {'fraction':<10}"
              f" ({failed} of {attempted}; sim metrics repeat: {sims_repeat})")
        print("  per-layer (traced round):")
        for name, value in traced["layers"].items():
            print(f"    {name:<30} {value:>14.6g} {units.get(name, '')}")
        out_rows.append({"kind": "e2e", "workload": w, "seed": args.seed,
                         "provenance": provenance(rows[0]), "metrics": metrics,
                         "failed_frac": failed / max(attempted, 1), "attempted": attempted,
                         "failed": failed, "layers": traced["layers"]})
    if args.json:
        with open(args.json, "w") as f:
            for r in out_rows:
                f.write(json.dumps(r, sort_keys=True) + "\n")
    print("\nresult: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def verdict(name, better, bound, a, b):
    """ok / regressed / unresolved (spread wider than the bound) / changed."""
    _, a_med, _ = quartiles(a)
    _, b_med, _ = quartiles(b)
    if name in SIM_METRICS:
        return "ok" if a_med == b_med else "changed"
    worse = (b_med - a_med) / a_med if better == "lower" else (a_med - b_med) / a_med
    spread = max((q3 - q1) / med for q1, med, q3 in (quartiles(a), quartiles(b)))
    if spread > bound:
        b_wins = max(b) < min(a) if better == "lower" else min(b) > max(a)
        return "ok" if b_wins else "unresolved"
    return "regressed" if worse > bound else "ok"


def compare(args, spec):
    def load(path):
        with open(path) as f:
            return {r["workload"]: r for r in map(json.loads, f) if r.get("kind") == "e2e"}

    a, b = load(args.compare[0]), load(args.compare[1])
    regressed = False
    print(f"{'workload':<16} {'metric':<24} {'A median':>12} {'A p25..p75':>24} "
          f"{'B median':>12} {'B p25..p75':>24} {'bound':>6}  verdict")
    for w in WORKLOADS:
        if w not in a or w not in b:
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            if name not in a[w]["metrics"] or name not in b[w]["metrics"]:
                continue
            sa, sb = a[w]["metrics"][name]["samples"], b[w]["metrics"][name]["samples"]
            v = verdict(name, m["better"], m["bound"], sa, sb)
            regressed |= v == "regressed"
            qa, qb = quartiles(sa), quartiles(sb)
            print(f"{w:<16} {name:<24} {qa[1]:>12.6g} {qa[0]:>11.5g}..{qa[2]:<11.5g} "
                  f"{qb[1]:>12.6g} {qb[0]:>11.5g}..{qb[2]:<11.5g} {m['bound']:>6}  {v}")
    return 1 if regressed else 0


def smoke(args):
    ok = True
    for w in WORKLOADS:
        for seed in (1, 2):
            runs = [run_binary(args.binary, w, seed, "--scale", SMOKE_SCALE, "--seconds", "0")
                    for _ in range(2)]
            good = all(row is not None and code == 0 and row["failed"] == 0
                       for row, code in runs)
            same = good and json.dumps(runs[0][0]["sim"], sort_keys=True) == json.dumps(
                runs[1][0]["sim"], sort_keys=True)
            print(f"{w} seed {seed}: {'ok' if good and same else 'FAILED'}")
            ok = ok and good and same
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", help="full run: write one JSON row per workload here")
    p.add_argument("--compare", nargs=2, metavar=("A.jsonl", "B.jsonl"))
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--binary", help="--smoke: the built e2e_bench")
    args = p.parse_args()
    try:
        if args.smoke:
            return smoke(args)
        spec = load_spec()
        if args.compare:
            return compare(args, spec)
        if args.workload:
            return single_run(args, spec)
        return full_run(args, spec)
    except (OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        log(f"run.py: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
