#!/usr/bin/env python3
"""Self-test of the service benchmark, through run.py like any caller.

    python3 servicebench/selftest.py determinism [--quick]
        Per workload: seed S twice and seed S+1 once (traced once too). The
        deterministic metrics must be bit-identical for S and differ for
        S+1, every answer must check, and every metric BENCHMARK.json names
        must be printed.

    python3 servicebench/selftest.py spread [--runs 10] [--seed0 1]
                                            [--workload W ...] [--out F]
        Runs each workload once per seed and reports, per end-to-end
        metric, the median and the quartile spread (Q3 - Q1) / median
        against the metric's bound. Fails if a spread exceeds its bound.
        --out saves the values for `compare`.

    python3 servicebench/selftest.py compare FIRST SECOND
        Two saved spread runs of the same build must agree: no metric's
        second median worse than the first by more than its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DETERMINISTIC = ("bits_per_answer", "max_node_bits_per_epoch",
                 "air_rounds_per_epoch", "mean_rel_bound", "ok_op_ratio")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, seconds, trace=0, quick=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def values(result):
    return {k: v["value"] for k, v in result["metrics"].items()}


def determinism(args):
    s = spec()
    seconds = 2 if args.quick else s["run_seconds"]
    ok = True
    for w in [x["name"] for x in s["workloads"]]:
        a, b, c = (run(w, seed, seconds, quick=args.quick)
                   for seed in (1, 1, 2))
        t = run(w, 1, seconds, trace=1, quick=args.quick)
        va, vb, vc = values(a), values(b), values(c)
        same = all(va[m] == vb[m] for m in DETERMINISTIC)
        live = any(va[m] != vc[m] for m in DETERMINISTIC)
        names = {m["name"] for m in s["end_to_end"]} == set(va) and \
            {m["name"] for m in s["per_layer"]} == set(values(t))
        correct = all(r["correct"] and r["failed"] == 0 for r in (a, b, c, t))
        print(f"{w:16s} repeat={same} seed_live={live} "
              f"metrics_complete={names} correct={correct}")
        ok = ok and same and live and names and correct
    return 0 if ok else 1


def spread(args):
    s = spec()
    workloads = args.workload or [x["name"] for x in s["workloads"]]
    bounds = {m["name"]: m["bound"] for m in s["end_to_end"]}
    saved = {}
    ok = True
    for w in workloads:
        runs = [values(run(w, args.seed0 + i, s["run_seconds"]))
                for i in range(args.runs)]
        saved[w] = runs
        print(f"## {w} ({args.runs} seeds)")
        for m, bound in bounds.items():
            xs = [r[m] for r in runs]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            sp = (q3 - q1) / med if med else float("inf")
            flag = "" if sp <= bound / 3 else (
                " WITHIN-BOUND" if sp <= bound else " OVER-BOUND")
            if sp > bound:
                ok = False
            print(f"  {m:26s} median={med:<14.6g} spread={sp:.4f} "
                  f"bound={bound}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(saved, f)
    return 0 if ok else 1


def compare(args):
    s = spec()
    better = {m["name"]: m["better"] for m in s["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in s["end_to_end"]}
    with open(args.first) as f:
        first = json.load(f)
    with open(args.second) as f:
        second = json.load(f)
    ok = True
    for w in first:
        for m in bounds:
            a = statistics.median(r[m] for r in first[w])
            b = statistics.median(r[m] for r in second[w])
            worse = (b - a) / a if better[m] == "lower" else (a - b) / a
            flag = "ok" if worse <= bounds[m] else "WORSE"
            ok = ok and worse <= bounds[m]
            print(f"{w:16s} {m:26s} {a:<14.6g} {b:<14.6g} {worse:+.4f} {flag}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description="service benchmark self-test")
    sub = ap.add_subparsers(dest="cmd", required=True)
    d = sub.add_parser("determinism")
    d.add_argument("--quick", action="store_true")
    sp = sub.add_parser("spread")
    sp.add_argument("--runs", type=int, default=10)
    sp.add_argument("--seed0", type=int, default=1)
    sp.add_argument("--workload", action="append")
    sp.add_argument("--out")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = ap.parse_args()
    return {"determinism": determinism, "spread": spread,
            "compare": compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
