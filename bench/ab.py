#!/usr/bin/env python3
"""A/B pairs of one bench command on two git revisions.

Extracts each revision into its own directory (git archive) under a
scratch directory, optionally builds it once, then runs the command on both
sides in alternating order, pair after pair, and reports per metric each
side's median and quartiles, the median of the paired ratios (B / A) with a
bootstrap interval, and how many pairs B was lower in.

    python3 bench/ab.py --a HEAD~1 --b HEAD --pairs 10 --seeds 11 \\
        --metric bits_per_answer --metric setup_s -- \\
        python3 servicebench/run.py --workload standing_shared \\
        --seed {seed} --seconds 20 --trace 0

A revision is anything `git rev-parse` accepts, or `.` for the working tree
as it stands (tracked and untracked files that .gitignore does not hide).
The command runs in the revision's directory; `{seed}` becomes the pair's
seed (the first seed plus the pair index), so both sides of a pair see the
same seed. The last line of the command's standard output must be JSON: a
metric is a dotted path into it, and a bare name NAME also matches
`metrics.NAME.value` (the servicebench result line).
"""
import argparse
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESAMPLES = 2000  # bootstrap resamples of the paired ratios
TIMEOUT_S = 600   # seconds one run may take


def extract(rev, dest):
    """Copies revision `rev` of the repository (or the working tree) to
    `dest`."""
    os.makedirs(dest)
    if rev == ".":
        files = subprocess.run(
            ["git", "ls-files", "-z", "-co", "--exclude-standard"], cwd=ROOT,
            check=True, stdout=subprocess.PIPE).stdout.split(b"\0")
        for f in filter(None, (f.decode() for f in files)):
            src = os.path.join(ROOT, f)
            if not os.path.isfile(src):
                continue  # deleted, not yet staged
            os.makedirs(os.path.dirname(os.path.join(dest, f)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, f))
        return
    blob = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                          check=True, stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest)


def metric(result, name):
    node = result
    if "." not in name and isinstance(result.get("metrics"), dict) \
            and name in result["metrics"]:
        node = result["metrics"][name]
        return float(node["value"] if isinstance(node, dict) else node)
    for key in name.split("."):
        node = node[key]
    return float(node)


def run(cmd, cwd, seed):
    argv = [a.replace("{seed}", str(seed)) for a in cmd]
    proc = subprocess.run(argv, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True,
                          timeout=TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"ab: {' '.join(argv)} exited {proc.returncode} in {cwd}")
    return json.loads(lines[-1])


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def bootstrap(ratios, rng):
    """95% percentile interval of the median paired ratio."""
    medians = sorted(
        statistics.median(rng.choices(ratios, k=len(ratios)))
        for _ in range(RESAMPLES))
    return (medians[int(0.025 * (RESAMPLES - 1))],
            medians[int(0.975 * (RESAMPLES - 1))])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--a", required=True, help="baseline revision")
    ap.add_argument("--b", required=True, help="revision under test")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seeds", type=int, default=1,
                    help="seed of the first pair; pair i gets seeds + i")
    ap.add_argument("--metric", action="append", required=True)
    ap.add_argument("--build", help="shell command run once in each "
                    "revision's directory before the pairs")
    ap.add_argument("--workdir", help="where the revisions are extracted "
                    "(default: a new temporary directory, deleted after)")
    ap.add_argument("--reuse", action="store_true",
                    help="keep revisions already extracted in --workdir "
                    "(and their builds) instead of extracting them again")
    ap.add_argument("command", nargs=argparse.REMAINDER,
                    help="-- then the command to run")
    args = ap.parse_args()
    cmd = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not cmd:
        ap.error("no command after --")

    work = args.workdir or tempfile.mkdtemp(prefix="ab-")
    sides = {"A": os.path.join(work, "a"), "B": os.path.join(work, "b")}
    try:
        for label, rev in (("A", args.a), ("B", args.b)):
            if args.reuse and os.path.isdir(sides[label]):
                continue
            shutil.rmtree(sides[label], ignore_errors=True)
            extract(rev, sides[label])
            if args.build:
                subprocess.run(args.build, shell=True, cwd=sides[label],
                               check=True, stdout=subprocess.DEVNULL)
        values = {label: {m: [] for m in args.metric} for label in sides}
        for i in range(args.pairs):
            seed = args.seeds + i
            # Alternate which side runs first, so drift in the host's speed
            # falls on both sides alike.
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for label in order:
                result = run(cmd, sides[label], seed)
                for m in args.metric:
                    values[label][m].append(metric(result, m))
            print(f"pair {i + 1}/{args.pairs} seed {seed}: " + ", ".join(
                f"{m} A={values['A'][m][-1]:.6g} B={values['B'][m][-1]:.6g}"
                for m in args.metric), file=sys.stderr)
    finally:
        if not args.workdir:
            shutil.rmtree(work, ignore_errors=True)

    rng = random.Random(0)
    print(f"A = {args.a}, B = {args.b}, {args.pairs} pairs, seeds "
          f"{args.seeds}..{args.seeds + args.pairs - 1}")
    for m in args.metric:
        a, b = values["A"][m], values["B"][m]
        ratios = [y / x if x else float("inf") for x, y in zip(a, b)]
        qa, qb = quartiles(a), quartiles(b)
        lo, hi = bootstrap(ratios, rng)
        lower = sum(1 for x, y in zip(a, b) if y < x)
        print(f"{m}: A median {qa[1]:.6g} [Q1 {qa[0]:.6g}, Q3 {qa[2]:.6g}]; "
              f"B median {qb[1]:.6g} [Q1 {qb[0]:.6g}, Q3 {qb[2]:.6g}]; "
              f"B/A median {statistics.median(ratios):.4f} "
              f"(95% bootstrap {lo:.4f}..{hi:.4f}); B lower in "
              f"{lower}/{len(a)} pairs")


if __name__ == "__main__":
    main()
