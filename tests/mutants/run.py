#!/usr/bin/env python3
"""Mutation runner: shows that every catalogued gate still bites.

Each ``*.patch`` in this directory is one mutant: a ``git apply`` patch
against the tree, preceded by a header naming what it breaks and what must
kill it::

    Mutant: provably_empty() returns false
    Gate: one-shot residue edges are pruned
    Kill: ctest cube_partials_test
    Kill: ctest bench_exp_cube_quick

``Kill: ctest NAME`` names one ctest entry (the ``bench_*`` entries run the
bench binaries' gates). A mutant dies when every one of its entries fails.

The runner never touches the working tree. It copies the tree (tracked and
untracked, not ignored, files) to a temporary directory, builds it once
(Release, Ninja), runs every named entry on the unmutated copy (all must
pass), then per mutant applies the patch, rebuilds incrementally, runs its
entries and reverts the patch. It exits non-zero when the unmutated copy
fails a named entry, a patch no longer applies or no longer builds, or a
mutant survives.

Usage: python3 tests/mutants/run.py [--jobs N] [--only SUBSTR ...]
"""

import argparse
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


class Mutant:
    def __init__(self, path):
        self.path = path
        self.name = path.stem
        self.title = ""
        self.kills = []  # ctest entry names
        self.text = path.read_text()  # read once: edits during a run are moot
        for line in self.text.splitlines():
            if line.startswith("diff --git"):
                break
            if line.startswith("Mutant:"):
                self.title = line.split(":", 1)[1].strip()
            m = re.match(r"Kill:\s*ctest\s+(\S+)\s*$", line)
            if m:
                self.kills.append(m.group(1))
        if not self.kills:
            raise SystemExit(f"{path.name}: no 'Kill:' line")


def log(msg):
    print(msg, flush=True)


def tree_files(root):
    """The files of the working tree that git would see: tracked plus
    untracked, minus ignored."""
    out = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=root, check=True, capture_output=True).stdout
    return [f for f in out.decode().split("\0") if f]


def copy_tree(root, dest):
    for rel in tree_files(root):
        src = root / rel
        if not src.is_file():
            continue  # deleted but still tracked
        out = dest / rel
        out.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(src, out)


def run(cmd, cwd, logfile, env=None):
    with open(logfile, "a") as f:
        f.write(f"$ {shlex.join(cmd)}\n")
        f.flush()
        return subprocess.run(cmd, cwd=cwd, stdout=f, stderr=subprocess.STDOUT,
                              env=env).returncode


def ctest(name):
    return ["ctest", "-R", f"^{re.escape(name)}$", "--no-tests=error"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 2)
    ap.add_argument("--only", nargs="*", default=[],
                    help="run only mutants whose file name contains one of these")
    args = ap.parse_args()

    mutants = [Mutant(p) for p in sorted(HERE.glob("*.patch"))]
    if args.only:
        mutants = [m for m in mutants if any(s in m.name for s in args.only)]
    if not mutants:
        raise SystemExit("no mutants selected")

    work = Path(tempfile.mkdtemp(prefix="sensornet-mutants-"))
    src, build, logs = work / "src", work / "build", work / "logs"
    logs.mkdir()
    (work / "patches").mkdir()
    for m in mutants:
        m.copy = work / "patches" / m.path.name
        m.copy.write_text(m.text)
    # git apply must not find a repository above the copy.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(work))
    failures = []
    passed = False  # keep the work dir after a failure or an abort
    try:
        log(f"copying the tree to {src}")
        copy_tree(ROOT, src)
        t0 = time.time()
        build_log = logs / "build.log"
        if run(["cmake", "-S", str(src), "-B", str(build), "-G", "Ninja",
                "-DCMAKE_BUILD_TYPE=Release"], work, build_log) != 0 or \
                run(["cmake", "--build", str(build), "-j", str(args.jobs)],
                    work, build_log) != 0:
            raise SystemExit(f"the unmutated tree does not build: {build_log}")
        log(f"built in {time.time() - t0:.0f} s")

        kills = sorted({k for m in mutants for k in m.kills})
        for name in kills:
            if run(ctest(name), build, logs / "unmutated.log", env) != 0:
                failures.append(f"unmutated tree fails ctest {name}")
        if failures:
            for f in failures:
                log(f"FAIL: {f}")
            log(f"see {logs / 'unmutated.log'}")
            return 1
        log(f"unmutated tree passes all {len(kills)} named ctest entries")

        for m in mutants:
            mlog = logs / f"{m.name}.log"
            patch = str(m.copy)
            if run(["git", "apply", patch], src, mlog, env) != 0:
                failures.append(f"{m.name}: patch no longer applies")
                log(f"FAIL  {m.name}: patch no longer applies")
                continue
            t0 = time.time()
            if run(["cmake", "--build", str(build), "-j", str(args.jobs)],
                   work, mlog) != 0:
                failures.append(f"{m.name}: mutant does not build")
                log(f"FAIL  {m.name}: mutant does not build ({mlog})")
            else:
                alive = [name for name in m.kills
                         if run(ctest(name), build, mlog, env) == 0]
                took = time.time() - t0
                if alive:
                    failures.append(f"{m.name}: survives {', '.join(alive)}")
                    log(f"FAIL  {m.name}: survives {', '.join(alive)}")
                else:
                    log(f"killed {m.name} ({m.title}) by {len(m.kills)} "
                        f"ctest entr{'y' if len(m.kills) == 1 else 'ies'}, "
                        f"{took:.0f} s")
            if run(["git", "apply", "-R", patch], src, mlog, env) != 0:
                failures.append(f"{m.name}: patch does not revert")
                log(f"FAIL  {m.name}: patch does not revert")
                break
        passed = not failures
    finally:
        if not passed:
            log(f"work directory kept: {work}")
        else:
            shutil.rmtree(work, ignore_errors=True)

    log(f"{len(mutants) - len(failures)}/{len(mutants)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
