#!/usr/bin/env python3
"""Same-machine A/B perf gate: this checkout against a parent revision.

    python3 tools/perf_ab.py REV

Nothing is fetched: REV must already be in the local repository. It is
checked out into a temporary `git worktree` under $TMPDIR. For every
workload in BENCHMARK.json, PAIRS interleaved pairs of runs are made, one
per side, each

    python3 perfbench/run.py --workload W --seed <pair+1> \\
        --seconds <run_seconds> --trace 0

from that side's root (BENCHMARK.json's `command`), with each side building
into its own CARGO_TARGET_DIR. Both runs of a pair use the same seed, and the
side that runs first alternates from pair to pair.

Prints, per workload and end-to-end metric, each side's median and quartiles
and the pairs each side won (ties count for neither). Exits 1 if any run is
not `correct`, if this checkout loses a larger share of packets
(`failed`/`attempted`) than REV on some workload, or if some median is worse
than REV's by more than that metric's BENCHMARK.json bound.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 3


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def compare(spec, results):
    """Judge the runs of both sides against BENCHMARK.json's bounds.

    `spec` is the parsed BENCHMARK.json. `results` maps a workload name to
    {"base": [run, ...], "head": [run, ...]}, where a run is the JSON object
    run.py prints last and index i of both lists is pair i. Returns
    (rows, failures): one row dict per workload and end-to-end metric, and
    one message per reason to fail.
    """
    rows, failures = [], []
    for w in spec["workloads"]:
        name = w["name"]
        sides = results[name]
        for side in ("base", "head"):
            for i, run in enumerate(sides[side]):
                if not run["correct"]:
                    failures.append(f"{name}: {side} run of pair {i + 1} "
                                    "is not correct")
        base_loss, head_loss = (failed_share(sides["base"]),
                                failed_share(sides["head"]))
        if head_loss > base_loss:
            failures.append(f"{name}: failed share {head_loss:.3g} exceeds "
                            f"the parent's {base_loss:.3g}")
        for m in spec["end_to_end"]:
            metric, bound = m["name"], m["bound"]
            higher = m["better"] == "higher"
            base = [r["metrics"][metric]["value"] for r in sides["base"]]
            head = [r["metrics"][metric]["value"] for r in sides["head"]]
            head_won = sum(h > b if higher else h < b
                           for b, h in zip(base, head))
            base_won = sum(b > h if higher else b < h
                           for b, h in zip(base, head))
            bq, hq = (statistics.quantiles(xs, n=4, method="inclusive")
                      for xs in (base, head))
            limit = bq[1] * (1 - bound if higher else 1 + bound)
            regressed = hq[1] < limit if higher else hq[1] > limit
            rows.append({"workload": name, "metric": metric, "base": bq,
                         "head": hq, "head_won": head_won,
                         "base_won": base_won, "regressed": regressed})
            if regressed:
                failures.append(
                    f"{name} {metric}: median {hq[1]:.4g} vs parent "
                    f"{bq[1]:.4g} {m['unit']} is worse by more than the "
                    f"{bound:.0%} bound")
    return rows, failures


def format_row(row):
    def side(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    base_med = row["base"][1]
    delta = (row["head"][1] / base_med - 1) if base_med else 0.0
    return (f"{row['workload']:<15} {row['metric']:<19} "
            f"{side(row['base']):<36} {side(row['head']):<36} "
            f"{delta:>+7.1%}  {row['head_won']}/{row['base_won']:<3} "
            f"{'FAIL' if row['regressed'] else 'ok'}")


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def run_once(spec, side_root, target, workload, seed):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    res = subprocess.run(cmd, cwd=side_root, env=env, text=True,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        sys.stderr.write(res.stderr[-4000:])
        sys.exit(f"perf_ab: {' '.join(cmd)} in {side_root} exited "
                 f"{res.returncode}")
    fingerprint = next((ln for ln in lines if ln.startswith("fingerprint:")),
                       None)
    return json.loads(lines[-1]), fingerprint


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", metavar="REV", help="parent revision to compare")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sha = git("rev-parse", "--verify", f"{args.rev}^{{commit}}")
    tmp = Path(tempfile.mkdtemp(prefix="perf_ab-"))
    base_root = tmp / "base"
    git("worktree", "add", "--detach", str(base_root), sha)
    sides = {"base": (base_root, tmp / "base-target"),
             "head": (ROOT, tmp / "head-target")}
    results = {}
    fingerprint = None
    try:
        k = 0
        for w in spec["workloads"]:
            name = w["name"]
            results[name] = {"base": [], "head": []}
            for pair in range(PAIRS):
                order = ("base", "head") if k % 2 == 0 else ("head", "base")
                k += 1
                for side in order:
                    start = time.monotonic()
                    run, fp = run_once(spec, *sides[side], name, pair + 1)
                    fingerprint = fingerprint or fp
                    results[name][side].append(run)
                    print(f"perf_ab: {name} pair {pair + 1}/{PAIRS} {side} "
                          f"done in {time.monotonic() - start:.0f} s",
                          file=sys.stderr, flush=True)
    finally:
        git("worktree", "remove", "--force", str(base_root))
        shutil.rmtree(tmp, ignore_errors=True)

    rows, failures = compare(spec, results)
    print(f"perf_ab: head {ROOT} vs base {sha[:12]}; {PAIRS} pairs per "
          f"workload, {spec['run_seconds']} s runs")
    if fingerprint:
        print(fingerprint)
    print(f"{'workload':<15} {'metric':<19} {'base median [q1, q3]':<36} "
          f"{'head median [q1, q3]':<36} {'delta':>7}  won head/base")
    for row in rows:
        print(format_row(row))
    for msg in failures:
        print(f"FAIL: {msg}")
    print("perf_ab: FAIL" if failures else "perf_ab: PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
