#!/usr/bin/env python3
"""Selftest for tools/perf_ab.py's comparison: canned run.py results in,
verdicts out. Needs no perfbench build; the bounds come from the repo's own
BENCHMARK.json."""
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
spec_ = importlib.util.spec_from_file_location("perf_ab",
                                               ROOT / "tools" / "perf_ab.py")
perf_ab = importlib.util.module_from_spec(spec_)
spec_.loader.exec_module(perf_ab)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {
    "pkts_per_s": 8.0e6, "delivered_mb_per_s": 60.0, "batch_us_p50": 4.0,
    "batch_us_p99": 9.0, "cpu_ns_per_pkt": 120.0, "allocs_per_pkt": 0.5,
    "setup_s": 0.01, "rss_mib": 20.0,
}


def run(scale=None, correct=True, failed=0):
    """One run.py result line, parsed; `scale` multiplies named metrics."""
    scale = scale or {}
    return {"correct": correct, "attempted": 1000000, "failed": failed,
            "metrics": {m: {"value": v * scale.get(m, 1.0), "unit": "-"}
                        for m, v in METRICS.items()}}


def judge(head_runs=None, workload="flow_export"):
    """perf_ab.compare on sides that are identical except for `workload`'s
    head runs, which are `head_runs` when given."""
    res = {w["name"]: {"base": [run() for _ in range(perf_ab.PAIRS)],
                       "head": [run() for _ in range(perf_ab.PAIRS)]}
           for w in SPEC["workloads"]}
    if head_runs is not None:
        res[workload]["head"] = head_runs
    return perf_ab.compare(SPEC, res)


def every_pair(scale):
    return [run(scale) for _ in range(perf_ab.PAIRS)]


CHECKS = []


def check(fn):
    CHECKS.append(fn)
    return fn


@check
def identical_sides_pass():
    rows, failures = judge()
    assert not failures, failures
    assert len(rows) == len(SPEC["workloads"]) * len(SPEC["end_to_end"])


@check
def throughput_drop_fails_naming_workload_and_metric():
    _, failures = judge(every_pair({"pkts_per_s": 0.6}))
    assert len(failures) == 1, failures
    assert "flow_export" in failures[0] and "pkts_per_s" in failures[0], \
        failures


@check
def lower_is_better_rise_fails():
    _, failures = judge(every_pair({"batch_us_p99": 1.4}))
    assert len(failures) == 1 and "batch_us_p99" in failures[0], failures


@check
def drift_inside_bound_passes():
    _, failures = judge(every_pair({"pkts_per_s": 0.8}))
    assert not failures, failures


@check
def incorrect_run_fails():
    head = [run(), run(correct=False), run()]
    _, failures = judge(head, workload="nids_match")
    assert len(failures) == 1 and "nids_match" in failures[0] \
        and "not correct" in failures[0], failures


@check
def higher_failed_share_fails():
    head = [run(failed=10) for _ in range(perf_ab.PAIRS)]
    _, failures = judge(head, workload="stream_sharded")
    assert len(failures) == 1 and "failed share" in failures[0], failures


@check
def ties_count_for_neither_side():
    head = [run({"pkts_per_s": 1.1}), run(), run({"pkts_per_s": 0.9})]
    rows, failures = judge(head)
    assert not failures, failures
    row = next(r for r in rows if r["workload"] == "flow_export"
               and r["metric"] == "pkts_per_s")
    assert (row["head_won"], row["base_won"]) == (1, 1), row
    tied = next(r for r in rows if r["workload"] == "flow_export"
                and r["metric"] == "rss_mib")
    assert (tied["head_won"], tied["base_won"]) == (0, 0), tied


def main():
    failed = 0
    for fn in CHECKS:
        try:
            fn()
            print(f"ok   {fn.__name__}")
        except AssertionError as e:
            failed += 1
            print(f"FAIL {fn.__name__}: {e}")
    print(f"{len(CHECKS) - failed}/{len(CHECKS)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
