#!/usr/bin/env python3
"""Meta-test for tools/scap_taint.py over tests/analyzer/taint_fixtures/.

Every fixture encodes its own expected findings, *including the full
source->sink taint chain* — the analysis' value is the chain, so the
self-test pins it exactly, not just the rule and line:

    k.seen += x;  // expect-chain: <rule>: src:<label> -> A -> B -> sink:<label>
    // expect-chain-next-line: <rule>: <chain>      (for lines whose
                                                    trailing comment slot
                                                    is taken, e.g. a
                                                    waiver under test)

Chains are written exactly as the tool renders them. Findings that carry
no chain (stats-registry rows, stale-waiver, reasonless-waiver) use the
sentinel "-". Registry-row findings live in the sibling `.inc` files, so
expectations are collected from both .cpp and .inc fixtures.

The tool runs in --fixtures mode and its JSON findings are compared
against the union of all expectations as an exact set of
(file, line, rule, chain) tuples — a missing finding, a spurious finding,
a wrong line, a wrong rule, or a wrong *chain* all fail. Structural
invariants on top: every *_bad fixture must yield at least one finding
(in its .cpp or its sibling .inc), every *_good fixture must yield
none in either, and every fixture that declares struct KernelStats must
have a sibling .inc (its writes are sinks only through the table's
rows).

The text frontend has no external dependencies, so it is always
exercised. When libclang is available the clang frontend runs too and
must match the *same* expectations — that is the frontend-parity check.

Exit status: 0 pass, 1 fail. (Never 77: the text frontend always runs.)
"""

import json
import os
import re
import subprocess
import sys

EXIT_SKIP = 77

EXPECT_RE = re.compile(r"//\s*expect-chain:\s*([a-z-]+):\s*(.+?)\s*$")
EXPECT_NEXT_RE = re.compile(
    r"//\s*expect-chain-next-line:\s*([a-z-]+):\s*(.+?)\s*$")


def collect_expectations(fixtures_dir):
    """Set of (file, line, rule, chain) parsed from .cpp and .inc files."""
    expected = set()
    for name in sorted(os.listdir(fixtures_dir)):
        if not name.endswith((".cpp", ".inc")):
            continue
        path = os.path.join(fixtures_dir, name)
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                m = EXPECT_RE.search(line)
                if m:
                    expected.add((name, lineno, m.group(1), m.group(2)))
                m = EXPECT_NEXT_RE.search(line)
                if m:
                    expected.add((name, lineno + 1, m.group(1), m.group(2)))
    return expected


def run_frontend(tool, fixtures, frontend):
    """Returns (findings set | None-if-skipped, ok)."""
    proc = subprocess.run(
        [sys.executable, tool, "--fixtures", fixtures, "--json",
         "--frontend", frontend],
        capture_output=True, text=True)
    if proc.returncode == EXIT_SKIP:
        return None, True
    if proc.returncode not in (0, 1):
        print(f"taint_selftest: [{frontend}] tool exited "
              f"{proc.returncode}", file=sys.stderr)
        print(proc.stderr, file=sys.stderr, end="")
        return None, False
    try:
        findings = json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        print(f"taint_selftest: [{frontend}] bad JSON: {e}", file=sys.stderr)
        print(proc.stdout, file=sys.stderr)
        return None, False
    return {(f["file"], f["line"], f["rule"],
             " -> ".join(f["chain"]) if f["chain"] else "-")
            for f in findings}, True


def check(frontend, actual, expected, fixtures):
    ok = True
    for miss in sorted(expected - actual):
        print(f"MISSING  [{frontend}] {miss[0]}:{miss[1]}: expected "
              f"[{miss[2]}] chain '{miss[3]}' was not reported")
        ok = False
    for extra in sorted(actual - expected):
        print(f"SPURIOUS [{frontend}] {extra[0]}:{extra[1]}: unexpected "
              f"[{extra[2]}] chain '{extra[3]}'")
        ok = False
    # Stem-based so registry-row findings in a sibling .inc count for the
    # .cpp fixture that owns it.
    flagged_stems = {os.path.splitext(f)[0] for f, _, _, _ in actual}
    for name in sorted(os.listdir(fixtures)):
        if not name.endswith(".cpp"):
            continue
        stem = os.path.splitext(name)[0]
        if stem.endswith("_bad") and stem not in flagged_stems:
            print(f"INVARIANT [{frontend}] {name}: bad fixture produced "
                  "no findings")
            ok = False
        if stem.endswith("_good") and stem in flagged_stems:
            print(f"INVARIANT [{frontend}] {name}: good twin produced "
                  "findings")
            ok = False
    return ok


def validate_expectations(expected, scap_rules):
    """Harness sanity from the shared registry: unknown rule names would
    silently never match, and an uncovered taint rule is one the
    self-test cannot catch regressing."""
    ok = True
    owned = scap_rules.rules_for("taint")
    valid = set(owned) | {scap_rules.WAIVER_RULE,
                          scap_rules.STALE_WAIVER_RULE}
    for name, line, rule, _ in sorted(expected):
        if rule not in valid:
            print(f"HARNESS  {name}:{line}: expectation names unknown "
                  f"rule [{rule}] (see tools/scap_rules.py)")
            ok = False
    covered = {rule for _, _, rule, _ in expected}
    for rule in owned:
        if rule not in covered:
            print(f"HARNESS  rule [{rule}] has no fixture expectation — "
                  "the self-test cannot catch it regressing")
            ok = False
    return ok


def check_counter_tables(fixtures_dir):
    """A fixture's KernelStats writes are sinks only through the rows of
    its sibling .inc, so a fixture that declares the struct without one
    would pass without testing anything."""
    ok = True
    for name in sorted(os.listdir(fixtures_dir)):
        if not name.endswith(".cpp"):
            continue
        path = os.path.join(fixtures_dir, name)
        with open(path, encoding="utf-8") as f:
            declares = re.search(r"\bstruct\s+KernelStats\s*\{", f.read())
        if declares and not os.path.isfile(
                os.path.splitext(path)[0] + ".inc"):
            print(f"HARNESS  {name}: declares struct KernelStats but has "
                  "no sibling .inc counter table")
            ok = False
    return ok


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(here))
    tool = os.path.join(root, "tools", "scap_taint.py")
    fixtures = os.path.join(here, "taint_fixtures")

    sys.path.insert(0, os.path.join(root, "tools"))
    import scap_rules
    expected = collect_expectations(fixtures)
    if not expected:
        print("taint_selftest: no expectations found in fixtures "
              "(broken harness)", file=sys.stderr)
        return 1
    if not (validate_expectations(expected, scap_rules) and
            check_counter_tables(fixtures)):
        return 1

    ok = True
    ran = []
    for frontend in ("text", "clang"):
        actual, frontend_ok = run_frontend(tool, fixtures, frontend)
        if not frontend_ok:
            ok = False
            continue
        if actual is None:
            print(f"taint_selftest: [{frontend}] libclang unavailable, "
                  "frontend skipped")
            continue
        ran.append(frontend)
        ok = check(frontend, actual, expected, fixtures) and ok

    if not ran:
        print("taint_selftest: no frontend ran (broken harness)",
              file=sys.stderr)
        return 1
    if ok:
        print(f"taint_selftest: {len(expected)} expected finding(s) "
              f"matched exactly on frontend(s): {', '.join(ran)}")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
