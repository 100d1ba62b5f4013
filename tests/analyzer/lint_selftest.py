#!/usr/bin/env python3
"""Meta-test for tools/scap_lint.py over tests/analyzer/lint_fixtures/.

Every fixture encodes its own expected findings:

    foo();  // expect: <rule>           finding on this line
    // expect-next-line: <rule>         finding on the next line
                                        (for lines whose trailing comment
                                        position is already taken, e.g. a
                                        waiver under test)

scap_lint's rule functions run in-process over all fixtures at once, and
the findings are compared against the union of all expectations as an
exact set of (file, line, rule) triples — a missing finding, a spurious
finding, a finding on the wrong line, or a finding under the wrong rule
all fail. Two structural invariants are checked on top: every *_bad.cpp
fixture must yield at least one finding, and every *_good.cpp twin must
yield none (good twins must be clean across ALL rules, not just their
own).

trace-coverage reads fixed paths of the repository (trace.hpp,
export.cpp), so it has no fixtures here; scap_lint runs it on the tree.

Exit status: 0 pass, 1 fail.
"""

import os
import re
import sys

EXPECT_RE = re.compile(r"//\s*expect:\s*([a-z-]+)")
EXPECT_NEXT_RE = re.compile(r"//\s*expect-next-line:\s*([a-z-]+)")

# The lint rules the fixtures must cover.
FIXTURE_RULES = ("mutex-discipline", "guard-coverage")


def collect_expectations(fixtures_dir, files):
    """Set of (file, line, rule) parsed from the fixtures themselves."""
    expected = set()
    for name in files:
        path = os.path.join(fixtures_dir, name)
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                for m in EXPECT_RE.finditer(line):
                    expected.add((name, lineno, m.group(1)))
                for m in EXPECT_NEXT_RE.finditer(line):
                    expected.add((name, lineno + 1, m.group(1)))
    return expected


def validate_expectations(expected, scap_rules):
    """Harness sanity from the shared registry: an expectation naming an
    unknown rule would silently never match, and a rule with no fixture
    coverage is a rule the self-test cannot catch regressing."""
    ok = True
    valid = set(scap_rules.rules_for("lint")) | {
        scap_rules.WAIVER_RULE, scap_rules.STALE_WAIVER_RULE}
    for name, line, rule in sorted(expected):
        if rule not in valid:
            print(f"HARNESS  {name}:{line}: expectation names unknown "
                  f"rule [{rule}] (see tools/scap_rules.py)")
            ok = False
    covered = {rule for _, _, rule in expected}
    for rule in FIXTURE_RULES + (scap_rules.WAIVER_RULE,
                                 scap_rules.STALE_WAIVER_RULE):
        if rule not in covered:
            print(f"HARNESS  rule [{rule}] has no fixture expectation — "
                  "the self-test cannot catch it regressing")
            ok = False
    return ok


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(here))
    fixtures = os.path.join(here, "lint_fixtures")

    sys.path.insert(0, os.path.join(root, "tools"))
    import scap_lint
    import scap_rules

    files = sorted(n for n in os.listdir(fixtures) if n.endswith(".cpp"))
    expected = collect_expectations(fixtures, files)
    if not expected:
        print("lint_selftest: no expectations found in fixtures "
              "(broken harness)", file=sys.stderr)
        return 1
    if not validate_expectations(expected, scap_rules):
        return 1

    lint = scap_lint.Lint(fixtures)
    scap_lint.check_mutex_discipline(lint, files)
    scap_lint.check_guard_coverage(lint, files)
    scap_lint.check_waivers(lint, files)
    actual = {(f.path, f.line, f.rule) for f in lint.findings}

    ok = True
    for miss in sorted(expected - actual):
        print(f"MISSING  {miss[0]}:{miss[1]}: expected finding "
              f"[{miss[2]}] was not reported")
        ok = False
    for extra in sorted(actual - expected):
        print(f"SPURIOUS {extra[0]}:{extra[1]}: unexpected finding "
              f"[{extra[2]}]")
        ok = False

    # Structural invariants over the fixture naming convention.
    flagged_files = {f for f, _, _ in actual}
    for name in files:
        if name.endswith("_bad.cpp") and name not in flagged_files:
            print(f"INVARIANT {name}: bad fixture produced no findings")
            ok = False
        if name.endswith("_good.cpp") and name in flagged_files:
            print(f"INVARIANT {name}: good twin produced findings")
            ok = False

    if ok:
        print(f"lint_selftest: {len(expected)} expected finding(s) "
              "matched exactly")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
