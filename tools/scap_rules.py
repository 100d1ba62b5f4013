"""scap_rules — the single rule registry for Scap's static-analysis tools.

Every rule any of the three checkers can emit is declared here exactly
once, tagged with the tool that owns it. The tools import this table for
their --list-rules output and for stale-waiver ownership (a waiver is only
"stale" to the tool that owns its rule); the self-tests import it to
validate fixture expectations (an expectation naming an unknown rule is a
harness bug, not a silently-never-matched line) and to require fixture
coverage per rule. Before this table, tools/scap_analyzer.py and
tests/analyzer/analyzer_selftest.py each hard-wired their own rule lists,
which could drift apart without any test noticing.

Tools
-----
lint       tools/scap_lint.py        line-oriented text rules
analyzer   tools/scap_analyzer.py    per-function libclang AST rules
callgraph  tools/scap_callgraph.py   whole-program hot-path purity rules
taint      tools/scap_taint.py       whole-program determinism taint rules

The pseudo-rules `waiver` (a waiver comment without a reason) and
`stale-waiver` (a waiver that no longer suppresses anything) are emitted
per-tool: each tool audits only waivers naming rules it owns, so every
waiver has exactly one auditor.
"""

from collections import namedtuple

Rule = namedtuple("Rule", ["name", "tool", "description"])

RULES = [
    # --- tools/scap_lint.py --------------------------------------------------
    Rule("trace-coverage", "lint",
         "every TraceEventType has an emit site and a pretty-printer case"),

    # --- tools/scap_analyzer.py ----------------------------------------------
    Rule("hot-path-alloc", "analyzer",
         "no operator new / C heap / unordered_map in hot-path files"),
    Rule("switch-exhaustive", "analyzer",
         "switches over watched enums cover every enumerator, no default"),
    Rule("mutex-discipline", "analyzer",
         "no raw std::mutex/lock types outside src/base/mutex.hpp"),
    Rule("guard-coverage", "analyzer",
         "the pinned capability table's annotations are present"),
    Rule("spsc-discipline", "analyzer",
         "SPSC ring endpoints are called with serial-domain evidence"),

    # --- tools/scap_callgraph.py (whole-program purity, DESIGN.md §14) ------
    Rule("hot-alloc", "callgraph",
         "no allocation reachable from a SCAP_HOT root"),
    Rule("hot-mutex", "callgraph",
         "no base::Mutex/CondVar acquisition reachable from a SCAP_HOT root"),
    Rule("hot-syscall", "callgraph",
         "no blocking syscall/stdio reachable from a SCAP_HOT root"),
    Rule("hot-throw", "callgraph",
         "no throw expression reachable from a SCAP_HOT root"),
    Rule("hot-recursion", "callgraph",
         "no direct or mutual recursion inside the hot closure"),
    Rule("hot-cold-call", "callgraph",
         "no call from the hot closure into a SCAP_COLD function"),

    # --- tools/scap_taint.py (whole-program determinism, DESIGN.md §15) -----
    # The per-function `nondeterminism` analyzer rule retired into these:
    # taint tracking flags the *transitive* reach of a nondeterministic
    # value into observable output, not just its lexical occurrence.
    Rule("taint-wallclock", "taint",
         "no wall-clock read (outside base/clock) reaching an output"),
    Rule("taint-rng", "taint",
         "no unseeded randomness (outside base::Rng) reaching an output"),
    Rule("taint-ambient", "taint",
         "no getenv/thread-id/process-id value reaching an output"),
    Rule("taint-addr-order", "taint",
         "no pointer-address-derived value or unordered-container "
         "iteration order reaching an output"),
    Rule("taint-sched", "taint",
         "no scheduling-dependent channel read reaching a deterministic "
         "output"),
    Rule("stats-registry", "taint",
         "every counter-table row written somewhere in src/, SCHED rows "
         "witness-backed, every metrics histogram classified exactly once"),
]

# Pseudo-rules every tool may emit about waivers of its own rules.
WAIVER_RULE = "waiver"              # waiver without a reason
STALE_WAIVER_RULE = "stale-waiver"  # waiver that suppresses nothing


def rules_for(tool):
    """Rule names owned by `tool`, in registry order."""
    return [r.name for r in RULES if r.tool == tool]


def owner_of(rule):
    """The owning tool of `rule`, or None for unknown/pseudo rules."""
    for r in RULES:
        if r.name == rule:
            return r.tool
    return None


def all_rule_names():
    return [r.name for r in RULES] + [WAIVER_RULE, STALE_WAIVER_RULE]
