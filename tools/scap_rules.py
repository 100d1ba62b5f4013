"""scap_rules — the single rule registry for Scap's static-analysis tools.

Every rule any of the three checkers can emit is declared here exactly
once, tagged with the tool that owns it. The tools import this table for
their --list-rules output and for waiver ownership: a waiver is only
"stale" to the tool that owns its rule, and scap_lint reports a waiver
naming a rule that no tool owns. The self-tests import it to validate
fixture expectations (an expectation naming an unknown rule is a harness
bug, not a silently-never-matched line) and to require fixture coverage
per rule.

Tools
-----
lint       tools/scap_lint.py        line-oriented text rules
callgraph  tools/scap_callgraph.py   whole-program hot-path purity rules
taint      tools/scap_taint.py       whole-program determinism taint rules

Two more invariants have no rule here because the compiler owns them:
exhaustive enum switches (-Wswitch-enum on every scap_* library) and the
single-threaded ends of the lock-free queues (clang -Wthread-safety over
the SCAP_REQUIRES annotations in src/base/ring.hpp). DESIGN.md §11 maps
every invariant to its owner.

The pseudo-rules `waiver` (a waiver comment without a reason, or naming an
unknown rule) and `stale-waiver` (a waiver that no longer suppresses
anything) are emitted per-tool: each tool audits only waivers naming rules
it owns, so every waiver has exactly one auditor.
"""

from collections import namedtuple

Rule = namedtuple("Rule", ["name", "tool", "description"])

RULES = [
    # --- tools/scap_lint.py --------------------------------------------------
    Rule("trace-coverage", "lint",
         "every TraceEventType has an emit site and a pretty-printer case"),
    Rule("mutex-discipline", "lint",
         "no raw std::mutex/lock types outside src/base/mutex.hpp"),
    Rule("guard-coverage", "lint",
         "the pinned capability table's annotations are present"),

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
    # The per-function `nondeterminism` rule retired into these:
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
WAIVER_RULE = "waiver"              # waiver without a reason / unknown rule
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
