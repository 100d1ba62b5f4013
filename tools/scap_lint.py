#!/usr/bin/env python3
"""scap_lint — Scap-specific static checks (DESIGN.md §9).

Rules
-----
trace-coverage
    Every enumerator of trace::TraceEventType (src/trace/trace.hpp) must
    have (a) an emit site somewhere in src/ outside src/trace/ — an event
    type nothing records is dead weight in the 32-byte record — and (b) a
    pretty-printer case in src/trace/export.cpp, or the golden/text/Chrome
    serializations silently print it payload-less.

Waivers: append `// scap-lint: allow(<rule>) <reason>` to the offending
line (or the line directly above it). Waivers without a reason are
themselves findings.

The former regex rule heap-hot-path was promoted to tools/scap_analyzer.py
(rule hot-path-alloc), which sees through typedefs, `auto` and macros on
the clang AST; the per-function nondeterminism rule retired in turn into
tools/scap_taint.py's transitive taint rules (taint-wallclock/-rng/
-ambient/…), which flag a nondeterministic value only where it can reach
observable output. The counter-mirror rules (api-stats-mirror here,
counter-mirror in the analyzer) are gone: scap_stats_t, scap_get_stats,
KernelStats and the chaos_run dump are all generated from the one counter
table (src/kernel/stats_determinism.inc), so they cannot disagree. This
file keeps only the rules where line-oriented text is the natural
representation, plus the helpers and waiver syntax the tools share.

Usage: scap_lint.py [--root DIR] [--list-rules]
Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

import argparse
import os
import re
import sys

# Kernel hot-path files: everything a packet touches between handle_packet
# and event emission. Cold-path kernel files (defrag holds fragments across
# packets, events are queue plumbing) still obey the determinism rules but
# may use standard containers. Consumed by tools/scap_analyzer.py
# (hot-path-alloc), which owns the allocation rule since it moved to the AST.
HOT_PATH_FILES = [
    "src/kernel/module.hpp",
    "src/kernel/module.cpp",
    "src/kernel/flow_table.hpp",
    "src/kernel/flow_table.cpp",
    "src/kernel/record_pool.hpp",
    "src/kernel/record_pool.cpp",
    "src/kernel/memory.hpp",
    "src/kernel/memory.cpp",
    "src/kernel/reassembly.hpp",
    "src/kernel/reassembly.cpp",
    "src/kernel/segment_store.hpp",
    "src/kernel/segment_store.cpp",
    "src/kernel/ppl.hpp",
    "src/kernel/ppl.cpp",
    "src/kernel/stream.hpp",
]


WAIVER_RE = re.compile(r"//\s*scap-lint:\s*allow\(([a-z-]+)\)\s*(.*)")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(line):
    """Blank out string/char literals and // comments so patterns match
    only code. Block comments are handled per-line by the caller."""
    out = []
    i, n = 0, len(line)
    in_str = None
    while i < n:
        c = line[i]
        if in_str:
            if c == "\\":
                i += 2
                continue
            if c == in_str:
                in_str = None
            out.append(" ")
            i += 1
            continue
        if c in "\"'":
            in_str = c
            out.append(" ")
            i += 1
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        out.append(c)
        i += 1
    return "".join(out)


def read_lines(path):
    with open(path, encoding="utf-8") as f:
        return f.read().splitlines()


def waiver_line_for(lines, idx, rule):
    """1-based line number of the waiver covering line idx (0-based) — on
    the line itself or the line above — or None. The line number feeds
    stale-waiver auditing: a waiver that never gets looked up this way
    suppresses nothing."""
    for j in (idx, idx - 1):
        if j < 0:
            continue
        m = WAIVER_RE.search(lines[j])
        if m and m.group(1) == rule:
            return j + 1
    return None


def waivers_for(lines, idx, rule):
    """True if line idx (0-based) or the line above carries a waiver for
    `rule`."""
    return waiver_line_for(lines, idx, rule) is not None


def check_trace_coverage(root, findings):
    trace_hpp = "src/trace/trace.hpp"
    path = os.path.join(root, trace_hpp)
    if not os.path.exists(path):
        findings.append(Finding(trace_hpp, 0, "trace-coverage",
                                "trace.hpp not found"))
        return
    lines = read_lines(path)

    # Enumerators of `enum class TraceEventType`.
    enums = []
    in_enum = False
    for i, line in enumerate(lines):
        code = strip_comments_and_strings(line)
        if not in_enum:
            if re.search(r"enum\s+class\s+TraceEventType\b", code):
                in_enum = True
            continue
        if "}" in code:
            break
        m = re.match(r"\s*(k[A-Za-z0-9_]+)\s*(?:=[^,]*)?,?\s*$", code)
        if m:
            enums.append((m.group(1), i + 1))
    if not enums:
        findings.append(Finding(trace_hpp, 0, "trace-coverage",
                                "could not parse TraceEventType enumerators"))
        return

    # All code outside src/trace/ that could host an emit site, pre-stripped.
    emit_lines = []
    for rel in iter_source_files(root, "src"):
        if rel.replace(os.sep, "/").startswith("src/trace/"):
            continue
        for line in read_lines(os.path.join(root, rel)):
            emit_lines.append(strip_comments_and_strings(line))
    export_cpp = os.path.join(root, "src/trace/export.cpp")
    export_lines = ([strip_comments_and_strings(l) for l in
                     read_lines(export_cpp)]
                    if os.path.exists(export_cpp) else [])

    for name, line_no in enums:
        if waivers_for(lines, line_no - 1, "trace-coverage"):
            continue
        ref = re.compile(r"TraceEventType::" + re.escape(name) + r"\b")
        if not any(ref.search(l) for l in emit_lines):
            findings.append(Finding(
                trace_hpp, line_no, "trace-coverage",
                f"TraceEventType::{name} has no emit site in src/ outside "
                "src/trace/ — dead event type"))
        case_re = re.compile(r"case\s+TraceEventType::" + re.escape(name) +
                             r"\b")
        if not any(case_re.search(l) for l in export_lines):
            findings.append(Finding(
                trace_hpp, line_no, "trace-coverage",
                f"TraceEventType::{name} has no pretty-printer case in "
                "src/trace/export.cpp (format_event)"))


def iter_source_files(root, subdir):
    for dirpath, _, names in os.walk(os.path.join(root, subdir)):
        for n in sorted(names):
            if n.endswith((".cpp", ".hpp", ".h")):
                yield os.path.relpath(os.path.join(dirpath, n), root)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args()

    if args.list_rules:
        import scap_rules
        print("\n".join(scap_rules.rules_for("lint") +
                        [scap_rules.WAIVER_RULE]))
        return 0

    root = os.path.abspath(args.root)
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"scap_lint: {root} does not look like the scap repo",
              file=sys.stderr)
        return 2

    findings = []
    check_trace_coverage(root, findings)

    # A waiver must say why, or it is itself a finding.
    for rel in list(iter_source_files(root, "src")) + \
            list(iter_source_files(root, "tools")):
        for i, line in enumerate(read_lines(os.path.join(root, rel))):
            m = WAIVER_RE.search(line)
            if m and not m.group(2).strip():
                findings.append(Finding(rel, i + 1, "waiver",
                                        "waiver without a reason"))

    for f in findings:
        print(f)
    if findings:
        print(f"scap_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("scap_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
