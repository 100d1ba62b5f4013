#!/usr/bin/env python3
"""scap_lint — Scap-specific static checks (DESIGN.md §9, §11).

Rules
-----
trace-coverage
    Every enumerator of trace::TraceEventType (src/trace/trace.hpp) must
    have (a) an emit site somewhere in src/ outside src/trace/ — an event
    type nothing records is dead weight in the 32-byte record — and (b) a
    pretty-printer case in src/trace/export.cpp, or the golden/text/Chrome
    serializations silently print it payload-less.

mutex-discipline
    No raw std::*mutex, std::condition_variable*, std::*_lock or
    std::lock_guard spelled in src/ outside src/base/mutex.hpp. A raw
    mutex is invisible to the clang thread-safety analysis: libstdc++'s
    std::mutex carries no capability annotations, so nothing can be
    SCAP_GUARDED_BY it. Use base::Mutex / MutexLock / CondVar.

guard-coverage
    The pinned capability table (REQUIRED_GUARDS, DESIGN.md §11) holds:
    each named field of Capture, ScapKernel, KernelShards and
    KernelShards::Shard is declared with its SCAP_GUARDED_BY /
    SCAP_PT_GUARDED_BY annotation. Deleting an annotation to silence a
    -Wthread-safety error, or renaming a pinned field without updating
    the table, is a finding.

Waivers: append `// scap-lint: allow(<rule>) <reason>` to the offending
line (or the line directly above it). This tool audits every waiver in
src/ and tools/:
  * a waiver without a reason is a `waiver` finding;
  * so is a waiver naming a rule no tool owns (tools/scap_rules.py), so
    no waiver outlives a retired rule;
  * a waiver for one of the rules above that suppresses nothing is a
    `stale-waiver` finding (waivers of other tools' rules are audited by
    their owners).

The other rules live where they are checked best: allocation and locking
on the hot path in tools/scap_callgraph.py, determinism in
tools/scap_taint.py, exhaustive switches in the compiler (-Wswitch-enum)
and the lock-free queue ends in clang's -Wthread-safety. This file keeps
the rules where line-oriented text is the natural representation, plus the
helpers and waiver syntax the tools share.

Usage: scap_lint.py [--root DIR] [--list-rules]
Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

import argparse
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import scap_rules  # the shared rule registry (ownership + --list-rules)

RULES = scap_rules.rules_for("lint")

WAIVER_RE = re.compile(r"//\s*scap-lint:\s*allow\(([a-z-]+)\)\s*(.*)")

# mutex-discipline: the raw std primitives, and the one file allowed to
# wrap them.
RAW_MUTEX_RE = re.compile(
    r"\bstd::(?:\w*mutex|condition_variable\w*|\w*_lock|lock_guard)\b")
MUTEX_WRAPPER_FILE = "src/base/mutex.hpp"

# The pinned capability table (DESIGN.md §11): class -> field -> annotation
# macro that must appear in the field's declaration.
REQUIRED_GUARDS = {
    "scap::Capture": {
        "nic_": "SCAP_PT_GUARDED_BY",
        "tracer_": "SCAP_PT_GUARDED_BY",
        # events_dispatched_ became a plain atomic in the sharded rework
        # (workers bump it outside any lock); the producer-side tick and
        # per-shard staging state is pinned to the producer mutex instead.
        "last_tick_": "SCAP_GUARDED_BY",
        "staged_": "SCAP_GUARDED_BY",
        # Ring admission / watchdog knobs: written by set_parameter before
        # start(), read when start() translates them to shard options.
        "ring_policy_": "SCAP_GUARDED_BY",
    },
    "scap::kernel::ScapKernel": {
        "nic_": "SCAP_PT_GUARDED_BY",
        "tracer_": "SCAP_PT_GUARDED_BY",
    },
    "scap::kernel::KernelShards": {
        "pushed_": "SCAP_GUARDED_BY",
        # Watchdog heartbeats + admission hysteresis are producer-private
        # state, pinned to the producer serial domain like the push counts.
        "watchdog_": "SCAP_GUARDED_BY",
    },
    "scap::kernel::KernelShards::Shard": {
        "snapshot": "SCAP_GUARDED_BY",
    },
}


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_code(text):
    """Blank comments, string/char literals and preprocessor directives,
    preserving line structure, so structural scanning sees only code."""
    out = []
    i, n = 0, len(text)
    NORMAL, LINECMT, BLKCMT, STR, CHR, PREPROC = range(6)
    state = NORMAL
    line_has_code = False
    while i < n:
        c = text[i]
        if c == "\n":
            if state == LINECMT:
                state = NORMAL
            if state == PREPROC:
                if out and out[-1] == " " and text[i - 1] == "\\":
                    pass  # line continuation stays in the directive
                else:
                    state = NORMAL
            out.append("\n")
            line_has_code = False
            i += 1
            continue
        if state == NORMAL:
            if c == "#" and not line_has_code:
                state = PREPROC
                out.append(" ")
            elif c == "/" and i + 1 < n and text[i + 1] == "/":
                state = LINECMT
                out.append("  ")
                i += 1
            elif c == "/" and i + 1 < n and text[i + 1] == "*":
                state = BLKCMT
                out.append("  ")
                i += 1
            elif c == '"':
                state = STR
                out.append(" ")
            elif c == "'":
                # C++14 digit separator (0x5ca9'f10a, 1'000'000): an
                # apostrophe sandwiched between alphanumerics is part of a
                # numeric literal, not a char-literal delimiter — treating
                # it as one desynchronizes the stripper for the rest of
                # the file.
                if (0 < i < n - 1 and text[i - 1].isalnum()
                        and text[i + 1].isalnum()):
                    out.append(c)
                    line_has_code = True
                else:
                    state = CHR
                    out.append(" ")
            else:
                out.append(c)
                if not c.isspace():
                    line_has_code = True
        elif state in (LINECMT, PREPROC):
            out.append(" ")
        elif state == BLKCMT:
            if c == "*" and i + 1 < n and text[i + 1] == "/":
                state = NORMAL
                out.append("  ")
                i += 1
            else:
                out.append(" ")
        elif state in (STR, CHR):
            if c == "\\":
                out.append("  ")
                i += 1
            else:
                out.append(" ")
                if (state == STR and c == '"') or (state == CHR and c == "'"):
                    state = NORMAL
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


def iter_source_files(root, subdir):
    for dirpath, _, names in os.walk(os.path.join(root, subdir)):
        for n in sorted(names):
            if n.endswith((".cpp", ".hpp", ".h")):
                yield os.path.relpath(os.path.join(dirpath, n), root)


class Lint:
    """Findings over one tree (the repo, or a fixture directory), with the
    waivers that suppressed a finding recorded for stale-waiver auditing."""

    def __init__(self, root):
        self.root = root
        self.findings = []
        self.used_waivers = set()  # (rel, waiver line, rule)
        self._lines = {}
        self._code = {}

    def lines(self, rel):
        if rel not in self._lines:
            self._lines[rel] = read_lines(os.path.join(self.root, rel))
        return self._lines[rel]

    def code(self, rel):
        """The file with comments, literals and directives blanked."""
        if rel not in self._code:
            self._code[rel] = strip_code("\n".join(self.lines(rel)))
        return self._code[rel]

    def report(self, rel, line, rule, message):
        """A finding at `line` (1-based), unless a waiver covers it."""
        if line > 0:
            wline = waiver_line_for(self.lines(rel), line - 1, rule)
            if wline is not None:
                self.used_waivers.add((rel, wline, rule))
                return
        self.findings.append(Finding(rel, line, rule, message))


def check_trace_coverage(lint):
    trace_hpp = "src/trace/trace.hpp"
    if not os.path.exists(os.path.join(lint.root, trace_hpp)):
        lint.report(trace_hpp, 0, "trace-coverage", "trace.hpp not found")
        return

    # Enumerators of `enum class TraceEventType`.
    enums = []
    in_enum = False
    for i, code in enumerate(lint.code(trace_hpp).splitlines()):
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
        lint.report(trace_hpp, 0, "trace-coverage",
                    "could not parse TraceEventType enumerators")
        return

    # All code outside src/trace/ that could host an emit site.
    emit_code = "\n".join(
        lint.code(rel) for rel in iter_source_files(lint.root, "src")
        if not rel.replace(os.sep, "/").startswith("src/trace/"))
    export_cpp = "src/trace/export.cpp"
    export_code = (lint.code(export_cpp)
                   if os.path.exists(os.path.join(lint.root, export_cpp))
                   else "")

    for name, line_no in enums:
        ref = re.compile(r"TraceEventType::" + re.escape(name) + r"\b")
        if not ref.search(emit_code):
            lint.report(trace_hpp, line_no, "trace-coverage",
                        f"TraceEventType::{name} has no emit site in src/ "
                        "outside src/trace/ — dead event type")
        case_re = re.compile(r"case\s+TraceEventType::" + re.escape(name) +
                             r"\b")
        if not case_re.search(export_code):
            lint.report(trace_hpp, line_no, "trace-coverage",
                        f"TraceEventType::{name} has no pretty-printer case "
                        "in src/trace/export.cpp (format_event)")


def check_mutex_discipline(lint, rels):
    for rel in rels:
        if rel.replace(os.sep, "/") == MUTEX_WRAPPER_FILE:
            continue
        for i, code in enumerate(lint.code(rel).splitlines()):
            for m in RAW_MUTEX_RE.finditer(code):
                lint.report(rel, i + 1, "mutex-discipline",
                            f"raw `{m.group(0)}` — use the annotated "
                            "base::Mutex/base::MutexLock/base::CondVar "
                            f"({MUTEX_WRAPPER_FILE}) so fields can be "
                            "SCAP_GUARDED_BY it")


# A scope head, read from the code between the previous `;`/`{`/`}` and a
# `{`: a namespace, or a class/struct/union definition (not `enum class`).
ACCESS_LABEL_RE = re.compile(r"\b(?:public|private|protected)\s*:(?!:)")
NAMESPACE_HEAD_RE = re.compile(r"^(?:inline\s+)?namespace\b\s*([\w:]*)\s*$")
CLASS_HEAD_RE = re.compile(
    r"^(?:template\s*<.*>\s*)?(?:class|struct|union)\b(.*)$", re.S)
SCAP_MACRO_RE = re.compile(r"\bSCAP_\w+\s*\([^()]*\)")


def _class_name(head):
    """The last identifier before the base clause: annotation macros such
    as SCAP_CAPABILITY("mutex") precede the name."""
    head = re.split(r"(?<!:):(?!:)", head)[0]
    names = [w for w in re.findall(r"[A-Za-z_]\w*", head) if w != "final"]
    return names[-1] if names else ""


def class_members(code):
    """Yield (qualified class, class line, member text, offsets) for every
    `;`-terminated member declaration directly inside a class body of the
    stripped file `code`. Nested braces (method bodies, brace initializers,
    nested classes) are tracked and left out of the member text; offsets
    map each character of it back into `code`."""
    stack = []  # (kind, name, line); kind: ns, class, init, block
    text, offs = [], []

    def in_class():
        return bool(stack) and stack[-1][0] == "class"

    for pos, c in enumerate(code):
        # Everything opened inside a body is a block, so the top decides.
        in_body = bool(stack) and stack[-1][0] in ("init", "block")
        if c == "{":
            head = ACCESS_LABEL_RE.sub(" ", "".join(text)).strip()
            line = code.count("\n", 0, pos) + 1
            ns = NAMESPACE_HEAD_RE.match(head)
            cls = CLASS_HEAD_RE.match(head)
            if in_body:
                stack.append(("block", "", line))
            elif ns:
                stack.append(("ns", ns.group(1), line))
            elif cls:
                stack.append(("class", _class_name(cls.group(1)), line))
            elif in_class() and "(" not in SCAP_MACRO_RE.sub(" ", head):
                stack.append(("init", "", line))  # `int x{0};`
            else:
                stack.append(("block", "", line))  # a function body
            if stack[-1][0] in ("ns", "class"):
                text, offs = [], []
        elif c == "}":
            kind = stack.pop()[0] if stack else "block"
            if kind == "block":
                text, offs = [], []
        elif in_body:
            continue
        elif c == ";":
            if in_class():
                yield ("::".join(name for kind, name, _ in stack if name),
                       stack[-1][2], "".join(text), offs)
            text, offs = [], []
        else:
            text.append(c)
            offs.append(pos)


def check_guard_coverage(lint, rels):
    seen = set()
    for rel in rels:
        code = lint.code(rel)
        fields = {}  # (class, class line) -> {field: (member, pos)}
        for cls, cls_line, member, offs in class_members(code):
            table = REQUIRED_GUARDS.get(cls)
            if table is None:
                continue
            found = fields.setdefault((cls, cls_line), {})
            for name in table:
                m = re.search(
                    r"(?:[\w>\]]\s+|[*&]\s*)(" + re.escape(name) + r")\s*"
                    r"(?:\[[^\]]*\]\s*)?(?:" + SCAP_MACRO_RE.pattern + r"\s*)*"
                    r"(?:=.*)?$", member, re.S)
                if m:
                    found[name] = (member, offs[m.start(1)])
        for (cls, cls_line), found in fields.items():
            seen.add(cls)
            for name, macro in REQUIRED_GUARDS[cls].items():
                if name not in found:
                    lint.report(rel, cls_line, "guard-coverage",
                                f"expected guarded field `{name}` not found "
                                f"in {cls} — if it was renamed, update "
                                "REQUIRED_GUARDS in tools/scap_lint.py")
                    continue
                member, pos = found[name]
                if not re.search(r"\b" + macro + r"\s*\(", member):
                    lint.report(rel, code.count("\n", 0, pos) + 1,
                                "guard-coverage",
                                f"{cls}::{name} must be declared "
                                f"{macro}(...) — see the capability table "
                                "in DESIGN.md §11")
    for cls in REQUIRED_GUARDS:
        if cls not in seen:
            lint.report("src", 0, "guard-coverage",
                        f"class {cls} of the pinned capability table not "
                        "found — if it was renamed, update REQUIRED_GUARDS "
                        "in tools/scap_lint.py")


def check_waivers(lint, rels):
    """Audit the waivers in `rels`; run after every rule so that
    used_waivers is complete."""
    for rel in rels:
        for i, line in enumerate(lint.lines(rel)):
            m = WAIVER_RE.search(line)
            if not m:
                continue
            rule = m.group(1)
            owner = scap_rules.owner_of(rule)
            if not m.group(2).strip():
                lint.findings.append(Finding(rel, i + 1, "waiver",
                                             "waiver without a reason"))
            if owner is None:
                lint.findings.append(Finding(
                    rel, i + 1, "waiver",
                    f"waiver names '{rule}', which no tool owns (see "
                    "tools/scap_rules.py) — remove it"))
            elif owner == "lint" and \
                    (rel, i + 1, rule) not in lint.used_waivers:
                lint.findings.append(Finding(
                    rel, i + 1, "stale-waiver",
                    f"waiver for '{rule}' suppresses nothing — the finding "
                    "it excused is gone; remove the waiver"))


def run(root):
    lint = Lint(root)
    src = list(iter_source_files(root, "src"))
    check_trace_coverage(lint)
    check_mutex_discipline(lint, src)
    check_guard_coverage(lint, src)
    check_waivers(lint, src + list(iter_source_files(root, "tools")))
    return lint.findings


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args()

    if args.list_rules:
        print("\n".join(RULES + [scap_rules.WAIVER_RULE,
                                 scap_rules.STALE_WAIVER_RULE]))
        return 0

    root = os.path.abspath(args.root)
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"scap_lint: {root} does not look like the scap repo",
              file=sys.stderr)
        return 2

    findings = run(root)
    for f in findings:
        print(f)
    if findings:
        print(f"scap_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("scap_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
