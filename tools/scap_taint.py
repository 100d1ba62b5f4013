#!/usr/bin/env python3
"""scap_taint — whole-program determinism taint analysis (DESIGN.md §15).

Builds the same whole-program call graph as tools/scap_callgraph.py (clang
frontend when libclang is available, the text frontend otherwise — both see
identical raw source, so source/sink detection is frontend-independent by
construction) and tracks *taint* from nondeterministic sources to the
observable outputs the replay/repro suite compares.

Sources (function granularity, detected on comment-stripped source):

  taint-wallclock   wall-clock reads (time/gettimeofday/clock_gettime,
                    `*_clock::now`) outside src/base/clock — virtual time
                    is the only clock the datapath may consult
  taint-rng         unseeded randomness (the C rand family,
                    std::random_device) outside the seeded base::Rng
  taint-ambient     ambient process state: getenv, thread/process ids
  taint-addr-order  pointer->integer casts and std::unordered_* iteration —
                    values that depend on where the allocator put things
  taint-sched       scheduling-dependent cross-thread state: SPSC ring
                    occupancy (size_from_producer), worker heartbeats
                    (`processed`/`sleeping`), producer-observed
                    `occupancy_peak`, and watchdog state

Taint propagates strictly upward (callee -> caller, transitively): a
function that calls a tainted function is tainted. Sinks fire only inside
tainted functions:

  - writes to KernelStats fields, classified by the determinism registry
    (src/kernel/stats_determinism.inc): a tainted write to a
    kDeterministic field is a finding; to a kSchedulingDependent field it
    is the *witness* that justifies the classification; kShardGeometry
    fields are config-derived and silently permitted
  - SCAP_TRACE_EVENT / SCAP_TRACE_METRIC emission and metric samples
    (`metrics().<hist>.add`, classified like fields)
  - Verdict production (`return Verdict::…`, `….verdict = …`)
  - calls into the exporters (src/trace/export.cpp, src/export/ipfix.cpp)

A `// scap-lint: allow(<rule>) reason` on a *source* line (or the line
above) cuts propagation at that source; on a *sink* line it excuses that
one finding; on a *call* line it stops propagation through that call
edge — the discharge point for a callee whose taint drains entirely into
registry-classified scheduling-dependent fields. Waivers that suppress
nothing are reported stale.

The KernelStats field names come from the counter table's rows: the
table generates the struct (and every copy of its field list), so the
compiler already rejects a duplicate row or an unknown class, and a
static_assert on the struct's size (kernel/module.cpp) rejects a field
added outside the table. The `stats-registry` rule checks what the
compiler cannot:
every row must have a write site somewhere in src/ (a row nothing writes
is a dead counter), every kSchedulingDependent row must be backed by at
least one surviving taint witness chain reaching a write of it, and every
trace::MetricsRegistry histogram must be classified exactly once with no
stale histogram rows.

Fixture mode (--fixtures DIR): each .cpp is its own program, and a
same-stem sibling `.inc` is its counter table; functions inside a
namespace named `exporter` stand in for the exporter files. Exit 77 only
for an explicit `--frontend clang` without libclang; the text frontend
always runs.
"""

import argparse
import bisect
import json
import os
import re
import sys
from collections import deque

import scap_callgraph
import scap_lint
import scap_rules
from scap_callgraph import CgFinding, chain_str
from scap_lint import strip_code

EXIT_SKIP = 77

RULES = ["taint-wallclock", "taint-rng", "taint-ambient",
         "taint-addr-order", "taint-sched", "stats-registry"]

RULE_WHAT = {
    "taint-wallclock": "wall-clock time",
    "taint-rng": "unseeded randomness",
    "taint-ambient": "ambient process state",
    "taint-addr-order": "address-order-dependent value",
    "taint-sched": "scheduling-dependent state",
}

EXPORTER_FILES = ("src/trace/export.cpp", "src/export/ipfix.cpp")

# ---------------------------------------------------------------------------
# Source detectors (applied to comment/string/preprocessor-stripped lines)
# ---------------------------------------------------------------------------

WALLCLOCK_RE = re.compile(
    r"(?<![\w.:>])[A-Za-z_]\w*_clock\s*::\s*now\s*\(|"
    r"(?<![\w.:>])(?:std\s*::\s*)?"
    r"(?:time|gettimeofday|clock_gettime|timespec_get|__rdtsc|_rdtsc)"
    r"\s*\(")
WALLCLOCK_EXEMPT = ("src/base/clock.hpp", "src/base/clock.cpp")

RNG_RE = re.compile(
    r"\bstd\s*::\s*random_device\b|"
    r"(?<![\w.:>])(?:std\s*::\s*)?"
    r"(?:rand|srand|random|srandom|drand48|lrand48|mrand48|srand48|rand_r)"
    r"\s*\(")
RNG_EXEMPT = ("src/base/rng.hpp", "src/base/rng.cpp")

AMBIENT_RE = re.compile(
    r"\bthis_thread\s*::\s*get_id\s*\(|"
    r"(?<![\w.:>])(?:std\s*::\s*)?"
    r"(?:getenv|secure_getenv|gettid|getpid|getppid|pthread_self|"
    r"sched_getcpu)\s*\(")

PTR_CAST_RE = re.compile(
    r"reinterpret_cast\s*<\s*(?:const\s+)?(?:std\s*::\s*)?"
    r"(?:u?intptr_t|size_t|u?int(?:32|64)_t|unsigned\s+long(?:\s+long)?)"
    r"\b[^>(]*>|"
    r"\bstd\s*::\s*hash\s*<\s*[^<>]*\*\s*>")

UNORDERED_DECL_RE = re.compile(
    r"\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)\s*"
    r"<[^;]*>\s+([A-Za-z_]\w*)\s*[;={]")

# Scheduling-dependent channels, pinned by name (DESIGN.md §15): the SPSC
# ring occupancy probe, worker heartbeat atomics, the producer-observed
# occupancy peak, and watchdog bookkeeping. Producer-side shed tallies
# (shed_pkts et al.) are deliberately *not* channels: their decisions are
# keyed and interleaving-independent, a property chaos_smoke_mc gates
# dynamically via --check-reproducible. SpscRing head_/tail_ are excluded
# too — batch-boundary independence is the shard-conservation property.
SCHED_RE = re.compile(
    r"\bsize_from_producer\s*\(|"
    r"\b(?:occupancy_peak|processed|sleeping)\s*\.\s*"
    r"(?:load|store|fetch_add|fetch_sub|fetch_or|exchange|"
    r"compare_exchange_\w+)\s*\(|"
    r"\bwatchdog_\s*[\.\[]")


def _src_label(text):
    label = re.sub(r"\s+", "", text)
    if label.endswith("("):
        label += ")"
    return label


SOURCE_PATTERNS = [
    ("taint-wallclock", WALLCLOCK_RE, WALLCLOCK_EXEMPT),
    ("taint-rng", RNG_RE, RNG_EXEMPT),
    ("taint-ambient", AMBIENT_RE, ()),
    ("taint-addr-order", PTR_CAST_RE, ()),
    ("taint-sched", SCHED_RE, ()),
]

# ---------------------------------------------------------------------------
# Sink detectors
# ---------------------------------------------------------------------------

TRACE_RE = re.compile(r"\b(SCAP_TRACE_EVENT|SCAP_TRACE_METRIC)\s*\(")
METRIC_ADD_RE = re.compile(r"\bmetrics\s*\(\s*\)\s*\.\s*(\w+)\s*\.\s*add\s*\(")
VERDICT_RE = re.compile(r"\breturn\s+Verdict\s*::|(?:\.|->)\s*verdict\s*=(?![=])")

WRITE_OPS = r"(?:[+\-|&^]=|=(?![=])|\+\+|--)"


def stats_write_res(scalars, arrays):
    """Regexes matching receiver-qualified writes to KernelStats fields.
    A receiver is required so field *declarations* and bare locals never
    match; comparisons are excluded by the operator alternation."""
    res = []
    if scalars:
        alt = "|".join(sorted(scalars))
        res.append(re.compile(
            rf"(?:\w|\)|\])\s*(?:\.|->)\s*({alt})\s*{WRITE_OPS}"))
        res.append(re.compile(
            rf"(?:\+\+|--)\s*[\w.\[\]>-]*(?:\.|->)\s*({alt})\b"))
    if arrays:
        alt = "|".join(sorted(arrays))
        res.append(re.compile(
            rf"(?:\w|\)|\])\s*(?:\.|->)\s*({alt})\s*\[[^\]]*\]\s*{WRITE_OPS}"))
        res.append(re.compile(
            rf"(?:\+\+|--)\s*[\w.\[\]>-]*(?:\.|->)\s*({alt})\s*\["))
    return res


class Sink:
    def __init__(self, kind, label, file, line, name=None):
        self.kind = kind   # "stats" | "metric" | "trace" | "verdict" | "exporter"
        self.label = label
        self.file = file
        self.line = line
        self.name = name   # stats field / histogram name


class Source:
    def __init__(self, rule, label, file, line):
        self.rule = rule
        self.label = label
        self.file = file
        self.line = line


# ---------------------------------------------------------------------------
# Struct / registry parsing
# ---------------------------------------------------------------------------

HIST_RE = re.compile(r"^\s*Log2Histogram\s+(\w+)\s*;")
# One table row; array rows may wrap, so this runs over the whole file.
# SCAP_STATS_* rows carry (name, combine, class, ...), SCAP_METRIC_HIST
# rows (name, class).
INC_ROW_RE = re.compile(
    r"^[ \t]*(SCAP_STATS_FIELD|SCAP_STATS_ARRAY|SCAP_METRIC_HIST)\s*\(\s*"
    r"(\w+)\s*,\s*(\w+)\s*(?:,\s*(\w+))?[^)]*\)", re.M)


def parse_struct(stripped_lines, struct_name, member_re):
    """{member: line} for `struct <name> { ... };` in stripped lines, or
    None when the struct is absent."""
    decl = re.compile(rf"\bstruct\s+{struct_name}\b")
    start = None
    for i, ln in enumerate(stripped_lines):
        if decl.search(ln):
            start = i
            break
    if start is None:
        return None
    members = {}
    depth = 0
    opened = False
    for i in range(start, len(stripped_lines)):
        ln = stripped_lines[i]
        if opened and depth == 1:
            m = member_re.match(ln)
            if m:
                members[m.group(1)] = i + 1
        for ch in ln:
            if ch == "{":
                depth += 1
                opened = True
            elif ch == "}":
                depth -= 1
                if opened and depth == 0:
                    return members
    return members


class Registry:
    """Parsed counter table (stats_determinism.inc): rows keyed by name."""

    def __init__(self, rel):
        self.rel = rel
        self.fields = {}   # name -> (cls, is_array, line)
        self.hists = {}    # name -> (cls, line)

    @staticmethod
    def load(path, rel):
        if not os.path.isfile(path):
            return None
        reg = Registry(rel)
        with open(path, encoding="utf-8") as f:
            text = f.read()
        for m in INC_ROW_RE.finditer(text):
            macro, name, second, third = m.groups()
            lineno = text.count("\n", 0, m.start()) + 1
            if macro == "SCAP_METRIC_HIST":
                reg.hists[name] = (second, lineno)
            else:
                reg.fields[name] = (third, macro == "SCAP_STATS_ARRAY",
                                    lineno)
        return reg

    def field_class(self, name):
        row = self.fields.get(name)
        return row[0] if row else "kDeterministic"

    def hist_class(self, name):
        row = self.hists.get(name)
        return row[0] if row else "kDeterministic"


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def analyze_taint(graph, fixture_mode, root):
    findings = []
    used = set()   # (file, waiver line, rule) that suppressed something
    nodes = graph.nodes

    stripped = {}
    for rel, lines in graph.raw_lines.items():
        stripped[rel] = strip_code("\n".join(lines)).splitlines()

    def waiver_at(rel, line, rule):
        lines = graph.raw_lines.get(rel)
        if lines is None:
            return None
        for j in (line - 1, line - 2):
            if 0 <= j < len(lines):
                m = scap_lint.WAIVER_RE.search(lines[j])
                if m and m.group(1) == rule:
                    return j + 1
        return None

    # -- enclosing-function attribution (node start lines per file) ---------
    by_file = {}
    for n in nodes.values():
        by_file.setdefault(n.file, []).append((n.line, n.name))
    for lst in by_file.values():
        lst.sort()

    def enclosing(rel, line):
        lst = by_file.get(rel)
        if not lst:
            return None
        i = bisect.bisect_right(lst, (line, "￿")) - 1
        return lst[i][1] if i >= 0 else None

    # -- unordered-container iteration: names declared anywhere in scope ----
    unordered_names = set()
    for rel in stripped:
        text = "\n".join(stripped[rel])
        for m in UNORDERED_DECL_RE.finditer(text):
            unordered_names.add(m.group(1))
    unordered_use_re = None
    if unordered_names:
        alt = "|".join(re.escape(n) for n in sorted(unordered_names))
        unordered_use_re = re.compile(
            rf"for\s*\([^;)]*:\s*[&*]?\s*(?:this\s*->\s*)?({alt})\s*\)|"
            rf"\b({alt})\s*\.\s*(?:begin|cbegin|rbegin)\s*\(")

    # -- counter table / MetricsRegistry ------------------------------------
    hist_file = None
    hist_members = None
    for rel in sorted(stripped):
        parsed = parse_struct(stripped[rel], "MetricsRegistry", HIST_RE)
        if parsed is not None:
            hist_file, hist_members = rel, parsed
            break

    registry = None
    if fixture_mode:
        # A fixture graph is one .cpp; its counter table is the sibling .inc.
        inc = os.path.splitext(min(graph.raw_lines))[0] + ".inc"
        registry = Registry.load(os.path.join(root, inc), inc)
    else:
        registry = Registry.load(
            os.path.join(root, "src/kernel/stats_determinism.inc"),
            "src/kernel/stats_determinism.inc")
        if registry is None:
            findings.append(CgFinding(
                "src/kernel/stats_determinism.inc", 1, "stats-registry", [],
                "determinism registry is missing"))
    reg = registry if registry is not None else Registry("<none>")

    # -- collect sources ----------------------------------------------------
    sources = {}   # node name -> [Source]

    def add_source(rule, label, rel, line):
        node = enclosing(rel, line)
        if node is None:
            return
        w = waiver_at(rel, line, rule)
        if w is not None:
            used.add((rel, w, rule))
            return
        sources.setdefault(node, []).append(Source(rule, label, rel, line))

    for rel in sorted(stripped):
        for i, ln in enumerate(stripped[rel], start=1):
            for rule, rx, exempt in SOURCE_PATTERNS:
                if rel in exempt:
                    continue
                for m in rx.finditer(ln):
                    add_source(rule, _src_label(m.group(0)), rel, i)
            if unordered_use_re is not None:
                for m in unordered_use_re.finditer(ln):
                    name = m.group(1) or m.group(2)
                    add_source("taint-addr-order",
                               f"unordered-iteration({name})", rel, i)

    # -- collect sinks ------------------------------------------------------
    sinks = {}     # node name -> [Sink]

    def add_sink(sink):
        node = enclosing(sink.file, sink.line)
        if node is not None:
            sinks.setdefault(node, []).append(sink)

    scalar_names = set()
    array_names = set()
    for name, (_, is_array, _) in reg.fields.items():
        (array_names if is_array else scalar_names).add(name)
    write_res = stats_write_res(scalar_names, array_names)
    written = set()   # fields with a write site anywhere in scope

    for rel in sorted(stripped):
        for i, ln in enumerate(stripped[rel], start=1):
            for m in TRACE_RE.finditer(ln):
                add_sink(Sink("trace", m.group(1), rel, i))
            for m in METRIC_ADD_RE.finditer(ln):
                add_sink(Sink("metric", f"metric({m.group(1)})", rel, i,
                              name=m.group(1)))
            for m in VERDICT_RE.finditer(ln):
                add_sink(Sink("verdict", "Verdict", rel, i))
            for rx in write_res:
                for m in rx.finditer(ln):
                    field = next(g for g in m.groups() if g)
                    written.add(field)
                    add_sink(Sink("stats", f"KernelStats.{field}", rel, i,
                                  name=field))

    def is_exporter(node):
        if fixture_mode:
            return node.name.startswith("exporter::") or \
                "::exporter::" in node.name
        return node.file in EXPORTER_FILES

    for n in nodes.values():
        if is_exporter(n):
            sinks.setdefault(n.name, []).append(
                Sink("exporter", "exporter-output", n.file, n.line))
            continue
        for e in n.edges:
            if e.kind != "call":
                continue
            t = nodes.get(e.target)
            if t is not None and is_exporter(t):
                short = e.target.rsplit("::", 1)[-1]
                sinks.setdefault(n.name, []).append(
                    Sink("exporter", f"exporter-call({short})",
                         e.file, e.line))

    # -- propagate upward ---------------------------------------------------
    # rev[callee] = {(caller, call file, call line)}: the call site rides
    # along so a waiver on the call line can cut propagation through that
    # one edge.
    rev = {}
    for n in nodes.values():
        for e in n.edges:
            targets = sorted(graph.pool) if e.kind == "callback" \
                else [e.target]
            for t in targets:
                if t in nodes:
                    rev.setdefault(t, set()).add((n.name, e.file, e.line))

    candidates = {}    # (rule, file, line) -> (len, chain, message)
    witnesses = {}     # stats field name -> first witness chain

    def handle(src, chain_nodes, sink):
        chain = [f"src:{src.label}"] + chain_nodes + [f"sink:{sink.label}"]
        if sink.kind == "stats":
            cls = reg.field_class(sink.name)
            if cls == "kSchedulingDependent":
                witnesses.setdefault(sink.name, chain)
                return
            if cls == "kShardGeometry":
                return
        elif sink.kind == "metric":
            if reg.hist_class(sink.name) != "kDeterministic":
                return
        w = waiver_at(sink.file, sink.line, src.rule)
        if w is not None:
            used.add((sink.file, w, src.rule))
            return
        key = (src.rule, sink.file, sink.line)
        msg = (f"{RULE_WHAT[src.rule]} ({src.label}, {src.file}:{src.line}) "
               f"reaches {sink.label}")
        cand = (len(chain), chain, msg)
        if key not in candidates or cand < candidates[key]:
            candidates[key] = cand

    for start in sorted(sources):
        if start not in nodes:
            continue
        by_rule = {}
        for src in sources[start]:
            by_rule.setdefault(src.rule, []).append(src)
        for rule in sorted(by_rule):
            ops = sorted(by_rule[rule], key=lambda s: (s.file, s.line))
            parent = {start: None}
            order = [start]
            queue = deque([start])
            while queue:
                cur = queue.popleft()
                for caller, cfile, cline in sorted(rev.get(cur, ())):
                    if caller in parent:
                        continue
                    w = waiver_at(cfile, cline, rule)
                    if w is not None:
                        used.add((cfile, w, rule))
                        continue
                    parent[caller] = cur
                    order.append(caller)
                    queue.append(caller)
            for src in ops:
                for node in order:
                    for sink in sinks.get(node, ()):
                        path = []
                        nm = node
                        while nm is not None:
                            path.append(nm)
                            nm = parent[nm]
                        path.reverse()
                        handle(src, path, sink)

    for (rule, file, line), (_, chain, msg) in sorted(candidates.items()):
        findings.append(CgFinding(file, line, rule, chain,
                                  f"{msg}: {chain_str(chain)}"))

    # -- stats-registry: what the compiler cannot check about the table ----
    if registry is not None:
        for name, (cls, _, lineno) in sorted(registry.fields.items()):
            if name not in written:
                findings.append(CgFinding(
                    registry.rel, lineno, "stats-registry", [],
                    f"'{name}' is never written — dead counter"))
            elif cls == "kSchedulingDependent" and name not in witnesses:
                findings.append(CgFinding(
                    registry.rel, lineno, "stats-registry", [],
                    f"'{name}' is classified kSchedulingDependent but "
                    "no taint witness chain reaches a write of it"))
        if hist_members is not None:
            for name, lineno in sorted(hist_members.items()):
                if name not in registry.hists:
                    findings.append(CgFinding(
                        hist_file, lineno, "stats-registry", [],
                        f"MetricsRegistry histogram '{name}' is not "
                        f"classified in {registry.rel}"))
            for name, (_, lineno) in sorted(registry.hists.items()):
                if name not in hist_members:
                    findings.append(CgFinding(
                        registry.rel, lineno, "stats-registry", [],
                        f"registry row '{name}' matches no MetricsRegistry "
                        "histogram (stale)"))

    # -- stale-waiver audit (+ reasonless waivers in fixture mode) ----------
    for rel in sorted(graph.raw_lines):
        for i, ln in enumerate(graph.raw_lines[rel]):
            m = scap_lint.WAIVER_RE.search(ln)
            if not m:
                continue
            rule, reason = m.group(1), m.group(2).strip()
            if fixture_mode and not reason:
                findings.append(CgFinding(rel, i + 1, "waiver", [],
                                          "waiver without a reason"))
            if scap_rules.owner_of(rule) == "taint" and \
                    (rel, i + 1, rule) not in used:
                findings.append(CgFinding(
                    rel, i + 1, "stale-waiver", [],
                    f"waiver for '{rule}' suppresses nothing — the finding "
                    "it excused is gone; remove the waiver"))
    return findings


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--fixtures", metavar="DIR",
                        help="analyze self-test fixtures in DIR (each .cpp "
                             "is its own program/graph)")
    parser.add_argument("--frontend", choices=("auto", "clang", "text"),
                        default="auto")
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args()

    if args.list_rules:
        print("\n".join(RULES + [scap_rules.STALE_WAIVER_RULE]))
        return 0

    cindex = None
    if args.frontend in ("auto", "clang"):
        cindex = scap_callgraph.load_cindex()
    if args.frontend == "clang" and cindex is None:
        print("scap_taint: libclang not available (install python3-clang + "
              "libclang or set SCAP_LIBCLANG; or use --frontend text); "
              "skipping", file=sys.stderr)
        return EXIT_SKIP
    frontend = "clang" if cindex is not None else "text"
    print(f"scap_taint: frontend={frontend}", file=sys.stderr)

    findings = []
    if args.fixtures:
        root = os.path.abspath(args.fixtures)
        if not os.path.isdir(root):
            print(f"scap_taint: no such fixture dir: {root}",
                  file=sys.stderr)
            return 2
        files = [n for n in sorted(os.listdir(root)) if n.endswith(".cpp")]
        for rel in files:
            if frontend == "clang":
                graph = scap_callgraph.build_clang_graph(
                    cindex, root, [rel], fixture_mode=True)
            else:
                graph = scap_callgraph.build_text_graph(root, [rel])
            if graph is None:
                return 2
            findings.extend(analyze_taint(graph, True, root))
    else:
        root = os.path.abspath(args.root)
        if not os.path.isdir(os.path.join(root, "src")):
            print(f"scap_taint: {root} does not look like the scap repo",
                  file=sys.stderr)
            return 2
        files = list(scap_lint.iter_source_files(root, "src"))
        if frontend == "clang":
            graph = scap_callgraph.build_clang_graph(
                cindex, root, files, fixture_mode=False)
        else:
            graph = scap_callgraph.build_text_graph(root, files)
        if graph is None:
            return 2
        findings.extend(analyze_taint(graph, False, root))

    findings.sort(key=lambda f: (f.file, f.line, f.rule, f.chain))
    if args.json:
        print(json.dumps(
            [{"file": f.file, "line": f.line, "rule": f.rule,
              "chain": f.chain, "message": f.message} for f in findings],
            indent=2))
    else:
        for f in findings:
            print(f)
    if findings:
        print(f"scap_taint: {len(findings)} finding(s) "
              f"[frontend={frontend}]", file=sys.stderr)
        return 1
    if not args.json:
        print(f"scap_taint: clean [frontend={frontend}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
