#!/usr/bin/env python3
"""scap_analyzer — libclang AST analysis for Scap (DESIGN.md §11).

Supersedes the regex heuristics of scap_lint.py where regex is blind: these
rules see through typedefs, `auto`, macros and comments because they walk
the clang AST of every translation unit under src/.

Rules
-----
hot-path-alloc
    No operator new, C heap calls, or std::unordered_map-typed declarations
    in kernel hot-path files (scap_lint.HOT_PATH_FILES) — including through
    typedefs, type aliases and `auto`, which the old regex rule could not
    see. Fast-path memory goes through RecordPool, ChunkAllocator or the
    open-addressing FlowTable.

switch-exhaustive
    Every `switch` over Verdict, TraceEventType or DecodeError must cover
    every enumerator and carry no `default:` — a default silently swallows
    enumerators added later, defeating -Wswitch. (Sentinels like
    DecodeError::kCount are enumerators too and must appear.)

mutex-discipline
    No raw std::mutex / std::lock_guard / std::unique_lock /
    std::scoped_lock / std::condition_variable declarations in src/ outside
    the annotated wrappers in src/base/mutex.hpp. A raw mutex is invisible
    to the clang thread-safety analysis: nothing can be SCAP_GUARDED_BY it.

guard-coverage
    The pinned capability table below must hold: the named fields of
    Capture, ScapKernel and KernelShards carry their SCAP_GUARDED_BY /
    SCAP_PT_GUARDED_BY annotations. Deleting a single annotation (or
    renaming a guarded field without updating the table) is a finding.

spsc-discipline
    Calls to the single-threaded ends of the lock-free queues —
    SpscRing::try_push (producer), SpscRing::try_pop / pop_batch
    (consumer), MpscQueue::try_pop (consumer) — are only legal from code
    that provably holds the corresponding SerialDomain: the enclosing
    function must either declare SCAP_REQUIRES / SCAP_ASSERT_CAPABILITY
    on a serial domain or enter one with a base::SerialGuard in its body.
    MpscQueue::try_push is exempt (multi-producer by design). Structural,
    not flow-sensitive: it pins the discipline the thread-safety analysis
    enforces precisely, so a raw call from unannotated code is caught
    even in builds without -Wthread-safety.

Waivers share scap_lint.py syntax: `// scap-lint: allow(<rule>) <reason>`
on the offending line or the line above. In --fixtures mode, waivers
without a reason are findings (rule `waiver`); in repo mode scap_lint.py
already reports those, so this tool stays silent to keep every violation
reported exactly once. A waiver naming an analyzer-owned rule (see
tools/scap_rules.py) that no longer suppresses any finding is reported as
`stale-waiver` in both modes: dead waivers would silently bless the next
regression at that line, so they must be deleted when the code they
excused goes away.

Usage: scap_analyzer.py [--root DIR | --fixtures DIR] [--json] [--list-rules]
Exit status: 0 clean, 1 findings, 2 error, 77 libclang unavailable (skip).
"""

import argparse
import json
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import scap_lint  # shared helpers + waiver syntax
import scap_rules  # the shared rule registry (ownership + --list-rules)

EXIT_SKIP = 77

RULES = scap_rules.rules_for("analyzer")

# Enums whose switches must stay exhaustive (qualified names).
WATCHED_ENUMS = (
    "scap::kernel::Verdict",
    "scap::trace::TraceEventType",
    "scap::DecodeError",
)

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

# spsc-discipline: method -> which end of the queue it is. MpscQueue's
# try_push is deliberately absent (any thread may produce into an MPSC
# queue); everything listed requires serial-domain evidence.
SPSC_METHODS = {
    ("SpscRing", "try_push"),
    ("SpscRing", "try_pop"),
    ("SpscRing", "pop_batch"),
    ("MpscQueue", "try_pop"),
}
SPSC_EVIDENCE_RE = re.compile(
    r"\bSCAP_REQUIRES\b|\bSCAP_ASSERT_CAPABILITY\b"
    r"|\brequires_capability\b|\bassert_capability\b")

# Type spellings (canonical, so typedefs/auto are seen through).
MUTEX_TYPE_RE = re.compile(
    r"\bstd::(recursive_|timed_|shared_)?mutex\b"
    r"|\bstd::condition_variable(_any)?\b"
    r"|\bstd::(lock_guard|unique_lock|scoped_lock|shared_lock)<")
UNORDERED_MAP_RE = re.compile(r"\bstd::unordered_map<")


def load_cindex():
    """Import clang.cindex and make sure libclang actually loads.

    Returns the module or None. Honors SCAP_LIBCLANG (path to libclang.so),
    then falls back to common versioned sonames.
    """
    try:
        from clang import cindex
    except ImportError:
        return None
    override = os.environ.get("SCAP_LIBCLANG")
    if override:
        cindex.Config.set_library_file(override)
    try:
        cindex.Index.create()
        return cindex
    except Exception:
        if override:
            return None
    candidates = []
    for ver in range(21, 13, -1):
        candidates += [
            f"/usr/lib/llvm-{ver}/lib/libclang.so.1",
            f"/usr/lib/llvm-{ver}/lib/libclang-{ver}.so.1",
            f"/usr/lib/x86_64-linux-gnu/libclang-{ver}.so.1",
        ]
    candidates.append("libclang.so")
    for path in candidates:
        if path.startswith("/") and not os.path.exists(path):
            continue
        try:
            cindex.Config.loaded = False
            cindex.Config.set_library_file(path)
            cindex.Index.create()
            return cindex
        except Exception:
            continue
    return None


class Analyzer:
    def __init__(self, cindex, root, fixture_mode):
        self.cindex = cindex
        self.ck = cindex.CursorKind
        self.root = root
        self.fixture_mode = fixture_mode
        self.findings = []
        self._seen = set()
        self._lines = {}
        self._text = {}
        self.used_waivers = set()    # (rel, waiver line, rule) that fired

    # --- plumbing ----------------------------------------------------------

    def rel(self, path):
        return os.path.relpath(path, self.root).replace(os.sep, "/")

    def lines(self, abspath):
        if abspath not in self._lines:
            self._lines[abspath] = scap_lint.read_lines(abspath)
        return self._lines[abspath]

    def text(self, abspath):
        if abspath not in self._text:
            with open(abspath, encoding="utf-8") as f:
                self._text[abspath] = f.read()
        return self._text[abspath]

    def add(self, abspath, line, rule, message):
        rel = self.rel(abspath)
        key = (rel, line, rule, message)
        if key in self._seen:
            return
        if line > 0:
            wline = scap_lint.waiver_line_for(self.lines(abspath),
                                              line - 1, rule)
            if wline is not None:
                self.used_waivers.add((rel, wline, rule))
                return
        self._seen.add(key)
        self.findings.append(scap_lint.Finding(rel, line, rule, message))

    def in_scope(self, cursor):
        """abspath of the cursor's file if it is ours to analyze."""
        loc = cursor.location
        if loc.file is None:
            return None
        path = os.path.abspath(loc.file.name)
        if self.fixture_mode:
            return path if path.startswith(self.root + os.sep) else None
        rel = self.rel(path)
        if rel.startswith("src/"):
            return path
        return None

    def qualified_name(self, cursor):
        parts = []
        c = cursor
        while c is not None and c.kind != self.ck.TRANSLATION_UNIT:
            if c.kind not in (self.ck.LINKAGE_SPEC, self.ck.UNEXPOSED_DECL):
                if c.spelling:
                    parts.append(c.spelling)
            c = c.semantic_parent
        return "::".join(reversed(parts))

    def decl_snippet(self, cursor, abspath):
        """Raw source of a declaration, from its extent start through the
        terminating ';' — annotation macros included, whichever side of the
        extent clang put them on."""
        text = self.text(abspath)
        start = cursor.extent.start.offset
        end = cursor.extent.end.offset
        semi = text.find(";", end)
        return text[start:semi + 1 if semi >= 0 else end]

    # --- rules -------------------------------------------------------------

    def hot_path_file(self, abspath):
        if self.fixture_mode:
            return True
        return self.rel(abspath) in scap_lint.HOT_PATH_FILES

    def check_alloc(self, cursor, abspath):
        if not self.hot_path_file(abspath):
            return
        line = cursor.location.line
        if cursor.kind == self.ck.CXX_NEW_EXPR:
            self.add(abspath, line, "hot-path-alloc",
                     "operator new on the hot path — use RecordPool/"
                     "ChunkAllocator")
        elif cursor.kind == self.ck.CALL_EXPR:
            ref = cursor.referenced
            if (ref is not None and ref.spelling in ("malloc", "calloc",
                                                     "realloc")
                    and self.is_global(ref)):
                self.add(abspath, line, "hot-path-alloc",
                         f"C heap allocation ({ref.spelling}) on the hot "
                         "path")
        elif cursor.kind in (self.ck.VAR_DECL, self.ck.FIELD_DECL):
            canon = cursor.type.get_canonical().spelling
            if UNORDERED_MAP_RE.search(canon):
                self.add(abspath, line, "hot-path-alloc",
                         "std::unordered_map on the hot path (declared type "
                         f"resolves to `{canon}`) — use the open-addressing "
                         "FlowTable")

    def is_global(self, decl):
        p = decl.semantic_parent
        while p is not None and p.kind in (self.ck.LINKAGE_SPEC,
                                           self.ck.UNEXPOSED_DECL):
            p = p.semantic_parent
        return p is None or p.kind == self.ck.TRANSLATION_UNIT

    def check_mutex(self, cursor, abspath):
        if not self.fixture_mode and \
                self.rel(abspath) == "src/base/mutex.hpp":
            return
        if cursor.kind not in (self.ck.VAR_DECL, self.ck.FIELD_DECL):
            return
        canon = cursor.type.get_canonical().spelling
        m = MUTEX_TYPE_RE.search(canon)
        if m:
            self.add(abspath, cursor.location.line, "mutex-discipline",
                     f"raw `{m.group(0).rstrip('<')}` declaration — use the "
                     "annotated base::Mutex/base::MutexLock/base::CondVar "
                     "(src/base/mutex.hpp) so fields can be "
                     "SCAP_GUARDED_BY it")

    def check_switch(self, cursor, abspath):
        children = list(cursor.get_children())
        if not children:
            return
        enum_decl = self._find_enum_decl(children[0])
        if enum_decl is None:
            return
        qual = self.qualified_name(enum_decl)
        if qual not in WATCHED_ENUMS:
            return
        enumerators = {c.spelling for c in enum_decl.get_children()
                       if c.kind == self.ck.ENUM_CONSTANT_DECL}
        covered = set()
        default_lines = []
        self._collect_cases(children[-1], covered, default_lines)
        for line in default_lines:
            self.add(abspath, line, "switch-exhaustive",
                     f"`default:` in a switch over {qual} swallows future "
                     "enumerators — enumerate every case instead")
        if not default_lines:
            missing = sorted(enumerators - covered)
            if missing:
                self.add(abspath, cursor.location.line, "switch-exhaustive",
                         f"switch over {qual} misses enumerator(s): "
                         + ", ".join(missing))

    def _find_enum_decl(self, cursor):
        t = cursor.type
        if t is not None and t.kind != self.cindex.TypeKind.INVALID:
            decl = t.get_canonical().get_declaration()
            if decl is not None and decl.kind == self.ck.ENUM_DECL:
                return decl
        for ch in cursor.get_children():
            found = self._find_enum_decl(ch)
            if found is not None:
                return found
        return None

    def _collect_cases(self, stmt, covered, default_lines):
        for ch in stmt.get_children():
            if ch.kind == self.ck.SWITCH_STMT:
                continue  # nested switch owns its own cases
            if ch.kind == self.ck.CASE_STMT:
                kids = list(ch.get_children())
                if kids:
                    self._case_label_enums(kids[0], covered)
            elif ch.kind == self.ck.DEFAULT_STMT:
                default_lines.append(ch.location.line)
            self._collect_cases(ch, covered, default_lines)

    def _case_label_enums(self, label_expr, covered):
        ref = label_expr.referenced
        if ref is not None and ref.kind == self.ck.ENUM_CONSTANT_DECL:
            covered.add(ref.spelling)
            return
        for ch in label_expr.get_children():
            self._case_label_enums(ch, covered)

    def check_guards(self, cursor, abspath):
        if cursor.kind not in (self.ck.CLASS_DECL, self.ck.STRUCT_DECL):
            return
        if not cursor.is_definition():
            return
        table = REQUIRED_GUARDS.get(self.qualified_name(cursor))
        if table is None:
            return
        fields = {c.spelling: c for c in cursor.get_children()
                  if c.kind == self.ck.FIELD_DECL}
        for name, macro in table.items():
            fld = fields.get(name)
            if fld is None:
                self.add(abspath, cursor.location.line, "guard-coverage",
                         f"expected guarded field `{name}` not found in "
                         f"{cursor.spelling} — if it was renamed, update "
                         "the pinned table in tools/scap_analyzer.py")
                continue
            fpath = os.path.abspath(fld.location.file.name)
            if macro not in self.decl_snippet(fld, fpath):
                self.add(fpath, fld.location.line, "guard-coverage",
                         f"{cursor.spelling}::{name} must be declared "
                         f"{macro}(...) — see the capability table in "
                         "DESIGN.md §11")

    def check_spsc(self, cursor, abspath, enclosing_fn):
        if cursor.kind != self.ck.CALL_EXPR:
            return
        ref = cursor.referenced
        if ref is None:
            return
        cls = ref.semantic_parent
        if cls is None or (cls.spelling, ref.spelling) not in SPSC_METHODS:
            return
        if not self.fixture_mode and \
                self.rel(abspath) == "src/base/ring.hpp":
            return  # the queue implementation is its own serial context
        end = "producer" if ref.spelling == "try_push" else "consumer"
        line = cursor.location.line
        if enclosing_fn is None:
            self.add(abspath, line, "spsc-discipline",
                     f"{cls.spelling}::{ref.spelling}() outside any "
                     "function — the SPSC " + end + " end needs a "
                     "SerialDomain")
            return
        if not self._fn_has_serial_evidence(enclosing_fn):
            self.add(abspath, line, "spsc-discipline",
                     f"{cls.spelling}::{ref.spelling}() from a function "
                     "with no serial-domain evidence — annotate it "
                     "SCAP_REQUIRES(<" + end + " domain>) or enter the "
                     "domain with a base::SerialGuard in its body")

    def _fn_has_serial_evidence(self, fn):
        """True when `fn` declares a serial-domain capability (SCAP_REQUIRES
        / SCAP_ASSERT_CAPABILITY, or the raw clang attributes) or takes a
        base::SerialGuard somewhere in its body."""
        loc = fn.location
        if loc.file is None:
            return False
        text = self.text(os.path.abspath(loc.file.name))
        start = fn.extent.start.offset
        end = fn.extent.end.offset
        body_start = end
        for ch in fn.get_children():
            if ch.kind == self.ck.COMPOUND_STMT:
                body_start = ch.extent.start.offset
        if SPSC_EVIDENCE_RE.search(text[start:body_start]):
            return True
        return "SerialGuard" in text[body_start:end]

    # --- driver ------------------------------------------------------------

    def _is_function(self, cursor):
        return cursor.kind in (self.ck.FUNCTION_DECL, self.ck.CXX_METHOD,
                               self.ck.CONSTRUCTOR, self.ck.DESTRUCTOR,
                               self.ck.CONVERSION_FUNCTION,
                               self.ck.FUNCTION_TEMPLATE,
                               self.ck.LAMBDA_EXPR)

    def walk(self, cursor, enclosing_fn=None):
        abspath = self.in_scope(cursor)
        if abspath is not None:
            self.check_alloc(cursor, abspath)
            self.check_mutex(cursor, abspath)
            if cursor.kind == self.ck.SWITCH_STMT:
                self.check_switch(cursor, abspath)
            self.check_guards(cursor, abspath)
            self.check_spsc(cursor, abspath, enclosing_fn)
        if self._is_function(cursor):
            enclosing_fn = cursor
        for ch in cursor.get_children():
            self.walk(ch, enclosing_fn)

    def check_fixture_waivers(self, files):
        """Fixture mode only: a waiver must say why (rule `waiver`).
        Repo mode leaves this to scap_lint.py so each violation is
        reported exactly once."""
        for abspath in files:
            for i, line in enumerate(self.lines(abspath)):
                m = scap_lint.WAIVER_RE.search(line)
                if m and not m.group(2).strip():
                    rel = self.rel(abspath)
                    self.findings.append(scap_lint.Finding(
                        rel, i + 1, "waiver", "waiver without a reason"))

    def check_stale_waivers(self, files):
        """A waiver naming an analyzer-owned rule must still suppress a
        finding. add() records the (file, line, rule) of every waiver
        that fires; whatever is left over after the walk excuses nothing
        and must be deleted before it blesses an unrelated regression."""
        for abspath in files:
            rel = self.rel(abspath)
            for i, line in enumerate(self.lines(abspath)):
                m = scap_lint.WAIVER_RE.search(line)
                if not m:
                    continue
                rule = m.group(1)
                if scap_rules.owner_of(rule) != "analyzer":
                    continue  # audited by the tool that owns the rule
                if (rel, i + 1, rule) not in self.used_waivers:
                    self.findings.append(scap_lint.Finding(
                        rel, i + 1, "stale-waiver",
                        f"waiver for '{rule}' suppresses nothing — the "
                        "finding it excused is gone; remove the waiver"))


def parse_tu(cindex, index, path, args):
    try:
        tu = index.parse(path, args=args)
    except cindex.TranslationUnitLoadError as e:
        print(f"scap_analyzer: failed to parse {path}: {e}", file=sys.stderr)
        return None
    fatal = [d for d in tu.diagnostics if d.severity >= d.Fatal]
    if fatal:
        for d in fatal:
            print(f"scap_analyzer: {path}: {d.spelling}", file=sys.stderr)
        return None
    return tu


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--fixtures", metavar="DIR",
                        help="analyze self-test fixtures in DIR instead of "
                             "the repository")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable findings on stdout")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args()

    if args.list_rules:
        print("\n".join(RULES))
        return 0

    cindex = load_cindex()
    if cindex is None:
        print("scap_analyzer: libclang not available "
              "(pip-less environments: install python3-clang + libclang, or "
              "set SCAP_LIBCLANG); skipping", file=sys.stderr)
        return EXIT_SKIP

    index = cindex.Index.create()
    if args.fixtures:
        root = os.path.abspath(args.fixtures)
        if not os.path.isdir(root):
            print(f"scap_analyzer: no such fixture dir: {root}",
                  file=sys.stderr)
            return 2
        files = [os.path.join(root, n) for n in sorted(os.listdir(root))
                 if n.endswith(".cpp")]
        analyzer = Analyzer(cindex, root, fixture_mode=True)
        # Hermetic fixtures: no includes, no stdlib.
        parse_args = ["-x", "c++", "-std=c++17", "-nostdinc++"]
        for path in files:
            tu = parse_tu(cindex, index, path, parse_args)
            if tu is None:
                return 2
            analyzer.walk(tu.cursor)
        analyzer.check_fixture_waivers(files)
        analyzer.check_stale_waivers(files)
    else:
        root = os.path.abspath(args.root)
        if not os.path.isdir(os.path.join(root, "src")):
            print(f"scap_analyzer: {root} does not look like the scap repo",
                  file=sys.stderr)
            return 2
        analyzer = Analyzer(cindex, root, fixture_mode=False)
        parse_args = ["-x", "c++", "-std=c++20", "-I",
                      os.path.join(root, "src"), "-DSCAP_ENABLE_TRACE"]
        tus = [rel for rel in scap_lint.iter_source_files(root, "src")
               if rel.endswith(".cpp")]
        for rel in tus:
            tu = parse_tu(cindex, index, os.path.join(root, rel), parse_args)
            if tu is None:
                return 2
            analyzer.walk(tu.cursor)
        analyzer.check_stale_waivers(
            [os.path.join(root, rel)
             for rel in scap_lint.iter_source_files(root, "src")])

    findings = sorted(analyzer.findings,
                      key=lambda f: (f.path, f.line, f.rule))
    if args.json:
        print(json.dumps([{"file": f.path, "line": f.line, "rule": f.rule,
                           "message": f.message} for f in findings],
                         indent=2))
    else:
        for f in findings:
            print(f)
    if findings:
        print(f"scap_analyzer: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    if not args.json:
        print("scap_analyzer: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
