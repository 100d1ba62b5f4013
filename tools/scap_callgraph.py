#!/usr/bin/env python3
"""scap_callgraph — whole-program hot-path purity analysis (DESIGN.md §14).

This tool checks the *transitive closure* of the datapath. It extracts
the intra-project call graph — member calls, overload resolution (clang
frontend), constructor calls, calls through std::unique_ptr, and
FunctionRef / std::function callback registration sites — anchors on
functions annotated SCAP_HOT (src/base/hotpath.hpp), and reports every
forbidden operation reachable from a hot root with its full witness call
chain:

    kernel::ScapKernel::handle_batch -> kernel::SegmentStore::insert
        -> std::map::emplace

Rules (registry: tools/scap_rules.py)
-------------------------------------
hot-alloc      operator new (non-placement), malloc/calloc/realloc,
               std::make_unique/make_shared, allocating members of std
               containers (push_back/insert/emplace/resize/..., map
               operator[]) reachable from a SCAP_HOT root.
hot-mutex      base::Mutex / std::mutex acquisition or CondVar wait
               reachable from a SCAP_HOT root. base::SerialDomain /
               SerialGuard are zero-cost capabilities, never flagged.
hot-syscall    blocking syscalls and stdio (read/write/fopen/printf/
               sleep/poll/..., std::this_thread::yield/sleep_*).
hot-throw      throw expressions (stack unwind on the datapath).
hot-recursion  direct or mutual recursion cycles inside the hot closure
               (unbounded stack on attacker-controlled input).
hot-cold-call  calls from the hot closure into SCAP_COLD functions.
stale-waiver   a waiver naming one of the rules above that no longer
               suppresses anything (waivers rot silently otherwise).

Model
-----
* Traversal starts at SCAP_HOT functions and never descends into
  SCAP_COLD ones; the hot->cold edge itself is the finding (rule
  hot-cold-call) unless waivered — that is how amortized maintenance is
  admitted deliberately.
* Lambdas are charged to their lexical enclosing function. A handler
  that must be followed through a FunctionRef / std::function invocation
  site therefore needs to be a *named* function: named callables whose
  address is taken anywhere in scope code form the callback pool, and
  every call through a FunctionRef/std::function-typed value fans out to
  the whole pool.
* Implicitly-defined special members (copy/move ctors and assignments)
  are treated as opaque; a container copy hidden behind `=` is the
  runtime interposer test's job (tests/scap/steady_state_alloc_test.cpp).

Waivers share scap_lint.py syntax: `// scap-lint: allow(<rule>) <reason>`
on the line of (or the line above) either the forbidden operation or any
call edge on the witness chain; an edge waiver cuts traversal for that
rule past that edge. Every waiver that suppresses nothing is reported as
stale-waiver, so the set of waivers is always exactly the set of
accepted debts.

Frontends
---------
--frontend clang   libclang over build/compile_commands.json (falling
                   back to default flags); load_cindex() below is the
                   loader scap_taint.py shares. Precise: real overload
                   resolution, templates, canonical types.
--frontend text    a structural scanner (namespace/class tracking,
                   declared-type receiver resolution, calls on a call's
                   result or on an `auto` local bound to one through the
                   callee's declared return type) that needs no
                   toolchain. Best-effort but deliberately tuned to
                   produce the same graph on this codebase and on the
                   fixtures, so the gate runs even where libclang is
                   not installable.
--frontend auto    clang when libclang loads, else text (default).

Usage: scap_callgraph.py [--root DIR | --fixtures DIR] [--frontend F]
                         [--json] [--list-rules] [--dump-graph]
Exit status: 0 clean, 1 findings, 2 error, 77 (--frontend clang only)
libclang unavailable.
"""

import argparse
import json
import os
import re
import sys
from collections import deque

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import scap_lint    # shared waiver syntax + helpers
import scap_rules   # the single rule registry
from scap_lint import strip_code

EXIT_SKIP = 77

RULES = scap_rules.rules_for("callgraph")

# ---------------------------------------------------------------------------
# Forbidden-operation tables (DESIGN.md §14). Both frontends classify
# against these by *name*, so witness-chain labels agree between them.
# ---------------------------------------------------------------------------

MALLOC_FUNCS = {"malloc", "calloc", "realloc", "strdup", "aligned_alloc",
                "posix_memalign"}

SYSCALL_FUNCS = {
    "read", "write", "pread", "pwrite", "recv", "send", "recvfrom", "sendto",
    "recvmsg", "sendmsg", "open", "fopen", "fclose", "fread", "fwrite",
    "fseek", "fflush", "fprintf", "printf", "vprintf", "fputs", "fputc",
    "puts", "getline", "sleep", "usleep", "nanosleep", "poll", "select",
    "epoll_wait", "ioctl", "sched_yield", "syscall",
}
SLEEPY_QUALIFIED = {"std::this_thread::yield", "std::this_thread::sleep_for",
                    "std::this_thread::sleep_until"}

# Members of std containers that may allocate. operator[] is restricted to
# the map types (vector/deque operator[] is plain indexing).
ALLOC_METHODS = {"push_back", "emplace_back", "emplace", "emplace_hint",
                 "try_emplace", "insert", "insert_or_assign", "assign",
                 "append", "resize", "reserve", "push_front", "push"}
MAP_TYPES = {"std::map", "std::multimap", "std::unordered_map",
             "std::unordered_multimap"}
STD_CONTAINERS = MAP_TYPES | {
    "std::vector", "std::deque", "std::list", "std::forward_list",
    "std::set", "std::multiset", "std::unordered_set",
    "std::unordered_multiset", "std::string", "std::basic_string",
    "std::queue", "std::stack", "std::priority_queue", "std::function",
}
ALLOC_FREE_FUNCS = {"make_unique", "make_shared"}  # under std::

# Wrapper templates looked *through* when resolving a receiver's type.
WRAPPERS = {"std::unique_ptr", "std::shared_ptr", "std::optional",
            "std::atomic", "std::reference_wrapper"}
ELEMENT_CONTAINERS = {"std::vector", "std::array", "std::deque",
                      "std::span"}  # x[i] yields the first template arg

CALLBACK_TYPE_RE = re.compile(r"\b(FunctionRef|std::function)\s*<")

CHECK_RULES = ("hot-alloc", "hot-mutex", "hot-syscall", "hot-throw",
               "hot-cold-call")


def norm_std(name):
    """Canonicalize a std qualified name across library internals so both
    frontends (and libstdc++/libc++) emit identical chain labels."""
    name = name.replace("::__cxx11::", "::").replace("::__1::", "::")
    name = name.replace("std::basic_string", "std::string")
    return name


def canon(name):
    """Canonical node name: project root namespace stripped, template
    arguments removed, whitespace collapsed."""
    name = re.sub(r"\s+", "", name)
    name = strip_template_args(name)
    if name.startswith("scap::"):
        name = name[len("scap::"):]
    return norm_std(name)


def strip_template_args(s):
    out = []
    depth = 0
    for c in s:
        if c == "<":
            depth += 1
        elif c == ">":
            if depth:
                depth -= 1
                continue
        if depth == 0:
            out.append(c)
    return "".join(out)


# ---------------------------------------------------------------------------
# Graph IR — both frontends produce exactly this.
# ---------------------------------------------------------------------------

class Op:
    """A forbidden operation inside a function body."""

    def __init__(self, rule, label, file, line):
        self.rule = rule
        self.label = label
        self.file = file
        self.line = line


class Edge:
    def __init__(self, target, file, line, kind="call"):
        self.target = target      # canonical node name; ignored for callback
        self.file = file
        self.line = line
        self.kind = kind          # "call" | "callback" (fans out to pool)


class Node:
    def __init__(self, name, file, line):
        self.name = name
        self.file = file
        self.line = line
        self.hot = False
        self.cold = False
        self.edges = []
        self.ops = []

    def add_edge(self, target, file, line, kind="call"):
        self.edges.append(Edge(target, file, line, kind))

    def add_op(self, rule, label, file, line):
        self.ops.append(Op(rule, label, file, line))


class Graph:
    def __init__(self):
        self.nodes = {}          # canonical name -> Node
        self.pool = set()        # named callables bound as callbacks
        self.raw_lines = {}      # rel path -> raw source lines (waivers)

    def node(self, name, file, line):
        n = self.nodes.get(name)
        if n is None:
            n = Node(name, file, line)
            self.nodes[name] = n
        return n


# ---------------------------------------------------------------------------
# Text frontend
# ---------------------------------------------------------------------------

CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "do", "else", "new",
    "delete", "throw", "sizeof", "alignof", "decltype", "noexcept",
    "static_assert", "case", "goto", "try", "asm", "co_return", "co_await",
    "co_yield", "operator", "default", "break", "continue", "using",
    "namespace", "typedef", "friend", "template", "public", "private",
    "protected", "static", "const", "constexpr", "inline", "explicit",
    "virtual", "typename", "class", "struct", "union", "enum", "extern",
    "auto", "void", "this",
}

CAST_PREFIXES = {"static_cast", "reinterpret_cast", "const_cast",
                 "dynamic_cast"}

# A (possibly chained) callee: `a.b->c(`, `ns::fn(`, `x(`. Subscripts are
# rewritten to `@` before matching (element unwrap markers).
CALL_CHAIN_RE = re.compile(
    r"(?<![\w.:])([A-Za-z_][A-Za-z0-9_@]*"
    r"(?:(?:\.|->|::)~?[A-Za-z_][A-Za-z0-9_@]*)*)"
    r"\s*(?:<[^;()<>]{0,100}>)?\s*\(")

# A member call on a call's result: `).f(`, `).a.b->f(` (subscripts and
# `->` already rewritten). Group 1 is the field path ending in the method.
RESULT_CALL_RE = re.compile(
    r"\)\s*\.\s*([A-Za-z_][A-Za-z0-9_@]*(?:\.[A-Za-z_][A-Za-z0-9_@]*)*)"
    r"\s*(?:<[^;()<>]{0,100}>)?\s*\(")
# The callee chain that ends right before a call's opening paren.
CALLEE_TAIL_RE = re.compile(
    r"([A-Za-z_][A-Za-z0-9_@]*(?:(?:\.|::)~?[A-Za-z_][A-Za-z0-9_@]*)*)"
    r"\s*(?:<[^;()<>]{0,100}>)?\s*$")

LOCAL_DECL_RE = re.compile(
    r"^\s*((?:const\s+|volatile\s+|static\s+|constexpr\s+)*"
    r"[A-Za-z_][\w:]*(?:\s*<[^;{}]*>)?(?:\s*(?:const\b|[&*]))*)"
    r"\s+([A-Za-z_]\w*)\s*(?=[;({=\[]|$)")

POOL_REF_RE = re.compile(
    r"(&\s*)?(?<![\w.>])([A-Za-z_]\w*(?:::[A-Za-z_]\w*)*)\b(?!\s*[(<\w])")

NEW_RE = re.compile(r"\bnew\b(\s*\()?")
SUBSCRIPT_OPEN_RE = re.compile(r"([A-Za-z_]\w*)\s*\[")


def find_toplevel(s, ch, openers="(<[{", closers=")>]}"):
    """Index of the first `ch` at bracket depth 0, or -1. `<` is treated as
    a bracket (statements here are declarations, not expressions)."""
    depth = 0
    for i, c in enumerate(s):
        if depth == 0 and c == ch:
            return i
        if c in openers:
            depth += 1
        elif c in closers:
            depth = max(0, depth - 1)
    return -1


def match_paren(s, start):
    depth = 0
    for i in range(start, len(s)):
        if s[i] == "(":
            depth += 1
        elif s[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return -1


def split_toplevel(s, sep=","):
    parts = []
    depth = 0
    cur = []
    for c in s:
        if c in "(<[{":
            depth += 1
        elif c in ")>]}":
            depth -= 1
        if c == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    parts.append("".join(cur))
    return parts


def strip_template_prefix(s):
    s = s.strip()
    while s.startswith("template"):
        j = s.find("<")
        if j < 0:
            break
        depth = 0
        k = j
        while k < len(s):
            if s[k] == "<":
                depth += 1
            elif s[k] == ">":
                depth -= 1
                if depth == 0:
                    break
            k += 1
        s = s[k + 1:].strip()
    return s


CLASS_NAME_RE = re.compile(
    r"(?:class|struct|union)\s+"
    r"(?:\[\[[^\]]*\]\]\s*|alignas\s*\([^)]*\)\s*|"
    r"SCAP_[A-Z_]+\s*(?:\([^()]*\)\s*)?)*"
    r"([A-Za-z_]\w*)")

OPERATOR_RE = re.compile(r"\boperator\s*([^\s(]*)$")
NAME_TAIL_RE = re.compile(
    r"(~?[A-Za-z_][A-Za-z0-9_]*(?:::~?[A-Za-z_][A-Za-z0-9_]*)*)$")


def parse_func_sig(stmt):
    """(name, params_text) if `stmt` reads as a function signature whose
    body would follow, else None."""
    s = strip_template_prefix(stmt)
    pos = find_toplevel(s, "(")
    if pos < 0:
        return None
    prefix = s[:pos].rstrip()
    mo = OPERATOR_RE.search(prefix)
    if mo is not None:
        sym = mo.group(1)
        if sym == "":  # operator() — params are the *next* paren group
            close = match_paren(s, pos)
            if close < 0:
                return None
            pos2 = s.find("(", close + 1)
            if pos2 < 0:
                return None
            name, pos = "operator()", pos2
        else:
            name = "operator" + sym
        qual = NAME_TAIL_RE.search(
            strip_template_args(prefix[:mo.start()]).rstrip())
        if qual:
            name = qual.group(1) + "::" + name
    else:
        m = NAME_TAIL_RE.search(strip_template_args(prefix).rstrip())
        if m is None:
            return None
        name = m.group(1)
        last = name.split("::")[-1].lstrip("~")
        if last in CONTROL_KEYWORDS or last.startswith("SCAP_"):
            return None
    close = match_paren(s, pos)
    params = s[pos + 1:close] if close > pos else ""
    return name, params


RET_SPECIFIERS_RE = re.compile(
    r"\b(?:inline|static|virtual|constexpr|consteval|explicit|friend|"
    r"extern|SCAP_HOT|SCAP_COLD)\b")


def func_return_type(stmt):
    """Declared return type of the signature in `stmt`, or None for
    constructors, destructors, operators and `auto` returns."""
    s = ATTR_RE.sub(" ", strip_template_prefix(stmt))
    pos = find_toplevel(s, "(")
    if pos < 0:
        return None
    prefix = s[:pos].rstrip()
    if OPERATOR_RE.search(prefix):
        return None
    m = re.search(r"~?[A-Za-z_]\w*(?:\s*::\s*~?[A-Za-z_]\w*)*$", prefix)
    if m is None:
        return None
    ret = RET_SPECIFIERS_RE.sub(" ", prefix[:m.start()]).strip()
    if not ret or ret.rstrip("&* ") in ("auto", "void"):
        return None
    return ret


FIELD_DECL_RE = re.compile(
    r"^(?:(?:static|mutable|constexpr|const|inline|volatile)\s+)*"
    r"([A-Za-z_][\w:]*(?:\s*<.*>)?(?:\s*(?:const\b|[&*]))*)"
    r"\s+([A-Za-z_]\w*)\s*(\[[^\]]*\]\s*)?(?:=[^;]*)?$")

USING_ALIAS_RE = re.compile(r"^using\s+([A-Za-z_]\w*)\s*=\s*(.+)$")

SCAP_MACRO_RE = re.compile(r"\bSCAP_(?!HOT\b|COLD\b)[A-Z_]+\s*(\([^()]*\))?")
ATTR_RE = re.compile(r"\[\[[^\]]*\]\]")


class Scope:
    def __init__(self, kind, name="", qual=""):
        self.kind = kind    # namespace | class | enum | extern | block
        self.name = name
        self.qual = qual    # canonical, class scopes only


class TextFrontend:
    """Structural scanner: builds the Graph from raw source. Knowingly
    approximate (see module docstring); tuned for this codebase's idiom
    and exercised against the clang frontend by the fixtures."""

    def __init__(self, root):
        self.root = root
        self.graph = Graph()
        self.marks = {}            # qual name -> [hot, cold]
        self.class_fields = {}     # class qual -> {field: type str}
        self.class_methods = {}    # class qual -> set(method last names)
        self.classes = {}          # short name -> set of canonical quals
        self.aliases = {}          # alias short name -> type str
        self.returns = {}          # function qual -> declared return type
        self.bodies = []           # (node name, rel, code, start_off, line)
        self._code = {}            # rel -> stripped code text

    # -- pass A+B: structure ------------------------------------------------

    def add_file(self, rel, text):
        self.graph.raw_lines[rel] = text.splitlines()
        code = strip_code(text)
        self._code[rel] = code
        self._scan_structure(rel, code)

    def _scan_structure(self, rel, code):
        scopes = []
        stmt = []
        stmt_line = 1
        stmt_paren = 0
        stmt_brace = 0
        line = 1
        func = None   # dict while inside a function definition body
        i = 0
        n = len(code)
        while i < n:
            c = code[i]
            if c == "\n":
                line += 1
                stmt.append(" ")
                i += 1
                continue
            if func is not None:
                if c == "{":
                    func["depth"] += 1
                elif c == "}":
                    func["depth"] -= 1
                    if func["depth"] == 0:
                        self.bodies.append(
                            (func["name"], rel,
                             code[func["body_off"] + 1:i],
                             func["body_line"], func["params"]))
                        func = None
                        stmt = []
                        stmt_paren = stmt_brace = 0
                        stmt_line = line
                i += 1
                continue
            if c == "(":
                stmt_paren += 1
            elif c == ")":
                stmt_paren = max(0, stmt_paren - 1)
            if c == "{":
                text_so_far = "".join(stmt)
                if (stmt_paren > 0 or stmt_brace > 0
                        or self._is_initializer_brace(text_so_far, scopes)):
                    stmt_brace += 1
                    stmt.append(c)
                    i += 1
                    continue
                kind = self._classify(text_so_far, scopes, rel, stmt_line)
                if kind is not None and kind[0] == "function":
                    name, params, hot, cold = kind[1]
                    qual = self._qualify(scopes, name)
                    node = self.graph.node(qual, rel, stmt_line)
                    self._mark(qual, hot, cold)
                    self._note_return(qual, text_so_far)
                    self._note_method(scopes, name)
                    func = {"name": qual, "depth": 1, "body_off": i,
                            "body_line": line, "params": params}
                else:
                    scopes.append(kind[1] if kind else Scope("block"))
                stmt = []
                stmt_paren = 0
                stmt_line = line
            elif c == "}":
                if stmt_brace > 0:
                    stmt_brace -= 1
                    stmt.append(c)
                else:
                    if scopes:
                        scopes.pop()
                    stmt = []
                    stmt_paren = 0
                    stmt_line = line
            elif c == ";" and stmt_brace == 0:
                self._decl_stmt("".join(stmt), scopes, rel, stmt_line)
                stmt = []
                stmt_paren = 0
                stmt_line = line
            else:
                if not stmt and not c.isspace():
                    stmt_line = line
                stmt.append(c)
            i += 1

    def _is_initializer_brace(self, stmt, scopes):
        """A `{` that belongs to an initializer (field/var brace-init,
        `= {...}`), not to a new scope."""
        s = stmt.strip()
        s = re.sub(r"\b(?:public|private|protected)\s*:", " ", s).strip()
        if not s:
            return False
        if find_toplevel(s, "=") >= 0:
            return True
        first = s.split()[0] if s.split() else ""
        first = first.split("<")[0]
        if first in ("namespace", "class", "struct", "union", "enum",
                     "extern", "template", "inline", "typedef"):
            return False
        # `Type name` with no parameter list: a brace-initialized variable.
        return find_toplevel(s, "(") < 0 and bool(re.search(r"[\w>]$", s))

    def _classify(self, stmt, scopes, rel, line):
        s = stmt.strip()
        s = re.sub(r"\b(?:public|private|protected)\s*:", " ", s).strip()
        if not s:
            return ("block", Scope("block"))
        m = re.match(r"(?:inline\s+)?namespace\s*([A-Za-z_][\w:]*)?\s*$", s)
        if m:
            return ("namespace", Scope("namespace", m.group(1) or ""))
        st = strip_template_prefix(s)
        toks = st.split()
        t0 = toks[0] if toks else ""
        if t0 == "extern":
            return ("extern", Scope("extern"))
        if t0 == "enum" or (t0 == "typedef" and "enum" in toks[:3]):
            return ("enum", Scope("enum"))
        if t0 in ("class", "struct", "union"):
            cm = CLASS_NAME_RE.search(st)
            name = cm.group(1) if cm else ""
            qual = self._qualify(scopes, name) if name else ""
            if name:
                self.classes.setdefault(name, set()).add(qual)
                self.class_fields.setdefault(qual, {})
                self.class_methods.setdefault(qual, set())
            return ("class", Scope("class", name, qual))
        sig = parse_func_sig(st)
        if sig is not None:
            hot = bool(re.search(r"\bSCAP_HOT\b", s))
            cold = bool(re.search(r"\bSCAP_COLD\b", s))
            return ("function", (sig[0], sig[1], hot, cold))
        return ("block", Scope("block"))

    def _qualify(self, scopes, name):
        parts = []
        for sc in scopes:
            if sc.kind in ("namespace", "class") and sc.name:
                parts.extend(p for p in sc.name.split("::") if p)
        return canon("::".join(parts + [name]))

    def _cur_class(self, scopes):
        for sc in reversed(scopes):
            if sc.kind == "class":
                return sc.qual
            if sc.kind == "namespace":
                return None
        return None

    def _mark(self, qual, hot, cold):
        if hot or cold:
            m = self.marks.setdefault(qual, [False, False])
            m[0] = m[0] or hot
            m[1] = m[1] or cold

    def _note_return(self, qual, stmt):
        s = re.sub(r"\b(?:public|private|protected)\s*:", " ", stmt)
        ret = func_return_type(SCAP_MACRO_RE.sub(" ", s))
        if ret is not None:
            self.returns.setdefault(qual, ret)

    def _note_method(self, scopes, name):
        cls = self._cur_class(scopes)
        if cls is not None and "::" not in name:
            self.class_methods.setdefault(cls, set()).add(
                name.lstrip("~"))

    def _decl_stmt(self, stmt, scopes, rel, line):
        s = stmt.strip()
        s = re.sub(r"\b(?:public|private|protected)\s*:", " ", s).strip()
        if not s:
            return
        s = ATTR_RE.sub(" ", s)
        s = SCAP_MACRO_RE.sub(" ", s).strip()
        um = USING_ALIAS_RE.match(s)
        if um:
            self.aliases[um.group(1)] = um.group(2).strip()
            return
        first = s.split()[0].split("<")[0] if s.split() else ""
        if first in ("using", "typedef", "friend", "namespace", "return",
                     "static_assert", "extern", "enum"):
            return
        hot = bool(re.search(r"\bSCAP_HOT\b", s))
        cold = bool(re.search(r"\bSCAP_COLD\b", s))
        body = strip_template_prefix(s)
        if find_toplevel(body, "(") >= 0:
            sig = parse_func_sig(body)
            if sig is not None:
                qual = self._qualify(scopes, sig[0])
                self._mark(qual, hot, cold)
                self._note_method(scopes, sig[0])
                self._note_return(qual, body)
            return
        cls = self._cur_class(scopes)
        if cls is None or first in ("class", "struct", "union"):
            return
        body = re.sub(r"^\s*(?:SCAP_HOT|SCAP_COLD)\s+", "", body)
        fm = FIELD_DECL_RE.match(body)
        if fm:
            self.class_fields.setdefault(cls, {})[fm.group(2)] = \
                fm.group(1).strip()

    # -- type resolution ----------------------------------------------------

    def _clean_type(self, t):
        t = t.strip()
        t = re.sub(r"\b(?:const|volatile|struct|class|typename)\b", " ", t)
        t = t.replace("&", " ").replace("*", " ").strip()
        return re.sub(r"\s+", " ", t)

    def _outer(self, t):
        m = re.match(r"\s*([A-Za-z_][\w:]*)", t)
        return m.group(1) if m else ""

    def _first_targ(self, t):
        j = t.find("<")
        if j < 0:
            return None
        depth = 0
        for k in range(j, len(t)):
            if t[k] == "<":
                depth += 1
            elif t[k] == ">":
                depth -= 1
                if depth == 0:
                    inner = t[j + 1:k]
                    return split_toplevel(inner)[0].strip()
        return None

    def resolve_type(self, t, depth=0):
        """-> ('class', canonical) | ('std', outer) | ('callable', t)
        | (None, None)."""
        if t is None or depth > 6:
            return (None, None)
        t = self._clean_type(t)
        if not t or t == "auto":
            return (None, None)
        if CALLBACK_TYPE_RE.search(t):
            return ("callable", t)
        outer = self._outer(t)
        al = self.aliases.get(outer.split("::")[-1])
        if al is not None and al != t:
            return self.resolve_type(al, depth + 1)
        co = canon(outer)
        if co in WRAPPERS:
            return self.resolve_type(self._first_targ(t), depth + 1)
        if co.startswith("std::"):
            return ("std", co)
        if co in self.class_fields:
            return ("class", co)
        short = co.split("::")[-1]
        cands = self.classes.get(short, set())
        match = [q for q in cands if q == co or q.endswith("::" + co)]
        if len(match) == 1:
            return ("class", match[0])
        if len(cands) == 1:
            return ("class", next(iter(cands)))
        return (None, None)

    def _elem_type(self, t):
        """Element type for `x[i]` when x is a known sequence container."""
        if t is None:
            return None
        co = canon(self._outer(self._clean_type(t)))
        if co in ELEMENT_CONTAINERS:
            return self._first_targ(self._clean_type(t))
        return t  # raw pointer/array decay: keep the declared type

    # -- pass C: bodies -----------------------------------------------------

    def finish(self):
        # Marks collected from declarations apply to definition nodes.
        for qual, (hot, cold) in self.marks.items():
            node = self.graph.nodes.get(qual)
            if node is not None:
                node.hot = node.hot or hot
                node.cold = node.cold or cold
        self._free_by_last = {}
        self._all_by_last = {}
        class_prefixes = set(self.class_fields)
        for name in self.graph.nodes:
            last = name.split("::")[-1]
            self._all_by_last.setdefault(last, []).append(name)
            prefix = "::".join(name.split("::")[:-1])
            if prefix not in class_prefixes:
                self._free_by_last.setdefault(last, []).append(name)
        for name, rel, body, line0, params in self.bodies:
            self._scan_body(self.graph.nodes[name], rel, body, line0, params)
        return self.graph

    def _parse_params(self, params):
        table = {}
        for p in split_toplevel(params):
            p = p.strip()
            eq = find_toplevel(p, "=")
            if eq >= 0:
                p = p[:eq].rstrip()
            m = re.match(r"^(.*[\w>&*\]])[\s&*]+([A-Za-z_]\w*)$", p)
            if m:
                table[m.group(2)] = m.group(1).strip()
        return table

    def _scan_body(self, node, rel, body, line0, params):
        locals_ = self._parse_params(params)
        cur_class = None
        prefix = "::".join(node.name.split("::")[:-1])
        if prefix in self.class_fields:
            cur_class = prefix
        for off, raw_ln in enumerate(body.split("\n")):
            lineno = line0 + off
            ln = raw_ln
            # throw / new
            if re.search(r"\bthrow\b", ln):
                node.add_op("hot-throw", "throw", rel, lineno)
            for m in NEW_RE.finditer(ln):
                if not m.group(1):  # `new (...)` is placement: no heap
                    node.add_op("hot-alloc", "operator new", rel, lineno)
            # local declarations (incl. ctor-call edges for project types)
            self._scan_local_decl(node, ln, lineno, rel, locals_, cur_class)
            # map operator[] (subscript form never reaches the call regex)
            self._scan_subscripts(node, ln, lineno, rel, locals_, cur_class)
            # calls — subscripts collapsed to element-unwrap markers
            calls_ln = self._collapse_subscripts(ln)
            for m in CALL_CHAIN_RE.finditer(calls_ln):
                self._handle_call(node, m.group(1), rel, lineno, locals_,
                                  cur_class)
            for m in RESULT_CALL_RE.finditer(calls_ln):
                t = self._result_type(calls_ln, m.start(), locals_,
                                      cur_class)
                self._member_call(node, t, m.group(1).split("."), rel,
                                  lineno)
            self._scan_pool_refs(node, ln, locals_)

    def _scan_local_decl(self, node, ln, lineno, rel, locals_, cur_class):
        m = LOCAL_DECL_RE.match(ATTR_RE.sub(" ", ln))
        if not m:
            return
        tstr, name = m.group(1).strip(), m.group(2)
        first = tstr.split()[-1].split("<")[0].split("::")[0]
        if first in CONTROL_KEYWORDS and first != "auto":
            return
        if first.rstrip("&*") == "auto":
            tstr = self._infer_auto(ln, locals_, cur_class)
        locals_[name] = tstr
        kind, resolved = self.resolve_type(tstr)
        if kind == "class":
            ctor = resolved + "::" + resolved.split("::")[-1]
            if ctor in self.graph.nodes:
                node.add_edge(ctor, rel, lineno)

    def _infer_auto(self, ln, locals_, cur_class):
        cl = self._collapse_subscripts(ln)
        c = re.search(r"=\s*[*&]?\s*[A-Za-z_][\w:.@]*\s*\(", cl)
        if c:  # `auto x = a.f(...)`: the call's declared return type
            close = match_paren(cl, c.end() - 1)
            return (self._result_type(cl, close, locals_, cur_class)
                    if close > 0 else None)
        m = re.search(r"=\s*[*&]?\s*([A-Za-z_][\w:.\[\]>-]*)", ln)
        if not m:
            return None
        expr = self._collapse_subscripts(m.group(1).rstrip(";"))
        t = self._resolve_chain_type(expr.split("."), locals_, cur_class)
        return t

    def _collapse_subscripts(self, ln):
        out = []
        depth = 0
        for c in ln:
            if c == "[":
                depth += 1
                if depth == 1:
                    out.append("@")
                continue
            if c == "]":
                depth = max(0, depth - 1)
                continue
            if depth == 0:
                out.append(c)
        return "".join(out).replace("->", ".")

    def _scan_subscripts(self, node, ln, lineno, rel, locals_, cur_class):
        for m in SUBSCRIPT_OPEN_RE.finditer(ln):
            t = self._lookup_var(m.group(1), locals_, cur_class)
            if t is None:
                continue
            kind, resolved = self.resolve_type(t)
            if kind == "std" and resolved in MAP_TYPES:
                node.add_op("hot-alloc", resolved + "::operator[]",
                            rel, lineno)

    def _lookup_var(self, name, locals_, cur_class):
        if name in locals_:
            return locals_[name]
        if cur_class is not None:
            f = self.class_fields.get(cur_class, {}).get(name)
            if f is not None:
                return f
        return None

    def _resolve_chain_type(self, parts, locals_, cur_class):
        """Declared type of `a.b.c` (with @ element markers), or None."""
        t = None
        for idx, part in enumerate(parts):
            sub = part.count("@")
            base = part.replace("@", "")
            if idx == 0:
                if base == "this":
                    t = cur_class
                else:
                    t = self._lookup_var(base, locals_, cur_class)
                if t is None:
                    return None
            else:
                kind, resolved = self.resolve_type(t)
                if kind != "class":
                    return None
                t = self.class_fields.get(resolved, {}).get(base)
                if t is None:
                    return None
            for _ in range(sub):
                t = self._elem_type(t)
        return t

    def _handle_call(self, node, chain, rel, lineno, locals_, cur_class):
        chain = chain.replace("->", ".")
        if "." in chain:
            parts = chain.split(".")
            t = self._resolve_chain_type(parts[:1], locals_, cur_class)
            self._member_call(node, t, parts[1:], rel, lineno)
            return
        # no receiver: qualified or bare
        full = chain.replace("@", "")
        last = full.split("::")[-1]
        if last in CONTROL_KEYWORDS or full.split("::")[0] in CAST_PREFIXES \
                or last.startswith("SCAP_"):
            return
        cfull = canon(full)
        if cfull in SLEEPY_QUALIFIED:
            node.add_op("hot-syscall", cfull, rel, lineno)
            return
        if cfull.startswith("std::"):
            if last in ALLOC_FREE_FUNCS:
                node.add_op("hot-alloc", "std::" + last, rel, lineno)
            return
        if "::" not in full:
            vt = self._lookup_var(full, locals_, cur_class)
            if vt is not None:
                if CALLBACK_TYPE_RE.search(vt):
                    node.add_edge("", rel, lineno, kind="callback")
                return  # a variable, not a function name
            if full in MALLOC_FUNCS:
                node.add_op("hot-alloc", full, rel, lineno)
                return
            if full in SYSCALL_FUNCS:
                node.add_op("hot-syscall", full, rel, lineno)
                return
        target = self._resolve_function(cfull, cur_class)
        if target is not None:
            node.add_edge(target, rel, lineno)

    def _member_call(self, node, t, parts, rel, lineno):
        """Edge or op for calling `parts[-1]` through the field path
        `parts[:-1]` on a receiver of declared type `t`."""
        t = self._walk_fields(t, parts[:-1])
        if t is None:
            return
        method = parts[-1].replace("@", "")
        kind, resolved = self.resolve_type(t)
        if kind == "class":
            field_t = self.class_fields.get(resolved, {}).get(method)
            if field_t is not None and CALLBACK_TYPE_RE.search(field_t):
                node.add_edge("", rel, lineno, kind="callback")
            elif method in self.class_methods.get(resolved, set()):
                node.add_edge(resolved + "::" + method, rel, lineno)
        elif kind == "std":
            self._std_member_op(node, resolved, method, rel, lineno)
        elif kind == "callable":
            node.add_edge("", rel, lineno, kind="callback")

    def _walk_fields(self, t, parts):
        """Declared type of `.a.b` (with @ element markers) on a value of
        type `t`, or None."""
        for part in parts:
            if t is None:
                return None
            kind, resolved = self.resolve_type(t)
            if kind != "class":
                return None
            t = self.class_fields.get(resolved, {}).get(part.replace("@", ""))
            for _ in range(part.count("@")):
                t = self._elem_type(t)
        return t

    def _result_type(self, ln, close, locals_, cur_class):
        """Declared return type of the call whose argument list closes at
        `ln[close]` (`a.b.f(...)`, `f(...)`, or itself chained on a call
        result), or None."""
        depth = 0
        for open_ in range(close, -1, -1):
            if ln[open_] == ")":
                depth += 1
            elif ln[open_] == "(":
                depth -= 1
                if depth == 0:
                    break
        else:
            return None
        m = CALLEE_TAIL_RE.search(ln[:open_])
        if m is None:
            return None
        parts = m.group(1).split(".")
        before = ln[:m.start()].rstrip()
        if before.endswith(".") and before[:-1].rstrip().endswith(")"):
            # `g(...).f(...)`: the receiver is itself a call's result.
            inner = len(before[:-1].rstrip()) - 1
            recv = self._result_type(ln, inner, locals_, cur_class)
        elif len(parts) > 1:
            recv = self._resolve_chain_type(parts[:1], locals_, cur_class)
            parts = parts[1:]
        else:
            target = self._resolve_function(canon(parts[0].replace("@", "")),
                                            cur_class)
            return self.returns.get(target) if target else None
        kind, resolved = self.resolve_type(
            self._walk_fields(recv, parts[:-1]))
        if kind != "class":
            return None
        return self.returns.get(resolved + "::" + parts[-1].replace("@", ""))

    def _std_member_op(self, node, container, method, rel, lineno):
        if container in STD_CONTAINERS and method in ALLOC_METHODS:
            node.add_op("hot-alloc", container + "::" + method, rel, lineno)
        elif container == "std::mutex" and method in ("lock", "try_lock"):
            node.add_op("hot-mutex", "std::mutex::lock", rel, lineno)
        elif container == "std::condition_variable" and \
                method in ("wait", "wait_for", "wait_until"):
            node.add_op("hot-mutex", "std::condition_variable::wait",
                        rel, lineno)

    def _resolve_function(self, name, cur_class):
        nodes = self.graph.nodes
        if name in nodes:
            return name
        if "::" in name:
            cands = [n for n in self._all_by_last.get(
                name.split("::")[-1], []) if n.endswith("::" + name)]
            if len(cands) == 1:
                return cands[0]
            return None
        if cur_class is not None:
            m = cur_class + "::" + name
            if m in nodes or name in self.class_methods.get(cur_class, set()):
                return m if m in nodes else None
        free = self._free_by_last.get(name, [])
        if len(free) == 1:
            return free[0]
        return None

    def _scan_pool_refs(self, node, ln, locals_):
        for m in POOL_REF_RE.finditer(ln):
            amp, name = m.group(1), m.group(2)
            if not amp:
                prev = ln[:m.start()].rstrip()[-1:]
                if prev not in ("(", ",", "="):
                    continue
            last = name.split("::")[-1]
            if last in CONTROL_KEYWORDS or name in locals_ or \
                    name.startswith("std::"):
                continue
            cn = canon(name)
            target = cn if cn in self.graph.nodes else None
            if target is None:
                cands = [x for x in self._all_by_last.get(last, [])
                         if x.endswith("::" + cn) or x == cn]
                if len(cands) == 1:
                    target = cands[0]
            if target is not None:
                self.graph.pool.add(target)


def build_text_graph(root, rel_files):
    fe = TextFrontend(root)
    for rel in rel_files:
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            fe.add_file(rel, f.read())
    return fe.finish()


# ---------------------------------------------------------------------------
# Clang frontend
# ---------------------------------------------------------------------------

class ClangFrontend:
    FUNC_KINDS = None  # filled in __init__ (needs cindex)

    def __init__(self, cindex, root):
        self.cindex = cindex
        self.ck = cindex.CursorKind
        self.root = root
        self.graph = Graph()
        self.marks = {}
        self.FUNC_KINDS = (self.ck.FUNCTION_DECL, self.ck.CXX_METHOD,
                           self.ck.CONSTRUCTOR, self.ck.FUNCTION_TEMPLATE,
                           self.ck.CONVERSION_FUNCTION)

    def in_scope(self, loc):
        if loc.file is None:
            return None
        path = os.path.abspath(loc.file.name)
        if not path.startswith(self.root + os.sep) and path != self.root:
            return None
        return os.path.relpath(path, self.root).replace(os.sep, "/")

    def qualified(self, cursor):
        parts = []
        c = cursor
        while c is not None and c.kind != self.ck.TRANSLATION_UNIT:
            if c.kind not in (self.ck.LINKAGE_SPEC, self.ck.UNEXPOSED_DECL):
                if c.spelling:
                    parts.append(c.spelling)
            c = c.semantic_parent
        return canon("::".join(reversed(parts)))

    def annotations(self, cursor):
        hot = cold = False
        for ch in cursor.get_children():
            if ch.kind == self.ck.ANNOTATE_ATTR:
                if ch.spelling == "scap_hot":
                    hot = True
                elif ch.spelling == "scap_cold":
                    cold = True
        return hot, cold

    def is_global(self, decl):
        p = decl.semantic_parent
        while p is not None and p.kind in (self.ck.LINKAGE_SPEC,
                                           self.ck.UNEXPOSED_DECL):
            p = p.semantic_parent
        return p is None or p.kind == self.ck.TRANSLATION_UNIT

    def add_tu(self, tu):
        self.walk(tu.cursor, None, None)

    def walk(self, cursor, current, callee_ref):
        ck = self.ck
        rel = self.in_scope(cursor.location)
        next_callee = callee_ref
        if cursor.kind in self.FUNC_KINDS and rel is not None:
            hot, cold = self.annotations(cursor)
            qual = self.qualified(cursor)
            if qual and not qual.split("::")[-1].startswith("~"):
                if hot or cold:
                    m = self.marks.setdefault(qual, [False, False])
                    m[0] = m[0] or hot
                    m[1] = m[1] or cold
                if cursor.is_definition():
                    current = self.graph.node(qual, rel,
                                              cursor.location.line)
        elif cursor.kind == ck.LAMBDA_EXPR:
            pass  # lambda bodies are charged to the lexical encloser
        if current is not None and rel is not None:
            line = cursor.location.line
            if cursor.kind == ck.CXX_NEW_EXPR:
                if not self._is_placement_new(cursor):
                    current.add_op("hot-alloc", "operator new", rel, line)
            elif cursor.kind == ck.CXX_THROW_EXPR:
                current.add_op("hot-throw", "throw", rel, line)
            elif cursor.kind == ck.CALL_EXPR:
                ref = cursor.referenced
                self._classify_call(current, ref, rel, line)
                next_callee = ref
            elif cursor.kind == ck.DECL_REF_EXPR:
                ref = cursor.referenced
                if ref is not None and ref.kind in self.FUNC_KINDS:
                    same = (callee_ref is not None and
                            callee_ref.canonical == ref.canonical)
                    if not same and self.in_scope(ref.location) is not None:
                        self.graph.pool.add(self.qualified(ref))
        for ch in cursor.get_children():
            self.walk(ch, current, next_callee)

    def _is_placement_new(self, cursor):
        toks = [t.spelling for t in cursor.get_tokens()]
        for i, t in enumerate(toks):
            if t == "new":
                return i + 1 < len(toks) and toks[i + 1] == "("
        return False

    def _classify_call(self, current, ref, rel, line):
        ck = self.ck
        if ref is None or ref.kind == ck.DESTRUCTOR:
            return
        sp = ref.spelling
        qual = self.qualified(ref)
        parent = ref.semantic_parent
        pq = self.qualified(parent) if parent is not None else ""
        # external / std classification first: a fixture may *declare*
        # std/libc symbols locally, and those must still read as external.
        if sp in MALLOC_FUNCS and self.is_global(ref):
            current.add_op("hot-alloc", sp, rel, line)
            return
        if qual in SLEEPY_QUALIFIED:
            current.add_op("hot-syscall", qual, rel, line)
            return
        if sp in SYSCALL_FUNCS and self.is_global(ref):
            current.add_op("hot-syscall", sp, rel, line)
            return
        if qual.startswith("std::"):
            if pq in STD_CONTAINERS and sp in ALLOC_METHODS:
                current.add_op("hot-alloc", pq + "::" + sp, rel, line)
            elif pq in MAP_TYPES and sp == "operator[]":
                current.add_op("hot-alloc", pq + "::operator[]", rel, line)
            elif pq == "std::mutex" and sp in ("lock", "try_lock"):
                current.add_op("hot-mutex", "std::mutex::lock", rel, line)
            elif pq == "std::condition_variable" and \
                    sp in ("wait", "wait_for", "wait_until"):
                current.add_op("hot-mutex", "std::condition_variable::wait",
                               rel, line)
            elif sp in ALLOC_FREE_FUNCS:
                current.add_op("hot-alloc", "std::" + sp, rel, line)
            elif pq == "std::function" and sp == "operator()":
                current.add_edge("", rel, line, kind="callback")
            return
        if sp == "operator new" or qual == "operator new":
            current.add_op("hot-alloc", "operator new", rel, line)
            return
        if qual.endswith("FunctionRef::operator()"):
            current.add_edge("", rel, line, kind="callback")
            return
        if self.in_scope(ref.location) is not None and \
                ref.kind in self.FUNC_KINDS:
            current.add_edge(qual, rel, line)

    def finish(self):
        for qual, (hot, cold) in self.marks.items():
            node = self.graph.nodes.get(qual)
            if node is not None:
                node.hot = node.hot or hot
                node.cold = node.cold or cold
        return self.graph


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


def parse_tu(cindex, index, path, args):
    try:
        tu = index.parse(path, args=args)
    except cindex.TranslationUnitLoadError as e:
        print(f"scap_callgraph: failed to parse {path}: {e}", file=sys.stderr)
        return None
    fatal = [d for d in tu.diagnostics if d.severity >= d.Fatal]
    if fatal:
        for d in fatal:
            print(f"scap_callgraph: {path}: {d.spelling}", file=sys.stderr)
        return None
    return tu


def compile_args_for(cindex, root, rel):
    """Arguments for one TU: compile_commands.json when present, else
    default flags."""
    db_dir = os.path.join(root, "build")
    if os.path.exists(os.path.join(db_dir, "compile_commands.json")):
        try:
            db = cindex.CompilationDatabase.fromDirectory(db_dir)
            cmds = db.getCompileCommands(os.path.join(root, rel))
            if cmds:
                args = []
                skip = False
                for a in list(cmds[0].arguments)[1:]:
                    if skip:
                        skip = False
                        continue
                    if a in ("-c", rel, os.path.join(root, rel)):
                        continue
                    if a == "-o":
                        skip = True
                        continue
                    args.append(a)
                return args
        except Exception:
            pass
    return ["-x", "c++", "-std=c++20", "-I", os.path.join(root, "src"),
            "-DSCAP_ENABLE_TRACE"]


def build_clang_graph(cindex, root, rel_files, fixture_mode):
    index = cindex.Index.create()
    fe = ClangFrontend(cindex, root)
    for rel in rel_files:
        path = os.path.join(root, rel)
        with open(path, encoding="utf-8") as f:
            fe.graph.raw_lines[rel] = f.read().splitlines()
    tus = [r for r in rel_files if r.endswith(".cpp")]
    for rel in tus:
        path = os.path.join(root, rel)
        if fixture_mode:
            args = ["-x", "c++", "-std=c++17", "-nostdinc++"]
        else:
            args = compile_args_for(cindex, root, rel)
        tu = parse_tu(cindex, index, path, args)
        if tu is None:
            return None
        fe.add_tu(tu)
    return fe.finish()


# ---------------------------------------------------------------------------
# Engine: closure, witness chains, waivers
# ---------------------------------------------------------------------------

class CgFinding:
    def __init__(self, file, line, rule, chain, message):
        self.file = file
        self.line = line
        self.rule = rule
        self.chain = chain
        self.message = message

    def __str__(self):
        return f"{self.file}:{self.line}: [{self.rule}] {self.message}"


def chain_str(chain):
    return " -> ".join(chain)


RULE_WHAT = {
    "hot-alloc": "allocation",
    "hot-mutex": "lock acquisition",
    "hot-syscall": "blocking syscall",
    "hot-throw": "throw",
}


def analyze_graph(graph, fixture_mode):
    findings = []
    used = set()   # (file, waiver line, rule) that suppressed something
    nodes = graph.nodes
    pool = sorted(graph.pool)

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

    def targets(edge):
        return pool if edge.kind == "callback" else [edge.target]

    def edge_key(e):
        return (e.kind, e.target, e.file, e.line)

    roots = sorted(n.name for n in nodes.values() if n.hot and not n.cold)
    for n in sorted(nodes.values(), key=lambda x: x.name):
        if n.hot and n.cold:
            findings.append(CgFinding(
                n.file, n.line, "hot-cold-call", [n.name],
                f"'{n.name}' is annotated both SCAP_HOT and SCAP_COLD"))

    seen_op = set()
    seen_cold = set()
    for rule in CHECK_RULES:
        parent = {r: None for r in roots}
        visited = set(roots)
        queue = deque(roots)

        def path(nm):
            out = []
            while nm is not None:
                out.append(nm)
                nm = parent[nm]
            return list(reversed(out))

        while queue:
            nm = queue.popleft()
            node = nodes[nm]
            if rule != "hot-cold-call":
                for op in node.ops:
                    if op.rule != rule:
                        continue
                    w = waiver_at(op.file, op.line, rule)
                    if w is not None:
                        used.add((op.file, w, rule))
                        continue
                    key = (rule, op.file, op.line, op.label)
                    if key in seen_op:
                        continue
                    seen_op.add(key)
                    ch = path(nm) + [op.label]
                    findings.append(CgFinding(
                        op.file, op.line, rule, ch,
                        f"{RULE_WHAT[rule]} reachable from SCAP_HOT root "
                        f"'{ch[0]}': {chain_str(ch)}"))
            for e in sorted(node.edges, key=edge_key):
                for t in targets(e):
                    tn = nodes.get(t)
                    if tn is None:
                        continue
                    if tn.cold:
                        if rule == "hot-cold-call":
                            w = waiver_at(e.file, e.line, rule)
                            if w is not None:
                                used.add((e.file, w, rule))
                                continue
                            key = (e.file, e.line, t)
                            if key in seen_cold:
                                continue
                            seen_cold.add(key)
                            ch = path(nm) + [t]
                            findings.append(CgFinding(
                                e.file, e.line, rule, ch,
                                f"hot closure calls SCAP_COLD '{t}': "
                                f"{chain_str(ch)}"))
                        continue
                    w = waiver_at(e.file, e.line, rule)
                    if w is not None:
                        used.add((e.file, w, rule))
                        continue
                    if t not in visited:
                        visited.add(t)
                        parent[t] = nm
                        queue.append(t)

    # hot-recursion: cycle detection over the (non-cold) hot closure.
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))
    color = {}
    reported = set()

    def dfs(nm, pathlist):
        color[nm] = 1
        node = nodes[nm]
        for e in sorted(node.edges, key=edge_key):
            for t in targets(e):
                tn = nodes.get(t)
                if tn is None or tn.cold:
                    continue
                c = color.get(t, 0)
                if c == 1:
                    w = waiver_at(e.file, e.line, "hot-recursion")
                    if w is not None:
                        used.add((e.file, w, "hot-recursion"))
                        continue
                    idx = pathlist.index(t)
                    key = tuple(sorted(set(pathlist[idx:])))
                    if key in reported:
                        continue
                    reported.add(key)
                    ch = pathlist + [t]
                    findings.append(CgFinding(
                        e.file, e.line, "hot-recursion", ch,
                        f"recursion cycle in the hot closure: "
                        f"{chain_str(ch)}"))
                elif c == 0:
                    dfs(t, pathlist + [t])
        color[nm] = 2

    for r in roots:
        if color.get(r, 0) == 0:
            dfs(r, [r])

    # stale-waiver (+ reasonless waivers in fixture mode; repo mode leaves
    # those to scap_lint so each violation has exactly one reporter).
    for rel in sorted(graph.raw_lines):
        for i, ln in enumerate(graph.raw_lines[rel]):
            m = scap_lint.WAIVER_RE.search(ln)
            if not m:
                continue
            rule, reason = m.group(1), m.group(2).strip()
            if fixture_mode and not reason:
                findings.append(CgFinding(rel, i + 1, "waiver", [],
                                          "waiver without a reason"))
            if scap_rules.owner_of(rule) == "callgraph" and \
                    (rel, i + 1, rule) not in used:
                findings.append(CgFinding(
                    rel, i + 1, "stale-waiver", [],
                    f"waiver for '{rule}' suppresses nothing — the finding "
                    "it excused is gone; remove the waiver"))
    return findings


def dump_graph(graph, out=sys.stdout):
    for name in sorted(graph.nodes):
        n = graph.nodes[name]
        mark = " [HOT]" if n.hot else (" [COLD]" if n.cold else "")
        print(f"{name}{mark}  ({n.file}:{n.line})", file=out)
        for e in sorted(n.edges, key=lambda e: (e.kind, e.target, e.line)):
            t = "<callback pool>" if e.kind == "callback" else e.target
            print(f"    -> {t}  ({e.file}:{e.line})", file=out)
        for op in sorted(n.ops, key=lambda o: (o.line, o.rule)):
            print(f"    !! {op.rule}: {op.label}  ({op.file}:{op.line})",
                  file=out)
    if graph.pool:
        print("callback pool: " + ", ".join(sorted(graph.pool)), file=out)


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
    parser.add_argument("--dump-graph", action="store_true")
    args = parser.parse_args()

    if args.list_rules:
        print("\n".join(RULES + [scap_rules.STALE_WAIVER_RULE]))
        return 0

    cindex = None
    if args.frontend in ("auto", "clang"):
        cindex = load_cindex()
    if args.frontend == "clang" and cindex is None:
        print("scap_callgraph: libclang not available (install "
              "python3-clang + libclang or set SCAP_LIBCLANG; or use "
              "--frontend text); skipping", file=sys.stderr)
        return EXIT_SKIP
    frontend = "clang" if cindex is not None else "text"
    print(f"scap_callgraph: frontend={frontend}", file=sys.stderr)

    findings = []
    graphs = []
    if args.fixtures:
        root = os.path.abspath(args.fixtures)
        if not os.path.isdir(root):
            print(f"scap_callgraph: no such fixture dir: {root}",
                  file=sys.stderr)
            return 2
        files = [n for n in sorted(os.listdir(root)) if n.endswith(".cpp")]
        for rel in files:
            if frontend == "clang":
                graph = build_clang_graph(cindex, root, [rel],
                                          fixture_mode=True)
            else:
                graph = build_text_graph(root, [rel])
            if graph is None:
                return 2
            graphs.append(graph)
            findings.extend(analyze_graph(graph, fixture_mode=True))
    else:
        root = os.path.abspath(args.root)
        if not os.path.isdir(os.path.join(root, "src")):
            print(f"scap_callgraph: {root} does not look like the scap "
                  "repo", file=sys.stderr)
            return 2
        files = list(scap_lint.iter_source_files(root, "src"))
        if frontend == "clang":
            graph = build_clang_graph(cindex, root, files,
                                      fixture_mode=False)
        else:
            graph = build_text_graph(root, files)
        if graph is None:
            return 2
        graphs.append(graph)
        findings.extend(analyze_graph(graph, fixture_mode=False))

    if args.dump_graph:
        for g in graphs:
            dump_graph(g)

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
        print(f"scap_callgraph: {len(findings)} finding(s) "
              f"[frontend={frontend}]", file=sys.stderr)
        return 1
    if not args.json:
        print(f"scap_callgraph: clean [frontend={frontend}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
