#!/usr/bin/env python3
"""qc-lint: repo-specific static checks for the Quancurrent engine.

Nine checks, each enforcing an invariant the compiler cannot see:

  explicit-memory-order   Every atomic operation names its memory order.  The
                          snapshot-validation and IBR correctness arguments in
                          core/quancurrent.hpp depend on exact acquire/release
                          pairing; an implicit seq_cst op is an unjustified
                          fence (cost) and an undocumented ordering assumption
                          (correctness debt).
  no-alloc-under-latch    Nothing allocates in code reachable from a
                          QC_REQUIRES(latch_) function or inside a LatchGuard
                          scope (the pre-reserve rule): no allocating call,
                          and no owning std container declared with an
                          initializer (`std::vector<T> x(y);`).  Deliberate,
                          protocol-audited exceptions carry a
                          `// qc-lint-allow(no-alloc-under-latch): why` marker.
  no-blocking-under-latch Nothing blocks under the install latch: no mutex
                          acquisition, no sleeps, no file I/O, and no call to
                          a QC_EXCLUDES(latch_) function (self-deadlock).
  no-wait-while-pinned    Nothing waits on the sketch while an IBR pin is
                          held: after an `IbrPin` or `LadderImage`
                          declaration, to the end of its scope, no statement
                          takes tail_mu_ (MutexLock), the install latch
                          (LatchGuard, acquire_latch) or an install-queue
                          wait (drain_until, acquire_cell, drain_installs),
                          directly or through the call graph.  A latch
                          holder throttled at ibr_retire_cap waits for every
                          pin, so a pinned waiter deadlocks against it.
  no-lock-on-query-path   Queries never wait: nothing reachable from a
                          member of a Querier class, or from a LadderImage
                          constructor that takes a pin slot (the unlatched
                          loader), through the call graph takes tail_mu_
                          (MutexLock), the install latch (LatchGuard,
                          acquire_latch, try_acquire_latch) or an
                          install-queue wait (drain_until, drain_installs,
                          acquire_cell).  Refreshes are noexcept and
                          lock-free; a lock there makes every query wait on
                          a writer.
  ladder-read-through-image
                          Off the install latch, ladder slot and tail
                          pointers are read only through LadderImage: a
                          slot_block() call or tail_ load must sit in a
                          QC_REQUIRES(latch_) function, after a LatchGuard
                          in its scope, or in a member of LadderImage (a
                          tail_ load also under tail_mu_, which serializes
                          the tail writers, or in a destructor).  The image
                          owns the pin and the load order that its callers'
                          seq validation rests on; a second reader would
                          have to repeat both.
  ref-under-image         A query view references a level block
                          (`readers.fetch_add(`) only in a function that
                          takes or declares a LadderImage: the reference
                          must be taken while the image's pin is held, or
                          a reclamation scan that no longer sees the pin
                          could miss the reference and reuse the block.
  reopen-after-claim      A batch owner reopens its gather ordinal
                          (`ordinal.store(`) only after an install-cell claim
                          (`acquire_cell(`) earlier in the same function: a
                          batch must sit in its gather ordinal or in a
                          claimed cell at every moment, or the relaxation
                          bound N*b + rho*nodes*2k + Q*2k stops holding (a
                          backpressured owner would hold a batch in neither
                          while its buffer refills).  quiesce()'s residue
                          `ordinal.fetch_add` is not matched: it routes the
                          residue to the tail first.
  qc-check-over-assert    In engine headers, every bare assert() carries a
                          justification marker tying it to the documented
                          QC_CHECK-vs-assert policy (common/check.hpp):
                          memory-safety invariants must be QC_CHECK (always
                          on); assert is reserved for expensive or
                          answer-correctness-only conditions.

Engine: a self-contained lexical analyzer (comment/string/preprocessor
stripping, balanced-delimiter function extraction, a name-based call graph
with latch-reachability) — chosen because the toolchain this repo builds on
(GCC-only containers) has no libclang.  When python bindings for libclang are
installed, `--engine libclang` upgrades receiver-type resolution for
explicit-memory-order; the lexical engine is the portable baseline and the
one CI runs.

Usage:
  qc_lint.py                         # scan the repo, exit 1 on violations
  qc_lint.py --fixtures              # self-test against expected-diagnostic
                                     # fixture files (ctest: test_qc_lint)
  qc_lint.py --compile-commands build/compile_commands.json
  qc_lint.py path/to/file.hpp ...    # scan specific files
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

CHECKS = (
    "explicit-memory-order",
    "no-alloc-under-latch",
    "no-blocking-under-latch",
    "no-wait-while-pinned",
    "no-lock-on-query-path",
    "ladder-read-through-image",
    "ref-under-image",
    "reopen-after-claim",
    "qc-check-over-assert",
)

# Atomic member functions whose names are unambiguous in this codebase: a
# call is an atomic op regardless of what receiver-name resolution says.
ALWAYS_ATOMIC_METHODS = {
    "fetch_add", "fetch_sub", "fetch_and", "fetch_or", "fetch_xor",
    "compare_exchange_weak", "compare_exchange_strong", "test_and_set",
}
# Atomic methods that collide with container vocabulary: flagged only when
# the receiver resolves to a known atomic (or atomic_flag, for clear()).
NAME_GATED_METHODS = {"load", "store", "exchange"}
FLAG_GATED_METHODS = {"clear"}

ALLOC_TOKENS = [
    (re.compile(r"\bnew\b"), "new expression"),
    (re.compile(r"[.\->]\s*push_back\s*\("), "std::vector::push_back"),
    (re.compile(r"[.\->]\s*emplace_back\s*\("), "emplace_back"),
    (re.compile(r"[.\->]\s*resize\s*\("), "resize"),
    (re.compile(r"[.\->]\s*reserve\s*\("), "reserve"),
    (re.compile(r"[.\->]\s*insert\s*\("), "insert"),
    (re.compile(r"\bmake_unique\s*<"), "make_unique"),
    (re.compile(r"\bmake_shared\s*<"), "make_shared"),
    (re.compile(r"\bthrow\b"), "throw"),
]
# Owning std containers: declaring one with an initializer (a copy, a size,
# a fill) allocates as surely as push_back does.
OWNING_CONTAINER_RE = re.compile(
    r"\b(?:std::)?(vector|deque|list|forward_list|map|multimap|set|multiset|"
    r"unordered_map|unordered_multimap|unordered_set|unordered_multiset|"
    r"basic_string|string|wstring)\b")
UNTEMPLATED_CONTAINERS = {"string", "wstring"}
BLOCKING_TOKENS = [
    (re.compile(r"\block_guard\b"), "std::lock_guard"),
    (re.compile(r"\bunique_lock\b"), "std::unique_lock"),
    (re.compile(r"\bscoped_lock\b"), "std::scoped_lock"),
    (re.compile(r"\bMutexLock\b"), "sync::MutexLock"),
    (re.compile(r"[.\->]\s*lock\s*\(\s*\)"), ".lock()"),
    (re.compile(r"\bsleep_for\b"), "sleep_for"),
    (re.compile(r"\bsleep_until\b"), "sleep_until"),
    (re.compile(r"\bfsync\b|\bfdatasync\b"), "fsync"),
    (re.compile(r"\busleep\b|\bnanosleep\b"), "sleep syscall"),
    (re.compile(r"[.\->]\s*join\s*\(\s*\)"), "thread join"),
]

# What can wait on the sketch: its mutex, its install latch, and its
# install-queue waits.
SKETCH_WAIT_TOKENS = [
    (re.compile(r"\bMutexLock\b"), "sync::MutexLock"),
    (re.compile(r"\bLatchGuard\b"), "LatchGuard"),
    (re.compile(r"\bacquire_latch\s*\("), "acquire_latch()"),
    (re.compile(r"\bdrain_until\s*\("), "drain_until()"),
    (re.compile(r"\bacquire_cell\s*\("), "acquire_cell()"),
    (re.compile(r"\bdrain_installs\s*\("), "drain_installs()"),
]
# What a query must never take: the sketch's mutex, its install latch (even
# a try), and its install-queue waits.
QUERY_LOCK_TOKENS = SKETCH_WAIT_TOKENS[:3] + [
    (re.compile(r"\btry_acquire_latch\s*\("), "try_acquire_latch()"),
] + SKETCH_WAIT_TOKENS[3:]
# The classes whose members are query-path roots.
QUERIER_CLASS_RE = re.compile(r"\b(?:class|struct)\s+Querier\b[^;{]*\{")
# A declared IBR pin: the scoped announcement or the image that holds one.
PIN_DECL_RE = re.compile(r"\b(?:IbrPin|LadderImage)\s+[A-Za-z_]\w*\s*[({=;]")
# The one type allowed to read ladder slot pointers off the latch.
IMAGE_CLASS_RE = re.compile(r"\b(?:class|struct)\s+LadderImage\b[^;{]*\{")
SLOT_READ_RE = re.compile(r"\bslot_block\s*\(|\btail_\s*(?:\.|->)\s*load\s*\(")
# A tail_mu_ hold: the scope a tail writer may read the tail pointer in.
TAIL_LOCK_RE = re.compile(r"\bMutexLock\s+\w+\s*[({]\s*tail_mu_\s*[)}]")
# A view taking a reference to a level block, and the image that must be in
# hand when it does.
REF_TAKE_RE = re.compile(r"\breaders\s*(?:\.|->)\s*fetch_add\s*\(")
IMAGE_PARAM_RE = re.compile(r"\bLadderImage\b")
IMAGE_DECL_RE = re.compile(r"\bLadderImage\s+[A-Za-z_]\w*\s*[({=;]")
# A gather ordinal reopened, and the install-cell claim that must precede it.
REOPEN_RE = re.compile(r"\bordinal\s*(?:\.|->)\s*store\s*\(")
CLAIM_RE = re.compile(r"\bacquire_cell\s*\(")

KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "decltype", "new", "delete", "else", "do", "static_assert", "assert",
    "defined", "requires", "operator", "noexcept", "alignas", "constexpr",
    "static_cast", "reinterpret_cast", "const_cast", "dynamic_cast",
}

ALLOW_RE = re.compile(r"qc-lint-allow\(([a-z-]+)\)")
EXPECT_RE = re.compile(r"qc-lint-expect:\s*([a-z-]+(?:\s*,\s*[a-z-]+)*)")
IDENT = r"[A-Za-z_]\w*"


class Violation:
    def __init__(self, path, line, check, msg):
        self.path, self.line, self.check, self.msg = path, line, check, msg

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.check}] {self.msg}"

    def key(self):
        return (self.path, self.line, self.check)


def strip_code(text: str) -> str:
    """Blanks comments, string/char literals, and preprocessor directives,
    preserving offsets and newlines so line numbers survive."""
    out = list(text)
    i, n = 0, len(text)
    state = "code"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                j = text.find("\n", i)
                j = n if j == -1 else j
                for k in range(i, j):
                    out[k] = " "
                i = j
            elif c == "/" and nxt == "*":
                j = text.find("*/", i + 2)
                j = n - 2 if j == -1 else j
                for k in range(i, j + 2):
                    if out[k] != "\n":
                        out[k] = " "
                i = j + 2
            elif c == '"':
                j = i + 1
                while j < n and text[j] != '"':
                    j += 2 if text[j] == "\\" else 1
                for k in range(i, min(j + 1, n)):
                    out[k] = " "
                i = j + 1
            elif c == "'" and i > 0 and (text[i - 1].isalnum()
                                         or text[i - 1] == "_"):
                i += 1  # digit separator (1'000'000), not a char literal
            elif c == "'":
                j = i + 1
                while j < n and text[j] != "'":
                    j += 2 if text[j] == "\\" else 1
                for k in range(i, min(j + 1, n)):
                    out[k] = " "
                i = j + 1
            elif c == "#" and text[:i].rstrip(" \t").endswith(("\n", "")) or (
                    c == "#" and (i == 0 or text.rfind("\n", 0, i) == i - len(text[:i]) + len(text[:i].rstrip(" \t")))):
                # preprocessor directive (handles continuation backslashes)
                j = i
                while j < n:
                    e = text.find("\n", j)
                    e = n if e == -1 else e
                    if text[j:e].rstrip().endswith("\\"):
                        j = e + 1
                    else:
                        break
                e = text.find("\n", j)
                e = n if e == -1 else e
                for k in range(i, e):
                    if out[k] != "\n":
                        out[k] = " "
                i = e
            else:
                i += 1
        else:  # pragma: no cover
            i += 1
    return "".join(out)


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def match_delim(text: str, pos: int, open_c: str, close_c: str) -> int:
    """pos points at open_c; returns index just past the matching close_c."""
    depth = 0
    i = pos
    n = len(text)
    while i < n:
        if text[i] == open_c:
            depth += 1
        elif text[i] == close_c:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


class Function:
    def __init__(self, name, path, line, params, trailer, body, body_offset):
        self.name = name
        self.path = path
        self.line = line
        self.params = params
        self.trailer = trailer
        self.body = body
        self.body_offset = body_offset  # char offset of '{' in file text
        self.requires_latch = bool(
            re.search(r"QC_REQUIRES\s*\([^)]*latch", trailer))
        self.excludes_latch = bool(
            re.search(r"QC_EXCLUDES\s*\([^)]*latch", trailer))
        self.requires_tail_mu = bool(
            re.search(r"QC_REQUIRES\s*\([^)]*tail_mu", trailer))
        self.destructor = False


def extract_functions(clean: str, path: str):
    """Finds function definitions: identifier '(' params ')' [trailer] '{'."""
    funcs = []
    for m in re.finditer(IDENT + r"\s*\(", clean):
        name = m.group(0)[:-1].strip()
        if name in KEYWORDS or name.startswith("QC_"):
            continue
        prev = clean[:m.start()].rstrip()
        if prev.endswith((".", "->", "::")) and prev.endswith("std::"):
            continue
        paren_open = m.end() - 1
        after_params = match_delim(clean, paren_open, "(", ")")
        # Trailer: accept whitespace, cv/ref/noexcept/override/final,
        # QC_* attribute macros (with balanced args), trailing return, and
        # a constructor init list; a body '{' makes it a definition.
        i = after_params
        n = len(clean)
        trailer_start = i
        is_def = False
        while i < n:
            ch = clean[i]
            if ch in " \t\n":
                i += 1
            elif clean.startswith(("const", "noexcept", "override", "final",
                                   "mutable", "&&", "&"), i):
                tok = re.match(r"const|noexcept|override|final|mutable|&&|&",
                               clean[i:])
                i += tok.end()
                if clean[i:i + 1] == "(":  # noexcept(...)
                    i = match_delim(clean, i, "(", ")")
            elif clean.startswith("QC_", i):
                tok = re.match(r"QC_\w+", clean[i:])
                i += tok.end()
                j = i
                while j < n and clean[j] in " \t\n":
                    j += 1
                if clean[j:j + 1] == "(":
                    i = match_delim(clean, j, "(", ")")
            elif clean.startswith("->", i):
                j = clean.find("{", i)
                k = clean.find(";", i)
                if j == -1 or (k != -1 and k < j):
                    break
                i = j
            elif ch == ":" and not clean.startswith("::", i):
                # ctor init list: skip balanced parens/braces until body '{'
                i += 1
                depth = 0
                while i < n:
                    c2 = clean[i]
                    if c2 in "(":
                        i = match_delim(clean, i, "(", ")")
                        continue
                    if c2 == "{" and depth == 0:
                        prev2 = clean[:i].rstrip()
                        # brace directly after an initializer name is an
                        # init-brace: `m_{x}`; a body brace follows ')' or ','
                        if prev2.endswith((")", ",")) or prev2[-1:].isalnum() is False:
                            pass
                        # member brace-init: skip it
                        if prev2[-1:].isalnum() or prev2.endswith("_"):
                            i = match_delim(clean, i, "{", "}")
                            continue
                        break
                    if c2 == ";":
                        break
                    i += 1
                if clean[i:i + 1] != "{":
                    break
            elif ch == "{":
                is_def = True
                break
            else:
                break
        if not is_def:
            continue
        trailer = clean[trailer_start:i]
        body_end = match_delim(clean, i, "{", "}")
        body = clean[i + 1:body_end - 1]
        params = clean[paren_open + 1:after_params - 1]
        fn = Function(name, path, line_of(clean, m.start()), params, trailer,
                      body, i)
        fn.destructor = prev.endswith("~")
        funcs.append(fn)
    return funcs


def collect_atomics(cleans):
    atomics, flags, scalars = set(), set(), set()
    decl_re = re.compile(r"\batomic(_flag)?\b")
    scalar_re = re.compile(
        r"\b(?:std::)?(?:u?int\d+_t|size_t|ptrdiff_t|int|long|short|char|"
        r"bool|float|double|unsigned|signed|auto)\s+(?:const\s+)?(" + IDENT + r")\b")
    for clean in cleans.values():
        for m in decl_re.finditer(clean):
            i = m.end()
            is_flag = m.group(1) is not None
            # skip template args of atomic<...>, then array-of-atomic closers
            while i < len(clean) and clean[i] in " \t\n":
                i += 1
            if clean[i:i + 1] == "<":
                depth = 0
                while i < len(clean):
                    if clean[i] == "<":
                        depth += 1
                    elif clean[i] == ">":
                        depth -= 1
                        if depth == 0:
                            i += 1
                            break
                    i += 1
            # array-of-atomic: `std::array<std::atomic<..>, N> name` puts the
            # match inside an outer template; skip trailing `, N>` closers.
            while i < len(clean) and clean[i] in " \t\n,0123456789+*kK_>":
                i += 1
            nm = re.match(r"&?\s*(" + IDENT + ")", clean[i:])
            if nm:
                name = nm.group(1)
                if name in ("const", "struct", "class"):
                    continue
                (flags if is_flag else atomics).add(name)
        for m in scalar_re.finditer(clean):
            scalars.add(m.group(1))
    return atomics, flags, scalars


def receiver_name(clean: str, pos: int):
    """Identifier owning the member access that starts at `pos` (the '.' or
    '->'), skipping one balanced []/() suffix."""
    i = pos - 1
    while i >= 0 and clean[i] in " \t\n":
        i -= 1
    for open_c, close_c in (("[", "]"), ("(", ")")):
        if i >= 0 and clean[i] == close_c:
            depth = 0
            while i >= 0:
                if clean[i] == close_c:
                    depth += 1
                elif clean[i] == open_c:
                    depth -= 1
                    if depth == 0:
                        i -= 1
                        break
                i -= 1
            while i >= 0 and clean[i] in " \t\n":
                i -= 1
    m = re.search(r"(" + IDENT + r")$", clean[: i + 1])
    return m.group(1) if m else None


def check_memory_order(path, clean, atomics, flags, scalars, allow):
    out = []
    method_re = re.compile(
        r"(\.|->)\s*(load|store|exchange|clear|wait|"
        r"fetch_add|fetch_sub|fetch_and|fetch_or|fetch_xor|test_and_set|"
        r"compare_exchange_weak|compare_exchange_strong)\s*\(")
    for m in method_re.finditer(clean):
        method = m.group(2)
        paren = m.end() - 1
        args = clean[paren + 1: match_delim(clean, paren, "(", ")") - 1]
        if "memory_order" in args:
            continue
        recv = receiver_name(clean, m.start())
        if method in ALWAYS_ATOMIC_METHODS:
            pass
        elif method in NAME_GATED_METHODS or method == "wait":
            if recv not in atomics:
                continue
        elif method in FLAG_GATED_METHODS:
            if recv not in flags:
                continue
        line = line_of(clean, m.start())
        if allowed(allow, "explicit-memory-order", line):
            continue
        out.append(Violation(path, line, "explicit-memory-order",
                             f"{recv or '<expr>'}.{method}() uses implicit "
                             "seq_cst; name the order (and justify it)"))
    # operator-form mutations on names that are unambiguously atomic
    unique = atomics - scalars
    op_res = [re.compile(r"(?:\+\+|--)\s*(" + IDENT + r")\b"),
              re.compile(r"\b(" + IDENT + r")\s*(?:\+\+|--)"),
              re.compile(r"\b(" + IDENT + r")\s*(?:\+=|-=|\|=|&=|\^=)")]
    for rex in op_res:
        for m in rex.finditer(clean):
            name = m.group(1)
            if name not in unique:
                continue
            line = line_of(clean, m.start())
            if allowed(allow, "explicit-memory-order", line):
                continue
            out.append(Violation(path, line, "explicit-memory-order",
                                 f"operator-form atomic mutation of '{name}' "
                                 "is implicit seq_cst; use fetch_* with an "
                                 "explicit order"))
    return out


def allowed(allow_map, check, line, span=6):
    """True when an allow marker for `check` sits on the line or in the
    immediately preceding comment block (up to `span` lines)."""
    for ln in range(line, max(0, line - span - 1), -1):
        if check in allow_map.get(ln, ()):  # marker found
            return True
    return False


def latched_regions(fn: Function):
    """(start, end) offsets in fn.body that run under the install latch."""
    if fn.requires_latch:
        return [(0, len(fn.body))]
    # region: from the guard to the close of its enclosing brace scope
    return [(m.start(), scope_end(fn.body, m.end()))
            for m in re.finditer(r"\bLatchGuard\b", fn.body)]


def body_calls(body: str):
    """Plain (non-member) calls in a body.  Member calls through an object
    (`retired_.push_back(...)`, `backoff.spin()`) are deliberately not graph
    edges: a name-based graph cannot tell `merger_.merge` from every other
    `merge` in the repo, and the direct-token scans already catch allocating
    or blocking member calls textually.  `this->helper()` and same-class
    `helper()` calls — the way latch-path helpers are actually invoked — do
    form edges."""
    calls = set()
    for m in re.finditer(r"(" + IDENT + r")\s*\(", body):
        name = m.group(1)
        if name in KEYWORDS or name.startswith("QC_"):
            continue
        prev = body[:m.start()].rstrip()
        if prev.endswith("std::"):
            continue
        if prev.endswith((".", "->")) and not prev.endswith("this->"):
            continue
        calls.add(name)
    return calls


def latch_reachable(funcs_by_name, seeds):
    """Names of functions that can run with the latch held: the
    QC_REQUIRES(latch_) seeds plus everything they plainly call.  A
    QC_EXCLUDES(latch_) function is never traversed — it cannot legitimately
    run latch-held (the call site itself is the self-deadlock violation)."""
    reach = set(seeds)
    work = list(seeds)
    while work:
        name = work.pop()
        for fn in funcs_by_name.get(name, ()):  # all same-name definitions
            if fn.excludes_latch:
                continue
            for callee in body_calls(fn.body):
                if callee not in funcs_by_name or callee in reach:
                    continue
                if all(cf.excludes_latch for cf in funcs_by_name[callee]):
                    continue
                reach.add(callee)
                work.append(callee)
    return reach


def scope_end(body: str, pos: int) -> int:
    """Offset of the brace that closes the scope enclosing `pos`."""
    depth = 0
    for i in range(pos, len(body)):
        if body[i] == "{":
            depth += 1
        elif body[i] == "}":
            depth -= 1
            if depth < 0:
                return i
    return len(body)


def waiting_functions(funcs_by_name):
    """Names of functions that can wait on the sketch: a SKETCH_WAIT_TOKENS
    match in the body, or a plain call to such a function."""
    wait = {name for name, fns in funcs_by_name.items()
            if any(rex.search(fn.body) for fn in fns
                   for rex, _ in SKETCH_WAIT_TOKENS)}
    changed = True
    while changed:
        changed = False
        for name, fns in funcs_by_name.items():
            if name not in wait and any(body_calls(fn.body) & wait
                                        for fn in fns):
                wait.add(name)
                changed = True
    return wait


def check_pinned(path, fn, base_line, allow, waiting, out):
    """Flags waits on the sketch after an IbrPin/LadderImage declaration,
    up to the end of the scope that declares it."""
    for decl in PIN_DECL_RE.finditer(fn.body):
        start, end = decl.end(), scope_end(fn.body, decl.end())
        text = fn.body[start:end]

        def emit(m, what):
            line = base_line + fn.body[:start + m.start()].count("\n")
            if not allowed(allow, "no-wait-while-pinned", line):
                out.append(Violation(path, line, "no-wait-while-pinned",
                                     f"{what} while an IBR pin is held "
                                     f"(in {fn.name})"))

        for rex, what in SKETCH_WAIT_TOKENS:
            for m in rex.finditer(text):
                emit(m, what)
        for m in re.finditer(r"(" + IDENT + r")\s*\(", text):
            callee = m.group(1)
            prev = text[:m.start()].rstrip()
            if prev.endswith((".", "->")) and not prev.endswith("this->"):
                continue
            if callee in waiting:
                emit(m, f"call to {callee}(), which can wait on the sketch")


def class_spans(clean: str, class_re):
    """(start, end) offsets of every body of the matched classes in a file."""
    return [(m.end() - 1, match_delim(clean, m.end() - 1, "{", "}"))
            for m in class_re.finditer(clean)]


def query_roots(fn: Function, queriers, images):
    """Whether fn starts a query path: a Querier member, or a LadderImage
    constructor that takes a pin slot (more parameters than the sketch)."""
    if any(s <= fn.body_offset < e for s, e in queriers):
        return True
    return (fn.name == "LadderImage" and "," in fn.params
            and any(s <= fn.body_offset < e for s, e in images))


def check_query_locks(funcs_by_name, roots, allow_by_path, out):
    """Flags QUERY_LOCK_TOKENS in every function the query roots reach
    through the name-based call graph."""
    reached = {}  # id(fn) -> (fn, root name)
    work = [(fn, fn.name) for fn in roots]
    while work:
        fn, root = work.pop()
        if id(fn) in reached:
            continue
        reached[id(fn)] = (fn, root)
        for callee in body_calls(fn.body):
            work += [(cf, root) for cf in funcs_by_name.get(callee, ())]
    for fn, root in reached.values():
        for rex, what in QUERY_LOCK_TOKENS:
            for m in rex.finditer(fn.body):
                line = fn.base_line + fn.body[:m.start()].count("\n")
                if not allowed(allow_by_path[fn.path], "no-lock-on-query-path",
                               line):
                    via = "" if root == fn.name else f", reached from {root}"
                    out.append(Violation(fn.path, line, "no-lock-on-query-path",
                                         f"{what} on the query path (in "
                                         f"{fn.name}{via})"))


def check_ladder_reads(path, fn, base_line, allow, images, out):
    """Flags slot_block() calls and tail_ loads outside the latch and
    outside LadderImage; a tail_ load may also sit under tail_mu_ or in a
    destructor."""
    if fn.requires_latch or any(s <= fn.body_offset < e for s, e in images):
        return
    latched = latched_regions(fn)
    tail_ok = latched + [(m.start(), scope_end(fn.body, m.end()))
                         for m in TAIL_LOCK_RE.finditer(fn.body)]
    if fn.requires_tail_mu or fn.destructor:
        tail_ok = [(0, len(fn.body))]
    for m in SLOT_READ_RE.finditer(fn.body):
        tail = not m.group(0).startswith("slot_block")
        if any(s <= m.start() < e for s, e in (tail_ok if tail else latched)):
            continue
        line = base_line + fn.body[:m.start()].count("\n")
        what = "tail_ load" if tail else "slot_block() read"
        if not allowed(allow, "ladder-read-through-image", line):
            out.append(Violation(path, line, "ladder-read-through-image",
                                 f"{what} off the latch outside "
                                 f"LadderImage (in {fn.name}); load ladder "
                                 "pointers through a LadderImage"))


def check_ref_under_image(path, fn, base_line, allow, out):
    """Flags block references taken in a function that neither takes a
    LadderImage parameter nor declares one."""
    if IMAGE_PARAM_RE.search(fn.params) or IMAGE_DECL_RE.search(fn.body):
        return
    for m in REF_TAKE_RE.finditer(fn.body):
        line = base_line + fn.body[:m.start()].count("\n")
        if not allowed(allow, "ref-under-image", line):
            out.append(Violation(path, line, "ref-under-image",
                                 "level-block reference taken outside a "
                                 f"LadderImage's pin (in {fn.name}); take "
                                 "it from a LadderImage in hand"))


def check_reopen_after_claim(path, fn, base_line, allow, out):
    """Flags a gather ordinal reopened before, or without, an install-cell
    claim earlier in the same function."""
    claim = CLAIM_RE.search(fn.body)
    for m in REOPEN_RE.finditer(fn.body):
        if claim is not None and claim.start() < m.start():
            continue
        line = base_line + fn.body[:m.start()].count("\n")
        if not allowed(allow, "reopen-after-claim", line):
            out.append(Violation(path, line, "reopen-after-claim",
                                 "gather ordinal reopened before an "
                                 f"install cell is claimed (in {fn.name}); "
                                 "call acquire_cell() first"))


def owning_decls(text: str):
    """Offsets of declarations of owning std containers that have an
    initializer: `T x(args)`, `T x = expr` or `T x{args}`.  References,
    pointers, parameters and default-constructed declarations (`T x;`,
    `T x{};`) allocate nothing and are skipped."""
    for m in OWNING_CONTAINER_RE.finditer(text):
        if text[:m.start()].rstrip().endswith((".", "->")):
            continue
        i = m.end()
        while i < len(text) and text[i] in " \t\n":
            i += 1
        if text[i:i + 1] == "<":
            i = match_delim(text, i, "<", ">")
        elif m.group(1) not in UNTEMPLATED_CONTAINERS:
            continue
        decl = re.match(r"\s*(" + IDENT + r")\s*([({=])", text[i:])
        if not decl or decl.group(1) in KEYWORDS:
            continue
        opener = i + decl.end() - 1
        if text[opener] != "=":
            close = "(" if text[opener] == "(" else "{"
            inner = text[opener + 1:match_delim(
                text, opener, close, ")" if close == "(" else "}") - 1]
            if not inner.strip():
                continue
        yield m


def scan_region(path, fn, start, end, base_line, allow, funcs_by_name, out):
    text = fn.body[start:end]

    def emit(check, m, what):
        line = base_line + fn.body[:start + m.start()].count("\n")
        if not allowed(allow, check, line):
            out.append(Violation(path, line, check,
                                 f"{what} under the install latch "
                                 f"(in {fn.name})"))

    for rex, what in ALLOC_TOKENS:
        for m in rex.finditer(text):
            emit("no-alloc-under-latch", m, what)
    for m in owning_decls(text):
        emit("no-alloc-under-latch", m,
             f"std::{m.group(1)} declared with an initializer")
    for rex, what in BLOCKING_TOKENS:
        for m in rex.finditer(text):
            emit("no-blocking-under-latch", m, what)
    # Self-deadlock: a plain call to a QC_EXCLUDES(latch_) entry point from
    # latch-held code re-acquires the latch we already hold.  Member calls
    # through another object (`target.install_run(...)`) acquire *that*
    # instance's latch and are legal, so only this-calls count.
    for m in re.finditer(r"(" + IDENT + r")\s*\(", text):
        callee = m.group(1)
        prev = text[:m.start()].rstrip()
        if prev.endswith((".", "->")) and not prev.endswith("this->"):
            continue
        for cf in funcs_by_name.get(callee, ()):
            if cf.excludes_latch:
                emit("no-blocking-under-latch", m,
                     f"call to {callee}() which QC_EXCLUDES the latch "
                     "(self-deadlock)")
                break


def check_assert(path, clean, allow, is_engine_header):
    out = []
    if not is_engine_header:
        return out
    for m in re.finditer(r"(?<!static_)(?<!\w)assert\s*\(", clean):
        line = line_of(clean, m.start())
        if allowed(allow, "qc-check-over-assert", line):
            continue
        out.append(Violation(
            path, line, "qc-check-over-assert",
            "bare assert() in an engine header: use QC_CHECK for "
            "memory-safety invariants, or justify the assert with "
            "`// qc-lint-allow(qc-check-over-assert): <why>` "
            "(see common/check.hpp policy)"))
    return out


def collect_markers(text: str):
    allow, expect = {}, {}
    for idx, line in enumerate(text.splitlines(), start=1):
        am = ALLOW_RE.search(line)
        if am:
            allow.setdefault(idx, set()).add(am.group(1))
        em = EXPECT_RE.search(line)
        if em:
            for c in re.split(r"\s*,\s*", em.group(1)):
                expect.setdefault(idx, set()).add(c)
    return allow, expect


def repo_root():
    return os.path.normpath(os.path.join(os.path.dirname(
        os.path.abspath(__file__)), "..", ".."))


def default_files(root):
    files = []
    for sub in ("include", "src", "tests", "bench", "examples"):
        base = os.path.join(root, sub)
        for dirpath, _dirs, names in os.walk(base):
            for nm in sorted(names):
                if nm.endswith((".hpp", ".h", ".cpp", ".cc")):
                    files.append(os.path.join(dirpath, nm))
    return files


def files_from_compile_commands(path, root):
    with open(path, encoding="utf-8") as f:
        db = json.load(f)
    files = set()
    for entry in db:
        src = os.path.normpath(os.path.join(entry.get("directory", "."),
                                            entry["file"]))
        if src.startswith(root) and "/build/" not in src:
            files.add(src)
    # headers are not TUs; always sweep the engine headers
    for f2 in default_files(root):
        if f2.endswith((".hpp", ".h")):
            files.add(f2)
    return sorted(files)


def is_engine_header(path):
    p = path.replace("\\", "/")
    return "/include/qc/" in p and p.endswith((".hpp", ".h"))


def run_checks(paths, fixture_mode=False):
    texts, cleans, allows = {}, {}, {}
    per_file_funcs = {}
    funcs_by_name = {}
    for p in paths:
        with open(p, encoding="utf-8", errors="replace") as f:
            texts[p] = f.read()
        cleans[p] = strip_code(texts[p])
        allows[p] = collect_markers(texts[p])[0]
        per_file_funcs[p] = extract_functions(cleans[p], p)
        for fn in per_file_funcs[p]:
            funcs_by_name.setdefault(fn.name, []).append(fn)
    atomics, flags, scalars = collect_atomics(cleans)

    # latch reachability is global: seed from every annotated function
    seeds = {fn.name for fns in per_file_funcs.values()
             for fn in fns if fn.requires_latch}
    reach = latch_reachable(funcs_by_name, seeds)
    waiting = waiting_functions(funcs_by_name)

    violations = []
    roots = []
    for p in paths:
        clean, allow = cleans[p], allows[p]
        violations += check_memory_order(p, clean, atomics, flags, scalars,
                                         allow)
        images = class_spans(clean, IMAGE_CLASS_RE)
        queriers = class_spans(clean, QUERIER_CLASS_RE)
        for fn in per_file_funcs[p]:
            base = line_of(clean, fn.body_offset)
            fn.base_line = base
            if query_roots(fn, queriers, images):
                roots.append(fn)
            if fn.requires_latch or (fn.name in reach
                                     and not fn.excludes_latch):
                scan_region(p, fn, 0, len(fn.body), base, allow,
                            funcs_by_name, violations)
            else:
                for (s, e) in latched_regions(fn):
                    scan_region(p, fn, s, e, base, allow, funcs_by_name,
                                violations)
            check_pinned(p, fn, base, allow, waiting, violations)
            check_ladder_reads(p, fn, base, allow, images, violations)
            check_ref_under_image(p, fn, base, allow, violations)
            check_reopen_after_claim(p, fn, base, allow, violations)
        engine = is_engine_header(p) or (fixture_mode and p.endswith(".hpp"))
        violations += check_assert(p, clean, allow, engine)
    check_query_locks(funcs_by_name, roots, allows, violations)
    # one diagnostic per (file, line, check)
    seen, unique = set(), []
    for v in violations:
        if v.key() not in seen:
            seen.add(v.key())
            unique.append(v)
    unique.sort(key=lambda v: (v.path, v.line, v.check))
    return unique


def run_fixtures(fixture_dir):
    paths = sorted(
        os.path.join(fixture_dir, nm) for nm in os.listdir(fixture_dir)
        if nm.endswith((".hpp", ".cpp")))
    if not paths:
        print(f"qc-lint: no fixtures found in {fixture_dir}", file=sys.stderr)
        return 1
    failures = 0
    for p in paths:
        with open(p, encoding="utf-8") as f:
            text = f.read()
        _allow, expect = collect_markers(text)
        got = run_checks([p], fixture_mode=True)
        got_set = {(v.line, v.check) for v in got}
        want_set = {(ln, c) for ln, cs in expect.items() for c in cs}
        missing = want_set - got_set
        surplus = got_set - want_set
        rel = os.path.basename(p)
        if missing or surplus:
            failures += 1
            print(f"FAIL {rel}")
            for ln, c in sorted(missing):
                print(f"  expected but not reported: line {ln} [{c}]")
            for ln, c in sorted(surplus):
                print(f"  reported but not expected: line {ln} [{c}]")
        else:
            print(f"ok   {rel} ({len(want_set)} expected diagnostics)")
    if failures:
        print(f"qc-lint fixtures: {failures}/{len(paths)} files FAILED")
        return 1
    print(f"qc-lint fixtures: all {len(paths)} files passed")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="*", help="files to scan (default: repo)")
    ap.add_argument("--root", default=None, help="repo root")
    ap.add_argument("--compile-commands", default=None,
                    help="compile_commands.json to derive the file list from")
    ap.add_argument("--fixtures", action="store_true",
                    help="run the expected-diagnostic fixture self-test")
    ap.add_argument("--engine", choices=("lexical", "libclang"),
                    default="lexical",
                    help="analysis engine (libclang needs python bindings)")
    ap.add_argument("--quiet", action="store_true")
    args = ap.parse_args(argv)

    if args.engine == "libclang":
        try:
            import clang.cindex  # noqa: F401
        except ImportError:
            print("qc-lint: libclang python bindings unavailable; "
                  "falling back to the lexical engine", file=sys.stderr)

    root = os.path.abspath(args.root) if args.root else repo_root()
    if args.fixtures:
        return run_fixtures(os.path.join(os.path.dirname(
            os.path.abspath(__file__)), "fixtures"))

    if args.files:
        paths = [os.path.abspath(f) for f in args.files]
    elif args.compile_commands:
        paths = files_from_compile_commands(
            os.path.abspath(args.compile_commands), root)
    else:
        paths = default_files(root)

    violations = run_checks(paths)
    for v in violations:
        print(str(v).replace(root + os.sep, ""))
    if not args.quiet:
        print(f"qc-lint: {len(violations)} violation(s) in "
              f"{len(paths)} file(s)")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
