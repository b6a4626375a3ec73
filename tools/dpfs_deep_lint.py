#!/usr/bin/env python3
"""dpfs_deep_lint: whole-program semantic analysis over compile_commands.json.

The fourth static-analysis layer (docs/STATIC_ANALYSIS.md). Clang's
thread-safety analysis is per-function and tools/dpfs_lint.py is per-line;
neither can see properties that only exist across translation units. This
tool builds a whole-program model (functions, lock acquisitions with held
sets, call edges) and enforces three invariants on it:

  lock-order-cycle      The global lock-acquisition graph (an edge A -> B
                        for every site that acquires B while holding A,
                        directly or through a call chain) must be acyclic.
                        A cycle is a deadlock waiting for the right thread
                        interleaving. Same-capability nesting (acquiring
                        many instances of one lock class in a loop) is a
                        self-edge and needs a dpfs:lock-order-ok waiver
                        stating the total order that makes it safe.
  reactor-blocking      No call path from a reactor root (the request
                        handlers the servers' transport invokes) may reach
                        a cataloged blocking primitive (flock, sleep_for,
                        blocking connect/accept/recv/send, CondVar::Wait,
                        metadb::Database entry points, a metadb transaction
                        scope's begin and commit) without a
                        dpfs:blocking-ok waiver, so a handler blocks only
                        where a waiver says why.
  unchecked-status      Every `(void)`-discard of a Status/Result-returning
                        call carries a dpfs:unchecked(reason) waiver. The
                        discard is scanned on blanked code, so string or
                        comment tricks cannot fabricate or hide one.
  no-tsa-justification  Every DPFS_NO_THREAD_SAFETY_ANALYSIS carries a
                        dpfs:no-tsa(reason) waiver nearby: the escape hatch
                        must say why the unchecked locking is sound.

Waiver syntax (checked: the reason must be non-empty):

  // dpfs:blocking-ok(<reason>)    on the call line / up to 2 lines above,
                                   or in the comment block right above a
                                   function definition to sanction every
                                   call that function makes
  // dpfs:lock-order-ok(<reason>)  on the acquisition line / 2 lines above
  // dpfs:unchecked(<reason>)      on the (void) line / line above
  // dpfs:no-tsa(<reason>)         within 5 lines above the annotation

Frontends: with python clang.cindex + libclang installed the model is
built from the real AST of every TU in compile_commands.json
(--frontend=libclang). Without them (the common case in minimal CI
containers) a bundled scope-tracking textual frontend parses the tree
directly; it is the reference implementation the --self-test fixtures pin.
--frontend=auto (default) prefers libclang and degrades to textual with a
note. Both frontends fill the same IR; every analysis above runs on either.

The tool also *generates* the discovered global lock order into
docs/STATIC_ANALYSIS.md between the `deep-lint:lock-order` markers
(--update-docs rewrites the block; the default run fails on drift), so the
documented order is always the one the code actually implements.

Usage:
  tools/dpfs_deep_lint.py [--root DIR] [--compdb FILE] [--frontend F]
  tools/dpfs_deep_lint.py --update-docs     rewrite the lock-order block
  tools/dpfs_deep_lint.py --self-test       run the seeded-violation
                                            fixtures in deep_lint_fixtures
  tools/dpfs_deep_lint.py --dump-ir         debug: print the parsed model

Exit status: 0 clean, 1 violations ("path:line: check: message"), 2 usage.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

FIXTURE_DIR_NAME = "deep_lint_fixtures"
SOURCE_SUFFIXES = {".h", ".hpp", ".cpp", ".cc"}

# --- configuration: roots, blocking catalog, lock guards ---------------------

# Call-graph roots for the reactor-blocking check, matched as qualified-name
# suffixes. The transport (server::FrameServer) reaches each server's
# handler through an opaque std::function, so the two functions bound into
# it are listed explicitly. Every root must resolve to a parsed function
# definition — a rename fails the lint instead of silently analyzing
# nothing.
REACTOR_ROOTS = (
    "server::IoServer::Dispatch",
    "metad::MetadService::Dispatch",
)
# In --self-test the fixture tree defines its own miniature reactor.
SELF_TEST_ROOTS = ("server::EventLoop::Run",)

# Blocking primitives by callee name. `None` for the class means the bare
# name is blocking whoever owns it (OS calls, std helpers); a class name
# restricts the match to calls whose receiver/qualifier resolves to that
# class (so e.g. an unrelated Execute() elsewhere is not blocking).
BLOCKING_CALLEES = {
    # OS / std blocking primitives.
    "flock": None,
    "sleep_for": None,
    "sleep_until": None,
    "sleep": None,
    "usleep": None,
    "nanosleep": None,
    "poll": None,
    "select": None,
    # Blocking socket surface.
    "Connect": "TcpSocket",
    "SendAll": "TcpSocket",
    "RecvExact": "TcpSocket",
    "Accept": "TcpListener",
    "RecvFrame": None,
    "SendFrame": None,
    "connect": None,
    "recv": None,
    "accept": None,
    # Lock waits park the thread until another thread signals.
    "Wait": "CondVar",
    "WaitFor": "CondVar",
    # metadb mutation entry points commit through a WAL fsync; a
    # transaction scope waits for the database's lock when it begins (behind
    # a writer's commit) and appends to the WAL when it commits; Open can
    # spin on the advisory flock of a concurrently-held directory.
    "Execute": "Database",
    "ExecuteStatement": "Database",
    "Transaction": "Transaction",
    "ReadTransaction": "ReadTransaction",
    "Commit": "Transaction",
    "Checkpoint": "Database",
    "CreateIndex": "Database",
    "Open": "Database",
}

# RAII lock guards (common/mutex.h, and metadb's transaction scopes): type
# name -> shared? (reader locks still order against writers, so
# shared/exclusive feed one graph).
GUARD_TYPES = {"MutexLock": False, "WriterMutexLock": False,
               "ReaderMutexLock": True, "Transaction": False,
               "ReadTransaction": True}
# Guards constructed on the object that owns the lock rather than on the
# lock: the lock each takes (a transaction scope holds its Database's mu_).
GUARD_LOCKS = {"Transaction": "Database::mu_",
               "ReadTransaction": "Database::mu_"}
MANUAL_LOCK_METHODS = {"lock", "lock_shared"}
MANUAL_UNLOCK_METHODS = {"unlock", "unlock_shared"}
LOCK_MEMBER_TYPES = {"Mutex", "SharedMutex"}

WAIVER_RE = {
    "blocking": re.compile(r"dpfs:blocking-ok\(([^)]*)\)"),
    "lock-order": re.compile(r"dpfs:lock-order-ok\(([^)]*)\)"),
    "unchecked": re.compile(r"dpfs:unchecked\(([^)]*)\)"),
    "no-tsa": re.compile(r"dpfs:no-tsa\(([^)]*)\)"),
}

LOCK_ORDER_BEGIN = "<!-- deep-lint:lock-order-begin -->"
LOCK_ORDER_END = "<!-- deep-lint:lock-order-end -->"

# --- shared text utilities (mirrors dpfs_lint's stripper) --------------------

_STRIP_RE = re.compile(
    r'//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\'',
    re.DOTALL,
)


_PREPROC_RE = re.compile(r"^[ \t]*#(?:[^\n\\]|\\\n)*", re.MULTILINE)


def blank_comments_and_strings(text: str) -> str:
    """Blanks comments and literals, preserving newlines and column offsets."""
    def blank(match: re.Match[str]) -> str:
        return re.sub(r"[^\n]", " ", match.group(0))
    return _STRIP_RE.sub(blank, text)


def blank_preprocessor(code: str) -> str:
    """Blanks preprocessor directives (incl. continuations) so #include /
    #define bodies neither pollute statement heads nor fake call sites."""
    def blank(match: re.Match[str]) -> str:
        return re.sub(r"[^\n]", " ", match.group(0))
    return _PREPROC_RE.sub(blank, code)


def comment_lines(text: str) -> dict[int, str]:
    """line number -> the comment *block* text visible from that line.

    Contiguous comment lines are joined (newlines become spaces) and every
    line of the block maps to the full joined text, so a waiver like
    `dpfs:unchecked(reason spanning\n// two lines)` matches from any line
    the block touches."""
    per_line: dict[int, str] = defaultdict(str)
    for match in _STRIP_RE.finditer(text):
        token = match.group(0)
        if not token.startswith(("//", "/*")):
            continue
        line = text.count("\n", 0, match.start()) + 1
        for offset, part in enumerate(token.split("\n")):
            per_line[line + offset] += part
    out: dict[int, str] = {}
    block: list[int] = []
    for line in sorted(per_line) + [float("inf")]:
        if block and line != block[-1] + 1:
            joined = " ".join(
                re.sub(r"^\s*(?://|/\*+|\*+/?)\s*", "", per_line[b])
                for b in block)
            for b in block:
                out[b] = joined
            block = []
        if line != float("inf"):
            block.append(line)
    return out


# --- the IR ------------------------------------------------------------------

@dataclass
class Acquisition:
    lock: str               # canonical lock id, e.g. "FdCache::mu_"
    line: int
    held: tuple[str, ...]   # locks already held at this site
    in_loop_indexed: bool   # same-class multi-instance acquisition in a loop
    waived: str | None      # dpfs:lock-order-ok reason, if present


@dataclass
class CallSite:
    callee: str             # last name component, e.g. "HandleRequest"
    qualifier: str          # explicit qualifier ("net::" / "Class::"), or ""
    receiver: str           # receiver expression before . / ->, or ""
    line: int
    held: tuple[str, ...]
    blocking_waiver: str | None


@dataclass
class Discard:
    callee: str
    line: int
    waiver: str | None


@dataclass
class FunctionInfo:
    qualified: str          # e.g. "dpfs::server::EventLoop::Run"
    cls: str                # enclosing class name or ""
    file: Path
    line: int
    entry_locks: tuple[str, ...] = ()      # DPFS_REQUIRES/ACQUIRE at entry
    acquisitions: list[Acquisition] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    discards: list[Discard] = field(default_factory=list)
    blocking_waiver: str | None = None     # function-level dpfs:blocking-ok
    # local/parameter name -> type, for the types the analyses care about
    # (lock capabilities and blocking-catalog classes).
    local_types: dict[str, str] = field(default_factory=dict)


@dataclass
class Model:
    functions: list[FunctionInfo] = field(default_factory=list)
    # member field name -> {owning class}; resolves "mu_" to "FdCache::mu_".
    lock_owners: dict[str, set[str]] = field(
        default_factory=lambda: defaultdict(set))
    # (class, member field) -> member type's class name; resolves receivers.
    member_types: dict[tuple[str, str], str] = field(default_factory=dict)
    # function last-name -> returns Status/Result (for the discard check).
    status_returning: set[str] = field(default_factory=set)
    # DPFS_NO_THREAD_SAFETY_ANALYSIS sites: (file, line, waiver-reason|None).
    no_tsa_sites: list[tuple[Path, int, str | None]] = field(
        default_factory=list)


class Violation:
    def __init__(self, path: Path, line: int, check: str, message: str):
        self.path, self.line, self.check, self.message = (
            path, line, check, message)

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.check}: {self.message}"


# --- source discovery --------------------------------------------------------

def load_compdb(path: Path) -> list[Path] | None:
    if not path.is_file():
        return None
    try:
        entries = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    files = []
    for entry in entries:
        file = Path(entry.get("directory", "."), entry["file"]).resolve()
        if file.suffix in SOURCE_SUFFIXES:
            files.append(file)
    return files


def iter_sources(root: Path, compdb: Path | None) -> list[Path]:
    """All repo sources under src/: compdb TUs (if available) plus headers.

    The compdb scopes the .cpp set to what the build actually compiles;
    headers are not TUs, so they are always globbed directly.
    """
    src = root / "src"
    seen: dict[Path, None] = {}
    compiled = load_compdb(compdb) if compdb else None
    if compiled:
        for file in sorted(compiled):
            try:
                file.relative_to(src.resolve())
            except ValueError:
                continue
            seen.setdefault(file, None)
    if src.is_dir():
        for file in sorted(src.rglob("*")):
            if file.suffix not in SOURCE_SUFFIXES:
                continue
            if compiled and file.suffix in {".cpp", ".cc"} \
                    and file.resolve() not in seen:
                continue  # not part of the build (e.g. platform-gated)
            seen.setdefault(file.resolve(), None)
    return list(seen)


# --- textual frontend --------------------------------------------------------

CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "do", "else", "return",
    "sizeof", "alignof", "decltype", "static_assert", "new", "delete",
    "case", "default", "co_await", "co_return", "throw", "assert",
}

HEAD_NAME_RE = re.compile(r"([~\w]+(?:::[~\w]+)*)\s*$")
CALL_RE = re.compile(
    r"(?:([\w:]+)::)?"          # explicit qualifier
    r"(?:\b([A-Za-z_]\w*)\s*(?:\.|->)\s*)?"  # receiver expression tail
    r"\b([A-Za-z_]\w*)\s*\(")
ANNOT_RE = re.compile(
    r"\b(DPFS_REQUIRES|DPFS_ACQUIRE|DPFS_ACQUIRE_SHARED|"
    r"DPFS_REQUIRES_SHARED)\s*\(([^)]*)\)")
GUARD_DECL_RE = re.compile(
    r"\b(" + "|".join(GUARD_TYPES) + r")\s+(\w+)\s*[({]")
MANUAL_LOCK_RE = re.compile(
    r"([\w.\[\]>\-]+?)\s*(?:\.|->)\s*(lock|lock_shared|unlock|"
    r"unlock_shared)\s*\(\s*\)")
MEMBER_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+|static\s+|const\s+)*"
    r"([A-Za-z_][\w:]*(?:<[^;{}]*>)?)[&*\s]+(\w+)\s*(?:=[^;]*|\{[^;]*\})?;",
    re.MULTILINE)
STATUS_FN_RE = re.compile(
    r"\b(?:Status|Result<[^;{()=]*>)\s+(?:[\w:]+::)?(\w+)\s*\(")
DISCARD_RE = re.compile(r"\(void\)\s*([^;]*?);")
# Function-local declarations (incl. parameters): `Type name` with an
# uppercase class-style type name. Feeds receiver-type resolution so
# `reader.ReadBytes()` binds to BinaryReader::ReadBytes, not to every
# ReadBytes in the repo.
LOCAL_TYPED_RE = re.compile(
    r"\b(?:[\w]+::)*([A-Z]\w*)\s*[&*]?\s+(\w+)\s*(?:[;,)({=]|$)")
VOID_NAME_CALL_RE = re.compile(r"([A-Za-z_]\w*)\s*\(")
LOOP_HEAD_RE = re.compile(r"^\s*(for|while)\b")
LAMBDA_INTRO_RE = re.compile(
    r"\]\s*(?:\([^()]*(?:\([^()]*\)[^()]*)*\))?\s*(?:mutable\b\s*)?"
    r"(?:noexcept\b\s*)?(?:->\s*[\w:<>&*\s]+?)?\s*\{")


def _last_name(qualified: str) -> str:
    return qualified.rsplit("::", 1)[-1]


class _Scope:
    __slots__ = ("kind", "name", "start", "acquisitions", "is_loop")

    def __init__(self, kind: str, name: str = "", start: int = 0,
                 is_loop: bool = False):
        self.kind = kind            # namespace | class | function | block
        self.name = name
        self.start = start
        self.acquisitions: list[str] = []  # lock ids scoped to this block
        self.is_loop = is_loop


class TextualFrontend:
    """Scope-tracking parser: namespaces, classes, function bodies, and the
    per-statement events the analyses need. Not a full C++ parser — it
    tracks brace/paren nesting over comment/string-blanked text, which is
    enough to attribute every acquisition and call to the right function
    with the right held-lock set."""

    def __init__(self, root: Path):
        self.root = root
        self.model = Model()
        # (class, method last-name) -> raw DPFS_REQUIRES/DPFS_ACQUIRE args
        # from the *declaration* (annotations live in headers; out-of-line
        # definitions do not repeat them). Resolved lazily at definition
        # time, when the lock-owner maps are complete.
        self.decl_entry_locks: dict[tuple[str, str], tuple[str, ...]] = {}

    # -- pass 1: declarations (lock members, member types, return types) ----

    @staticmethod
    def _unwrap_type(mtype: str) -> str:
        wrapper = re.compile(
            r"(?:std::)?(?:unique_ptr|shared_ptr|vector|optional|array)"
            r"<\s*([^<>]*(?:<[^<>]*>)?[^<>]*?)\s*(?:,[^<>]*)?>")
        prev = None
        while prev != mtype:
            prev = mtype
            mtype = wrapper.sub(r"\1", mtype)
        return _last_name(mtype.strip().rstrip("&* "))

    def scan_declarations(self, path: Path, code: str) -> None:
        for match in STATUS_FN_RE.finditer(code):
            self.model.status_returning.add(match.group(1))
        # Member declarations inside class bodies: walk class extents.
        for cls, body in self._class_bodies(code):
            for member in MEMBER_DECL_RE.finditer(body):
                mtype, name = member.group(1), member.group(2)
                base = self._unwrap_type(mtype)
                if base in LOCK_MEMBER_TYPES:
                    self.model.lock_owners[name].add(cls)
                self.model.member_types[(cls, name)] = base
            for decl in re.finditer(
                    r"(\w+)\s*\([^;{}]*\)[^;{}]*?"
                    r"\b(DPFS_REQUIRES|DPFS_REQUIRES_SHARED|DPFS_ACQUIRE|"
                    r"DPFS_ACQUIRE_SHARED)\s*\(([^)]+)\)", body):
                key = (cls, decl.group(1))
                args = tuple(a.strip() for a in decl.group(3).split(",")
                             if a.strip())
                self.decl_entry_locks[key] = (
                    self.decl_entry_locks.get(key, ()) + args)

    def _class_bodies(self, code: str):
        """Yields (class name, body text) for every class/struct body."""
        for match in re.finditer(
                r"\b(?:class|struct)\s+(?:DPFS_\w+(?:\([^)]*\))?\s+)*(\w+)"
                r"[^;{()]*\{", code):
            name, depth, i = match.group(1), 1, match.end()
            start = i
            while i < len(code) and depth:
                if code[i] == "{":
                    depth += 1
                elif code[i] == "}":
                    depth -= 1
                i += 1
            yield name, code[start:i - 1]

    # -- pass 2: function bodies -------------------------------------------

    def scan_file(self, path: Path, text: str) -> None:
        code = blank_preprocessor(blank_comments_and_strings(text))
        comments = comment_lines(text)
        self._scan_no_tsa(path, code, comments)
        if path.name == "mutex.h":
            return  # the lock primitives themselves, not lock *users*
        lines = code.split("\n")
        self._walk(path, code, lines, comments)

    def _scan_no_tsa(self, path: Path, code: str,
                     comments: dict[int, str]) -> None:
        rel = _relpath(path, self.root)
        if rel.name == "thread_annotations.h":
            return  # the macro's own definition
        for lineno, line in enumerate(code.split("\n"), start=1):
            if "DPFS_NO_THREAD_SAFETY_ANALYSIS" not in line:
                continue
            reason = None
            for probe in range(lineno, max(0, lineno - 6), -1):
                match = WAIVER_RE["no-tsa"].search(comments.get(probe, ""))
                if match:
                    reason = match.group(1).strip() or None
                    break
            self.model.no_tsa_sites.append((rel, lineno, reason))

    def _waiver_near(self, kind: str, comments: dict[int, str], line: int,
                     reach: int) -> str | None:
        for probe in range(line, max(0, line - reach - 1), -1):
            match = WAIVER_RE[kind].search(comments.get(probe, ""))
            if match:
                return match.group(1).strip() or ""
        return None

    def _walk(self, path: Path, code: str, lines: list[str],
              comments: dict[int, str]) -> None:
        rel = _relpath(path, self.root)
        stack: list[_Scope] = []
        fn: FunctionInfo | None = None
        fn_depth = 0  # stack length at which the current function began
        held: list[str] = []     # currently held lock ids, outermost first
        stmt_start = 0           # offset where the current statement began
        i, n = 0, len(code)
        while i < n:
            ch = code[i]
            if ch == "(":
                # Skip to the matching close so ';' inside for-heads and
                # braces inside lambda arguments don't terminate the
                # statement early. The skipped text stays part of the
                # statement slice and is scanned exactly once below.
                depth, j = 1, i + 1
                while j < n and depth:
                    if code[j] == "(":
                        depth += 1
                    elif code[j] == ")":
                        depth -= 1
                    j += 1
                i = j
                continue
            if ch == "{":
                head = code[stmt_start:i]
                lineno = code.count("\n", 0, i) + 1
                scope = self._classify(head, stack, fn, lineno)
                if scope.kind == "function" and fn is None:
                    fn = self._begin_function(rel, scope, head, lineno,
                                              comments, stack)
                    fn_depth = len(stack)
                    held = list(fn.entry_locks)
                elif fn is not None and scope.kind == "block":
                    # Control-flow head: scan it for calls (conditions run).
                    base = code.count("\n", 0, stmt_start) + 1
                    self._scan_statement(fn, head, base, comments, held,
                                         stack)
                stack.append(scope)
                stmt_start = i + 1
            elif ch in ";}":
                if fn is not None:
                    segment = code[stmt_start:i + (1 if ch == ";" else 0)]
                    if segment.strip():
                        base = code.count("\n", 0, stmt_start) + 1
                        self._scan_statement(fn, segment, base, comments,
                                             held, stack)
                if ch == "}" and stack:
                    scope = stack.pop()
                    for lock in scope.acquisitions:
                        if lock in held:
                            held.remove(lock)
                    if fn is not None and scope.kind == "function" \
                            and len(stack) == fn_depth:
                        self.model.functions.append(fn)
                        fn = None
                        held = []
                stmt_start = i + 1
            i += 1

    def _classify(self, head: str, stack: list[_Scope],
                  fn: FunctionInfo | None, lineno: int) -> _Scope:
        stripped = head.strip()
        ns = re.match(r"^namespace\s*([\w:]*)\s*$", stripped)
        if ns is not None:
            return _Scope("namespace", ns.group(1))
        if re.match(r"^(?:template\s*<[^{}]*>\s*)?(?:class|struct|union)\b",
                    stripped):
            m = re.search(r"\b(?:class|struct|union)\s+"
                          r"(?:DPFS_\w+(?:\([^)]*\))?\s+)*(\w+)", stripped)
            return _Scope("class", m.group(1) if m else "")
        if stripped.startswith("enum"):
            return _Scope("class", "")
        if fn is None:
            # At namespace/class scope a paren-head introduces a function
            # definition (control flow only exists inside functions).
            if "(" in stripped:
                return _Scope("function", start=lineno)
            return _Scope("block")
        return _Scope("block", is_loop=bool(LOOP_HEAD_RE.match(stripped)))

    def _begin_function(self, rel: Path, scope: _Scope, head: str,
                        lineno: int, comments: dict[int, str],
                        stack: list[_Scope]) -> FunctionInfo:
        # Name: identifier before the top-level '(' of the head; the
        # constructor init list after ')' may contain more parens.
        paren = head.find("(")
        name_match = HEAD_NAME_RE.search(head[:paren].rstrip())
        name = name_match.group(1) if name_match else "<anon>"
        namespaces = [s.name for s in stack if s.kind == "namespace" and
                      s.name]
        classes = [s.name for s in stack if s.kind == "class" and s.name]
        qualifier = "::".join(namespaces + classes)
        qualified = f"{qualifier}::{name}" if qualifier else name
        cls = classes[-1] if classes else ""
        if "::" in name:
            cls = name.rsplit("::", 2)[-2]
        # The head slice starts right after the previous statement; anchor
        # the definition (and its waiver lookup) at its first code line.
        # Comments are blanked, so leading whitespace skips past them.
        first_code = len(head) - len(head.lstrip())
        head_line = (lineno - head.count("\n") +
                     head.count("\n", 0, first_code))
        fn = FunctionInfo(qualified=qualified, cls=cls, file=rel,
                          line=head_line)
        entry: list[str] = []
        raw_args = [arg.strip()
                    for annot in ANNOT_RE.finditer(head)
                    for arg in annot.group(2).split(",") if arg.strip()]
        if not raw_args:
            # Out-of-line definition: the annotation lives on the header
            # declaration.
            raw_args = list(self.decl_entry_locks.get(
                (cls, _last_name(name)), ()))
        for match in LOCAL_TYPED_RE.finditer(head):
            fn.local_types[match.group(2)] = match.group(1)
        for arg in raw_args:
            lock = self._lock_id(arg, cls, fn)
            if lock:
                entry.append(lock)
        fn.entry_locks = tuple(entry)
        # A dpfs:blocking-ok in the doc comment right above the definition
        # sanctions every call the function makes.
        fn.blocking_waiver = self._waiver_near("blocking", comments,
                                               head_line - 1, 3)
        return fn

    def _lock_id(self, expr: str, cls: str,
                 fn: FunctionInfo | None = None) -> str | None:
        """Canonical lock id for an acquisition/annotation expression."""
        expr = expr.strip().lstrip("*&")
        if not expr:
            return None
        expr = re.sub(r"\[[^\]]*\]", "", expr)        # drop subscripts
        expr = re.sub(r"\([^()]*\)", "", expr)        # drop call args
        parts = re.split(r"\.|->", expr)
        fieldname = parts[-1].strip().strip("()")
        if not re.fullmatch(r"[\w]+", fieldname):
            return None
        if fn is not None and len(parts) == 1 and \
                fn.local_types.get(fieldname) in LOCK_MEMBER_TYPES:
            # A function-local lock: its identity is the declaring function.
            return f"{_last_name(fn.qualified)}::{fieldname}"
        owners = self.model.lock_owners.get(fieldname, set())
        if len(parts) > 1:
            # Receiver present: resolve its type through the member map.
            recv = parts[-2].strip()
            recv_type = self.model.member_types.get((cls, recv))
            if recv_type and recv_type in owners:
                return f"{recv_type}::{fieldname}"
        if cls in owners:
            return f"{cls}::{fieldname}"
        if len(owners) == 1:
            return f"{next(iter(owners))}::{fieldname}"
        if owners:
            return f"?::{fieldname}"
        return f"{cls or '?'}::{fieldname}"

    @staticmethod
    def _split_lambdas(segment: str) -> tuple[str, list[tuple[str, int]]]:
        """Blanks lambda bodies out of a statement and returns them
        separately with their offsets. A lambda body runs when invoked —
        for the repo's thread/handler lambdas that is another thread — so
        calls inside it must not inherit the statement's held-lock set."""
        bodies: list[tuple[str, int]] = []
        out = segment
        pos = 0
        while True:
            intro = LAMBDA_INTRO_RE.search(out, pos)
            if intro is None:
                break
            depth, j = 1, intro.end()
            while j < len(out) and depth:
                if out[j] == "{":
                    depth += 1
                elif out[j] == "}":
                    depth -= 1
                j += 1
            body = out[intro.end():j - 1]
            if body.strip():
                bodies.append((body, intro.end()))
            out = out[:intro.end()] + re.sub(r"[^\n]", " ", body) + out[j - 1:]
            pos = j
        return out, bodies

    def _scan_statement(self, fn: FunctionInfo, segment: str, base_line: int,
                        comments: dict[int, str], held: list[str],
                        stack: list[_Scope]) -> None:
        main, lambdas = self._split_lambdas(segment)
        self._scan_events(fn, main, segment, base_line, comments, held,
                          stack, deferred=False)
        for body, offset in lambdas:
            line = base_line + segment.count("\n", 0, offset)
            self._scan_events(fn, body, body, line, comments, [], stack,
                              deferred=True)

    def _scan_events(self, fn: FunctionInfo, text: str, raw: str,
                     base_line: int, comments: dict[int, str],
                     held: list[str], stack: list[_Scope],
                     deferred: bool) -> None:
        def line_at(offset: int) -> int:
            return base_line + text.count("\n", 0, offset)

        for local in LOCAL_TYPED_RE.finditer(text):
            fn.local_types.setdefault(local.group(2), local.group(1))
        in_loop = any(s.is_loop for s in stack)
        guard = GUARD_DECL_RE.search(text)
        manual = MANUAL_LOCK_RE.search(text)
        if (guard or manual) and not deferred:
            if guard:
                lineno = line_at(guard.start())
                arg_start = text.find("(", guard.start())
                arg = text[arg_start + 1:text.rfind(")")] \
                    if arg_start >= 0 else ""
                lock = GUARD_LOCKS.get(guard.group(1)) or \
                    self._lock_id(arg, fn.cls, fn)
                scope_holder = stack[-1] if stack else None
                if guard.group(1) in BLOCKING_CALLEES:
                    # The guard's constructor is a cataloged blocking call.
                    fn.calls.append(CallSite(
                        callee=guard.group(1), qualifier=guard.group(1),
                        receiver="", line=lineno, held=tuple(held),
                        blocking_waiver=self._waiver_near(
                            "blocking", comments, lineno, 2)))
            else:
                lineno = line_at(manual.start())
                expr, method = manual.group(1), manual.group(2)
                lock = self._lock_id(expr, fn.cls, fn)
                if method in MANUAL_UNLOCK_METHODS:
                    if lock in held:
                        held.remove(lock)
                    return
                scope_holder = None  # manual lock: held to function end
            if lock is None:
                return
            indexed = in_loop and (
                "[" in text or "->" in text or "*it" in text)
            waiver = self._waiver_near("lock-order", comments, lineno, 2)
            fn.acquisitions.append(Acquisition(
                lock=lock, line=lineno, held=tuple(held),
                in_loop_indexed=bool(manual and indexed), waived=waiver))
            held.append(lock)
            if scope_holder is not None:
                scope_holder.acquisitions.append(lock)
            return

        for discard in DISCARD_RE.finditer(text):
            call = VOID_NAME_CALL_RE.search(discard.group(1))
            if call is None:
                continue
            lineno = line_at(discard.start())
            fn.discards.append(Discard(
                callee=call.group(1), line=lineno,
                waiver=self._waiver_near("unchecked", comments, lineno, 1)))

        for call in CALL_RE.finditer(text):
            qualifier, receiver, callee = (call.group(1) or "",
                                           call.group(2) or "",
                                           call.group(3))
            if callee in CONTROL_KEYWORDS or callee in GUARD_TYPES:
                continue
            if not receiver and not qualifier:
                pre = text[:call.start(3)].rstrip()
                if pre.endswith(".") or pre.endswith("->"):
                    # Member call on a complex expression. A singleton
                    # chain `X::Default().Y()` still names its class; any
                    # other shape (`rows().size()`) gets a sentinel so
                    # resolution does not match every same-named method
                    # in the repo.
                    chain = re.search(
                        r"([\w:]+)::\w+\s*\(\s*\)\s*(?:\.|->)$", pre)
                    qualifier = chain.group(1) if chain else ""
                    receiver = "" if chain else "<expr>"
            lineno = line_at(call.start())
            fn.calls.append(CallSite(
                callee=callee, qualifier=qualifier, receiver=receiver,
                line=lineno, held=tuple(held),
                blocking_waiver=self._waiver_near("blocking", comments,
                                                  lineno, 2)))

    def run(self, files: list[Path]) -> Model:
        texts = {}
        for path in files:
            try:
                texts[path] = path.read_text(encoding="utf-8",
                                             errors="replace")
            except OSError:
                continue
        for path, text in texts.items():
            self.scan_declarations(
                path, blank_preprocessor(blank_comments_and_strings(text)))
        for path, text in texts.items():
            self.scan_file(path, text)
        return self.model


# --- libclang frontend -------------------------------------------------------

class LibclangFrontend:
    """AST-grounded model builder over compile_commands.json via
    clang.cindex. Same IR as the textual frontend, with real extents and
    referenced-declaration call resolution. Selected by --frontend=libclang
    or by auto-detection; any failure degrades to the textual frontend so a
    missing/mismatched libclang never breaks the lint."""

    def __init__(self, root: Path, compdb: Path):
        self.root = root
        self.compdb = compdb

    def run(self, files: list[Path]) -> Model:
        from clang import cindex  # noqa: import gated by caller

        index = cindex.Index.create()
        db = json.loads(self.compdb.read_text(encoding="utf-8"))
        # Reuse the textual pass for declaration maps and comment-anchored
        # waivers — those are source-level by definition — then override
        # function structure from the AST.
        textual = TextualFrontend(self.root)
        model = textual.run(files)
        model.functions = []
        seen_defs: set[tuple[str, str, int]] = set()
        src = (self.root / "src").resolve()

        for entry in db:
            tu_path = Path(entry.get("directory", "."),
                           entry["file"]).resolve()
            try:
                tu_path.relative_to(src)
            except ValueError:
                continue
            args = [a for a in entry.get("command", "").split()[1:]
                    if a not in ("-c", "-o") and not a.endswith(".o")
                    and not a.endswith(".cpp")]
            tu = index.parse(str(tu_path), args=args)
            for cursor in tu.cursor.walk_preorder():
                if cursor.kind not in (
                        cindex.CursorKind.CXX_METHOD,
                        cindex.CursorKind.FUNCTION_DECL,
                        cindex.CursorKind.CONSTRUCTOR,
                        cindex.CursorKind.DESTRUCTOR) \
                        or not cursor.is_definition():
                    continue
                loc = cursor.location
                if loc.file is None:
                    continue
                file = Path(loc.file.name).resolve()
                try:
                    file.relative_to(src)
                except ValueError:
                    continue
                key = (self._qualified(cursor), str(file), loc.line)
                if key in seen_defs:
                    continue
                seen_defs.add(key)
                model.functions.append(
                    self._function(cursor, file, textual, model))
        return model

    def _qualified(self, cursor) -> str:
        parts, cur = [], cursor
        while cur is not None and cur.spelling:
            parts.append(cur.spelling)
            cur = cur.semantic_parent
        return "::".join(reversed(parts))

    def _function(self, cursor, file: Path, textual: TextualFrontend,
                  model: Model) -> FunctionInfo:
        from clang import cindex

        rel = _relpath(file, self.root)
        text = file.read_text(encoding="utf-8", errors="replace")
        comments = comment_lines(text)
        cls = ""
        parent = cursor.semantic_parent
        if parent is not None and parent.kind in (
                cindex.CursorKind.CLASS_DECL, cindex.CursorKind.STRUCT_DECL):
            cls = parent.spelling
        fn = FunctionInfo(qualified=self._qualified(cursor), cls=cls,
                          file=rel, line=cursor.location.line)
        fn.blocking_waiver = textual._waiver_near(
            "blocking", comments, cursor.location.line - 1, 3)
        held: list[str] = []
        for tok_annot in ANNOT_RE.finditer(" ".join(
                t.spelling for t in cursor.get_tokens())):
            for arg in tok_annot.group(2).split(","):
                lock = textual._lock_id(arg.strip(), cls)
                if lock:
                    held.append(lock)
        fn.entry_locks = tuple(held)
        self._walk_body(cursor, fn, textual, comments, list(held))
        return fn

    def _walk_body(self, cursor, fn: FunctionInfo, textual: TextualFrontend,
                   comments: dict[int, str], held: list[str]) -> None:
        from clang import cindex

        for child in cursor.get_children():
            line = child.location.line
            if child.kind == cindex.CursorKind.VAR_DECL and \
                    _last_name(child.type.spelling) in GUARD_TYPES:
                arg = " ".join(t.spelling for t in child.get_tokens())
                arg = arg[arg.find("(") + 1:arg.rfind(")")]
                lock = GUARD_LOCKS.get(_last_name(child.type.spelling)) or \
                    textual._lock_id(arg, fn.cls)
                if lock:
                    fn.acquisitions.append(Acquisition(
                        lock=lock, line=line, held=tuple(held),
                        in_loop_indexed=False,
                        waived=textual._waiver_near("lock-order", comments,
                                                    line, 2)))
                    held = held + [lock]
            elif child.kind == cindex.CursorKind.CALL_EXPR:
                ref = child.referenced
                callee = ref.spelling if ref is not None else child.spelling
                if callee:
                    qualifier = ""
                    if ref is not None and ref.semantic_parent is not None:
                        qualifier = ref.semantic_parent.spelling or ""
                    fn.calls.append(CallSite(
                        callee=callee, qualifier=qualifier, receiver="",
                        line=line, held=tuple(held),
                        blocking_waiver=textual._waiver_near(
                            "blocking", comments, line, 2)))
            self._walk_body(child, fn, textual, comments, list(held))


# --- analyses ----------------------------------------------------------------

def _relpath(path: Path, root: Path) -> Path:
    try:
        return path.relative_to(root)
    except ValueError:
        try:
            return path.resolve().relative_to(root.resolve())
        except ValueError:
            return path


def build_call_index(model: Model) -> dict[str, list[FunctionInfo]]:
    index: dict[str, list[FunctionInfo]] = defaultdict(list)
    for fn in model.functions:
        index[_last_name(fn.qualified)].append(fn)
    return index


def receiver_type(model: Model, caller: FunctionInfo,
                  receiver: str) -> str | None:
    """Type of a receiver expression tail: a local/param, a member of the
    caller's class, or (for `conn.socket.X()` chains, where only `socket`
    is captured) an unambiguous member of some local's type."""
    direct = (caller.local_types.get(receiver) or
              model.member_types.get((caller.cls, receiver)))
    if direct:
        return direct
    hits = {model.member_types[(local_cls, receiver)]
            for local_cls in set(caller.local_types.values())
            if (local_cls, receiver) in model.member_types}
    if len(hits) == 1:
        return next(iter(hits))
    return None


def resolve_call(model: Model, index: dict[str, list[FunctionInfo]],
                 caller: FunctionInfo, call: CallSite) -> list[FunctionInfo]:
    candidates = index.get(call.callee, [])
    if not candidates:
        return []
    if call.qualifier:
        tail = _last_name(call.qualifier)
        narrowed = [f for f in candidates
                    if f.cls == tail or f.qualified.endswith(
                        f"{call.qualifier}::{call.callee}")]
        if narrowed:
            return narrowed
    same_class = [f for f in candidates if f.cls == caller.cls]
    same_file = [f for f in candidates if f.file == caller.file]
    if call.receiver:
        recv_type = receiver_type(model, caller, call.receiver)
        if recv_type:
            narrowed = [f for f in candidates if f.cls == recv_type]
            if narrowed:
                return narrowed
            # receiver resolved to a type with no parsed methods of that
            # name (e.g. an STL container): not a repo call edge
            if any(f.cls for f in candidates) and recv_type not in {
                    f.cls for f in candidates}:
                return same_class
        else:
            # Unknown receiver type: matching every same-named method in
            # the repo would wire `shards_.size()` to FdCache::size. Stay
            # within the caller's class/file.
            return same_class or same_file
    if same_class:
        return same_class
    # File-local helpers (each .cpp's anonymous-namespace Metrics() etc.)
    # shadow same-named helpers in other files.
    return same_file or candidates


def check_lock_order(model: Model, docs_path: Path | None,
                     update_docs: bool) -> tuple[list[Violation], str]:
    """Builds the acquisition graph, fails on cycles, and returns the
    rendered lock-order block for the docs."""
    violations: list[Violation] = []
    # may_acquire: function -> locks it (transitively) acquires.
    index = build_call_index(model)
    direct: dict[str, set[str]] = {
        fn.qualified: {a.lock for a in fn.acquisitions if a.waived is None}
        for fn in model.functions}
    callees: dict[str, set[str]] = defaultdict(set)
    for fn in model.functions:
        for call in fn.calls:
            for target in resolve_call(model, index, fn, call):
                callees[fn.qualified].add(target.qualified)
    may_acquire = {name: set(locks) for name, locks in direct.items()}
    changed = True
    while changed:
        changed = False
        for name, targets in callees.items():
            bucket = may_acquire.setdefault(name, set())
            before = len(bucket)
            for target in targets:
                bucket |= may_acquire.get(target, set())
            changed = changed or len(bucket) != before

    # Edge set: held -> acquired, with one witness site per edge.
    edges: dict[tuple[str, str], tuple[Path, int, str]] = {}

    def add_edge(a: str, b: str, file: Path, line: int, why: str) -> None:
        if "?::" in a or "?::" in b:
            return  # unresolvable lock identity: do not invent edges
        edges.setdefault((a, b), (file, line, why))

    for fn in model.functions:
        for acq in fn.acquisitions:
            if acq.waived is not None:
                if acq.waived == "":
                    violations.append(Violation(
                        fn.file, acq.line, "lock-order-cycle",
                        "dpfs:lock-order-ok waiver has an empty reason"))
                continue
            for held in acq.held:
                if held != acq.lock:
                    add_edge(held, acq.lock, fn.file, acq.line,
                             f"{fn.qualified} acquires while holding")
            if acq.in_loop_indexed or acq.lock in acq.held:
                violations.append(Violation(
                    fn.file, acq.line, "lock-order-cycle",
                    f"{fn.qualified} acquires multiple {acq.lock} "
                    "instances (self-edge: same-capability nesting "
                    "deadlocks unless a total order is enforced) — "
                    "state the order in a dpfs:lock-order-ok(...) waiver"))
        for call in fn.calls:
            if not call.held:
                continue
            if call.blocking_waiver is not None:
                continue
            for target in resolve_call(model, index, fn, call):
                for lock in may_acquire.get(target.qualified, set()):
                    for held in call.held:
                        if held != lock:
                            add_edge(held, lock, fn.file, call.line,
                                     f"{fn.qualified} -> "
                                     f"{target.qualified}")

    # Cycle detection (iterative DFS; self-edges were handled above).
    graph: dict[str, set[str]] = defaultdict(set)
    for (a, b) in edges:
        graph[a].add(b)
    color: dict[str, int] = {}
    parent: dict[str, str] = {}

    def report_cycle(start: str, end: str) -> None:
        chain = [end]
        node = end
        while node != start and node in parent:
            node = parent[node]
            chain.append(node)
        chain.reverse()
        chain.append(start)
        witness = edges[(end, start)]
        violations.append(Violation(
            witness[0], witness[1], "lock-order-cycle",
            "lock-order cycle: " + " -> ".join(chain) +
            f" (edge from {witness[2]})"))

    for node in sorted(graph):
        if color.get(node):
            continue
        stack = [(node, iter(sorted(graph[node])))]
        color[node] = 1
        while stack:
            current, it = stack[-1]
            advanced = False
            for nxt in it:
                if color.get(nxt, 0) == 0:
                    color[nxt] = 1
                    parent[nxt] = current
                    stack.append((nxt, iter(sorted(graph.get(nxt, ())))))
                    advanced = True
                    break
                if color.get(nxt) == 1:
                    report_cycle(nxt, current)
            if not advanced:
                color[current] = 2
                stack.pop()

    block = render_lock_order(model, edges)
    if docs_path is not None and docs_path.is_file():
        text = docs_path.read_text(encoding="utf-8")
        if LOCK_ORDER_BEGIN not in text or LOCK_ORDER_END not in text:
            violations.append(Violation(
                _relpath(docs_path, docs_path.parent.parent), 1,
                "lock-order-cycle",
                f"docs file lacks the {LOCK_ORDER_BEGIN} marker block for "
                "the generated global lock order"))
        else:
            current = text.split(LOCK_ORDER_BEGIN, 1)[1].split(
                LOCK_ORDER_END, 1)[0]
            if current.strip() != block.strip():
                if update_docs:
                    updated = (text.split(LOCK_ORDER_BEGIN, 1)[0] +
                               LOCK_ORDER_BEGIN + "\n" + block + "\n" +
                               LOCK_ORDER_END +
                               text.split(LOCK_ORDER_END, 1)[1])
                    docs_path.write_text(updated, encoding="utf-8")
                    print(f"updated lock-order block in {docs_path}")
                else:
                    violations.append(Violation(
                        _relpath(docs_path, docs_path.parent.parent), 1,
                        "lock-order-cycle",
                        "generated lock-order block is stale — run "
                        "tools/dpfs_deep_lint.py --update-docs"))
    return violations, block


def render_lock_order(model: Model,
                      edges: dict[tuple[str, str], tuple[Path, int, str]]
                      ) -> str:
    """Topologically ordered lock list + the edges that pin it, plus the
    sanctioned same-capability nestings (waived self-edges)."""
    nodes = sorted({n for edge in edges for n in edge})
    indeg = {n: 0 for n in nodes}
    graph: dict[str, set[str]] = defaultdict(set)
    for (a, b) in edges:
        if b not in graph[a]:
            graph[a].add(b)
            indeg[b] += 1
    # Kahn's algorithm with deterministic (level, name) ordering; on a
    # cycle the remainder is listed unordered (the lint already failed).
    order: list[str] = []
    ready = sorted(n for n in nodes if indeg[n] == 0)
    while ready:
        node = ready.pop(0)
        order.append(node)
        for nxt in sorted(graph[node]):
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                ready.append(nxt)
        ready.sort()
    leftover = [n for n in nodes if n not in order]
    lines = ["Acquire order (earlier locks may be held while taking later "
             "ones; the reverse is a lint failure):", ""]
    for pos, node in enumerate(order + leftover, start=1):
        lines.append(f"{pos}. `{node}`")
    lines.append("")
    lines.append("Pinned by these acquisition edges:")
    lines.append("")
    for (a, b), (file, line, why) in sorted(edges.items()):
        lines.append(f"* `{a}` -> `{b}` — {file}:{line} ({why})")
    waived = sorted(
        {(fn.file.as_posix(), acq.line, acq.lock, acq.waived)
         for fn in model.functions for acq in fn.acquisitions
         if acq.waived})
    if waived:
        lines.append("")
        lines.append("Sanctioned same-capability nestings "
                     "(`dpfs:lock-order-ok` waivers):")
        lines.append("")
        for file, line, lock, reason in waived:
            lines.append(f"* `{lock}` at {file}:{line} — {reason}")
    return "\n".join(lines)


def _blocking_class_match(target_cls: str, required: str | None) -> bool:
    if required is None:
        return True
    return target_cls == required


def check_reactor_blocking(model: Model, roots: tuple[str, ...]
                           ) -> list[Violation]:
    violations: list[Violation] = []
    index = build_call_index(model)
    by_suffix: dict[str, list[FunctionInfo]] = defaultdict(list)
    for fn in model.functions:
        by_suffix[fn.qualified].append(fn)

    root_fns: list[FunctionInfo] = []
    for root in roots:
        matches = [fn for fn in model.functions
                   if fn.qualified == root or
                   fn.qualified.endswith("::" + root)]
        if not matches:
            violations.append(Violation(
                Path("tools/dpfs_deep_lint.py"), 1, "reactor-blocking",
                f"configured reactor root '{root}' resolves to no parsed "
                "function — renamed? update REACTOR_ROOTS"))
        root_fns.extend(matches)

    # BFS over the call graph; remember one witness path per function.
    # Keyed by object identity, not qualified name: distinct definitions
    # can share a name (fixtures, per-file anon-namespace helpers) and each
    # body must be walked.
    paths: dict[int, list[str]] = {}
    queue: list[FunctionInfo] = []
    for fn in root_fns:
        if id(fn) not in paths:
            paths[id(fn)] = [fn.qualified]
            queue.append(fn)
    while queue:
        fn = queue.pop(0)
        if fn.blocking_waiver is not None:
            if fn.blocking_waiver == "":
                violations.append(Violation(
                    fn.file, fn.line, "reactor-blocking",
                    "dpfs:blocking-ok waiver has an empty reason"))
            continue  # sanctioned blocking boundary: do not traverse
        for call in sorted(fn.calls, key=lambda c: c.line):
            blocking_cls = BLOCKING_CALLEES.get(call.callee, "absent")
            if blocking_cls != "absent":
                # Candidate blocking primitive: check receiver class.
                recv_type = receiver_type(model, fn, call.receiver) \
                    if call.receiver else None
                qual_tail = _last_name(call.qualifier) if call.qualifier \
                    else None
                cls_hint = recv_type or qual_tail
                targets = index.get(call.callee, [])
                if cls_hint is None and blocking_cls is not None and targets:
                    hints = {t.cls for t in targets if t.cls}
                    if len(hints) == 1:
                        cls_hint = next(iter(hints))
                matched = blocking_cls is None or (
                    cls_hint is not None and
                    _blocking_class_match(cls_hint, blocking_cls))
                if matched and call.blocking_waiver is None:
                    chain = " -> ".join(paths[id(fn)])
                    target = (f"{cls_hint}::{call.callee}" if cls_hint
                              else call.callee)
                    violations.append(Violation(
                        fn.file, call.line, "reactor-blocking",
                        f"blocking call {target}() reachable from the "
                        f"reactor: {chain} -> {target} — the event loop "
                        "stalls every connection while this runs; fix it "
                        "or waive with dpfs:blocking-ok(reason)"))
                    continue
                if matched:
                    continue  # waived at the call site
            if call.blocking_waiver is not None:
                continue  # waived edge: do not traverse
            for target in resolve_call(model, index, fn, call):
                if id(target) in paths:
                    continue
                paths[id(target)] = (paths[id(fn)] +
                                     [target.qualified])
                queue.append(target)
    return violations


def check_error_paths(model: Model) -> list[Violation]:
    violations: list[Violation] = []
    for fn in model.functions:
        for discard in fn.discards:
            if discard.callee not in model.status_returning:
                continue
            if discard.waiver is None:
                violations.append(Violation(
                    fn.file, discard.line, "unchecked-status",
                    f"(void)-discarded {discard.callee}() returns "
                    "Status/Result — state why dropping the error is "
                    "sound with dpfs:unchecked(reason)"))
            elif discard.waiver == "":
                violations.append(Violation(
                    fn.file, discard.line, "unchecked-status",
                    "dpfs:unchecked waiver has an empty reason"))
    for file, line, reason in model.no_tsa_sites:
        if reason is None:
            violations.append(Violation(
                file, line, "no-tsa-justification",
                "DPFS_NO_THREAD_SAFETY_ANALYSIS without a nearby "
                "dpfs:no-tsa(reason) stating why the unchecked locking "
                "is sound"))
    return violations


# --- driver ------------------------------------------------------------------

def build_model(root: Path, compdb: Path | None, frontend: str
                ) -> tuple[Model, str]:
    files = iter_sources(root, compdb)
    if frontend in ("auto", "libclang"):
        try:
            import clang.cindex  # noqa: F401
            if compdb is None or not compdb.is_file():
                raise RuntimeError("no compile_commands.json")
            model = LibclangFrontend(root, compdb).run(files)
            return model, "libclang"
        except Exception as exc:  # noqa: BLE001 — degrade, never break
            if frontend == "libclang":
                print(f"dpfs_deep_lint: libclang frontend failed ({exc}); "
                      "falling back to the textual frontend",
                      file=sys.stderr)
    return TextualFrontend(root).run(files), "textual"


def run_lint(root: Path, compdb: Path | None, frontend: str,
             roots: tuple[str, ...], update_docs: bool,
             docs: bool = True) -> tuple[list[Violation], str]:
    model, used = build_model(root, compdb, frontend)
    docs_path = root / "docs" / "STATIC_ANALYSIS.md" if docs else None
    if docs_path is not None and not docs_path.is_file():
        docs_path = None
    violations, block = check_lock_order(model, docs_path, update_docs)
    violations += check_reactor_blocking(model, roots)
    violations += check_error_paths(model)
    violations.sort(key=lambda v: (str(v.path), v.line, v.check))
    return violations, used


# --- self-test ---------------------------------------------------------------

ALL_CHECKS = frozenset({
    "lock-order-cycle", "reactor-blocking", "unchecked-status",
    "no-tsa-justification",
})

# check -> fixture files expected to trigger it (inside deep_lint_fixtures/).
EXPECTED_SELF_TEST = {
    "lock-order-cycle": ("src/core/lock_cycle.cpp",
                         "src/metadb/scope_guards.cpp"),
    "reactor-blocking": ("src/server/reactor_block.cpp",
                         "src/metadb/scope_guards.cpp"),
    "unchecked-status": ("src/metadb/bad_discard.cpp",),
    "no-tsa-justification": ("src/metadb/bad_discard.cpp",),
}
CLEAN_FIXTURE = "src/core/clean_waived.cpp"


def run_self_test(fixtures: Path) -> int:
    # The textual frontend is the reference implementation the fixtures
    # pin (they are header-free single files with no compile commands);
    # the libclang frontend is exercised against the real tree instead.
    model = TextualFrontend(fixtures).run(iter_sources(fixtures, None))
    violations, _ = check_lock_order(model, None, False)
    violations += check_reactor_blocking(model, SELF_TEST_ROOTS)
    violations += check_error_paths(model)

    found = {(v.check, v.path.as_posix()) for v in violations}
    failures: list[str] = []
    for check in sorted(ALL_CHECKS - set(EXPECTED_SELF_TEST)):
        failures.append(f"self-test: check '{check}' has no seeded fixture")
    for v in violations:
        if v.check not in ALL_CHECKS:
            failures.append(
                f"self-test: check '{v.check}' missing from ALL_CHECKS")
    for check, paths in EXPECTED_SELF_TEST.items():
        for path in paths:
            if (check, path) not in found:
                failures.append(
                    f"self-test: check '{check}' did not fire on {path}")
    for v in violations:
        if v.path.as_posix() == CLEAN_FIXTURE:
            failures.append(
                f"self-test: false positive on clean fixture: {v}")
    for line in failures:
        print(line, file=sys.stderr)
    if failures:
        for v in violations:
            print(f"self-test saw: {v}", file=sys.stderr)
        return 1
    print(f"self-test OK: {len(ALL_CHECKS)} violation classes caught, "
          "clean waived fixture clean")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--compdb", type=Path, default=None,
                        help="compile_commands.json (default: "
                             "<root>/build/compile_commands.json)")
    parser.add_argument("--frontend", choices=("auto", "libclang",
                                               "textual"), default="auto")
    parser.add_argument("--update-docs", action="store_true",
                        help="rewrite the generated lock-order block in "
                             "docs/STATIC_ANALYSIS.md")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--dump-ir", action="store_true",
                        help="debug: print every parsed function with its "
                             "acquisitions and calls")
    args = parser.parse_args()

    if args.self_test:
        return run_self_test(
            Path(__file__).resolve().parent / FIXTURE_DIR_NAME)

    compdb = args.compdb or (args.root / "build" / "compile_commands.json")
    if args.dump_ir:
        model, used = build_model(args.root, compdb, args.frontend)
        print(f"frontend: {used}")
        for fn in model.functions:
            print(f"{fn.file}:{fn.line}: {fn.qualified}"
                  f" entry={list(fn.entry_locks)}")
            for acq in fn.acquisitions:
                print(f"  acquire {acq.lock} @{acq.line} "
                      f"held={list(acq.held)} loop={acq.in_loop_indexed} "
                      f"waived={acq.waived!r}")
            for call in fn.calls:
                held = f" held={list(call.held)}" if call.held else ""
                print(f"  call {call.qualifier + '::' if call.qualifier else ''}"
                      f"{call.receiver + '.' if call.receiver else ''}"
                      f"{call.callee} @{call.line}{held}")
        return 0

    violations, used = run_lint(args.root, compdb, args.frontend,
                                REACTOR_ROOTS, args.update_docs)
    for v in violations:
        print(v, file=sys.stderr)
    if violations:
        print(f"dpfs_deep_lint[{used}]: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    print(f"dpfs_deep_lint[{used}]: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
