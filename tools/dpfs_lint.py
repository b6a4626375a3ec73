#!/usr/bin/env python3
"""dpfs_lint: the repo-invariant linter.

Enforces the DPFS conventions that the compiler cannot (all previously prose
in CLAUDE.md), as a ctest test so every build runs them:

  layout-purity      src/layout is pure math: no I/O, OS, threading, or
                     other-subsystem includes (the TCP executor and the
                     simulator both consume its IoPlan; purity keeps them
                     pinned to the same math).
  rooted-includes    quoted includes are rooted at src/ (or the including
                     tree); no "../" or "./" relative paths.
  no-exceptions      no throw/catch in public API headers (src/**/*.h);
                     fallible APIs return Status/Result<T>.
  nodiscard-status   Status and Result<T> keep their [[nodiscard]] class
                     attributes, so the compiler flags dropped errors
                     (the lint guards the attribute; the compiler does the
                     per-call-site work).
  raw-mutex          production code uses the annotated dpfs::Mutex /
                     MutexLock / CondVar (common/mutex.h), never raw
                     std::mutex & friends — otherwise Clang's thread-safety
                     analysis cannot see the locking.
  failpoint-disarm   any test file that arms a failpoint also calls
                     failpoint::DisarmAll() (teardown hygiene: leaked arms
                     poison later tests in the same binary).
  opcode-names       every MessageType enumerator in src/net/messages.h has
                     a case in MessageTypeName (src/net/messages.cpp) — the
                     name feeds per-opcode metrics and error messages, and
                     a forgotten case silently reports "unknown".
  assign-or-return-case
                     DPFS_ASSIGN_OR_RETURN declares a variable, so a case
                     label that uses it must brace its body — otherwise the
                     declaration is in scope for the jump to every later
                     label ("jump to case label crosses initialization").
                     The lint reports it as a convention violation with the
                     fix, instead of leaving it to a cryptic compile error.
  wire-reserve       in src/net/ and src/client/meta_wire.cpp, no
                     .reserve() sized by a local read off the wire with
                     ReadU32()/ReadU64(): a lying count would make one small
                     frame allocate gigabytes. Decode loops are bounded by
                     the bytes actually received instead.

Usage:
  tools/dpfs_lint.py [--root DIR]   lint the repo (default: repo root)
  tools/dpfs_lint.py --self-test    run against the seeded-violation
                                    fixtures in tools/lint_fixtures and fail
                                    unless every expected violation fires

Exit status: 0 clean, 1 violations (printed one per line as
"path:line: rule: message").
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

SOURCE_TREES = ("src", "tests", "bench", "tools", "examples")
SOURCE_SUFFIXES = {".h", ".cpp", ".cc", ".hpp"}
FIXTURE_DIR_NAME = "lint_fixtures"

# Headers that imply I/O, OS services, or threading — all banned in
# src/layout. Matched against the full <...> include path.
LAYOUT_BANNED_SYSTEM = re.compile(
    r"^(fstream|iostream|cstdio|stdio\.h|filesystem|thread|mutex|"
    r"shared_mutex|condition_variable|future|unistd\.h|fcntl\.h|"
    r"sys/.*|netinet/.*|arpa/.*|poll\.h|csignal|signal\.h)$"
)
# Subsystems src/layout may depend on (itself and the pure parts of common).
LAYOUT_ALLOWED_PREFIXES = ("layout/", "common/status.h", "common/strings.h",
                          "common/bytes.h")

# Files that decode frames from outside the process (wire-reserve rule).
WIRE_DECODER_PREFIX = "src/net/"
WIRE_DECODER_FILES = ("src/client/meta_wire.cpp",)
# `DPFS_ASSIGN_OR_RETURN(const std::uint32_t count, reader.ReadU32())` or
# `count = reader.ReadU64()...`: the local a wire count lands in.
WIRE_COUNT_RE = re.compile(
    r"\bDPFS_ASSIGN_OR_RETURN\s*\(\s*(?:const\s+)?[\w:]+\s+(\w+)\s*,"
    r"[^;]*?\bRead(?:U32|U64)\s*\(\s*\)"
    r"|\b(\w+)\s*=\s*[^;=]*?\bRead(?:U32|U64)\s*\(\s*\)")
RESERVE_RE = re.compile(r"\.reserve\s*\(([^;]*)\)")

RAW_MUTEX_TOKENS = re.compile(
    r"std::(recursive_|timed_|recursive_timed_|shared_|shared_timed_)?mutex\b|"
    r"std::lock_guard\b|std::unique_lock\b|std::scoped_lock\b|"
    r"std::shared_lock\b|std::condition_variable\b"
)

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+(?:"([^"]+)"|<([^>]+)>)')

# Delimiters the comment/string stripper understands, in scan order. String
# literals are recognized so a comment-opener inside one is not stripped.
_STRIP_RE = re.compile(
    r'//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\'',
    re.DOTALL,
)


def _blank_match(keep_strings: bool):
    def blank(match: re.Match[str]) -> str:
        token = match.group(0)
        if keep_strings and token[0] in "\"'":
            return token
        return re.sub(r"[^\n]", " ", token)

    return blank


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and literals, preserving newlines for line numbers."""
    return _STRIP_RE.sub(_blank_match(keep_strings=False), text)


def strip_comments(text: str) -> str:
    """Blanks comments only (include paths are string-like and must stay)."""
    return _STRIP_RE.sub(_blank_match(keep_strings=True), text)


class Violation:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


def iter_source_files(root: Path):
    for tree in SOURCE_TREES:
        base = root / tree
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES:
                continue
            if FIXTURE_DIR_NAME in path.relative_to(root).parts:
                continue  # seeded violations for --self-test
            yield path


def relpath(path: Path, root: Path) -> Path:
    try:
        return path.relative_to(root)
    except ValueError:
        return path


def lint_file(path: Path, root: Path) -> list[Violation]:
    rel = relpath(path, root)
    rel_posix = rel.as_posix()
    text = path.read_text(encoding="utf-8", errors="replace")
    code = strip_comments_and_strings(text)
    lines = code.splitlines()
    include_lines = strip_comments(text).splitlines()
    out: list[Violation] = []

    in_layout = rel_posix.startswith("src/layout/")
    in_src = rel_posix.startswith("src/")
    is_header = path.suffix in {".h", ".hpp"}
    is_test = rel_posix.startswith("tests/")

    for lineno, line in enumerate(lines, start=1):
        m = INCLUDE_RE.match(include_lines[lineno - 1]) \
            if lineno <= len(include_lines) else None
        if m:
            quoted, angled = m.group(1), m.group(2)
            if quoted is not None and (
                quoted.startswith("../") or quoted.startswith("./")
            ):
                out.append(Violation(
                    rel, lineno, "rooted-includes",
                    f'relative include "{quoted}" — include paths are '
                    "rooted at src/ (e.g. \"layout/plan.h\")"))
            if in_layout:
                if angled is not None and LAYOUT_BANNED_SYSTEM.match(angled):
                    out.append(Violation(
                        rel, lineno, "layout-purity",
                        f"src/layout must stay pure math; <{angled}> brings "
                        "in I/O/OS/threading"))
                if quoted is not None and not quoted.startswith(
                        LAYOUT_ALLOWED_PREFIXES):
                    out.append(Violation(
                        rel, lineno, "layout-purity",
                        f'src/layout may not depend on "{quoted}" (allowed: '
                        "layout/*, common/status|strings|bytes)"))
            if (in_src and angled in ("mutex", "condition_variable")
                    and rel_posix != "src/common/mutex.h"):
                out.append(Violation(
                    rel, lineno, "raw-mutex",
                    f"<{angled}> outside common/mutex.h — use the annotated "
                    "dpfs::Mutex/MutexLock/CondVar"))

        if in_src and rel_posix != "src/common/mutex.h":
            m2 = RAW_MUTEX_TOKENS.search(line)
            if m2:
                out.append(Violation(
                    rel, lineno, "raw-mutex",
                    f"{m2.group(0)} outside common/mutex.h — raw std "
                    "primitives are invisible to the thread-safety "
                    "analysis"))

        if in_src and is_header:
            if re.search(r"\bthrow\b|\bcatch\s*\(", line):
                out.append(Violation(
                    rel, lineno, "no-exceptions",
                    "throw/catch in a public API header — fallible APIs "
                    "return Status/Result<T>"))

    if is_test and re.search(r"failpoint::Arm\w*\s*\(|ArmFromString\s*\(",
                             code):
        if "DisarmAll" not in code:
            out.append(Violation(
                rel, 1, "failpoint-disarm",
                "arms a failpoint but never calls failpoint::DisarmAll() "
                "(required in teardown)"))

    out.extend(lint_assign_case(rel, code))
    if (rel_posix.startswith(WIRE_DECODER_PREFIX)
            or rel_posix in WIRE_DECODER_FILES):
        out.extend(lint_wire_reserve(rel, code))

    return out


def lint_wire_reserve(rel: Path, code: str) -> list[Violation]:
    """Flags .reserve(n) where n was read off the wire as a count."""
    counts = {a or b for a, b in WIRE_COUNT_RE.findall(code)}
    out: list[Violation] = []
    for m in RESERVE_RE.finditer(code):
        sized_by = counts & set(re.findall(r"\w+", m.group(1)))
        if sized_by:
            out.append(Violation(
                rel, code.count("\n", 0, m.start()) + 1, "wire-reserve",
                f"reserve() sized by the wire count '{min(sized_by)}' — a "
                "lying count allocates before the body is checked; let the "
                "decode loop grow the container"))
    return out


# `case <const-expr>:` / `default:` labels. The case expression may contain
# scoped enumerators, so `::` is allowed and the label colon is the first
# single colon (`(?<!:):(?!:)`).
CASE_LABEL_RE = re.compile(
    r"\b(?:case\b(?:[^:{};]|::)*?|default\s*)(?<!:):(?!:)")


def lint_assign_case(rel: Path, code: str) -> list[Violation]:
    """Flags DPFS_ASSIGN_OR_RETURN directly under an unbraced case label."""
    out: list[Violation] = []
    for label in CASE_LABEL_RE.finditer(code):
        i = label.end()
        while i < len(code) and code[i].isspace():
            i += 1
        if i >= len(code) or code[i] == "{":
            continue  # braced case body: the declaration is scoped
        # Collect the label's depth-0 body: up to the next case/default
        # label or the `}` that closes the switch. Nested braced blocks
        # scope their own declarations and are skipped.
        depth = 0
        top_level: list[str] = []
        j = i
        while j < len(code):
            ch = code[j]
            if ch == "{":
                depth += 1
            elif ch == "}":
                if depth == 0:
                    break
                depth -= 1
            elif depth == 0:
                if CASE_LABEL_RE.match(code, j) and j != i:
                    break
                top_level.append(ch)
            j += 1
        body = "".join(top_level)
        m = re.search(r"\bDPFS_ASSIGN_OR_RETURN\s*\(", body)
        if m:
            # Line of the macro: offset of the label end + blanks skipped
            # puts us at i; the body string has 1:1 newlines with code[i:j]
            # at depth 0 only, so recover the line from the code offset of
            # the first macro occurrence at depth 0 instead.
            macro_off = code.find("DPFS_ASSIGN_OR_RETURN", i, j)
            lineno = code.count("\n", 0, macro_off) + 1
            out.append(Violation(
                rel, lineno, "assign-or-return-case",
                "DPFS_ASSIGN_OR_RETURN under an unbraced case label — the "
                "macro declares a variable, so brace the case body "
                "(`case X: { ... }`)"))
    return out


def lint_status_header(root: Path) -> list[Violation]:
    rel = Path("src/common/status.h")
    path = root / rel
    out: list[Violation] = []
    if not path.is_file():
        out.append(Violation(rel, 1, "nodiscard-status",
                             "src/common/status.h is missing"))
        return out
    text = path.read_text(encoding="utf-8", errors="replace")
    if not re.search(r"class\s+\[\[nodiscard\]\]\s+Status\b", text):
        out.append(Violation(
            rel, 1, "nodiscard-status",
            "class Status has lost its [[nodiscard]] attribute — dropped "
            "errors would compile silently"))
    if not re.search(r"class\s+\[\[nodiscard\]\]\s+Result\b", text):
        out.append(Violation(
            rel, 1, "nodiscard-status",
            "class Result<T> has lost its [[nodiscard]] attribute — dropped "
            "errors would compile silently"))
    return out


ENUMERATOR_RE = re.compile(r"^\s*(k\w+)\s*=\s*\d+\s*,?", re.MULTILINE)
NAME_CASE_RE = re.compile(r"case\s+MessageType::(k\w+)\s*:")


def lint_opcode_names(root: Path) -> list[Violation]:
    """Every MessageType enumerator must round-trip through MessageTypeName."""
    header = root / "src/net/messages.h"
    impl = root / "src/net/messages.cpp"
    if not header.is_file() or not impl.is_file():
        return []
    header_text = strip_comments_and_strings(
        header.read_text(encoding="utf-8", errors="replace"))
    enum_match = re.search(
        r"enum\s+class\s+MessageType[^{]*\{(.*?)\};", header_text, re.DOTALL)
    if enum_match is None:
        return [Violation(Path("src/net/messages.h"), 1, "opcode-names",
                          "enum class MessageType not found")]
    enumerators = ENUMERATOR_RE.findall(enum_match.group(1))
    impl_text = strip_comments_and_strings(
        impl.read_text(encoding="utf-8", errors="replace"))
    named = set(NAME_CASE_RE.findall(impl_text))
    out: list[Violation] = []
    for enumerator in enumerators:
        if enumerator not in named:
            out.append(Violation(
                Path("src/net/messages.cpp"), 1, "opcode-names",
                f"MessageType::{enumerator} has no case in MessageTypeName — "
                "per-opcode metrics and error messages would report "
                "\"unknown\""))
    return out


def run_lint(root: Path) -> list[Violation]:
    violations: list[Violation] = []
    for path in iter_source_files(root):
        violations.extend(lint_file(path, root))
    violations.extend(lint_status_header(root))
    violations.extend(lint_opcode_names(root))
    return violations


# --- self-test --------------------------------------------------------------

# Every rule the linter implements. A new rule must be added here AND given
# a seeded fixture in EXPECTED_SELF_TEST, or the self-test fails.
ALL_RULES = frozenset({
    "layout-purity", "rooted-includes", "no-exceptions",
    "nodiscard-status", "raw-mutex", "failpoint-disarm",
    "opcode-names", "assign-or-return-case", "wire-reserve",
})

# rule -> fixture file expected to trigger it (paths inside lint_fixtures/).
EXPECTED_SELF_TEST = {
    "layout-purity": "src/layout/bad_io.h",
    "rooted-includes": "src/client/bad_relative.cpp",
    "no-exceptions": "src/server/bad_throw.h",
    "raw-mutex": "src/core/bad_mutex.cpp",
    "failpoint-disarm": "tests/common/bad_failpoint_test.cpp",
    "nodiscard-status": "src/common/status.h",
    "opcode-names": "src/net/messages.cpp",
    "assign-or-return-case": "src/metad/bad_case.cpp",
    "wire-reserve": "src/net/bad_reserve.cpp",
}


def run_self_test(fixtures: Path) -> int:
    violations = run_lint(fixtures)
    found = {(v.rule, v.path.as_posix()) for v in violations}
    failures = []
    for rule in sorted(ALL_RULES - set(EXPECTED_SELF_TEST)):
        failures.append(f"self-test: rule '{rule}' has no seeded fixture")
    for v in violations:
        if v.rule not in ALL_RULES:
            failures.append(f"self-test: rule '{v.rule}' missing from "
                            "ALL_RULES")
    for rule, path in EXPECTED_SELF_TEST.items():
        if (rule, path) not in found:
            failures.append(f"self-test: rule '{rule}' did not fire on "
                            f"{path}")
    # A clean file seeded alongside the violations must stay clean.
    clean = [v for v in violations
             if v.path.as_posix() == "src/layout/good_pure.h"]
    for v in clean:
        failures.append(f"self-test: false positive on clean fixture: {v}")
    for line in failures:
        print(line, file=sys.stderr)
    if failures:
        return 1
    print(f"self-test OK: {len(EXPECTED_SELF_TEST)} violation classes "
          "caught, clean fixture clean")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repository root to lint")
    parser.add_argument("--self-test", action="store_true",
                        help="lint the seeded fixtures and verify every "
                             "violation class is caught")
    args = parser.parse_args()

    if args.self_test:
        return run_self_test(
            Path(__file__).resolve().parent / FIXTURE_DIR_NAME)

    violations = run_lint(args.root)
    for v in violations:
        print(v, file=sys.stderr)
    if violations:
        print(f"dpfs_lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("dpfs_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
