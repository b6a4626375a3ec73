#!/usr/bin/env python3
"""doc_lint: the documentation-consistency linter.

Docs rot silently: a file gets renamed, a doc keeps pointing at the old
name, and the next reader chases a ghost. This linter makes doc drift a
test failure (ctest `doc_lint`), checking every tracked markdown file:

  broken-link   every relative markdown link target ([text](path) where
                path is not http(s)/mailto/#anchor) must resolve on disk,
                relative to the linking document's directory.
  stale-path    every repo path a doc mentions (src/..., tests/...,
                bench/..., tools/..., examples/..., docs/...) must exist —
                either exactly, or as a directory, or with a standard
                suffix appended (e.g. `src/common/metrics` + .h/.cpp covers
                the "metrics.{h,cpp}" brace shorthand). Mentions containing
                glob characters are skipped.

Two catalogs are additionally cross-checked against the source tree, in
both directions, so the doc tables stay the authoritative inventory:

  failpoint-undocumented / failpoint-ghost
                every site string passed to failpoint::Check("...") in src/
                must have a row in the docs/FAULT_INJECTION.md site-catalog
                table, and every cataloged site must still be checked
                somewhere in src/.
  metric-undocumented / metric-ghost
                every instrument name passed to GetCounter/GetGauge/
                GetHistogram("...") in src/ must have a row in a
                docs/OBSERVABILITY.md catalog table, and every cataloged
                name must still be registered somewhere in src/. Catalog
                rows may abbreviate siblings (`x.hits` / `.misses`) and use
                `<op>` placeholders for dynamic suffixes (matching source
                names that end with a dot).

                The server transport (src/server/frame_server.cpp) takes
                both from its owners: it checks the sites they name as
                `*_failpoint = "site"` options, and registers
                `metric_prefix + ".suffix"` for every `metric_prefix = "p"`
                an owner passes. Both forms count as source sites.
  opcode-undocumented / opcode-ghost
                every enumerator of `enum class MessageType` in
                src/net/messages.h must have a row (matching number AND
                snake_case name) in docs/WIRE_PROTOCOL.md's request table,
                and every numbered table row must match a live enumerator —
                so the wire doc stays the authoritative opcode inventory.

Scanned documents: README.md, DESIGN.md, EXPERIMENTS.md, ROADMAP.md,
CLAUDE.md, CHANGES.md, and docs/*.md.

Usage:
  tools/doc_lint.py [--root DIR]   lint the repo (default: repo root)
  tools/doc_lint.py --self-test    run against the seeded-violation
                                   fixtures in tools/doc_lint_fixtures and
                                   fail unless every expected violation
                                   fires

Exit status: 0 clean, 1 violations (printed one per line as
"path:line: rule: message").
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

TOP_LEVEL_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md",
                  "CLAUDE.md", "CHANGES.md")
FIXTURE_DIR_NAME = "doc_lint_fixtures"

# [text](target) — target captured up to the closing paren. Images
# (![alt](target)) match too, which is what we want.
MARKDOWN_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

# A repo path: one of the source trees, then at least one path character.
# The lookbehind keeps `build/bench/...` from matching its `bench/` tail.
REPO_PATH_RE = re.compile(
    r"(?<![\w/\-.])(?:src|tests|bench|tools|examples|docs)/[\w./\-]+"
)

# Suffixes tried when a bare mention doesn't exist as written; covers the
# `metrics.{h,cpp}` brace shorthand and extensionless tool references.
ACCEPTED_SUFFIXES = ("", ".h", ".cpp", ".py", ".sh", ".md")


class Violation:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


def iter_docs(root: Path):
    for name in TOP_LEVEL_DOCS:
        path = root / name
        if path.is_file():
            yield path
    docs = root / "docs"
    if docs.is_dir():
        yield from sorted(docs.glob("*.md"))


def path_exists(root: Path, mention: str) -> bool:
    mention = mention.rstrip("/").rstrip(".,:;")
    if not mention:
        return True
    for suffix in ACCEPTED_SUFFIXES:
        if (root / (mention + suffix)).exists():
            return True
    return False


def lint_doc(path: Path, root: Path) -> list[Violation]:
    rel = path.relative_to(root)
    text = path.read_text(encoding="utf-8", errors="replace")
    out: list[Violation] = []

    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in MARKDOWN_LINK_RE.finditer(line):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            resolved = target.split("#", 1)[0]  # drop the anchor
            if not resolved:
                continue
            if not (path.parent / resolved).exists():
                out.append(Violation(
                    rel, lineno, "broken-link",
                    f"link target '{target}' does not resolve (relative to "
                    f"{rel.parent.as_posix()}/)"))

        for match in REPO_PATH_RE.finditer(line):
            mention = match.group(0)
            tail = line[match.end():match.end() + 1]
            if tail in ("*", "?", "{", "["):
                continue  # glob / brace shorthand — not a literal path
            if any(ch in mention for ch in "*?[]{}"):
                continue
            if not path_exists(root, mention):
                out.append(Violation(
                    rel, lineno, "stale-path",
                    f"mentions '{mention}', which does not exist in the "
                    "repo (renamed or deleted?)"))

    return out


# --- catalog cross-checks (failpoint sites, metric instruments) -------------

_CODE_STRIP_RE = re.compile(
    r'//[^\n]*|/\*.*?\*/', re.DOTALL)  # strings must survive: they ARE the data

# Sites reach failpoint::Check either directly or through the
# DPFS_FAILPOINT_RETURN convenience macro (common/failpoint.h).
FAILPOINT_CALL_RE = re.compile(
    r'(?:failpoint::Check|DPFS_FAILPOINT\w*)\(\s*"([^"]+)"')
METRIC_CALL_RE = re.compile(r'Get(?:Counter|Gauge|Histogram)\(\s*"([^"]+)"')
# The transport's indirect forms (see the module docstring).
FAILPOINT_OPTION_RE = re.compile(r'\b\w+_failpoint\s*=\s*"([^"]+)"')
METRIC_PREFIX_RE = re.compile(r'\bmetric_prefix\s*=\s*"([a-z_]+)"')
PREFIXED_METRIC_CALL_RE = re.compile(
    r'Get(?:Counter|Gauge|Histogram)\(\s*[\w.>-]*metric_prefix\s*\+\s*'
    r'"([^"]+)"')

# A catalog row's first cell: `| `name` | ...` where name is dotted
# lowercase (which is what keeps the action/status tables out).
CATALOG_ROW_RE = re.compile(r"^\|([^|]*)\|")
BACKTICK_RE = re.compile(r"`([^`]+)`")
DOTTED_NAME_RE = re.compile(r"^[a-z_]+(?:\.[a-z_<>]+)+\.?$")


def scan_src_calls(root: Path, pattern: re.Pattern[str]
                   ) -> dict[str, tuple[Path, int]]:
    """name -> (file, line) of one call site per literal under src/."""
    sites: dict[str, tuple[Path, int]] = {}
    base = root / "src"
    if not base.is_dir():
        return sites
    for path in sorted(base.rglob("*")):
        if path.suffix not in {".h", ".hpp", ".cpp", ".cc"}:
            continue
        text = path.read_text(encoding="utf-8", errors="replace")
        code = _CODE_STRIP_RE.sub(
            lambda m: re.sub(r"[^\n]", " ", m.group(0)), text)
        for m in pattern.finditer(code):
            name = m.group(1)
            lineno = code.count("\n", 0, m.start()) + 1
            sites.setdefault(name, (path.relative_to(root), lineno))
    return sites


def scan_src_failpoints(root: Path) -> dict[str, tuple[Path, int]]:
    sites = scan_src_calls(root, FAILPOINT_OPTION_RE)
    sites.update(scan_src_calls(root, FAILPOINT_CALL_RE))
    return sites


def scan_src_metrics(root: Path) -> dict[str, tuple[Path, int]]:
    sites = scan_src_calls(root, METRIC_CALL_RE)
    suffixes = scan_src_calls(root, PREFIXED_METRIC_CALL_RE)
    for prefix in scan_src_calls(root, METRIC_PREFIX_RE):
        for suffix, where in suffixes.items():
            sites.setdefault(prefix + suffix, where)
    return sites


def doc_catalog_names(path: Path) -> dict[str, int]:
    """Dotted names from catalog-table first cells -> line number.

    Sibling shorthand (`x.hits` / `.misses`) expands against the previous
    full name in the same cell; a trailing `<op>`-style placeholder is
    normalized to the dynamic-suffix form (trailing dot).
    """
    names: dict[str, int] = {}
    for lineno, line in enumerate(
            path.read_text(encoding="utf-8", errors="replace").splitlines(),
            start=1):
        row = CATALOG_ROW_RE.match(line)
        if not row:
            continue
        prev: str | None = None
        for token in BACKTICK_RE.findall(row.group(1)):
            if token.startswith(".") and prev is not None:
                token = prev.rsplit(".", 1)[0] + token
            if not DOTTED_NAME_RE.match(token):
                continue
            prev = token
            name = re.sub(r"<[^>]+>$", "", token)
            names.setdefault(name, lineno)
    return names


def cross_check(src: dict[str, tuple[Path, int]], doc: dict[str, int],
                doc_rel: Path, kind: str, where: str) -> list[Violation]:
    out: list[Violation] = []
    for name in sorted(src):
        if name in doc:
            continue
        path, lineno = src[name]
        out.append(Violation(
            path, lineno, f"{kind}-undocumented",
            f"{kind} '{name}' is not in the {doc_rel.as_posix()} catalog "
            f"table — every {kind} {where} must be cataloged"))
    for name in sorted(doc):
        if name in src:
            continue
        out.append(Violation(
            doc_rel, doc[name], f"{kind}-ghost",
            f"catalog row for {kind} '{name}' matches nothing in src/ "
            "(renamed or deleted? update the table)"))
    return out


# --- opcode cross-check (MessageType enum vs the wire-protocol table) -------

MESSAGE_TYPE_ENUM_RE = re.compile(
    r"enum\s+class\s+MessageType[^{]*\{(.*?)\};", re.DOTALL)
ENUM_ENTRY_RE = re.compile(r"\bk([A-Za-z0-9]+)\s*=\s*(\d+)")
# A request-table row whose first cell is the opcode number:
# `| 30 | meta_list_directory | body... |`
OPCODE_ROW_RE = re.compile(r"^\|\s*(\d+)\s*\|\s*([a-z0-9_]+)\s*\|")


def camel_to_snake(name: str) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()


def enum_opcodes(path: Path) -> dict[int, tuple[str, int]]:
    """opcode number -> (snake_case name, line) from the MessageType enum."""
    text = path.read_text(encoding="utf-8", errors="replace")
    code = _CODE_STRIP_RE.sub(
        lambda m: re.sub(r"[^\n]", " ", m.group(0)), text)
    enum = MESSAGE_TYPE_ENUM_RE.search(code)
    opcodes: dict[int, tuple[str, int]] = {}
    if not enum:
        return opcodes
    for m in ENUM_ENTRY_RE.finditer(enum.group(1)):
        lineno = code.count("\n", 0, enum.start(1) + m.start()) + 1
        opcodes[int(m.group(2))] = (camel_to_snake(m.group(1)), lineno)
    return opcodes


def doc_opcodes(path: Path) -> dict[int, tuple[str, int]]:
    """opcode number -> (name, line) from the wire doc's request table."""
    opcodes: dict[int, tuple[str, int]] = {}
    for lineno, line in enumerate(
            path.read_text(encoding="utf-8", errors="replace").splitlines(),
            start=1):
        row = OPCODE_ROW_RE.match(line)
        if row:
            opcodes.setdefault(int(row.group(1)), (row.group(2), lineno))
    return opcodes


def lint_opcodes(root: Path) -> list[Violation]:
    header = root / "src/net/messages.h"
    doc = root / "docs/WIRE_PROTOCOL.md"
    if not header.is_file() or not doc.is_file():
        return []
    src = enum_opcodes(header)
    documented = doc_opcodes(doc)
    header_rel = Path("src/net/messages.h")
    doc_rel = Path("docs/WIRE_PROTOCOL.md")
    out: list[Violation] = []
    for number in sorted(src):
        name, lineno = src[number]
        if number not in documented:
            out.append(Violation(
                header_rel, lineno, "opcode-undocumented",
                f"MessageType::k* opcode {number} ('{name}') has no row in "
                f"the {doc_rel.as_posix()} request table"))
        elif documented[number][0] != name:
            out.append(Violation(
                header_rel, lineno, "opcode-undocumented",
                f"opcode {number} is '{name}' in the enum but documented "
                f"as '{documented[number][0]}' in {doc_rel.as_posix()}"))
    for number in sorted(documented):
        if number not in src:
            name, lineno = documented[number]
            out.append(Violation(
                doc_rel, lineno, "opcode-ghost",
                f"request-table row for opcode {number} ('{name}') matches "
                "no MessageType enumerator (renamed or deleted? update the "
                "table)"))
    return out


def lint_catalogs(root: Path) -> list[Violation]:
    out: list[Violation] = []
    fault_doc = root / "docs/FAULT_INJECTION.md"
    if fault_doc.is_file():
        out.extend(cross_check(
            scan_src_failpoints(root),
            doc_catalog_names(fault_doc),
            Path("docs/FAULT_INJECTION.md"), "failpoint",
            "site checked in src/"))
    obs_doc = root / "docs/OBSERVABILITY.md"
    if obs_doc.is_file():
        out.extend(cross_check(
            scan_src_metrics(root),
            doc_catalog_names(obs_doc),
            Path("docs/OBSERVABILITY.md"), "metric",
            "instrument registered in src/"))
    out.extend(lint_opcodes(root))
    return out


def run_lint(root: Path) -> list[Violation]:
    violations: list[Violation] = []
    for path in iter_docs(root):
        violations.extend(lint_doc(path, root))
    violations.extend(lint_catalogs(root))
    return violations


# --- self-test --------------------------------------------------------------

ALL_RULES = frozenset({
    "broken-link", "stale-path",
    "failpoint-undocumented", "failpoint-ghost",
    "metric-undocumented", "metric-ghost",
    "opcode-undocumented", "opcode-ghost",
})

# rule -> fixture file expected to trigger it (paths inside
# doc_lint_fixtures/). The *-undocumented rules fire at the call site in
# the fixture source; the *-ghost rules fire on the catalog doc.
EXPECTED_SELF_TEST = {
    "broken-link": "README.md",
    "stale-path": "docs/bad_paths.md",
    "failpoint-undocumented": "src/common/chaos.cpp",
    "failpoint-ghost": "docs/FAULT_INJECTION.md",
    "metric-undocumented": "src/common/chaos.cpp",
    "metric-ghost": "docs/OBSERVABILITY.md",
    "opcode-undocumented": "src/net/messages.h",
    "opcode-ghost": "docs/WIRE_PROTOCOL.md",
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
    for rule, doc in EXPECTED_SELF_TEST.items():
        if (rule, doc) not in found:
            failures.append(f"self-test: rule '{rule}' did not fire on "
                            f"{doc}")
    # The clean fixture references real files and external links; any
    # violation on it is a false positive. Likewise the cataloged halves of
    # the cross-check pairs must not be reported from either direction.
    documented = ("fixture.documented", "fix.documented",
                  "fixture.option_documented", "fixprefix.documented")
    for v in violations:
        if v.path.as_posix() == "docs/good.md":
            failures.append(f"self-test: false positive on clean fixture: "
                            f"{v}")
        if any(f"'{name}'" in v.message for name in documented):
            failures.append(f"self-test: false positive on cataloged name: "
                            f"{v}")
    # The transport's indirect forms are checked like literal call sites.
    for name in ("fixture.option_undocumented", "fixprefix.undocumented"):
        if not any(f"'{name}'" in v.message for v in violations):
            failures.append(f"self-test: uncataloged '{name}' was not "
                            "reported")
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
        print(f"doc_lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("doc_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
