#!/usr/bin/env python3
"""moela_lint: project-specific determinism linter.

Enforces the invariants the serving stack's bit-identical guarantee rests
on, which no off-the-shelf tool knows about (see docs/correctness.md):

  rng-source             All randomness flows through util::Rng. The raw
                         sources (rand, srand, time, std::random_device,
                         random_shuffle) are banned outside src/util/rng.*:
                         any of them makes a run irreproducible.
  hexfloat-wire          Wire files (serde, serve/, util/json, result_cache,
                         request, run_log, noc/io) may not format or parse
                         doubles through locale-dependent primitives
                         (std::to_string, the strtod family, %f/%e/%g/%a
                         printf conversions, std::setprecision). They must
                         use util/numeric.hpp (to_chars/from_chars), or cache
                         keys and the hexfloat disk/wire format silently
                         change under a non-C locale.
  using-namespace-header `using namespace` in a header leaks into every
                         includer; banned at any scope.
  include-guard          Every header uses exactly one #pragma once, before
                         any code; legacy #ifndef guards are banned (two
                         styles drift apart).
  naked-mutex            Raw std synchronization vocabulary (std::mutex and
                         friends, std::condition_variable, std::lock_guard/
                         unique_lock/scoped_lock/shared_lock, std::call_once)
                         is banned outside util/thread_annotations.hpp: only
                         the annotated util::Mutex/MutexLock/CondVar wrappers
                         participate in Clang Thread Safety Analysis, so a
                         raw mutex (or a std lock over a util::Mutex) is a
                         hole in the compile-time concurrency proof.
  layer-order            The layer DAG of docs/architecture.md is normative:
                         quoted #include edges across src/ + tools/ may point
                         sideways or down, never up (e.g. serve/ must not
                         include exp/). The one sanctioned inversion —
                         api/sharded_executor acting as a serve/ client —
                         carries explicit waivers.

The linter runs two passes: pass 1 applies the per-file lexical rules
above; pass 2 parses every quoted #include edge across src/ + tools/ and
checks the edge list against the declared layer DAG.

Waivers: a finding is suppressed by an annotation on the same line or the
line directly above, with a mandatory reason:

    std::to_string(i)  // moela-lint: allow(hexfloat-wire) index label, int

Usage:
    moela_lint.py [--root DIR]      lint the tree (exit 1 on findings)
    moela_lint.py --self-test       run against scripts/lint_fixtures/
    moela_lint.py --list-waivers    lint, then list every active waiver
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

CXX_SUFFIXES = {".cpp", ".hpp", ".h", ".cc", ".cxx", ".hxx"}
SOURCE_DIRS = ("src", "tools", "bench", "examples", "tests")

# Files allowed to touch raw randomness sources.
RNG_EXEMPT = ("src/util/rng.hpp", "src/util/rng.cpp")

# The one file allowed to name raw std synchronization types: the
# annotated wrappers themselves.
THREAD_WRAPPER = "src/util/thread_annotations.hpp"

# Pass 2 (layer-order): the normative layer DAG from docs/architecture.md.
# Rank increases bottom-up; same-rank includes are allowed, upward edges
# are findings. src/<dir>/... maps through <dir>; tools/ is its own layer.
LAYER_RANK = {
    "util": 0,
    "moo": 1,
    "ml": 1,
    "noc": 1,
    "sim": 1,
    "problems": 1,
    "core": 2,
    "baselines": 2,
    "api": 3,
    "serve": 4,
    "exp": 5,
    "tools": 6,
}
# Directories whose files get layer-order checking (tests/bench/examples
# sit outside the DAG and may include anything).
LAYER_DIRS = ("src", "tools")

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
INCLUDE_HEAD_RE = re.compile(r'^\s*#\s*include\s+"')

# Files whose double formatting defines the wire/cache format.
WIRE_FILE_PATTERNS = (
    "src/api/serde.",
    "src/api/result_cache.",
    "src/api/request.",
    "src/api/run_log.",
    "src/serve/",
    "src/util/json.",
    "src/noc/io.",
)

WAIVER_RE = re.compile(r"moela-lint:\s*allow\(([a-z-]+)\)\s*(.*)")

RULES = {
    "rng-source": [
        (re.compile(r"\bstd::random_device\b"), "std::random_device"),
        (re.compile(r"\bstd::random_shuffle\b|\brandom_shuffle\s*\("),
         "random_shuffle"),
        (re.compile(r"\bstd::s?rand\s*\("), "std::rand()/std::srand()"),
        (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand()"),
        (re.compile(r"\bstd::time\s*\("), "std::time()"),
        (re.compile(r"(?<![\w:.>])time\s*\("), "time()"),
    ],
    "hexfloat-wire": [
        (re.compile(r"\bstd::to_string\s*\("), "std::to_string"),
        (re.compile(r"\bstd::(strtod|strtof|strtold|atof)\s*\("),
         "std::strtod family"),
        (re.compile(r"(?<![\w:])(strtod|strtof|strtold|atof)\s*\("),
         "strtod family"),
        (re.compile(r"\bstd::(stod|stof|stold)\s*\("), "std::stod family"),
        (re.compile(r"\bsetprecision\s*\("), "std::setprecision"),
    ],
    "using-namespace-header": [
        (re.compile(r"\busing\s+namespace\b"), "using namespace"),
    ],
    "naked-mutex": [
        (re.compile(r"\bstd::(?:\w+_)*mutex\b"), "raw std mutex type"),
        (re.compile(r"\bstd::condition_variable(?:_any)?\b"),
         "raw std::condition_variable"),
        (re.compile(r"\bstd::(?:lock_guard|unique_lock|scoped_lock|"
                    r"shared_lock)\b"),
         "raw std lock type"),
        (re.compile(r"\bstd::(?:call_once|once_flag)\b"),
         "std::call_once/once_flag"),
    ],
}

# printf-style floating conversions, matched inside string literals only.
FLOAT_FORMAT_RE = re.compile(r"%[-+ #0-9.*']*(?:[hlLqjzt]|ll|hh)?[aefgAEFG]")

HEADER_SUFFIXES = {".hpp", ".h", ".hxx"}


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> tuple[str, str]:
    """Returns (code, strings): `code` is the source with comments and
    string/char literal *contents* blanked (newlines kept, so line numbers
    survive); `strings` keeps only string-literal contents (for format-
    string scanning) with everything else blanked."""
    code: list[str] = []
    strings: list[str] = []
    i, n = 0, len(text)
    mode = "code"  # code | line-comment | block-comment | string | char | raw
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode == "code":
            if c == "/" and nxt == "/":
                mode = "line-comment"
                code.append("  ")
                strings.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                mode = "block-comment"
                code.append("  ")
                strings.append("  ")
                i += 2
                continue
            if c == "R" and nxt == '"':
                end = text.find("(", i + 2)
                if end != -1:
                    raw_delim = ")" + text[i + 2:end] + '"'
                    mode = "raw"
                    pad = end + 1 - i
                    code.append(" " * pad)
                    strings.append(" " * pad)
                    i = end + 1
                    continue
            if c == '"':
                mode = "string"
                code.append('"')
                strings.append(" ")
                i += 1
                continue
            if c == "'":
                mode = "char"
                code.append("'")
                strings.append(" ")
                i += 1
                continue
            code.append(c)
            strings.append(c if c == "\n" else " ")
            i += 1
        elif mode == "line-comment":
            if c == "\n":
                mode = "code"
                code.append("\n")
                strings.append("\n")
            else:
                code.append(" ")
                strings.append(" ")
            i += 1
        elif mode == "block-comment":
            if c == "*" and nxt == "/":
                mode = "code"
                code.append("  ")
                strings.append("  ")
                i += 2
            else:
                code.append(c if c == "\n" else " ")
                strings.append(c if c == "\n" else " ")
                i += 1
        elif mode == "raw":
            if text.startswith(raw_delim, i):
                mode = "code"
                pad = len(raw_delim)
                code.append(" " * pad)
                strings.append(" " * pad)
                i += pad
            else:
                code.append(c if c == "\n" else " ")
                strings.append(c)
                i += 1
        elif mode in ("string", "char"):
            quote = '"' if mode == "string" else "'"
            if c == "\\":
                code.append("  ")
                strings.append("  " if mode == "char" else c + nxt)
                i += 2
            elif c == quote:
                mode = "code"
                code.append(quote)
                strings.append(" ")
                i += 1
            else:
                code.append(" ")
                strings.append(c if mode == "string" else " ")
                i += 1
    return "".join(code), "".join(strings)


def waivers_by_line(raw_lines: list[str]) -> dict[int, tuple[str, str, int]]:
    """Maps a 1-based line number to the (rule, reason, waiver_line) that
    covers it: a waiver annotation covers its own line and the next one."""
    out: dict[int, tuple[str, str, int]] = {}
    for idx, line in enumerate(raw_lines, start=1):
        m = WAIVER_RE.search(line)
        if m:
            rule, reason = m.group(1), m.group(2).strip()
            out[idx] = (rule, reason, idx)
            out[idx + 1] = (rule, reason, idx)
    return out


def is_wire_file(rel: str) -> bool:
    return any(rel.startswith(p) for p in WIRE_FILE_PATTERNS)


def check_pragma_once(rel: str, code_lines: list[str]) -> list[Finding]:
    findings: list[Finding] = []
    pragma_lines = [i for i, l in enumerate(code_lines, start=1)
                    if re.match(r"\s*#\s*pragma\s+once\b", l)]
    if Path(rel).suffix not in HEADER_SUFFIXES:
        for ln in pragma_lines:
            findings.append(Finding(rel, ln, "include-guard",
                                    "#pragma once in a non-header file"))
        return findings
    for i, line in enumerate(code_lines, start=1):
        if re.match(r"\s*#\s*ifndef\s+\w*_(H|HPP|H_|HPP_)\b", line):
            findings.append(Finding(rel, i, "include-guard",
                                    "legacy #ifndef include guard"))
    if not pragma_lines:
        findings.append(Finding(rel, 1, "include-guard",
                                "header lacks #pragma once"))
        return findings
    if len(pragma_lines) > 1:
        for ln in pragma_lines[1:]:
            findings.append(Finding(rel, ln, "include-guard",
                                    "duplicate #pragma once"))
    first = pragma_lines[0]
    for i, line in enumerate(code_lines[: first - 1], start=1):
        if line.strip():
            findings.append(Finding(
                rel, first, "include-guard",
                f"#pragma once must precede all code (line {i} comes first)"))
            break
    return findings


class FileAnalysis:
    """One parsed source file: everything both passes need."""

    def __init__(self, root: Path, path: Path):
        self.rel = path.relative_to(root).as_posix()
        text = path.read_text(encoding="utf-8", errors="replace")
        self.raw_lines = text.split("\n")
        code, strings = strip_comments_and_strings(text)
        self.code_lines = code.split("\n")
        self.string_lines = strings.split("\n")
        self.waivers = waivers_by_line(self.raw_lines)


def file_layer(rel: str) -> str | None:
    """The layer a file belongs to, or None when outside the DAG."""
    parts = rel.split("/")
    if parts[0] == "tools":
        return "tools"
    if parts[0] == "src" and len(parts) > 2 and parts[1] in LAYER_RANK:
        return parts[1]
    return None


def layer_findings(analysis: FileAnalysis) -> tuple[list[Finding], int]:
    """Pass 2 for one file: every quoted include is an edge; an edge whose
    target layer ranks above the including file's layer inverts the
    architecture. Returns (findings, edge_count)."""
    layer = file_layer(analysis.rel)
    if layer is None:
        return [], 0
    findings: list[Finding] = []
    edges = 0
    for i, (code_line, raw_line) in enumerate(
            zip(analysis.code_lines, analysis.raw_lines), start=1):
        # The stripper blanks string contents out of code lines (the path
        # is a string literal), so the directive is recognized on the
        # stripped line — proving it is not inside a comment — and the
        # path itself read from the raw line.
        if not INCLUDE_HEAD_RE.match(code_line):
            continue
        m = INCLUDE_RE.match(raw_line)
        if not m:
            continue
        target_top = m.group(1).split("/", 1)[0]
        if target_top not in LAYER_RANK:
            continue  # relative or third-party include: not a layer edge
        edges += 1
        if LAYER_RANK[target_top] > LAYER_RANK[layer]:
            findings.append(Finding(
                analysis.rel, i, "layer-order",
                f"{layer}/ (rank {LAYER_RANK[layer]}) includes "
                f'"{m.group(1)}" from {target_top}/ (rank '
                f"{LAYER_RANK[target_top]}): an upward edge inverts the "
                "layer DAG of docs/architecture.md"))
    return findings, edges


def lexical_findings(analysis: FileAnalysis) -> list[Finding]:
    """Pass 1 for one file: the per-file determinism + concurrency rules."""
    rel = analysis.rel
    code_lines = analysis.code_lines
    string_lines = analysis.string_lines
    raw_findings: list[Finding] = []

    if not any(rel == e for e in RNG_EXEMPT):
        for pattern, what in RULES["rng-source"]:
            for i, line in enumerate(code_lines, start=1):
                if pattern.search(line):
                    raw_findings.append(Finding(
                        rel, i, "rng-source",
                        f"{what}: all randomness must flow through "
                        "util::Rng (src/util/rng.hpp)"))

    if is_wire_file(rel):
        for pattern, what in RULES["hexfloat-wire"]:
            for i, line in enumerate(code_lines, start=1):
                if pattern.search(line):
                    raw_findings.append(Finding(
                        rel, i, "hexfloat-wire",
                        f"{what}: locale-dependent double formatting in a "
                        "wire file; use util/numeric.hpp"))
        for i, line in enumerate(string_lines, start=1):
            m = FLOAT_FORMAT_RE.search(line)
            if m:
                raw_findings.append(Finding(
                    rel, i, "hexfloat-wire",
                    f"printf float conversion '{m.group(0)}' in a wire "
                    "file; use util/numeric.hpp"))

    if Path(rel).suffix in HEADER_SUFFIXES:
        for pattern, what in RULES["using-namespace-header"]:
            for i, line in enumerate(code_lines, start=1):
                if pattern.search(line):
                    raw_findings.append(Finding(
                        rel, i, "using-namespace-header",
                        "using namespace in a header leaks into every "
                        "includer"))

    if rel != THREAD_WRAPPER:
        for pattern, what in RULES["naked-mutex"]:
            for i, line in enumerate(code_lines, start=1):
                if pattern.search(line):
                    raw_findings.append(Finding(
                        rel, i, "naked-mutex",
                        f"{what}: use util::Mutex/MutexLock/CondVar "
                        "(util/thread_annotations.hpp) so Clang Thread "
                        "Safety Analysis sees the lock"))

    raw_findings.extend(check_pragma_once(rel, code_lines))
    return raw_findings


def apply_waivers(raw_findings: list[Finding],
                  waivers: dict[int, tuple[str, str, int]],
                  ) -> tuple[list[Finding], list[str]]:
    findings: list[Finding] = []
    active_waivers: list[str] = []
    for f in raw_findings:
        waiver = waivers.get(f.line)
        if waiver and waiver[0] == f.rule:
            rule, reason, wline = waiver
            if not reason:
                findings.append(Finding(
                    f.path, wline, f.rule,
                    "waiver without a reason (write: moela-lint: "
                    f"allow({rule}) <why>)"))
            else:
                active_waivers.append(f"{f.path}:{f.line}: [{f.rule}] "
                                      f"waived: {reason}")
            continue
        findings.append(f)
    return findings, active_waivers


def lint_file(root: Path, path: Path) -> tuple[list[Finding], list[str]]:
    """Single-file entry point (fixtures/self-test): both passes, waived."""
    analysis = FileAnalysis(root, path)
    raw = lexical_findings(analysis)
    raw.extend(layer_findings(analysis)[0])
    return apply_waivers(raw, analysis.waivers)


def iter_sources(root: Path):
    for d in SOURCE_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in CXX_SUFFIXES and path.is_file():
                yield path


def lint_tree(root: Path, list_waivers: bool) -> int:
    # Pass 1 — per-file lexical rules (determinism, wire format, headers,
    # naked synchronization vocabulary).
    analyses: list[FileAnalysis] = []
    raw: dict[str, list[Finding]] = {}
    for path in iter_sources(root):
        analysis = FileAnalysis(root, path)
        analyses.append(analysis)
        raw[analysis.rel] = lexical_findings(analysis)
    # Pass 2 — architecture conformance: the quoted-include edge list of
    # src/ + tools/, checked against the declared layer DAG.
    edge_count = 0
    for analysis in analyses:
        findings, edges = layer_findings(analysis)
        raw[analysis.rel].extend(findings)
        edge_count += edges
    # Waiver resolution + report.
    all_findings: list[Finding] = []
    all_waivers: list[str] = []
    for analysis in analyses:
        findings, waivers = apply_waivers(raw[analysis.rel],
                                          analysis.waivers)
        all_findings.extend(findings)
        all_waivers.extend(waivers)
    for f in all_findings:
        print(f)
    if list_waivers and all_waivers:
        print("-- active waivers --")
        for w in all_waivers:
            print(w)
    summary = (f"moela_lint: {len(analyses)} file(s), {edge_count} "
               f"include edge(s), {len(all_findings)} finding(s), "
               f"{len(all_waivers)} waiver(s)")
    print(summary, file=sys.stderr)
    return 1 if all_findings else 0


def self_test(script_dir: Path) -> int:
    """Every fixture named <rule>__*.{cpp,hpp} must trip exactly that rule;
    clean__*.* and waived__*.* must pass. Run from scripts/lint_fixtures."""
    fixture_root = script_dir / "lint_fixtures"
    if not fixture_root.is_dir():
        print(f"self-test: missing {fixture_root}", file=sys.stderr)
        return 2
    failures: list[str] = []
    checked = 0
    for path in sorted(fixture_root.rglob("*")):
        if path.suffix not in CXX_SUFFIXES or not path.is_file():
            continue
        name = path.name
        expected = name.split("__", 1)[0].replace("_", "-")
        findings, waivers = lint_file(fixture_root, path)
        rules_hit = {f.rule for f in findings}
        checked += 1
        if expected == "clean":
            if findings:
                failures.append(f"{name}: expected clean, got "
                                f"{[str(f) for f in findings]}")
        elif expected == "waived":
            if findings:
                failures.append(f"{name}: waiver did not suppress: "
                                f"{[str(f) for f in findings]}")
            elif not waivers:
                failures.append(f"{name}: expected an active waiver")
        else:
            if expected not in rules_hit:
                failures.append(f"{name}: expected a {expected} finding, "
                                f"got {sorted(rules_hit) or 'none'}")
            if rules_hit - {expected}:
                failures.append(f"{name}: unexpected extra findings "
                                f"{sorted(rules_hit - {expected})}")
    if checked == 0:
        failures.append("no fixtures found")
    for f in failures:
        print(f"self-test FAIL: {f}")
    print(f"moela_lint self-test: {checked} fixture(s), "
          f"{len(failures)} failure(s)", file=sys.stderr)
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--list-waivers", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test(Path(__file__).resolve().parent)
    return lint_tree(args.root.resolve(), args.list_waivers)


if __name__ == "__main__":
    sys.exit(main())
