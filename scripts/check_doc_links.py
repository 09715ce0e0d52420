#!/usr/bin/env python3
"""Fail on dead relative links and dead source paths in the markdown docs.

Two checks:

* Links. Scans README.md, ROADMAP.md, CHANGES.md, and docs/*.md for
  markdown links of the form [text](target). External targets
  (http/https/mailto) and pure in-page anchors (#...) are skipped;
  everything else must resolve to an existing file or directory relative
  to the linking file.
* Code paths. Scans README.md, ROADMAP.md, and docs/*.md for inline code
  spans naming a repository path (`src/...`, `tools/...`, `tests/...`,
  `scripts/...`, `bench/...`, `examples/...`, `perfbench/...`, `docs/...`).
  Each must resolve relative to the repository root. Brace alternatives
  (`src/util/rng.{hpp,cpp}`) must each exist and a glob
  (`src/api/serde.*`) must match something. CHANGES.md is left out: it
  describes the trees of earlier changes.

CI runs this so cross-references cannot rot silently.
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")
CODE_PATH = re.compile(
    r"`((?:src|tools|tests|scripts|bench|examples|perfbench|docs)/[^`\s]*)`")
BRACES = re.compile(r"\{([^{}]*)\}")


def link_files():
    for name in ("README.md", "ROADMAP.md", "CHANGES.md"):
        path = ROOT / name
        if path.exists():
            yield path
    docs = ROOT / "docs"
    if docs.is_dir():
        yield from sorted(docs.glob("*.md"))


def code_path_files():
    return [md for md in link_files() if md.name != "CHANGES.md"]


def expand_braces(path):
    match = BRACES.search(path)
    if match is None:
        return [path]
    expanded = []
    for alternative in match.group(1).split(","):
        expanded.extend(expand_braces(
            path[:match.start()] + alternative + path[match.end():]))
    return expanded


def code_path_resolves(path):
    for candidate in expand_braces(path):
        if any(c in candidate for c in "*?["):
            if next(ROOT.glob(candidate), None) is None:
                return False
        elif not (ROOT / candidate).exists():
            return False
    return True


def main() -> int:
    dead = []
    for md in link_files():
        for match in LINK.finditer(md.read_text(encoding="utf-8")):
            target = match.group(1)
            if target.startswith(SKIP_PREFIXES):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            if not (md.parent / path).exists():
                dead.append(f"{md.relative_to(ROOT)}: dead link '{target}'")
    for md in code_path_files():
        for match in CODE_PATH.finditer(md.read_text(encoding="utf-8")):
            if not code_path_resolves(match.group(1)):
                dead.append(
                    f"{md.relative_to(ROOT)}: dead path `{match.group(1)}`")
    for entry in dead:
        print(entry)
    if not dead:
        print(f"checked {sum(1 for _ in link_files())} file(s): "
              "all relative links and code paths resolve")
    return 1 if dead else 0


if __name__ == "__main__":
    sys.exit(main())
