#!/usr/bin/env python3
"""Docs link check: every relative markdown link resolves.

Usage: check_doc_links.py FILE [FILE ...]

For each `[text](target)` in the given markdown files:

* external links (`http://`, `https://`, `mailto:`) are skipped;
* the target path (resolved against the linking file's directory) must
  exist in the repository;
* a `#fragment` on a markdown target must match a heading in that file
  (GitHub anchor rules: lowercase, punctuation stripped, spaces to
  hyphens).
"""

import os
import re
import sys

LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def anchor_of(heading: str) -> str:
    heading = re.sub(r"[*`_\[\]()]", "", heading.strip()).lower()
    heading = re.sub(r"[^\w\- ]", "", heading, flags=re.UNICODE)
    return heading.replace(" ", "-")


def anchors_in(path: str) -> set:
    with open(path, encoding="utf-8") as f:
        text = f.read()
    return {anchor_of(m.group(1)) for m in HEADING.finditer(text)}


def main() -> None:
    if len(sys.argv) < 2:
        # No files would check nothing and pass: refuse instead.
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        sys.exit(2)
    failures = []
    checked = 0
    for source in sys.argv[1:]:
        base = os.path.dirname(os.path.abspath(source))
        with open(source, encoding="utf-8") as f:
            text = f.read()
        for match in LINK.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            checked += 1
            path, _, fragment = target.partition("#")
            resolved = os.path.normpath(os.path.join(base, path)) if path else source
            if not os.path.exists(resolved):
                failures.append(f"{source}: broken link `{target}` (no {resolved})")
                continue
            if fragment and resolved.endswith(".md"):
                if fragment not in anchors_in(resolved):
                    failures.append(
                        f"{source}: broken anchor `{target}` "
                        f"(no heading `#{fragment}` in {resolved})"
                    )
    for failure in failures:
        print(failure, file=sys.stderr)
    if failures:
        sys.exit(1)
    print(f"doc links OK: {checked} relative links resolve across {len(sys.argv) - 1} files")


if __name__ == "__main__":
    main()
