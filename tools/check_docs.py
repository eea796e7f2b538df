#!/usr/bin/env python3
"""Docs hygiene checker: keeps README + docs/ from rotting.

Run from the repository root (CI's docs job and the `docs_check` CTest do):

  python3 tools/check_docs.py
  python3 tools/check_docs.py --self-test   # a dangling anchor is caught

Checks, stdlib only:
  1. every relative markdown link in README.md and docs/*.md resolves to an
     existing file (http(s)/mailto links are skipped), and every #anchor
     into a markdown file (its own or another) matches a heading slug of
     that file, slugged the way GitHub does (lowercase, punctuation
     dropped, spaces become '-', repeats suffixed -1, -2, ...);
  2. the first ```cpp fenced block in README.md equals (after dedent) the
     region between the `// [quickstart-begin]` / `// [quickstart-end]`
     markers of examples/quickstart.cpp — the file the build compiles — so
     the README quickstart snippet cannot silently stop compiling.

Exit status 0 when clean; 1 with a per-finding report otherwise.
"""

import os
import re
import sys
import tempfile

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FENCE_CPP_RE = re.compile(r"```cpp\n(.*?)```", re.DOTALL)
HEADING_RE = re.compile(r"^#{1,6}\s+(.*?)\s*#*\s*$")


def markdown_files(root="."):
    files = ["README.md"]
    if os.path.isdir(os.path.join(root, "docs")):
        files += sorted(
            os.path.join("docs", f)
            for f in os.listdir(os.path.join(root, "docs"))
            if f.endswith(".md"))
    return files


def slug(heading):
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", heading).lower()
    return re.sub(r"[^\w\- ]", "", text).replace(" ", "-")


def heading_slugs(text):
    """Anchors GitHub generates for `text`'s headings (code fences skipped)."""
    slugs, seen, in_fence = set(), {}, False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        m = None if in_fence else HEADING_RE.match(line)
        if not m:
            continue
        base = slug(m.group(1))
        n = seen.get(base, 0)
        seen[base] = n + 1
        slugs.add(base if n == 0 else f"{base}-{n}")
    return slugs


def check_links(errors, root="."):
    for md in markdown_files(root):
        with open(os.path.join(root, md), encoding="utf-8") as f:
            text = f.read()
        base = os.path.dirname(md)
        for target in LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path, _, anchor = target.partition("#")
            resolved = md
            if path:
                resolved = os.path.normpath(os.path.join(base, path))
            full = os.path.join(root, resolved)
            if not os.path.exists(full):
                errors.append(f"{md}: broken link -> {target}")
                continue
            if anchor and resolved.endswith(".md"):
                with open(full, encoding="utf-8") as f:
                    if anchor not in heading_slugs(f.read()):
                        errors.append(f"{md}: dangling anchor -> {target}")


def dedent(lines):
    indents = [
        len(line) - len(line.lstrip()) for line in lines if line.strip()
    ]
    cut = min(indents, default=0)
    return [line[cut:].rstrip() if line.strip() else "" for line in lines]


def check_quickstart_parity(errors):
    with open("README.md", encoding="utf-8") as f:
        readme = f.read()
    m = FENCE_CPP_RE.search(readme)
    if not m:
        errors.append("README.md: no ```cpp quickstart block found")
        return
    readme_lines = [line.rstrip() for line in m.group(1).splitlines()]

    src_path = os.path.join("examples", "quickstart.cpp")
    with open(src_path, encoding="utf-8") as f:
        src = f.read().splitlines()
    try:
        begin = next(i for i, l in enumerate(src)
                     if l.strip() == "// [quickstart-begin]")
        end = next(i for i, l in enumerate(src)
                   if l.strip() == "// [quickstart-end]")
    except StopIteration:
        errors.append(f"{src_path}: quickstart markers missing")
        return
    region = dedent(src[begin + 1:end])

    if readme_lines != region:
        errors.append(
            "README.md quickstart snippet differs from the marked region "
            f"of {src_path}:")
        width = max(len(readme_lines), len(region))
        for i in range(width):
            want = region[i] if i < len(region) else "<missing>"
            got = readme_lines[i] if i < len(readme_lines) else "<missing>"
            if want != got:
                errors.append(f"  line {i + 1}: README {got!r} != source "
                              f"{want!r}")


def self_test():
    """One good and one dangling anchor: exactly the dangling one fails."""
    with tempfile.TemporaryDirectory() as root:
        os.mkdir(os.path.join(root, "docs"))
        with open(os.path.join(root, "docs", "target.md"), "w",
                  encoding="utf-8") as f:
            f.write("# Target\n\n## The lock-free `grant` path\n")
        with open(os.path.join(root, "README.md"), "w",
                  encoding="utf-8") as f:
            f.write("[good](docs/target.md#the-lock-free-grant-path)\n"
                    "[gone](docs/target.md#combiner-handoff-safety)\n")
        errors = []
        check_links(errors, root)
    want = ["README.md: dangling anchor -> "
            "docs/target.md#combiner-handoff-safety"]
    if errors != want:
        print(f"self-test FAIL: expected {want}, got {errors}",
              file=sys.stderr)
        return 1
    print("check_docs self-test OK: good anchor resolves, dangling anchor "
          "reported")
    return 0


def main():
    if sys.argv[1:] == ["--self-test"]:
        return self_test()
    if not os.path.exists("README.md"):
        print("run from the repository root (README.md not found)",
              file=sys.stderr)
        return 1
    errors = []
    check_links(errors)
    check_quickstart_parity(errors)
    if errors:
        for e in errors:
            print(e, file=sys.stderr)
        return 1
    n_files = len(markdown_files())
    print(f"docs check OK: {n_files} markdown files, links and anchors "
          "resolve, quickstart snippet in sync")
    return 0


if __name__ == "__main__":
    sys.exit(main())
