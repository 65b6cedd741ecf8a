#!/usr/bin/env python3
"""Doc-path check: every backticked repo path in the docs exists.

A repo path is a token inside an inline code span that starts with
src/, bench/, tools/, tests/, jetbench/, examples/ or cmake/, or a
top-level *.json file name. A binary's name
(`bench/fig06_concurrent_orin`) resolves to the source it is built
from. Fenced code blocks are not scanned.

Run directly or via ctest (registered in tests/CMakeLists.txt).
"""

import os
import re
import tempfile
import unittest

ROOT = os.path.normpath(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, os.pardir))
DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"]

PREFIXES = ("src/", "bench/", "tools/", "tests/", "jetbench/",
            "examples/", "cmake/")
TOP_JSON_RE = re.compile(r"^[\w.-]+\.json$")
FENCE_RE = re.compile(r"^ *```.*?^ *```", re.S | re.M)
SPAN_RE = re.compile(r"`([^`]+)`")
SOURCE_EXTS = (".cpp", ".cc", ".py")


def repo_paths(span):
    """The repo-path tokens of one inline code span."""
    for token in re.split(r"[\s=]+", span):
        if token.startswith(PREFIXES) or TOP_JSON_RE.match(token):
            yield token


def exists(root, path):
    full = os.path.join(root, path)
    return os.path.exists(full) or any(
        os.path.isfile(full + ext) for ext in SOURCE_EXTS)


def dangling(text, root):
    """[(line, path)] for every backticked repo path in @p text that
    does not exist under @p root."""
    # Blank fenced blocks out, keeping their newlines so line numbers
    # still count.
    text = FENCE_RE.sub(lambda m: "\n" * m.group(0).count("\n"), text)
    out = []
    for m in SPAN_RE.finditer(text):
        line = text.count("\n", 0, m.start()) + 1
        for path in repo_paths(m.group(1)):
            if not exists(root, path):
                out.append((line, path))
    return out


class DocPaths(unittest.TestCase):
    def test_docs_cite_only_existing_paths(self):
        for doc in DOCS:
            with open(os.path.join(ROOT, doc), encoding="utf-8") as f:
                missing = dangling(f.read(), ROOT)
            self.assertEqual(missing, [],
                             f"{doc}: backticked paths not in the tree")

    def test_seeded_missing_paths_are_caught(self):
        with tempfile.TemporaryDirectory() as td:
            os.makedirs(os.path.join(td, "src", "sim"))
            os.makedirs(os.path.join(td, "bench"))
            for name in ("src/sim/queue.cc", "bench/fig01.cpp",
                         "GOLDEN.json"):
                open(os.path.join(td, name), "w").close()
            doc = ("Kept: `src/sim/queue.cc`, `bench/fig01`,\n"
                   "`--golden=GOLDEN.json`, `src/sim/`.\n"
                   "```\nsrc/fenced/is_skipped.cc\n```\n"
                   "Gone: `bench/retired`, `BENCH_old.json`,\n"
                   "`python3 tools/gone.py --x`, `src/sim/heap.cc`.\n")
            self.assertEqual(dangling(doc, td), [
                (6, "bench/retired"), (6, "BENCH_old.json"),
                (7, "tools/gone.py"), (7, "src/sim/heap.cc")])


if __name__ == "__main__":
    unittest.main()
