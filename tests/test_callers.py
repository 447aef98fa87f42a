"""Every public name of the library has a caller outside the tests.

A public top-level function or class of `src/subeval` must be named, at
a word boundary, by a demo, a script, perfbench or another part of the
library.  Its own definition does not count, nor does `__init__.py`,
whose text is the package's export lists.  A name that only tests read
is deleted, or it goes in ALLOWED with the reason it stays.
"""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "subeval")
CALLER_DIRS = ("demos", "scripts", "perfbench")

ALLOWED = {
    "serialize_marked_text": "the inverse that the round-trip properties check "
    "parse_marked_text against (tests/props.py::check_round_trip)",
}


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _python_files(directory):
    for dirpath, _, names in os.walk(directory):
        for name in sorted(names):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def public_definitions():
    """(name, module file, module text without that definition) for each
    public top-level def and class of the package."""
    for path in _python_files(PACKAGE):
        text = _read(path)
        lines = text.splitlines(keepends=True)
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                rest = "".join(lines[: first - 1] + lines[node.end_lineno :])
                yield node.name, path, rest


def uncalled_names():
    callers = [_read(path) for d in CALLER_DIRS for path in _python_files(os.path.join(ROOT, d))]
    library = {
        path: _read(path)
        for path in _python_files(PACKAGE)
        if os.path.basename(path) != "__init__.py"
    }
    missing = []
    for name, path, rest in public_definitions():
        texts = callers + [rest if other == path else text for other, text in library.items()]
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(text) for text in texts):
            missing.append(name)
    return sorted(missing)


def test_every_public_name_has_a_program_caller():
    # Equal, not a subset: a name that gains a caller leaves ALLOWED.
    assert uncalled_names() == sorted(ALLOWED)
