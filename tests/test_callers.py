"""Every public name of the library has a caller outside the tests.

A public top-level function, class or assigned name (a constant, or a
record made by a factory call) of `src/subeval` must be named, at a word
boundary, by a demo, a script, perfbench or another part of the
library.  Its own definition does not count, nor does `__init__.py`,
whose text is the package's export lists.  A name that only tests read
is deleted, or it goes in ALLOWED with the reason it stays.

Nor does any module of the library read another module's private name:
what one module needs of another is public.
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


def _defined_names(node):
    """The names a top-level statement defines: a def's or class's name,
    or the plain names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [target.id for target in node.targets if isinstance(target, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def public_definitions():
    """(name, module file, module text without that definition) for each
    public top-level def, class and assigned name of the package."""
    for path in _python_files(PACKAGE):
        text = _read(path)
        lines = text.splitlines(keepends=True)
        for node in ast.parse(text).body:
            for name in _defined_names(node):
                if name.startswith("_"):
                    continue
                first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
                rest = "".join(lines[: first - 1] + lines[node.end_lineno :])
                yield name, path, rest


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


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads():
    """(module, line, name) for each read of another module's private
    name in the package: a `from .m import _x`, or an attribute `_x` of
    a module bound by a relative import, such as `from . import m`.  An
    attribute of any other object is that object's business."""
    found = []
    for path in _python_files(PACKAGE):
        tree = ast.parse(_read(path))
        module = os.path.basename(path)
        imports = [
            node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
        ]
        modules = {
            alias.asname or alias.name
            for node in imports if node.module is None for alias in node.names
        }
        for node in imports:
            found += [(module, node.lineno, a.name) for a in node.names if _private(a.name)]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules and _private(node.attr)):
                found.append((module, node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def test_no_module_reads_another_modules_private_name():
    assert private_reads() == []
