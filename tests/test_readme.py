"""The README's Library example imports only names the package has."""

import ast
import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def library_imports(text):
    """The `from ... import ...` statements of the python code block in
    the Library section of README text, as one module."""
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
    body = [node for node in ast.parse(code).body if isinstance(node, ast.ImportFrom)]
    return ast.Module(body=body, type_ignores=[])


def test_readme_library_imports_run():
    with open(README, encoding="utf-8") as fh:
        module = library_imports(fh.read())
    assert module.body
    exec(compile(module, "README.md", "exec"), {})
