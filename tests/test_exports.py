import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "zonopark")


def _loaded_names(node):
    """Each name the node loads, or reads as an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def unreferenced_functions():
    """The public module-level functions of the package that nothing names.

    A function counts as used when some module of the package loads its name
    outside the function's own definition (an import that only re-exports it
    does not count), or when ``bench/traced.py``, the README's code or a
    ``pyproject.toml`` script names it.
    """
    defined, used = set(), set()
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name)) as source:
            tree = ast.parse(source.read())
        for node in tree.body:
            own = None
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defined.add(node.name)
                own = node.name
            # a function reached only from its own body is still unused
            used.update(loaded for loaded in _loaded_names(node) if loaded != own)
    with open(os.path.join(ROOT, "bench", "traced.py")) as text:
        used.update(re.findall(r"\w+", text.read()))
    # in the README only code counts, not a word such as "contains" in prose
    with open(os.path.join(ROOT, "README.md")) as text:
        code = re.findall(r"```.*?```|`[^`\n]*`", text.read(), re.S)
    used.update(re.findall(r"\w+", "\n".join(code)))
    with open(os.path.join(ROOT, "pyproject.toml")) as text:
        scripts = text.read().split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    used.update(re.findall(r":(\w+)\"", scripts))
    return sorted(defined - used)


def test_every_public_function_is_reached():
    # a library path that no command, check, tracer metric or documented
    # entry point names is dead code
    assert unreferenced_functions() == []
