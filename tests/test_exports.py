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


def _defined_names(node):
    """The names a module-level statement defines: a function, a class or assigned names."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        names = (sub for sub in ast.walk(node) if isinstance(sub, ast.Name))
        return {sub.id for sub in names if isinstance(sub.ctx, ast.Store)}
    return set()


def unreferenced_names():
    """The public functions, classes and module-level names of the package that nothing reads.

    A name counts as read when some module of the package loads it outside
    its own definition (an import that only re-exports it does not count),
    or when ``bench/traced.py``, the README's code or a ``pyproject.toml``
    script names it.  Each is given as ``module.name``.
    """
    defined, used = set(), set()
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name)) as source:
            tree = ast.parse(source.read())
        for node in tree.body:
            own = _defined_names(node)
            defined.update((name[:-3], public) for public in own if not public.startswith("_"))
            # a name read only inside its own definition is still unused
            used.update(loaded for loaded in _loaded_names(node) if loaded not in own)
    with open(os.path.join(ROOT, "bench", "traced.py")) as text:
        used.update(re.findall(r"\w+", text.read()))
    # in the README only code counts, not a word such as "contains" in prose
    with open(os.path.join(ROOT, "README.md")) as text:
        code = re.findall(r"```.*?```|`[^`\n]*`", text.read(), re.S)
    used.update(re.findall(r"\w+", "\n".join(code)))
    with open(os.path.join(ROOT, "pyproject.toml")) as text:
        scripts = text.read().split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    used.update(re.findall(r":(\w+)\"", scripts))
    return sorted(f"{module}.{public}" for module, public in defined if public not in used)


def test_every_public_name_is_reached():
    # a library path or name that no command, check, tracer metric or
    # documented entry point reads is dead code
    assert unreferenced_names() == []
