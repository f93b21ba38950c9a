"""Every public module-level function and class in src/pesignal, and
every public method and property of those classes, is reached.

A name counts as reached when code outside its own definition refers to
it: another src/pesignal module, the rest of its own module, bench/
(whose tracer looks functions up by name, so its strings count too), or
the README's "Library use" example. Methods are matched by attribute
name, except that an attribute of a module bound by ``import`` (``np.zeros``,
``math.fsum``) belongs to that module and refers to nothing here. A name
that only tests reach is dead weight in the library; it goes, and a test
oracle lives in tests/.

The "Library use" example also runs as written.
"""

import ast
import json
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _imported_modules(tree) -> set:
    return {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }


def _references(node, modules: set, with_strings: bool = False) -> Counter:
    """How often each name is referred to inside node."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            if not (isinstance(sub.value, ast.Name) and sub.value.id in modules):
                names[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
        elif with_strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names[sub.value] += 1
    return names


def _library_example() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    return section.split("```python", 1)[1].split("```", 1)[0]


def test_library_example_runs(capsys):
    exec(compile(_library_example(), "README.md", "exec"), {})
    label, line = capsys.readouterr().out.splitlines()
    assert label == "Label.UP"
    report = json.loads(line)
    assert (report["scope"], report["n"], report["unscored"]) == ("Market", 50, 0)


def _definitions(tree):
    """(dotted name, node) of each public module-level function and class
    and each public method and property of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}", member


def unreached() -> list:
    """Public names, as module.name or module.Class.member, that nothing
    outside their definition refers to."""
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in (ROOT / "src" / "pesignal").glob("*.py")}
    example = ast.parse(_library_example())
    total = _references(example, _imported_modules(example))
    for path in (ROOT / "bench").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        total += _references(tree, _imported_modules(tree), with_strings=True)
    for tree in modules.values():
        total += _references(tree, _imported_modules(tree))
    found = []
    for module, tree in modules.items():
        imported = _imported_modules(tree)
        for name, node in _definitions(tree):
            if total[node.name] - _references(node, imported)[node.name] <= 0:
                found.append(f"{module}.{name}")
    return sorted(found)


def test_every_public_name_is_reached():
    assert unreached() == [], "public names only tests reach: delete them or move them to tests/"
