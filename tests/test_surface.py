"""Every public module-level function and class in src/pesignal is reached.

A name counts as reached when code outside its own definition refers to
it: another src/pesignal module, the rest of its own module, bench/
(whose tracer looks functions up by name, so its strings count too), or
the README's "Library use" example. A name that only tests reach is
dead weight in the library; it goes, unless it is a test oracle listed
in ORACLES with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ORACLES = {
    "logit.gradient": "analytic gradient checked against finite differences (acceptance criteria 4, 5)",
    "logit.log_likelihood": "the likelihood differentiated by finite differences (acceptance criterion 4)",
    "synthetic.planted_samples": "draws from a planted logit law for weight recovery (acceptance criterion 7)",
}


def _references(nodes, with_strings: bool = False) -> set:
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.ImportFrom):
                names.update(alias.name for alias in sub.names)
            elif with_strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names.add(sub.value)
    return names


def _library_example() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    return section.split("```python", 1)[1].split("```", 1)[0]


def unreached() -> list:
    """Public module-level names, as module.name, that nothing outside
    their definition refers to."""
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in (ROOT / "src" / "pesignal").glob("*.py")}
    outside = _references([ast.parse(_library_example())])
    outside |= _references(
        [ast.parse(path.read_text(encoding="utf-8")) for path in (ROOT / "bench").glob("*.py")], with_strings=True
    )
    # each top-level statement of the package with the names it refers to
    statements = [(node, _references([node])) for tree in modules.values() for node in tree.body]
    found = []
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            elsewhere = outside.union(*(names for other, names in statements if other is not node))
            if node.name not in elsewhere:
                found.append(f"{module}.{node.name}")
    return sorted(found)


def test_every_public_name_is_reached_or_an_oracle():
    found = unreached()
    helpers = [name for name in found if name not in ORACLES]
    assert helpers == [], "public names only tests reach: delete them or list them in ORACLES"
    stale = sorted(set(ORACLES) - set(found))
    assert stale == [], "ORACLES entries that are gone or now reached: drop them"
