"""Every public top-level function and class in the package is used by the
package itself: code that only the tests call does not belong in src."""

import ast
from pathlib import Path

import dimasr

PACKAGE = Path(dimasr.__file__).parent


def _is_click_command(node) -> bool:
    """Decorated with @<group>.command(...) or @click.group(...)."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute) and target.attr in ("command", "group"):
            return True
    return False


def _names_used(tree) -> set:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def public_definitions_and_uses():
    """({(module, name)} of public top-level defs, {name: set of the defs
    (module, name) whose bodies use it, None for module-level code})."""
    defined, used_by = set(), {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                owner = (module, node.name)
                if not node.name.startswith("_") and not _is_click_command(node):
                    defined.add(owner)
            for name in _names_used(node):
                used_by.setdefault(name, set()).add(owner)
    return defined, used_by


def test_every_public_definition_is_used_in_the_package():
    defined, used_by = public_definitions_and_uses()
    assert defined
    unused = sorted(f"{module}.{name}" for module, name in defined
                    if not used_by.get(name, set()) - {(module, name)})
    assert unused == []
