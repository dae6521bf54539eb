"""Every public top-level function and class in the package, and every public
method of a public class, is used by the package itself: code that only the
tests call does not belong in src."""

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


def _is_public(name) -> bool:
    return not name.startswith("_")


def public_definitions_and_uses():
    """(public top-level defs as (module, name), public methods of public
    classes as (module, class, method), uses as (name, used as an attribute,
    top-level def, method) tuples; the owners are None where the use is not
    inside one)."""
    top_defs, methods, uses = set(), set(), set()

    def record(node, top, method):
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                uses.add((n.id, False, top, method))
            elif isinstance(n, ast.Attribute):
                uses.add((n.attr, True, top, method))

    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                record(node, None, None)
                continue
            top = (module, node.name)
            public = _is_public(node.name) and not _is_click_command(node)
            if public:
                top_defs.add(top)
            if not isinstance(node, ast.ClassDef):
                record(node, top, None)
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    method = (module, node.name, item.name)
                    if public and _is_public(item.name):
                        methods.add(method)
                    record(item, top, method)
                else:
                    record(item, top, None)
            for expr in node.bases + node.decorator_list:
                record(expr, top, None)
    return top_defs, methods, uses


def test_every_public_definition_is_used_in_the_package():
    top_defs, methods, uses = public_definitions_and_uses()
    assert top_defs and methods
    unused = sorted(f"{module}.{name}" for module, name in top_defs
                    if not any(used == name and top != (module, name)
                               for used, _, top, _ in uses))
    unused += sorted(f"{module}.{cls}.{name}" for module, cls, name in methods
                     if not any(used == name and is_attr and method != (module, cls, name)
                                for used, is_attr, _, method in uses))
    assert unused == []
