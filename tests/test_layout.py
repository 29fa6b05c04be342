"""Layout lint: every definition in the package is named outside the tests.

A function, method or class of ``src/g2modpoly`` whose name appears nowhere
in ``src/``, ``scripts/`` or ``perfbench/`` apart from its own definition is
production code that only tests call. A use is an identifier in the syntax
tree: a name, an attribute, a definition, an argument, a keyword or an
import alias. A string constant counts only when the whole string is a
dotted identifier, such as ``"cli.dispatch"`` (how perfbench patches a
layer). Docstrings, comments and f-string text do not count, so prose that
happens to use a method's name does not hide it. A method is reached only
through an attribute, so for a name defined in a class body only attribute
accesses (``.name``) and dotted strings count: a local variable, an
argument or a keyword of the same name does not hide a dead method. Dunder
methods are called by the language and are exempt.
"""

import ast
import importlib.util
import re
import sys
from collections import Counter
from pathlib import Path
from typing import Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "g2modpoly"
SEARCHED = ("src", "scripts", "perfbench")
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")

# Read only by the tests, on purpose: acceptance criterion 5 checks the
# expanded product of a factorization triple through it.
ALLOWED = {"product_coeffs"}


def _definitions() -> Tuple[Counter, Set[str]]:
    """How often each name is defined, and the names defined in a class body."""
    defined: Counter = Counter()
    methods: Set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                methods.update(item.name for item in node.body
                               if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined[node.name] += 1
    return defined, methods


def _identifiers(tree: ast.AST) -> Tuple[Counter, Counter]:
    """Every identifier in ``tree`` and the parts of dotted-identifier
    strings; and, apart, the attributes and the dotted-string parts alone."""
    prose = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            prose.add(id(node.value))   # docstrings and other bare strings
        elif isinstance(node, ast.JoinedStr):
            prose.update(id(part) for part in node.values)
    names: Counter = Counter()
    attributes: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
            attributes[node.attr] += 1
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] += 1
        elif isinstance(node, (ast.arg, ast.keyword)) and node.arg:
            names[node.arg] += 1
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
            if node.asname:
                names[node.asname] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in prose and DOTTED.fullmatch(node.value)):
            names.update(node.value.split("."))
            attributes.update(node.value.split("."))
    return names, attributes


def test_every_definition_is_named_outside_the_tests():
    used: Counter = Counter()
    reached: Counter = Counter()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            names, attributes = _identifiers(ast.parse(path.read_text(), str(path)))
            used += names
            reached += attributes
    defined, methods = _definitions()
    unused = sorted(
        name for name, count in defined.items()
        if name not in ALLOWED
        and (not reached[name] if name in methods else used[name] <= count)
    )
    assert not unused, f"defined in src/g2modpoly but named only by tests: {unused}"


def test_every_traced_name_is_bound_where_the_benchmark_patches_it(monkeypatch):
    # perfbench wraps each (owner, attr) by name for a traced run; a refactor
    # that drops one of these bindings would fail that run with KeyError
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)   # dataclasses look the module up
    spec.loader.exec_module(spans)
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in spans.boundaries()
               if attr not in owner.__dict__]
    assert not missing, f"names perfbench traces but the library no longer binds: {missing}"
