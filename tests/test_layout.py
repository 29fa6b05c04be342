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

Likewise, a parameter with a default that no call in those directories
passes is an override only tests use: every such parameter must be passed,
by position or by keyword, by some call to a function of that name.

And the rounding kernel of ``exactnum.RoundedComplex`` is named in
``exactnum`` alone: other modules round complex values through its
operators.
"""

import ast
import importlib.util
import re
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "g2modpoly"
SEARCHED = ("src", "scripts", "perfbench")
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


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
        if (not reached[name] if name in methods else used[name] <= count)
    )
    assert not unused, f"defined in src/g2modpoly but named only by tests: {unused}"


def _defaulted() -> List[Tuple[str, str, int]]:
    """(function, parameter, position in a call) for each parameter with a
    default; the position is None for a keyword-only parameter and does not
    count ``self`` or ``cls`` of a method."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        bound = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                 for item in node.body if isinstance(item, ast.FunctionDef)
                 and not any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list)}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                args = node.args
                positional = args.posonlyargs + args.args
                shift = 1 if id(node) in bound else 0
                for i in range(len(positional) - len(args.defaults), len(positional)):
                    out.append((node.name, positional[i].arg, i - shift))
                out += [(node.name, arg.arg, None)
                        for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
    return out


def _calls() -> Dict[str, List[Tuple[int, bool, Set[str]]]]:
    """For each called name: the number of positional arguments, whether
    a ``*`` or ``**`` argument may pass anything, and the keywords."""
    calls: Dict[str, List[Tuple[int, bool, Set[str]]]] = {}
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    unpacked = (any(isinstance(a, ast.Starred) for a in node.args)
                                or any(k.arg is None for k in node.keywords))
                    calls.setdefault(name, []).append(
                        (len(node.args), unpacked, {k.arg for k in node.keywords}))
    return calls


def test_every_default_is_overridden_outside_the_tests():
    calls = _calls()
    never = sorted(
        f"{name}.{param}" for name, param, position in _defaulted()
        if not any(unpacked or param in keywords or (position is not None and count > position)
                   for count, unpacked, keywords in calls.get(name, ()))
    )
    assert not never, f"defaults in src/g2modpoly that only tests override: {never}"


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


def test_only_exactnum_names_the_rounding_kernel():
    kernel = {"_rounded_sum", "_rounded_quotient", "_product", "_quotient"}
    named = {path.name: sorted(kernel & set(_identifiers(ast.parse(path.read_text(), str(path)))[0]))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "exactnum.py"}
    assert not {name: found for name, found in named.items() if found}, named
