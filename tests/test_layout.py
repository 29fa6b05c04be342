"""Layout lint: every definition in the package is named outside the tests.

A function, method or class of ``src/g2modpoly`` whose name appears nowhere
in ``src/``, ``scripts/`` or ``perfbench/`` apart from its own definition is
production code that only tests call. Names are matched as whole words in
the source text, so a string such as ``"cli.dispatch"`` (how perfbench
patches a layer) counts as a use; so does a mention in prose, which makes
this a lower bound on dead code. Dunder methods are called by the language
and are exempt.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "g2modpoly"
SEARCHED = ("src", "scripts", "perfbench")

# Read only by the tests, on purpose: acceptance criterion 5 checks the
# expanded product of a factorization triple through it.
ALLOWED = {"product_coeffs"}


def _definitions() -> Counter:
    defined: Counter = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined[node.name] += 1
    return defined


def test_every_definition_is_named_outside_the_tests():
    text = "\n".join(
        path.read_text() for top in SEARCHED for path in sorted((ROOT / top).rglob("*.py"))
    )
    words = Counter(re.findall(r"\w+", text))
    unused = sorted(
        name for name, count in _definitions().items()
        if name not in ALLOWED and words[name] <= count
    )
    assert not unused, f"defined in src/g2modpoly but named only by tests: {unused}"
