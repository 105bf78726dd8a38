import ast
import re
from pathlib import Path

import reciprange

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "reciprange"


def test_every_exported_name_resolves():
    assert [name for name in reciprange.__all__ if not hasattr(reciprange, name)] == []


def uncalled_names():
    """The functions, classes and methods (dunders aside) that the package
    defines and that neither ``reciprange.__all__`` lists nor any line of
    the package, ``scripts/`` or ``perfbench/*.py`` names outside the
    definition itself: code only the tests keep alive.  A method counts as
    named only by attribute access (``.name``), so a generic method name
    that also names a local variable does not keep it alive."""
    texts = {path: path.read_text() for path in
             [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = texts[path].splitlines()
        tree = ast.parse(texts[path])
        methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for node in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if (name.startswith("__") and name.endswith("__")) or name in reciprange.__all__:
                continue
            start = min([node.lineno] + [d.lineno for d in node.decorator_list]) - 1
            outside = lines[:start] + lines[node.end_lineno:]
            others = [t for p, t in texts.items() if p != path] + ["\n".join(outside)]
            word = re.compile(rf"\.{re.escape(name)}\b" if id(node) in methods else rf"\b{re.escape(name)}\b")
            if not any(word.search(t) for t in others):
                unused.append(f"{path.name}:{name}")
    return unused


def test_src_keeps_only_what_is_called():
    assert uncalled_names() == []
