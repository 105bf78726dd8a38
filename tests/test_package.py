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


def _passes(call, param, index):
    """Whether ``call`` passes ``param``, the positional parameter number
    ``index`` (None if keyword-only): by keyword, by position, or through
    ``*args`` or ``**kwargs``, which may pass any parameter."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    if index is None:
        return False
    return len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)


def single_value_knobs():
    """The defaulted parameters of the package's functions and methods that
    ``reciprange.__all__`` does not export and that no call in the package,
    ``scripts/`` or ``perfbench/*.py`` passes: a knob that only ever takes
    its default is a constant.  A call counts when it names the function
    (``name(...)`` or ``.name(...)``)."""
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    trees = {path: ast.parse(path.read_text()) for path in paths}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    knobs = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = trees[path]
        methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for node in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name in reciprange.__all__:
                continue
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            # a call of a bound method passes neither self nor cls
            if id(node) in methods and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list):
                positional = positional[1:]
            defaulted = [(a, i) for i, a in enumerate(positional)][len(positional) - len(args.defaults):]
            defaulted += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            for param, index in defaulted:
                if not any(_passes(call, param, index) for call in calls.get(node.name, [])):
                    knobs.append(f"{path.name}:{node.name}({param})")
    return knobs


def test_no_single_value_knobs():
    assert single_value_knobs() == []
