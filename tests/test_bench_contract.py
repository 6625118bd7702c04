"""The benchmark's use of the package still resolves and binds.

``perfbench/workloads.py`` and ``perfbench/tracing.py`` call the package
through module attributes (``verifier.robust_ensemble``) and by qualified
name.  A removed or renamed public function, or a changed signature, would
turn a benchmark run into a failed one, so this test reads both files with
``ast`` (neither is imported) and checks every such use against the package.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("cli", "core", "oracle", "synth", "trainer", "verifier")


def _module(name):
    return importlib.import_module(f"spreadverify.{name}")


def _parse(filename):
    return ast.parse((PERFBENCH / filename).read_text(), filename=filename)


def _package_attribute(node):
    """``(module, name)`` for an ``<module>.<name>`` expression, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in MODULES
    ):
        return node.value.id, node.attr
    return None


def test_workloads_use_only_existing_names_and_signatures():
    tree = _parse("workloads.py")
    names, keywords = set(), set()
    for node in ast.walk(tree):
        used = _package_attribute(node)
        if used:
            module, name = used
            assert hasattr(_module(module), name), f"{module}.{name} is gone"
            names.add(used)
        if isinstance(node, ast.Call) and _package_attribute(node.func):
            module, name = _package_attribute(node.func)
            assert not any(isinstance(a, ast.Starred) for a in node.args)
            assert all(kw.arg is not None for kw in node.keywords)
            signature = inspect.signature(getattr(_module(module), name))
            try:
                signature.bind(*node.args, **{kw.arg: None for kw in node.keywords})
            except TypeError as err:
                pytest.fail(f"{module}.{name} at line {node.lineno}: {err}")
            keywords.update(kw.arg for kw in node.keywords)
    # Guards against a parse that silently finds nothing.
    assert len(names) >= 20 and keywords


def test_traced_functions_exist():
    tree = _parse("tracing.py")
    traced = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_traced_functions"
    )
    table = next(node.value for node in ast.walk(traced) if isinstance(node, ast.Return))
    qualified = [key.value for key in table.keys]
    assert qualified
    for name in qualified:
        module, function = name.split(".")
        assert callable(getattr(_module(module), function, None)), f"{name} is gone"
