"""The benchmark's tracer wraps functions by name; every name it lists must
still exist, so that deleting or renaming one fails here and not only in
the benchmark's own smoke tests."""

import ast
import importlib
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _targets():
    """(module, function) pairs of the tracer's TARGETS, read without
    importing the benchmark."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [(e.elts[0].value, e.elts[1].value) for e in node.value.elts]
    raise AssertionError(f"no TARGETS in {TRACER}")


def test_every_traced_name_resolves():
    targets = _targets()
    assert len(targets) >= 30
    missing = [
        f"{mod}.{fn}"
        for mod, fn in targets
        if not callable(getattr(importlib.import_module(f"besselsum.{mod}"), fn, None))
    ]
    assert missing == []
