"""The benchmark's traced runs patch package entry points by name.

``bench/spans.py`` resolves every entry point it wraps (``ops.narrow``,
``ops.concat``, ``complexity.audit``, ``Module.__call__``, ...) when a
``Tracer`` is built; building one installs nothing. Renaming or deleting
one of them fails here, not only in the slow benchmark self-test.
"""
import importlib.util
import os

from tempconv import complexity, ops
from tempconv.layers import Module

SPANS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench", "spans.py")


def test_tracer_resolves_every_patch_point():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    originals = (ops.conv, complexity.audit, Module.__call__)
    spans.Tracer()
    assert (ops.conv, complexity.audit, Module.__call__) == originals
