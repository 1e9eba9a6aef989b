"""Where a failure happened: ``errors.located`` is the one rule that names it."""
import ast
import os

import pytest

import tempconv as tc
from tempconv.errors import NumericError, TempconvError, located

SRC = os.path.dirname(tc.__file__)


def _library_errors(cls=TempconvError):
    return {cls.__name__}.union(*(_library_errors(sub) for sub in cls.__subclasses__()))


def _caught(handler):
    """Class names an except clause catches; a bare one catches BaseException."""
    if handler.type is None:
        return {"BaseException"}
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(handler.type) if isinstance(node, (ast.Name, ast.Attribute))}


def test_located_prefixes_and_keeps_the_class():
    with pytest.raises(NumericError) as info:
        with located("epoch 1, step 2"), located("conv"):
            raise NumericError("non-finite output")
    assert str(info.value) == "epoch 1, step 2: conv: non-finite output"
    assert info.value.__cause__ is None and info.value.__suppress_context__
    with pytest.raises(KeyError):
        with located("where"):
            raise KeyError("not a library error")


def test_located_names_a_where_once():
    """A block whose where an enclosing block already names adds nothing."""
    with pytest.raises(NumericError) as info:
        with located("row 'r' (a.cfg)"), located("a.cfg"), located("conv"):
            raise NumericError("non-finite output")
    assert str(info.value) == "row 'r' (a.cfg): conv: non-finite output"
    with pytest.raises(NumericError, match="^a.cfg: non-finite output$"):
        with located("a.cfg"):
            raise NumericError("non-finite output")


def test_located_is_the_one_catch_and_reraise():
    """No handler outside ``errors.py`` that names a library error raises
    again; ``cli.main``, which prints and returns, is not one."""
    names = _library_errors() | {"Exception", "BaseException"}
    offenders = []
    for fname in sorted(os.listdir(SRC)):
        if not fname.endswith(".py") or fname == "errors.py":
            continue
        with open(os.path.join(SRC, fname), encoding="utf-8") as f:
            tree = ast.parse(f.read())
        for handler in ast.walk(tree):
            if not isinstance(handler, ast.ExceptHandler):
                continue
            raises = any(isinstance(node, ast.Raise) for stmt in handler.body for node in ast.walk(stmt))
            if _caught(handler) & names and raises:
                offenders.append(f"{fname}:{handler.lineno}")
    assert offenders == []
    assert {"FormatError", "ConfigError", "ShapeError", "TapeError", "NumericError"} <= names
