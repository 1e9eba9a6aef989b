"""The package's public names: ``tempconv.__all__`` lists each one once,
and every name it lists exists, so ``from tempconv import *`` works."""
import collections

import tempconv as tc


def test_all_names_resolve_once():
    missing = [name for name in tc.__all__ if not hasattr(tc, name)]
    twice = [name for name, n in collections.Counter(tc.__all__).items() if n > 1]
    assert not missing and not twice, f"unresolved {missing}, listed twice {twice}"


def test_star_import_runs():
    namespace = {}
    exec("from tempconv import *", namespace)
    assert set(tc.__all__) <= set(namespace)
