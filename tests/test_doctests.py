import doctest
import importlib
import pkgutil

import heegaard2
from heegaard2 import farey, fgroup


def test_fgroup_doctests():
    results = doctest.testmod(fgroup)
    assert results.failed == 0
    assert results.attempted > 0


def test_farey_doctests():
    results = doctest.testmod(farey)
    assert results.failed == 0
    assert results.attempted > 0


def test_package_doctests():
    names = [heegaard2.__name__] + [
        info.name for info in pkgutil.iter_modules(heegaard2.__path__, "heegaard2.")
    ]
    attempted = 0
    for name in names:
        results = doctest.testmod(importlib.import_module(name))
        assert results.failed == 0, name
        attempted += results.attempted
    assert attempted > 0
