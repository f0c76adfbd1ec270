"""The package namespace: every exported name resolves."""

import khtorsion


def test_all_names_resolve():
    missing = [name for name in khtorsion.__all__
               if not hasattr(khtorsion, name)]
    assert not missing
    assert len(set(khtorsion.__all__)) == len(khtorsion.__all__)


def test_star_import():
    namespace = {}
    exec("from khtorsion import *", namespace)
    assert set(khtorsion.__all__) <= set(namespace)
