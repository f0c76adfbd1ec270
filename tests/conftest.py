"""Fixtures and strategies shared by the test modules."""

import sys

import pytest
from hypothesis import strategies as st

from khtorsion import (braid3_closure, monocircular, parse_pd, pretzel,
                       rational)


@pytest.fixture
def count_calls(monkeypatch):
    """`count_calls(*names)` counts the calls to each name through every
    khtorsion module that binds it; returns the live name -> count map."""
    def install(*names):
        calls = dict.fromkeys(names, 0)

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "khtorsion" or n.startswith("khtorsion.")]
        for name in names:
            for module in modules:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name,
                                        counted(name, getattr(module, name)))
        return calls
    return install


def relabelled(d):
    """The diagram with every edge label e taken to 7e - 20: negative
    labels with gaps."""
    return parse_pd(",".join("X(%d,%d,%d,%d)" % tuple(7 * e - 20 for e in q)
                             for q in (cr.edges for cr in d.crossings)))


def _twists(min_size, crossings, twist, bands):
    """Up to `bands` nonzero twist counts of at most `twist` each, with at
    most `crossings` in all."""
    return st.lists(st.integers(-twist, twist).filter(bool),
                    min_size=min_size, max_size=bands).filter(
                        lambda a: sum(map(abs, a)) <= crossings)


def family_diagrams(crossings, twist=3, bands=3, height=3):
    """Pretzel, rational and 3-braid diagrams of at most `crossings`
    crossings, monocircular D(h1, h2) with h1, h2 <= `height`, and their
    mirrors."""
    return st.tuples(st.one_of(
        _twists(1, crossings, twist, bands).map(pretzel),
        _twists(1, crossings, twist, bands).map(rational),
        _twists(2, crossings, twist, bands).map(braid3_closure),
        st.tuples(st.integers(1, height), st.integers(1, height)).map(
            lambda h: monocircular(*h)),
    ), st.booleans()).map(lambda dm: dm[0].mirror() if dm[1] else dm[0])
