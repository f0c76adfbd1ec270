"""Parser and family-constructor tests."""

import pytest

from khtorsion import (DiagramError, braid3_closure, monocircular,
                       parse_pd, pretzel, rational, reorder_crossings)
from khtorsion.knotdata import HOPF_2, KNOT_6_1


def test_parse_hopf_two_crossing():
    d = parse_pd("X(1,3,2,4),X(3,1,4,2)")
    assert d.n_total == 2
    assert len(d.edges) == 4
    assert len(d.components) == 2


def test_parse_accepts_brackets_and_json():
    a = parse_pd("X[1,4,2,5], X[3,6,4,1], X[5,2,6,3]")
    b = parse_pd("[[1,4,2,5],[3,6,4,1],[5,2,6,3]]")
    assert a == b


def test_parse_malformed_arity():
    with pytest.raises(DiagramError):
        parse_pd("X(1,2,3)")


def test_parse_label_not_twice():
    with pytest.raises(DiagramError):
        parse_pd("X(1,2,3,4),X(1,2,3,5)")


def test_parse_rejects_nonplanar():
    # a valid-looking code whose face count violates the Euler formula
    bad = ("X(1,4,2,5),X(11,14,12,15),X(3,9,4,8),X(15,18,16,1),"
           "X(5,13,6,12),X(7,17,8,16),X(9,2,10,3),X(13,7,14,6),"
           "X(17,10,18,11)")
    with pytest.raises(DiagramError):
        parse_pd(bad)


def test_parse_garbage():
    with pytest.raises(DiagramError):
        parse_pd("hello world")


def test_every_edge_has_two_endpoints_in_families():
    for d in (pretzel([-1, 3]), rational([4, 2, 6]), braid3_closure([7, 2]),
              monocircular(3, 6)):
        for e in d.edges:
            assert len(d.edge_ports(e)) == 2
        p, n, _ = d.stats()
        assert p + n == d.n_total


def test_knot_atlas_6_1_stats():
    d = parse_pd(KNOT_6_1)
    assert d.n_total == 6
    assert len(d.components) == 1
    # orientation-propagation over the code: 2 positive, 4 negative
    assert d.stats() == (2, 4, -2)
    assert d.mirror().stats() == (4, 2, 2)


def test_pretzel_hopf():
    d = pretzel([-1, 3])
    assert d.n_total == 4
    assert len(d.components) == 2


def test_pretzel_8_2_star_stats():
    assert pretzel([-1, -1, -1, 6]).stats() == (6, 3, 3)


def test_pretzel_five_band_size():
    assert pretzel([5, -3, 2, 3, -2]).n_total == 15


def test_pretzel_zero_entry():
    with pytest.raises(DiagramError):
        pretzel([2, 0, 3])


def test_monocircular_equals_pretzel():
    assert monocircular(3, 6) == pretzel([-1, -1, -1, 6])
    assert monocircular(10, 15).n_total == 25


def test_monocircular_minimal():
    d = monocircular(1, 1)
    assert d.n_total == 2


def test_rational_sizes():
    assert rational([4, 2, 6]).n_total == 12
    assert rational([3]).n_total == 3


def test_rational_zero_entry():
    with pytest.raises(DiagramError):
        rational([4, 0])


def test_braid3_closure_stats():
    d = braid3_closure([7, 2])
    assert d.n_total == 9
    assert d.stats() == (9, 0, 9)
    assert braid3_closure([2, 2]).n_total == 4
    assert braid3_closure([3, -2, 2, 2]).n_total == 9


def test_braid3_empty():
    with pytest.raises(DiagramError):
        braid3_closure([])


def test_reorder_identity_and_errors():
    d = pretzel([-1, 3])
    assert reorder_crossings(d, [0, 1, 2, 3]) == d
    with pytest.raises(DiagramError):
        reorder_crossings(d, [0, 0, 1, 2])


def test_reorder_permutes_crossings():
    d = pretzel([-1, 3])
    d2 = reorder_crossings(d, [3, 2, 1, 0])
    assert d2.crossings[0] == d.crossings[3]
    assert d2.crossings != d.crossings
