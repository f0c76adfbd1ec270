"""Parser and family-constructor tests."""

import pytest

from khtorsion import (DiagramError, braid3_closure, knotdata,
                       monocircular, parse_pd, pretzel, rational,
                       reorder_crossings)
from khtorsion.knotdata import KNOT_6_1


def test_parse_hopf_two_crossing():
    d = parse_pd("X(1,3,2,4),X(3,1,4,2)")
    assert d.n_total == 2
    assert len(d.edges) == 4
    assert len(d.components) == 2


def test_parse_accepts_brackets_and_json():
    a = parse_pd("X[1,4,2,5], X[3,6,4,1], X[5,2,6,3]")
    b = parse_pd("[[1,4,2,5],[3,6,4,1],[5,2,6,3]]")
    assert a == b


@pytest.mark.parametrize("text, message", [
    pytest.param("X(1,2,3)", "malformed quadruple", id="arity"),
    pytest.param("X(1,2,3,4),X(1,2,3,5)", "do not appear exactly twice",
                 id="label-not-twice"),
    pytest.param("hello world", "unrecognised PD syntax", id="garbage"),
    # the trefoil with its third crossing rotated by two slots: the
    # strand's under-passages vote for both orientations
    pytest.param("X(1,4,2,5),X(3,6,4,1),X(6,3,5,2)",
                 "inconsistent orientation inference on component",
                 id="orientation-vote"),
])
def test_parse_errors(text, message):
    with pytest.raises(DiagramError, match=message):
        parse_pd(text)


def test_parse_rejects_nonplanar():
    # a valid-looking code whose face count violates the Euler formula
    bad = ("X(1,4,2,5),X(11,14,12,15),X(3,9,4,8),X(15,18,16,1),"
           "X(5,13,6,12),X(7,17,8,16),X(9,2,10,3),X(13,7,14,6),"
           "X(17,10,18,11)")
    with pytest.raises(DiagramError):
        parse_pd(bad)


def test_every_edge_has_two_endpoints_in_families():
    for d in (pretzel([-1, 3]), rational([4, 2, 6]), braid3_closure([7, 2]),
              monocircular(3, 6)):
        far = d.ports[0]
        # each port is glued to one other port, and back
        assert all(far[far[q]] == q != far[q] for q in range(len(far)))
        assert len(d.edges) == 2 * d.n_total
        p, n, _ = d.stats()
        assert p + n == d.n_total


def _diagrams_and_mirrors():
    ds = [(name, parse_pd(getattr(knotdata, name))) for name in
          ("KNOT_3_1", "KNOT_4_1", "KNOT_5_2", "KNOT_6_1", "HOPF_2",
           "KNOT_9_42", "KNOT_9_42_MIRROR", "KNOT_9_42_CONWAY")]
    ds += [(f"P{a}", pretzel(a)) for a in
           ([-1, 3], [-3, 3, -3], [5, -3, 2, 3, -2], [-1, -1, -1, 6],
            [2, -3, 4])]
    ds += [(f"R{a}", rational(a)) for a in
           ([4, 2, 6], [4, 2, 3], [3], [3, 2, -2, 2])]
    ds += [(f"B{a}", braid3_closure(a)) for a in
           ([7, 2], [3, 2, 3, 2], [2, 2], [3, -2, 2, 2])]
    ds += [(f"D{h}", monocircular(*h)) for h in
           ((1, 1), (3, 6), (5, 5), (7, 7))]
    ds += [(name + "-mirror", d.mirror()) for name, d in ds]
    return [pytest.param(d, id=name) for name, d in ds]


@pytest.mark.parametrize("d", _diagrams_and_mirrors())
def test_components_and_signs_from_crossings_alone(d):
    """The strands read off `crossings` without any walker: the under
    strand runs e0 -> e2, the over strand e3 -> e1 at a positive crossing
    and e1 -> e3 at a negative one.  Each cycle, started at its least
    edge and listed in order of least edge, is a component."""
    succ = {}
    for cr in d.crossings:
        e0, e1, e2, e3 = cr.edges
        succ[e0] = e2
        if cr.sign > 0:
            succ[e3] = e1
        else:
            succ[e1] = e3
    assert sorted(succ) == sorted(d.edges)
    cycles, seen = [], set()
    for e in sorted(succ):
        cycle = []
        while e not in seen:
            seen.add(e)
            cycle.append(e)
            e = succ[e]
        if cycle:
            cycles.append(tuple(cycle))
    assert tuple(cycles) == d.components


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


@pytest.mark.parametrize("d", _diagrams_and_mirrors())
def test_every_face_begins_at_its_least_port(d):
    """`faces()` starts each orbit at its least unseen port, so each face
    begins at its least (crossing, slot) and a bigon's first corner lies
    at the smaller crossing; every port arrives in exactly one face."""
    faces = d.faces()
    assert all(face[0] == min(face) for face in faces)
    assert sorted(c for face in faces for c in face) == [
        divmod(p, 4) for p in range(4 * d.n_total)]
    assert all(x < y for x, y in d.bigons())
