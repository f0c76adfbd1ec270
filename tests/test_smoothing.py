"""Smoothing, enhanced states, degrees, enumeration."""

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import relabelled
from khtorsion import (Chain, EnhancedState, Smoothing, SmoothingError,
                       braid3_closure, degrees, enumerate_states,
                       monocircular, parse_pd, pretzel, rational,
                       reorder_crossings, smooth, state_B)
from khtorsion.knotdata import HOPF_2, KNOT_3_1


def test_all_A_circle_counts():
    assert smooth(pretzel([-1, 3]), 0).circles == 1
    assert smooth(monocircular(3, 6), 0).circles == 1
    assert smooth(parse_pd(HOPF_2), 0).circles == 2


def test_two_A_one_B_state_has_two_circles():
    # a 3-crossing diagram smoothed with one B label: two circles
    d = parse_pd(KNOT_3_1)
    sm = smooth(d, 0b001)
    assert sm.circles == 2


def test_degrees_formulas():
    d = parse_pd(KNOT_3_1)
    sm = smooth(d, 0b001)
    assert sm.circles == 2
    # both circles minus: i=1, theta=-2, j=-1
    assert degrees(d, EnhancedState(0b001, 0b00)) == (1, -2, -1)
    # all-A, all-plus on the pretzel: i=0, theta=|sD|, j=|sD|
    p = pretzel([-1, 3])
    m = smooth(p, 0).circles
    assert degrees(p, EnhancedState(0, (1 << m) - 1)) == (0, m, m)


def test_degrees_balanced_signs():
    d = parse_pd(HOPF_2)
    # two circles, one plus one minus: theta = 0, j = i
    for labels in (0,):
        sm = smooth(d, labels)
        assert sm.circles == 2
        i, theta, j = degrees(d, EnhancedState(labels, 0b01))
        assert theta == 0 and j == i


def test_enumerate_unknot():
    d = pretzel([1])  # one-crossing unknot diagram, |s_A D| = 1
    states = enumerate_states(d, 0, 1)
    assert states == [EnhancedState(0, 1)]


def test_enumerate_hopf_quantum_spread():
    d = parse_pd(HOPF_2)
    assert [len(enumerate_states(d, 0, j)) for j in (-2, 0, 2)] == [1, 2, 1]


def test_enumerate_out_of_range():
    d = parse_pd(HOPF_2)
    assert enumerate_states(d, 5, 3) == []
    assert enumerate_states(d, -1, 0) == []


def test_enumerate_is_sorted_and_complete():
    d = pretzel([-1, 3])
    total = 0
    for i in range(0, d.n_total + 1):
        for j in range(-12, 13):
            states = enumerate_states(d, i, j)
            assert states == sorted(states)
            total += len(states)
    assert total == sum(1 << smooth(d, m).circles
                        for m in range(1 << d.n_total))


def test_state_count_binomial():
    d = braid3_closure([2, 2])
    counts = [0] * (d.n_total + 1)
    for mask in range(1 << d.n_total):
        counts[bin(mask).count("1")] += 1
    assert sum(counts) == 2 ** d.n_total
    assert counts == [1, 4, 6, 4, 1]


def test_circle_count_parity_on_label_flips():
    rng = random.Random(7)
    for d in (pretzel([-1, 3]), monocircular(2, 3), braid3_closure([3, 2])):
        for _ in range(60):
            labels = rng.randrange(1 << d.n_total)
            x = rng.randrange(d.n_total)
            a = smooth(d, labels).circles
            b = smooth(d, labels ^ (1 << x)).circles
            assert abs(a - b) == 1


def test_smooth_is_label_local():
    d = monocircular(3, 6)
    rng = random.Random(3)
    for _ in range(40):
        labels = rng.randrange(1 << d.n_total)
        x = rng.randrange(d.n_total)
        before = smooth(d, labels)
        touched = before.sides[2 * x:2 * x + 2]
        circle_before = circle_map(d, labels)
        circle_after = circle_map(d, labels ^ (1 << x))
        # circles not incident to x keep their edge sets
        for c, min_edge in enumerate(before.min_edges):
            if c in touched:
                continue
            edges_before = {e for e, k in circle_before.items() if k == c}
            c_after = circle_after[min_edge]
            edges_after = {e for e, k in circle_after.items()
                           if k == c_after}
            assert edges_before == edges_after


def circle_map(d, labels):
    """Edge label -> canonical circle index of the state's smoothing."""
    sm = smooth(d, labels)
    return {e: sm.circle_of(d, labels, e) for e in d.edges}


def reference_circles(d, labels):
    """The circles of a state as a plain partition of the edges: at every
    crossing, join the two edges of each pair of slots that its smoothing
    connects, A: (0,1), (2,3); B: (1,2), (3,0).  Returns the blocks and,
    per crossing, the two pairs, the one holding slot 0 first."""
    block = {e: {e} for e in d.edges}
    pairs = []
    for ci, cr in enumerate(d.crossings):
        a, b, c, e = cr.edges
        joined = ((e, a), (b, c)) if labels >> ci & 1 else ((a, b), (c, e))
        pairs.append(joined)
        for x, y in joined:
            if block[x] is not block[y]:
                merged = block[x] | block[y]
                for z in merged:
                    block[z] = merged
    blocks = {frozenset(b) for b in block.values()}
    return sorted(blocks, key=min), pairs


def _twists(min_size):
    return st.lists(st.integers(-3, 3).filter(bool), min_size=min_size,
                    max_size=3).filter(lambda a: sum(map(abs, a)) <= 7)


FAMILY_DIAGRAMS = st.tuples(st.one_of(
    _twists(1).map(pretzel),
    _twists(1).map(rational),
    _twists(2).map(braid3_closure),
    st.tuples(st.integers(1, 3), st.integers(1, 3)).map(
        lambda h: monocircular(*h)),
), st.booleans()).map(lambda dm: dm[0].mirror() if dm[1] else dm[0])


def check_smoothing_against_reference(d, labels):
    sm = smooth(d, labels)
    blocks, pairs = reference_circles(d, labels)
    index = {e: k for k, b in enumerate(blocks) for e in b}
    assert sm.circles == len(blocks)
    assert circle_map(d, labels) == index
    assert sm.min_edges == tuple(min(b) for b in blocks)
    # bytes, or a tuple above 256 circles: the same values either way
    assert tuple(sm.sides) == tuple(index[pair[0]] for joined in pairs
                                    for pair in joined)
    # an edge's circle reads the same off the pair at either port
    _, edge_at, _ = d.ports
    for p, e in enumerate(edge_at):
        b = labels >> (p >> 2) & 1
        assert sm.sides[(p >> 1) ^ (p & b)] == index[e]


def check_smoothings_against_reference(d):
    for labels in range(1 << d.n_total):
        check_smoothing_against_reference(d, labels)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(FAMILY_DIAGRAMS)
def test_smoothing_matches_edge_partition(d):
    check_smoothings_against_reference(d)


@pytest.mark.parametrize("d", [
    pretzel([1]), pretzel([1]).mirror(), parse_pd(HOPF_2),
    *map(relabelled, [
        parse_pd(HOPF_2), parse_pd(KNOT_3_1),
        reorder_crossings(monocircular(3, 3), [4, 0, 5, 2, 1, 3])])])
def test_smoothing_matches_edge_partition_small(d):
    check_smoothings_against_reference(d)


def test_smoothing_with_more_circles_than_a_byte_holds():
    # the all-B state of a 300-crossing twist has 301 circles, one more
    # than fits in the bytes that smaller smoothings keep as `sides`
    d = pretzel([300])
    assert smooth(d, state_B(d)).circles == 301
    check_smoothing_against_reference(d, state_B(d))


@pytest.mark.parametrize("warm", [False, True])
def test_smooth_rejects_states_out_of_range(warm):
    # the range is checked on a cache miss; an out-of-range state is
    # never cached, so a warm cache rejects it too
    d = parse_pd(HOPF_2)
    if warm:
        for labels in range(1 << d.n_total):
            smooth(d, labels)
    for bad in (1 << d.n_total, -1):
        with pytest.raises(SmoothingError):
            smooth(d, bad)
        assert bad not in d._smooth_cache


def test_smoothing_is_flat_and_small():
    # flat values, no per-state dict: at most 320 bytes for the object
    # and its slot values on a 14-crossing diagram (193-289 bytes with
    # `sides` as bytes, 396-492 with a tuple of ints)
    d = monocircular(7, 7)
    rng = random.Random(77)
    for labels in [0, state_B(d)] + [rng.randrange(1 << d.n_total)
                                     for _ in range(200)]:
        sm = smooth(d, labels)
        values = [getattr(sm, name) for name in Smoothing.__slots__]
        assert not any(isinstance(v, dict) for v in values)
        assert sys.getsizeof(sm) + sum(map(sys.getsizeof, values)) <= 320


def test_mono_vs_bichord():
    d = parse_pd(HOPF_2)
    sm = smooth(d, 0)
    assert not sm.is_monochord(0) and not sm.is_monochord(1)
    one_circle = smooth(pretzel([1]), 0)
    assert one_circle.is_monochord(0)


def test_all_B_equals_mirror_all_A():
    d = parse_pd(HOPF_2)
    assert smooth(d, state_B(d)).circles == smooth(d.mirror(), 0).circles


def test_chain_arithmetic_and_degree_checks():
    d = parse_pd(HOPF_2)
    s = enumerate_states(d, 0, 0)
    c = Chain(d, 0, 0, {s[0]: 1, s[1]: -1})
    assert (c - c).is_zero()
    assert (2 * c).coefficient(s[0]) == 2
    with pytest.raises(SmoothingError):
        Chain(d, 0, 2, {s[0]: 1})  # wrong degree for the member state


def test_chain_json_roundtrip_shape():
    d = parse_pd(HOPF_2)
    s = enumerate_states(d, 0, 2)[0]
    c = Chain(d, 0, 2, {s: 3})
    assert c.to_json() == [[format(s.labels, "x"), format(s.plus, "x"), 3]]
