"""Differential, incidence numbers and boundary matrices."""

import itertools
import random

from hypothesis import given, settings, strategies as st

from conftest import family_diagrams, relabelled
from khtorsion import (Chain, EnhancedState, boundary_matrix, differential,
                       enumerate_states, incidence, khovanov_table,
                       monocircular, parse_pd, pretzel, reorder_crossings,
                       smooth)
from khtorsion import chaincomplex
from khtorsion.chaincomplex import _cube_edges
from khtorsion.knotdata import HOPF_2, KNOT_3_1


def test_split_of_minus_single_summand():
    # single circle labelled -, one blue monochord: one (-,-) summand, +1
    d = pretzel([1])
    out = differential(d, EnhancedState(0, 0))
    assert len(out) == 1
    ((state, coeff),) = out.coeffs.items()
    assert coeff == 1
    assert state.labels == 1 and state.plus == 0


def test_split_of_plus_two_summands():
    d = pretzel([1])
    out = differential(d, EnhancedState(0, 1))
    assert len(out) == 2
    assert sorted(out.coeffs.values()) == [1, 1]
    assert {s.plus for s in out.coeffs} == {0b01, 0b10}


def test_merge_of_two_minus_is_zero():
    # two circles both -, blue bichord between them
    d = parse_pd(HOPF_2)
    out = differential(d, EnhancedState(0, 0))
    assert out.is_zero()


def test_differential_raises_i_preserves_j():
    d = parse_pd(KNOT_3_1)
    for i in range(d.n_total):
        for j in range(-9, 10):
            for s in enumerate_states(d, i, j):
                ds = differential(d, s)
                if not ds.is_zero():
                    assert (ds.i, ds.j) == (i + 1, j)


def test_incidence_signs_small():
    # k counts B labels before the change crossing
    d = parse_pd(KNOT_3_1)
    s = EnhancedState(0, 1)  # needs |s_A D| = 1 circle: check
    if smooth(d, 0).circles != 1:
        s = None
    for i in range(0, d.n_total):
        for j in range(-9, 10):
            for a in enumerate_states(d, i, j):
                da = differential(d, a)
                for b, coeff in da.coeffs.items():
                    k = bin(a.labels & ((a.labels ^ b.labels) - 1)).count("1")
                    assert coeff == (-1) ** k


def test_incidence_matches_differential_coefficients():
    rng = random.Random(11)
    for d in (parse_pd(HOPF_2), pretzel([-1, 3]), monocircular(2, 2)):
        for i in range(0, d.n_total):
            for j in range(-2 * d.n_total - 2, 2 * d.n_total + 3):
                basis = enumerate_states(d, i, j)
                targets = enumerate_states(d, i + 1, j)
                if not basis or not targets:
                    continue
                for s in basis:
                    ds = differential(d, s)
                    for t in rng.sample(targets, min(6, len(targets))):
                        assert incidence(d, s, t) == ds.coefficient(t)


def test_chain_differential_matches_incidence_sums():
    # d of a chain is the incidence-weighted sum of its terms, zero
    # coefficients dropped; d(d(y)) = 0 makes every term cancel
    rng = random.Random(17)
    for d in (parse_pd(HOPF_2), pretzel([-1, 3]), monocircular(2, 2)):
        n = d.n_total
        for i in range(0, n):
            for j in range(-2 * n - 2, 2 * n + 3):
                basis = enumerate_states(d, i, j)
                targets = enumerate_states(d, i + 1, j)
                zero = differential(d, Chain(d, i, j))
                assert zero.is_zero() and (zero.i, zero.j) == (i + 1, j)
                if not basis:
                    continue
                sizes = sorted({1, min(3, len(basis)), len(basis)})
                chains = [Chain(d, i, j, {s: rng.choice((-3, -2, -1, 1, 2, 3))
                                          for s in rng.sample(basis, k)})
                          for k in sizes]
                chains += [differential(d, Chain(d, i - 1, j, {y: 1}))
                           for y in enumerate_states(d, i - 1, j)]
                for chain in chains:
                    expected = {}
                    for t in targets:
                        v = sum(c * incidence(d, s, t)
                                for s, c in chain.coeffs.items())
                        if v:
                            expected[t] = v
                    out = differential(d, chain)
                    assert out.coeffs == expected
                    assert (out.i, out.j) == (i + 1, j)


def test_incidence_not_adjacent_cases():
    d = pretzel([-1, 3])
    i, j = 0, smooth(d, 0).circles
    s = enumerate_states(d, i, j)[0]
    # differing at two crossings: never adjacent
    for t in enumerate_states(d, 2, j):
        assert incidence(d, s, t) == 0


def test_boundary_matrix_dimensions():
    d = parse_pd(HOPF_2)
    m = boundary_matrix(d, 0, 0)
    assert m.ncols == len(enumerate_states(d, 0, 0))
    assert m.nrows == len(enumerate_states(d, 1, 0))


def test_d_squared_zero_hopf_and_pretzel():
    for d in (parse_pd(HOPF_2), pretzel([-1, 3])):
        n = d.n_total
        for i in range(-1, n + 1):
            for j in range(-2 * n - 2, 2 * n + 3):
                a = boundary_matrix(d, i, j)
                b = boundary_matrix(d, i + 1, j)
                assert b.matmul(a).is_zero()


def test_boundary_matrix_on_shuffled_subsets_against_incidence(monkeypatch):
    # columns in any order, labels interleaved: the matrix is the
    # incidence matrix of the given columns, and the cube-edge table is
    # asked for once per run of equal labels
    calls = []
    original = chaincomplex._cube_edges

    def counting(diagram, labels):
        calls.append(labels)
        return original(diagram, labels)

    monkeypatch.setattr(chaincomplex, "_cube_edges", counting)
    rng = random.Random(5)
    interleaved = 0
    for d in (pretzel([-1, 3]), monocircular(3, 3), parse_pd(KNOT_3_1)):
        n = d.n_total
        top = max(smooth(d, labels).circles for labels in range(1 << n))
        for j in range(-top, n + top + 1):
            for i in range(n):
                src = enumerate_states(d, i, j)
                dst = enumerate_states(d, i + 1, j)
                cols = rng.sample(src, rng.randint(0, len(src)))
                calls.clear()
                m = boundary_matrix(d, i, j, cols, dst)
                assert m.to_dense() == [[incidence(d, s, t) for s in cols]
                                        for t in dst]
                runs = [s.labels for k, s in enumerate(cols)
                        if k == 0 or s.labels != cols[k - 1].labels]
                assert calls == runs
                interleaved += len(runs) > len({s.labels for s in cols})
    assert interleaved


def test_unknot_kink_matrix_dimensions():
    d = pretzel([1])
    m = boundary_matrix(d, 0, 1)
    assert (m.nrows, m.ncols) == (2, 1)


def test_differential_keys_are_enhanced_states():
    # Chain.to_json and repr read .labels and .plus off every key, for a
    # state argument (EnhancedState or plain pair) and a chain argument
    d = monocircular(2, 2)
    n = d.n_total
    seen = 0
    for i in range(n):
        for j in range(-n - 2, 2 * n + 3):
            for s in enumerate_states(d, i, j):
                for arg in (s, tuple(s), Chain(d, i, j, {s: 2})):
                    out = differential(d, arg)
                    assert all(type(t) is EnhancedState for t in out.coeffs)
                    assert len(out.to_json()) == len(out)
                    repr(out)
                    seen += len(out)
    assert seen


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(family_diagrams(6), st.randoms(use_true_random=False))
def test_boundary_matrices_against_incidence_over_families(d, rnd):
    # every boundary matrix against the entry-by-entry incidence matrix,
    # d o d = 0 at every (i, j), and the table under a crossing reorder
    perm = list(range(d.n_total))
    rnd.shuffle(perm)
    e = reorder_crossings(d, perm)
    n = e.n_total
    top = max(smooth(e, labels).circles for labels in range(1 << n))
    for j in range(-top, n + top + 1):
        for i in range(-1, n + 1):
            src = enumerate_states(e, i, j)
            dst = enumerate_states(e, i + 1, j)
            m = boundary_matrix(e, i, j)
            assert (m.nrows, m.ncols) == (len(dst), len(src))
            assert m.to_dense() == [[incidence(e, s, t) for s in src]
                                    for t in dst]
            assert boundary_matrix(e, i + 1, j).matmul(m).is_zero()
    assert khovanov_table(e) == khovanov_table(d)


def _transport_cases():
    """(diagram, Kauffman states): every state of four small diagrams,
    crossings reordered and edges relabelled e -> 7e - 20, and one state
    of D(3,6) with six circles, three merge edges and one split edge."""
    cases = []
    for seed, d in enumerate((parse_pd(HOPF_2), parse_pd(KNOT_3_1),
                              pretzel([-1, 3]), monocircular(3, 3))):
        perm = list(range(d.n_total))
        random.Random(seed).shuffle(perm)
        e = relabelled(reorder_crossings(d, perm))
        cases.append((e, range(1 << e.n_total)))
    cases.append((monocircular(3, 6), [0b011111000]))
    return cases


def test_cube_edges_transport_matches_per_circle_map():
    # the mask-and-shift transport against the map of every untouched
    # circle c to the neighbour's circle_of_edge[min_edges[c]]
    six = 0
    for d, states in _transport_cases():
        for labels in states:
            sm = smooth(d, labels)
            six += sm.circles >= 6
            for plus in range(1 << sm.circles):
                expected = {}
                for x, (side0, side1) in enumerate(sm.scar_sides):
                    if labels >> x & 1:
                        continue
                    new_labels = labels | 1 << x
                    tm = smooth(d, new_labels)
                    c0, c1 = tm.scar_sides[x]
                    if side0 != side1:
                        assert c0 == c1 == min(side0, side1)
                    else:
                        assert min(c0, c1) == side0
                    base = 0
                    for c, e in enumerate(sm.min_edges):
                        if c not in (side0, side1) and plus >> c & 1:
                            base |= 1 << tm.circle_of_edge[e]
                    a, b = plus >> side0 & 1, plus >> side1 & 1
                    if side0 != side1:
                        targets = ([] if not (a or b) else
                                   [base | 1 << c0] if a and b else [base])
                    else:
                        targets = ([base | 1 << c0, base | 1 << c1] if a
                                   else [base])
                    odd = bin(labels & ((1 << x) - 1)).count("1") & 1
                    for t in targets:
                        expected[(new_labels, t)] = -1 if odd else 1
                assert differential(
                    d, EnhancedState(labels, plus)).coeffs == expected
    assert six


def test_cube_edges_smooth_only_the_state_and_its_splits(monkeypatch):
    # one table build smooths the state once and each split neighbour
    # once; a merge reads no neighbour smoothing
    calls = []
    original = chaincomplex.smooth

    def recording(diagram, labels):
        calls.append(labels)
        return original(diagram, labels)

    monkeypatch.setattr(chaincomplex, "smooth", recording)
    for d, states in _transport_cases():
        for labels in states:
            sm = original(d, labels)
            splits = [labels | 1 << x
                      for x, (side0, side1) in enumerate(sm.scar_sides)
                      if not labels >> x & 1 and side0 == side1]
            calls.clear()
            _cube_edges(d, labels)
            assert calls == [labels] + splits
