"""Smith normal form, homology tables, exactness oracle."""

import inspect
import itertools
import math
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from conftest import family_diagrams
from khtorsion import (Chain, NotACycleError, SizeGuardError, SparseIntMatrix,
                       boundary_matrix, braid3_closure, class_order,
                       differential, enumerate_states, homology_at, is_exact,
                       khovanov_table, monocircular, parse_pd, pretzel,
                       rational, reorder_crossings, smith_normal_form,
                       smooth)
from khtorsion.knotdata import (HOPF_2, KNOT_3_1, KNOT_4_1, KNOT_6_1,
                                KNOT_9_42)

KH_6_1_MIRROR = {
    (2, 5): (1, ()), (2, 3): (0, (2,)), (0, 1): (2, ()), (1, 1): (1, ()),
    (-1, -1): (1, ()), (0, -1): (1, (2,)), (-1, -3): (1, (2,)),
    (-3, -5): (1, ()), (-2, -5): (1, ()), (-3, -7): (0, (2,)),
    (-4, -9): (1, ()),
}


def dense(rows):
    m = SparseIntMatrix(len(rows), len(rows[0]) if rows else 0)
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            m.set(r, c, v)
    return m


def test_snf_1x1():
    res = smith_normal_form(dense([[2]]))
    assert res.factors == [2] and res.rank == 1


def test_snf_already_diagonal():
    res = smith_normal_form(dense([[1, 0], [0, 2]]))
    assert res.factors == [1, 2]


def test_snf_hand_elimination_oracle():
    res = smith_normal_form(dense([[2, 4], [6, 8]]))
    assert res.factors == [2, 4]
    # diagonals whose pivots fail divisibility; on (4, 6, 9) the gcd 3
    # of the second pair fails against the 2 before it, a step back
    for diag, factors in (((2, 3), [1, 6]), ((4, 6, 9), [1, 6, 36]),
                          ((9, 6, 4), [1, 6, 36])):
        rows = [[d if r == c else 0 for c in range(len(diag))]
                for r, d in enumerate(diag)]
        m = dense(rows)
        assert dense_snf_factors(rows) == factors
        assert smith_normal_form(m, transforms=False).factors == factors
        res = smith_normal_form(m, transforms=True)
        assert res.factors == factors
        _assert_umv(m, res)


def test_snf_empty():
    res = smith_normal_form(dense([]))
    assert res.factors == [] and res.rank == 0


def _transforms(res):
    """U and V of a transform SNF, built column by column by replaying
    its log on the unit vectors."""
    def build(apply, n):
        mat = SparseIntMatrix(n, n)
        for k in range(n):
            for r, x in enumerate(apply([int(t == k) for t in range(n)])):
                mat.set(r, k, x)
        return mat
    return build(res.apply_u, res.nrows), build(res.apply_v, res.ncols)


def _assert_umv(m, res):
    """U M V = S, with factor t at (pivot_rows[t], pivot_cols[t])."""
    assert len(set(res.pivot_rows)) == len(set(res.pivot_cols)) == res.rank
    s = SparseIntMatrix(res.nrows, res.ncols)
    for r, c, d in zip(res.pivot_rows, res.pivot_cols, res.factors):
        s.set(r, c, d)
    u, v = _transforms(res)
    assert u.matmul(m).matmul(v).to_dense() == s.to_dense()
    return u, v


def test_snf_transforms_umv():
    rng = random.Random(5)
    for _ in range(25):
        rows = [[rng.randint(-4, 4) for _ in range(rng.randint(1, 5))]
                for _ in range(rng.randint(1, 5))]
        width = max(len(r) for r in rows)
        rows = [r + [0] * (width - len(r)) for r in rows]
        m = dense(rows)
        res = smith_normal_form(m)
        # U and V are unimodular: their invariant factors are all ones
        for t in _assert_umv(m, res):
            assert smith_normal_form(t, False).factors == [1] * t.nrows
        for a, b in zip(res.factors, res.factors[1:]):
            assert b % a == 0
        assert all(f > 0 for f in res.factors)


def dense_snf_factors(rows):
    """Invariant factors by the textbook dense algorithm: move a smallest
    entry to the corner, reduce its row and column, and fold in a row
    that the corner does not divide."""
    a = [list(r) for r in rows]
    n, m = len(a), len(a[0])

    def corner(t, cells):
        _, r, c = min((abs(a[r][c]), r, c) for r, c in cells if a[r][c])
        a[t], a[r] = a[r], a[t]
        for row in a:
            row[t], row[c] = row[c], row[t]

    factors = []
    for t in range(min(n, m)):
        block = [(r, c) for r in range(t, n) for c in range(t, m)]
        if not any(a[r][c] for r, c in block):
            break
        corner(t, block)
        while True:
            p = a[t][t]
            for r in range(t + 1, n):
                q = a[r][t] // p
                a[r] = [x - q * y for x, y in zip(a[r], a[t])]
            for c in range(t + 1, m):
                q = a[t][c] // p
                for row in a:
                    row[c] -= q * row[t]
            line = [(r, t) for r in range(t, n)] + \
                   [(t, c) for c in range(t + 1, m)]
            if any(a[r][c] for r, c in line[1:]):
                corner(t, line)
                continue
            bad = [r for r in range(t + 1, n)
                   if any(a[r][c] % p for c in range(t + 1, m))]
            if not bad:
                break
            a[t] = [x + y for x, y in zip(a[t], a[bad[0]])]
        factors.append(abs(a[t][t]))
    return factors


def _boundary_rows():
    """The nonzero boundary matrices d_i of 3_1, 6_1 and P(-1,3), dense."""
    from khtorsion.homology import matrix_d
    for d in (parse_pd(KNOT_3_1), parse_pd(KNOT_6_1), pretzel([-1, 3])):
        n = d.n_total
        for i in range(n):
            for j in range(-n - 2, 3 * n + 3):
                m = matrix_d(d, i, j)
                if m.nnz():
                    yield m.to_dense()


def test_snf_large_sparse_against_dense_reference():
    # 40x40 with three entries per row, most of them not units, and the
    # unit-heavy boundary matrices, which the dense reference factors
    # without the unit elimination of smith_normal_form
    rng = random.Random(3)
    inputs = []
    for _ in range(20):
        rows = [[0] * 40 for _ in range(40)]
        for row in rows:
            for c in rng.sample(range(40), 3):
                row[c] = rng.choice((1, -1, 2, -2, 3, -3, 4))
        inputs.append(rows)
    inputs.extend(_boundary_rows())
    assert len(inputs) == 20 + 7 + 25 + 13
    for rows in inputs:
        m = dense(rows)
        plain = smith_normal_form(m, transforms=False)
        full = smith_normal_form(m, transforms=True)
        assert plain.factors == full.factors == dense_snf_factors(rows)
        _assert_umv(m, full)


def _has_unit(row):
    return any(v == 1 or v == -1 for v in row.values())


def _replay(before, r, c, phi, row, updates):
    """One logged `_units` step applied to a copy of the rows it started
    from: the log `smith_normal_form` keeps for its U and V replays."""
    rows = [dict(line) for line in before]
    pivot = rows[r]
    assert pivot.pop(c) == phi and pivot == row
    for r2, q in updates:
        line = rows[r2]
        assert line.pop(c) * phi == q
        for c2, v in row.items():
            x = line.get(c2, 0) - q * v
            if x:
                line[c2] = x
            else:
                del line[c2]
    rows[r] = {}
    return rows


def _column_index(steps, rows, ncols):
    """Check the column index of the suspended `_units` generator: every
    live count is the number of rows holding the column, and every such
    row is on the column's list.  Returns (cols, count)."""
    index = inspect.getgeneratorlocals(steps)
    cols, count = index["cols"], index["count"]
    assert len(cols) == len(count) == ncols
    for c in range(ncols):
        holders = {r for r, row in enumerate(rows) if c in row}
        assert count[c] == len(holders), (c, count[c], holders)
        assert holders <= set(cols[c]), (c, cols[c], holders)
    return cols, count


def test_units_invariants_on_random_sparse_matrices():
    # every pivot is taken from a shortest row holding a unit, its column
    # is the first unit column of fewest entries, no unit is left, and
    # the pivots plus the residual's rank over Q are the rank; each step's
    # (r, c, phi, row, updates) replayed on the rows before it gives the
    # rows after it; after every step the column index is exact
    from khtorsion.homology import _units
    rng = random.Random(11)
    single = filled = 0
    for _ in range(40):
        nrows, ncols = rng.randint(1, 24), rng.randint(1, 24)
        start = [[0] * ncols for _ in range(nrows)]
        for line in start:
            for c in rng.sample(range(ncols), min(ncols, rng.randint(0, 4))):
                line[c] = rng.choice((1, -1, 1, -1, 2, -2, 3, 6))
        rows = [{c: v for c, v in enumerate(line) if v} for line in start]
        steps = _units(rows, ncols, log=True)
        pivots = 0
        while True:
            shortest = min((len(row) for row in rows if _has_unit(row)),
                           default=None)
            before = [dict(row) for row in rows]
            sizes = [sum(c in row for row in rows) for c in range(ncols)]
            step = next(steps, None)
            if step is None:
                assert shortest is None
                break
            r, c, phi, row, updates = step
            assert phi in (1, -1) and c not in row
            assert len(row) + 1 == shortest
            units = [c2 for c2, v in before[r].items() if v in (1, -1)]
            assert c == min(units, key=lambda c2: sizes[c2])
            cols, count = _column_index(steps, rows, ncols)
            assert rows[r] == {} and cols[c] == [] and count[c] == 0
            others = [r2 for r2, line in enumerate(before)
                      if c in line and r2 != r]
            assert sorted(r2 for r2, _ in updates) == others
            assert _replay(before, r, c, phi, row, updates) == rows
            single += not row and bool(others)
            filled += any(c2 not in before[r2]
                          for r2, _ in updates for c2 in row)
            pivots += 1
        assert not any(_has_unit(row) for row in rows)
        residual = [[row.get(c, 0) for c in range(ncols)] for row in rows]
        assert pivots + len(dense_snf_factors(residual)) \
            == len(dense_snf_factors(start))
    # both the single-entry fast path and the rank-one update with fill-in
    assert single and filled, (single, filled)


def test_table_working_set_stays_small():
    # the traced peak of one D(5,5) table on a built diagram: 3.4-3.5 MiB
    # with a set of rows per column and every basis of j held at once,
    # 2.3-2.4 MiB with column lists and two bases in flight (Python
    # 3.10-3.13)
    d = monocircular(5, 5)
    tracemalloc.start()
    try:
        khovanov_table(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.0 * 2**20, peak / 2**20


def test_unknot_kink_homology():
    t = khovanov_table(pretzel([1]))
    assert t.hq_entries() == {(0, 1): (1, ()), (0, -1): (1, ())}


def test_trefoil_table():
    t = khovanov_table(parse_pd(KNOT_3_1))
    assert t.hq_entries() == {
        (-3, -9): (1, ()), (-2, -7): (0, (2,)), (-2, -5): (1, ()),
        (0, -3): (1, ()), (0, -1): (1, ()),
    }


def test_6_1_mirror_full_grid():
    t = khovanov_table(parse_pd(KNOT_6_1))
    assert t.hq_entries() == KH_6_1_MIRROR


def test_homology_at_examples():
    d = parse_pd(KNOT_6_1)
    p, n, _ = d.stats()
    # knot degrees (-3, -7) -> Z2 only
    assert homology_at(d, -3 + n, -7 - p + 2 * n) == (0, (2,))
    d2 = pretzel([-1, -1, -1, 6])
    p2, n2, _ = d2.stats()
    assert homology_at(d2, 3 + n2, 9 - p2 + 2 * n2) == (1, (2, 2))


def test_rank_nullity_consistency():
    from khtorsion.homology import _snf, basis
    d = pretzel([-1, 3])
    n = d.n_total
    for i in range(0, n + 1):
        for j in range(-2 * n - 2, 2 * n + 3):
            dim = len(basis(d, i, j))
            if dim == 0:
                continue
            free, _ = homology_at(d, i, j)
            r_i = _snf(d, i, j, transforms=False).rank
            r_prev = _snf(d, i - 1, j, transforms=False).rank
            assert r_i + r_prev + free == dim


def test_euler_characteristic_consistency():
    d = parse_pd(KNOT_3_1)
    n = d.n_total
    t = khovanov_table(d)
    for j in range(-3 * n, 3 * n + 1):
        chi_dim = sum((-1) ** i * len(enumerate_states(d, i, j))
                      for i in range(0, n + 1))
        chi_rank = sum((-1) ** i * t.entry(i, j)[0] for i in range(0, n + 1))
        assert chi_dim == chi_rank


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(family_diagrams(7))
def test_euler_characteristic_against_kauffman_bracket(d):
    # sum_i (-1)^i rank Kh^{i,j} is the q^j coefficient of the state sum
    # sum_s (-1)^|s| q^|s| (q + 1/q)^circles(s), read off `smooth` alone
    bracket = {}
    for labels in range(1 << d.n_total):
        i = bin(labels).count("1")
        circles = smooth(d, labels).circles
        for k in range(circles + 1):
            j = i + circles - 2 * k
            bracket[j] = bracket.get(j, 0) + (-1) ** i * math.comb(circles, k)
    chi = {}
    for (i, j), (rank, _) in khovanov_table(d).entries.items():
        chi[j] = chi.get(j, 0) + (-1) ** i * rank
    assert {j: c for j, c in chi.items() if c} == \
        {j: c for j, c in bracket.items() if c}


def test_size_guard():
    d = pretzel([1] * 19)
    with pytest.raises(SizeGuardError):
        khovanov_table(d)
    with pytest.raises(SizeGuardError):
        khovanov_table(d, limit=10)


def test_is_exact_zero_and_image():
    d = parse_pd(HOPF_2)
    z = Chain(d, 1, 0)
    ok, wit = is_exact(z)
    assert ok and wit.is_zero()
    s = enumerate_states(d, 0, 0)[0]
    v = differential(d, s)
    ok, wit = is_exact(v)
    assert ok
    assert differential(d, wit) == v


@pytest.mark.parametrize("build, j", [
    pytest.param(lambda: pretzel([-1]), -2, id="P(-1)"),
    pytest.param(lambda: parse_pd(KNOT_3_1), -3, id="3_1"),
])
def test_is_exact_with_nothing_below(build, j):
    # at i = 0 the group C^{i-1,j} is empty, so no cycle but 0 is exact:
    # the all-A, all-minus state is a cycle of infinite order
    d = build()
    (s,) = enumerate_states(d, 0, j)
    assert s.labels == 0 and s.plus == 0
    c = Chain(d, 0, j, {s: 1})
    assert differential(d, c).is_zero()
    assert is_exact(c) == (False, None)
    assert class_order(c) == math.inf


def test_is_exact_requires_cycle():
    d = parse_pd(KNOT_3_1)
    s = enumerate_states(d, 0, smooth_j(d))[0]
    c = Chain(d, 0, smooth_j(d), {s: 1})
    if not differential(d, c).is_zero():
        with pytest.raises(NotACycleError):
            is_exact(c)


def smooth_j(d):
    from khtorsion import smooth
    return smooth(d, 0).circles


def test_class_order_free_generator():
    # a free generator at the top homological degree of the Hopf diagram
    d = parse_pd(HOPF_2)
    found = math.nan
    for s in enumerate_states(d, 2, 2):
        v = Chain(d, 2, 2, {s: 1})
        assert differential(d, v).is_zero()
        order = class_order(v)
        assert order in (1, math.inf)
        assert is_exact(2 * v)[0] == (order in (1, 2))
        if order == math.inf:
            found = order
    assert found == math.inf


def test_exactness_vs_order_equivalences():
    d = monocircular(2, 3)
    n = d.n_total
    rng = random.Random(2)
    for i in range(0, n + 1):
        for j in range(-2 * n - 2, 2 * n + 3):
            for s in enumerate_states(d, i, j):
                v = differential(d, s)
                if v.is_zero():
                    continue
                exact, _ = is_exact(v)
                assert exact and class_order(v) == 1
                assert is_exact(2 * v)[0] == (class_order(v) in (1, 2))


def test_table_json_shape():
    t = khovanov_table(parse_pd(HOPF_2))
    payload = t.to_json()
    assert payload["schema"] == 1
    assert set(payload["offsets"]) == {"p", "n"}
    for key, entry in payload["table"].items():
        i, j = key.split(",")
        int(i), int(j)
        assert set(entry) == {"rank", "torsion"}



def _matrix(rows, ncols):
    return SparseIntMatrix(len(rows), ncols,
                           [{c: v for c, v in enumerate(r) if v} for r in rows])


def _complex_homology(mats):
    """(free rank, torsion) in every degree of C^0 -> ... -> C^len(mats),
    mats[k] being d_k, from the rank-only SNF of each matrix."""
    snfs = [smith_normal_form(m, transforms=False) for m in mats]
    dims = [m.ncols for m in mats] + [mats[-1].nrows]
    ranks = [s.rank for s in snfs] + [0]
    out = []
    for k, dim in enumerate(dims):
        prev = snfs[k - 1] if k else None
        free = dim - ranks[k] - (prev.rank if prev else 0)
        out.append((free, tuple(d for d in prev.factors if d > 1)
                    if prev else ()))
    return out


@pytest.mark.parametrize("complex_, expected", [
    # d_1: every two rows share exactly one column, so whichever unit is
    # cancelled first, the rank-one update fills a zero; H^1 = Z2
    ([_matrix([[2], [-2], [-2]], 1),
      _matrix([[1, 1, 0], [1, 0, 1], [0, 1, -1]], 3),
      _matrix([[1, -1, -1]], 3)],
     [(0, ()), (0, (2,)), (0, ()), (0, ())]),
    # cancelling any unit of d_0 leaves the entry 3 - 1 = 2; H^1 = Z2
    ([_matrix([[1, 1], [1, 3], [1, 1]], 2),
      _matrix([[1, 0, -1]], 3)],
     [(0, ()), (0, (2,)), (0, ())]),
])
def test_cancel_units_hand_built(complex_, expected):
    from khtorsion.homology import cancel_units
    for a, b in zip(complex_, complex_[1:]):
        assert b.matmul(a).is_zero()
    assert _complex_homology([m.copy() for m in complex_]) == expected
    residual = cancel_units(
        lambda k, keep: complex_[k] if keep is None else SparseIntMatrix(
            complex_[k].nrows, len(keep),
            [{t: row[c] for t, c in enumerate(keep) if c in row}
             for row in complex_[k].rows]),
        len(complex_))
    for a, b in zip(residual, residual[1:]):
        assert a.nrows == b.ncols
        assert b.matmul(a).is_zero()
    entries = [v for m in residual for row in m.rows for v in row.values()]
    assert 2 in entries or -2 in entries
    assert not any(v in (1, -1) for v in entries)
    assert _complex_homology(residual) == expected


# the diagrams of the benchmark's `table` workload up to 9 crossings
TABLE_DIAGRAMS = {
    "6_1": lambda: parse_pd(KNOT_6_1),
    "9_42": lambda: parse_pd(KNOT_9_42),
    "9_42-mirror": lambda: parse_pd(KNOT_9_42).mirror(),
    "D(3,6)": lambda: monocircular(3, 6),
    "P(-3,3,-3)": lambda: pretzel([-3, 3, -3]),
    "rational(4,2,3)": lambda: rational([4, 2, 3]),
}


@pytest.mark.parametrize("name", ["9_42", "D(3,6)"])
def test_table_never_assembles_a_cancelled_target(name, monkeypatch):
    """Each unit cancelled in d_{i-1} drops a generator of C^{i,j} that
    d_i is never assembled on.  Of G generators, R survive and (G - R) / 2
    are such targets, so the table assembles (G + R) / 2 columns; with
    every d_i assembled in full it would be G."""
    from khtorsion import homology
    assembled = []
    residual = []

    def counting(*args):
        m = boundary_matrix(*args)
        assembled.append(m.ncols)
        return m

    def residual_snf(matrix, transforms=True):
        assert not transforms  # the table factors residuals rank-only
        residual.append(matrix.ncols)
        return smith_normal_form(matrix, transforms)

    monkeypatch.setattr(homology, "boundary_matrix", counting)
    monkeypatch.setattr(homology, "smith_normal_form", residual_snf)
    d = TABLE_DIAGRAMS[name]()
    khovanov_table(d)
    g = sum(1 << smooth(d, labels).circles for labels in range(1 << d.n_total))
    r = sum(residual)
    assert r < g
    assert 2 * sum(assembled) == g + r


def _rank_gf2(m):
    """Rank over GF(2): each row is one int, reduced by XOR on its
    highest bit."""
    pivots = {}
    for row in m.rows:
        x = sum(1 << c for c, v in row.items() if v & 1)
        while x:
            top = x.bit_length() - 1
            if top not in pivots:
                pivots[top] = x
                break
            x ^= pivots[top]
    return len(pivots)


def _rank_mod_p(m, p):
    """Rank over F_p, p prime, each row reduced on its highest column."""
    pivots = {}
    for row in m.rows:
        x = {c: v % p for c, v in row.items() if v % p}
        while x:
            top = max(x)
            if top not in pivots:
                pivots[top] = x
                break
            q = x[top] * pow(pivots[top][top], -1, p)
            for c, v in pivots[top].items():
                y = (x.get(c, 0) - q * v) % p
                if y:
                    x[c] = y
                else:
                    del x[c]
    return len(pivots)


@pytest.mark.parametrize("name, primes", [
    ("6_1", (2,)), ("9_42", (2, 3)), ("9_42-mirror", (2,)),
    ("D(3,6)", (2, 3)), ("P(-3,3,-3)", (2,)), ("rational(4,2,3)", (2,))])
def test_universal_coefficients(name, primes):
    """dim Kh^{i,j}(F_p) = free(i, j) + t_p(i, j) + t_p(i+1, j), t_p
    counting the invariant factors divisible by p.  The F_p ranks come
    from the full boundary matrices, with no unit cancellation and no
    integer Smith normal form."""
    d = TABLE_DIAGRAMS[name]()
    table = khovanov_table(d)
    js = set()
    for labels in range(1 << d.n_total):
        i, m = bin(labels).count("1"), smooth(d, labels).circles
        js.update(range(i - m, i + m + 1, 2))
    for j in sorted(js):
        mats = [boundary_matrix(d, i, j) for i in range(d.n_total + 1)]
        for p in primes:
            # rank[i] is the rank of d_{i-1}
            rank = [0] + [_rank_gf2(m) if p == 2 else _rank_mod_p(m, p)
                          for m in mats]

            def t_p(i):
                return sum(1 for f in table.entry(i, j)[1] if f % p == 0)

            for i, m in enumerate(mats):
                assert m.ncols - rank[i + 1] - rank[i] == (
                    table.entry(i, j)[0] + t_p(i) + t_p(i + 1)), (p, i, j)


SMALL_DIAGRAMS = family_diagrams(8, twist=4, bands=4, height=4)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(SMALL_DIAGRAMS)
def test_reduction_against_full_snf_and_mirror_duality(d):
    from khtorsion.homology import _snf, basis
    n = d.n_total
    for i in range(n + 1):
        for j in range(-n - 2, 3 * n + 3):
            full = _snf(d, i, j, transforms=False)
            prev = _snf(d, i - 1, j, transforms=False)
            assert homology_at(d, i, j) == (
                len(basis(d, i, j)) - full.rank - prev.rank,
                tuple(f for f in prev.factors if f > 1))
    # Kh(mirror): free rank at (h, q) is that of Kh(D) at (-h, -q), and
    # torsion at (h, q) is that of Kh(D) at (1 - h, -q)
    t, tm = khovanov_table(d), khovanov_table(d.mirror())
    hqs = set(t.hq_entries())
    for h, q in (set(tm.hq_entries()) | {(-h, -q) for h, q in hqs}
                 | {(1 - h, -q) for h, q in hqs}):
        assert tm.entry_hq(h, q)[0] == t.entry_hq(-h, -q)[0]
        assert tm.entry_hq(h, q)[1] == t.entry_hq(1 - h, -q)[1]


def _f2_dims(hq):
    """dim Kh^{h,q}(F_2) = free(h, q) + t_2(h, q) + t_2(h+1, q), t_2
    counting the even invariant factors (universal coefficients)."""
    dims = {}
    for (h, q), (free, tors) in hq.items():
        t2 = sum(1 for f in tors if f % 2 == 0)
        dims[h, q] = dims.get((h, q), 0) + free + t2
        if t2:
            dims[h - 1, q] = dims.get((h - 1, q), 0) + t2
    return dims


def _nu_splits(hq):
    """Shumakovitch's check (arXiv math/0405474): Kh(L; F_2) carries an
    acyclic differential nu of bidegree (0, 2), so in each column h the
    F_2 dimensions d_q, read upward in steps of 2, split as
    d_q = r_q + r_{q-2} with every r_q >= 0 and the last r_q = 0."""
    columns = {}
    for (h, q), dim in _f2_dims(hq).items():
        columns.setdefault(h, {})[q] = dim
    for dims in columns.values():
        lo, hi = min(dims), max(dims)
        if any((q - lo) % 2 for q in dims):
            return False
        r = 0
        for q in range(lo, hi + 1, 2):
            r = dims.get(q, 0) - r
            if r < 0:
                return False
        if r:
            return False
    return True


def _corpus_and_mirrors():
    from test_acceptance import _corpus
    ds = [(f"corpus{k}", d) for k, d in enumerate(_corpus())]
    return ds + [(name + "-mirror", d.mirror()) for name, d in ds]


def _nu_diagrams():
    """The acceptance corpus and its mirrors, and the benchmark's `table`
    workload items of up to 10 crossings."""
    ds = _corpus_and_mirrors()
    ds += [(name, make()) for name, make in TABLE_DIAGRAMS.items()]
    ds += [("braid3(3,2,3,2)", braid3_closure([3, 2, 3, 2])),
           ("D(5,5)", monocircular(5, 5))]
    ds += [(name, parse_pd(_split_union(a, b)))
           for name, (a, b) in SPLIT_UNIONS.items()]
    return [pytest.param(d, id=name) for name, d in ds]


KINK = "X(1,2,2,1)"

SPLIT_UNIONS = {
    "3_1+3_1": (KNOT_3_1, KNOT_3_1),
    "3_1+4_1": (KNOT_3_1, KNOT_4_1),
    "6_1+3_1": (KNOT_6_1, KNOT_3_1),
    "kink+kink": (KINK, KINK),
}


def _split_union(a, b):
    """PD code of the split union of a and b: b's edge labels are shifted
    past a's."""
    shift = max(int(e) for e in re.findall(r"-?\d+", a))
    return a + "," + re.sub(r"-?\d+", lambda m: str(int(m[0]) + shift), b)


def _prime_powers(factors):
    """The orders of the cyclic summands of prime-power order, sorted."""
    out = []
    for f in factors:
        p = 2
        while f > 1:
            q = 1
            while f % p == 0:
                f //= p
                q *= p
            if q > 1:
                out.append(q)
            p += 1
    return sorted(out)


def _kunneth(hq1, hq2):
    """Kh of a split union from its two pieces (arXiv math/9908171: the
    complex of a disjoint union is the tensor product of the two).
    Kh^{h1,q1} (x) Kh^{h2,q2} lands at (h1 + h2, q1 + q2) and Tor of the
    same pair at (h1 + h2 - 1, q1 + q2).  Torsion is compared as the
    multiset of prime-power orders, so Z_a (x) Z_b = Tor(Z_a, Z_b) =
    Z_gcd(a, b) on prime powers."""
    out = {}

    def add(key, free, tors):
        f, t = out.get(key, (0, []))
        out[key] = (f + free, t + tors)

    for (h1, q1), (r1, t1) in hq1.items():
        t1 = _prime_powers(t1)
        for (h2, q2), (r2, t2) in hq2.items():
            t2 = _prime_powers(t2)
            tor = [g for a in t1 for b in t2 if (g := math.gcd(a, b)) > 1]
            add((h1 + h2, q1 + q2), r1 * r2, r1 * t2 + r2 * t1 + tor)
            add((h1 + h2 - 1, q1 + q2), 0, tor)
    return {k: (f, sorted(t)) for k, (f, t) in out.items() if f or t}


@pytest.mark.parametrize("name", SPLIT_UNIONS)
def test_kunneth_on_split_unions(name):
    a, b = SPLIT_UNIONS[name]
    union = parse_pd(_split_union(a, b))
    assert len(union.components) == 2
    table = {k: (f, _prime_powers(t))
             for k, (f, t) in khovanov_table(union).hq_entries().items()}
    assert table == _kunneth(khovanov_table(parse_pd(a)).hq_entries(),
                             khovanov_table(parse_pd(b)).hq_entries())


def test_two_kink_unlink():
    # Kh of the two-component unlink is (q^-1 + q)^2 in degree h = 0
    d = parse_pd(_split_union(KINK, KINK))
    assert khovanov_table(d).hq_entries() == {
        (0, -2): (1, ()), (0, 0): (2, ()), (0, 2): (1, ())}


def _j_range_diagrams():
    """The acceptance corpus and its mirrors, the empty diagram, a
    one-crossing kink and a split union."""
    ds = _corpus_and_mirrors()
    ds += [("empty", parse_pd("[]")), ("X(1,1,2,2)", parse_pd("X(1,1,2,2)")),
           ("3_1+4_1", parse_pd(_split_union(KNOT_3_1, KNOT_4_1)))]
    return [pytest.param(d, id=name) for name, d in ds]


@pytest.mark.parametrize("d", _j_range_diagrams())
def test_every_generator_lies_in_the_table_j_range(d):
    """`khovanov_table` reads the rows j = -m_A, -m_A + 2, ..., n + m_B,
    m_A and m_B being the circle counts of the all-A and all-B states.
    A state L with i_L B labels and m_L circles has its generators at
    j = i_L - m_L, i_L - m_L + 2, ..., i_L + m_L."""
    n = d.n_total
    m_a = smooth(d, 0).circles
    m_b = smooth(d, (1 << n) - 1).circles
    for labels in range(1 << n):
        i, m = bin(labels).count("1"), smooth(d, labels).circles
        assert -m_a <= i - m and i + m <= n + m_b
        assert (i - m + m_a) % 2 == 0
    for j in range(-m_a - 2, n + m_b + 3):
        assert homology_at(d, -1, j) == homology_at(d, n + 1, j) == (0, ())


# a kink on the edge e that enters a crossing at slot 0: e now ends at a
# new crossing, k is the kink's loop and f the edge that takes e's place;
# the four shapes give both crossing signs, the loop on either side of e
R1_SHAPES = ("ekkf", "efkk", "kefk", "kkfe")


def _kinked(d, crossing, shape):
    quads = [list(c.edges) for c in d.crossings]
    edge = {"e": quads[crossing][0], "k": max(map(max, quads)) + 1}
    edge["f"] = quads[crossing][0] = edge["k"] + 1
    quads.append([edge[s] for s in shape])
    return parse_pd(str(quads))


@pytest.mark.parametrize("build", [
    pytest.param(lambda: parse_pd(KNOT_6_1), id="6_1"),
    pytest.param(lambda: monocircular(3, 4), id="D(3,4)"),
    pytest.param(lambda: pretzel([-3, 3, -3]), id="P(-3,3,-3)"),
    pytest.param(lambda: parse_pd(HOPF_2), id="Hopf"),
])
def test_reidemeister_one_kink_keeps_the_table(build):
    """PD codes that no constructor builds: a kink in each of the four
    shapes, at crossings 0..3 (mod n), leaves Kh in (h, q) unchanged."""
    d = build()
    hq = khovanov_table(d).hq_entries()
    signs = set()
    for k, shape in enumerate(R1_SHAPES):
        kinked = _kinked(d, k % d.n_total, shape)
        signs.add(kinked.crossings[-1].sign)
        assert khovanov_table(kinked).hq_entries() == hq, shape
    assert signs == {1, -1}


def _braid_pd(strands, exponents):
    """PD text of the closure of sigma_1^{a_1} sigma_2^{a_2} ..., the
    letters cycling through sigma_1, ..., sigma_{strands-1}.  Strands run
    top to bottom; the quadruples are those of `diagram._BAND_SLOTS`:
    sigma+ is X(TL, BL, BR, TR), sigma- is X(TR, TL, BL, BR).  Each
    strand's bottom label is then closed onto its top label."""
    bottom = list(range(1, strands + 1))
    labels = itertools.count(strands + 1)
    quads = []
    for k, a in enumerate(exponents):
        i = k % (strands - 1)
        for _ in range(abs(a)):
            tl, tr = bottom[i], bottom[i + 1]
            bl, br = bottom[i], bottom[i + 1] = next(labels), next(labels)
            quads.append((tl, bl, br, tr) if a > 0 else (tr, tl, bl, br))
    top = {b: t for t, b in enumerate(bottom, 1)}
    return ",".join("X(%d,%d,%d,%d)" % tuple(top.get(e, e) for e in q)
                    for q in quads)


def _braid_words(min_size):
    # 2-5 letters, exponents +-1..+-3, at most 8 crossings
    return st.lists(st.integers(-3, 3).filter(bool), min_size=min_size,
                    max_size=5).filter(lambda w: sum(map(abs, w)) <= 8)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(_braid_words(2))
def test_braid_pd_text_matches_braid3_closure(word):
    """The closure as PD text, parsed by its slot-0 votes, against the
    family constructor.  Only the sorted signs are compared: a component
    that is never under takes `_label_forward`'s orientation."""
    d = parse_pd(_braid_pd(3, word))
    e = braid3_closure(word)
    assert sorted(c.sign for c in d.crossings) == \
        sorted(c.sign for c in e.crossings)
    assert khovanov_table(d).hq_entries() == khovanov_table(e).hq_entries()


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.sampled_from((3, 4)).flatmap(
    lambda n: st.tuples(st.just(n), _braid_words(n - 1))),
    st.randoms(use_true_random=False))
def test_braid_pd_table_ignores_crossing_order(strands_word, rnd):
    d = parse_pd(_braid_pd(*strands_word))
    perm = list(range(d.n_total))
    rnd.shuffle(perm)
    assert khovanov_table(reorder_crossings(d, perm)).hq_entries() == \
        khovanov_table(d).hq_entries()


@pytest.mark.parametrize("d", _nu_diagrams())
def test_shumakovitch_nu_splits_the_f2_table(d):
    assert _nu_splits(khovanov_table(d).hq_entries())


@pytest.mark.parametrize("name", ["6_1", "D(3,6)", "P(-3,3,-3)", "Hopf"])
def test_nu_check_rejects_one_entry_mutations(name):
    # dropping a Z2, adding a Z2 or raising a free rank by 1 makes the
    # total of a column odd, which no split d_q = r_q + r_{q-2} gives
    d = (pretzel([-1, 3]) if name == "Hopf" else TABLE_DIAGRAMS[name]())
    hq = khovanov_table(d).hq_entries()
    assert _nu_splits(hq)
    mutants = []
    for key, (free, tors) in hq.items():
        if 2 in tors:
            rest = list(tors)
            rest.remove(2)
            mutants.append({**hq, key: (free, tuple(rest))})
        mutants.append({**hq, key: (free, tors + (2,))})
        mutants.append({**hq, key: (free + 1, tors)})
    assert not any(_nu_splits(m) for m in mutants)
