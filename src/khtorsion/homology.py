"""Integer Khovanov homology: unit cancellation, then Smith normal form.

The table is computed one quantum degree j at a time, in one pass over
d_0, d_1, ... of C^{*,j}.  Every +-1 entry phi = d_i[r][c] is cancelled
by the Gaussian-elimination lemma (Bar-Natan, *Fast Khovanov homology
computations*): generator c of C^i and generator r of C^{i+1} are
dropped, d_i gets the rank-one update eps - gamma phi^-1 delta, d_{i-1}
loses row c and d_{i+1} column r, which is thus never assembled.  The
residual is homotopy equivalent to C^{*,j} and has no unit entry, so it
is small; Kh^{i,j} = ker(d_i) / im(d_{i-1}) is read off its rank-only
Smith normal form: the free rank is dim - rank(d_i) - rank(d_{i-1}) and
the torsion is the invariant factors of d_{i-1}.

Both the table and the Smith normal form eliminate units through one
primitive, `_units`: `cancel_units` runs it on every d_k of the
complex, `smith_normal_form` on its copy of one matrix.  What is left
has no unit entry and is finished by fraction-free integer elimination
with pivots chosen of smallest magnitude (ties by least fill); Python
integers keep everything exact.

The exactness oracle factors the full matrices, with transforms,
because its witness is a chain of enhanced states.  `is_exact` solves
d(y) = v over the integers using the transforms U M V = S: with
b = U v the system is solvable iff b_t is divisible by the t-th
invariant factor (and b vanishes beyond the rank), in which case
y = V z is a witness.
`class_order` applies this to m v for the divisors m of the exponent
bound (the largest invariant factor), checking the cycle only once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .chaincomplex import SparseIntMatrix, boundary_matrix, differential
from .diagram import Diagram
from .smoothing import Chain, EnhancedState, enumerate_states, smooth


class SizeGuardError(RuntimeError):
    """Diagram too large for full enhanced-state enumeration."""

    def __init__(self, n_total: int, limit: int):
        super().__init__(
            f"diagram has {n_total} crossings, above the enumeration guard "
            f"({limit}); raise the limit explicitly to proceed")
        self.n_total = n_total
        self.limit = limit


class NotACycleError(ValueError):
    """The chain handed to an exactness query is not a cycle."""


DEFAULT_CROSSING_LIMIT = 18


@dataclass
class SNFResult:
    """U @ M @ V = S with S = diag(factors) padded by zeros."""

    u: Optional[SparseIntMatrix]
    v: Optional[SparseIntMatrix]
    factors: list[int]
    nrows: int
    ncols: int

    @property
    def rank(self) -> int:
        return len(self.factors)

    def s_matrix(self) -> SparseIntMatrix:
        s = SparseIntMatrix(self.nrows, self.ncols)
        for t, d in enumerate(self.factors):
            s.rows[t][t] = d
        return s


def _units(rows: list[dict[int, int]], cols: list[set[int]]):
    """Cancel every +-1 entry of one matrix in place.

    `rows[r]` maps column -> nonzero entry and `cols[c]` is the set of
    rows with an entry in column c.  A unit phi = rows[r][c] is cleared
    from its column by the row updates row_{r2} -= q row_r with
    q = rows[r2][c] phi (phi^-1 = phi), which give the other rows the
    rank-one update eps - gamma phi^-1 delta; then row r and column c
    are emptied.  The pivot row is the shortest row holding a unit, and
    its pivot the unit of the shortest column (the first such unit on
    ties), which keeps the fill small.  Yields (r, c, phi, row, updates)
    per pivot: `row` is the pivot row without c, `updates` the (r2, q)
    pairs in the order made.

    Most pivot rows hold no other entry.  Then the update only drops
    column c from each other row, and a short loop does just that.

    The candidate rows wait in one bucket per row length, scanned from
    a low-water mark.  An updated row moves to the bucket of its new
    length; a taken row with no unit stays out until an update changes
    it.
    """
    buckets: list[set[int]] = []
    for r, row in enumerate(rows):
        if row:
            length = len(row)
            while len(buckets) <= length:
                buckets.append(set())
            buckets[length].add(r)
    low = 0
    while True:
        while low < len(buckets) and not buckets[low]:
            low += 1
        if low == len(buckets):
            return
        r = buckets[low].pop()
        row = rows[r]
        c = best = None
        for c2, v in row.items():
            if v == 1 or v == -1:
                n = len(cols[c2])
                if best is None or n < best:
                    c, best = c2, n
        if c is None:
            continue
        phi = row.pop(c)
        cols[c].discard(r)
        updates = []
        if not row:  # the other rows only lose their entry in column c
            for r2 in cols[c]:
                row2 = rows[r2]
                length = len(row2)
                buckets[length].discard(r2)
                updates.append((r2, row2.pop(c) * phi))
                length -= 1
                if length:
                    buckets[length].add(r2)
                    if length < low:
                        low = length
        else:
            for c2 in row:
                cols[c2].discard(r)
            for r2 in cols[c]:
                row2 = rows[r2]
                buckets[len(row2)].discard(r2)
                q = row2.pop(c) * phi
                for c2, v in row.items():
                    x = row2.get(c2, 0) - q * v
                    if x:
                        if c2 not in row2:
                            cols[c2].add(r2)
                        row2[c2] = x
                    else:
                        del row2[c2]
                        cols[c2].discard(r2)
                updates.append((r2, q))
                length = len(row2)
                if length:
                    while len(buckets) <= length:
                        buckets.append(set())
                    buckets[length].add(r2)
                    if length < low:
                        low = length
        cols[c] = set()
        rows[r] = {}  # not the emptied row: a fresh dict frees its table
        yield r, c, phi, row, updates


def _axpy(dst: dict[int, int], src: dict[int, int], q: int) -> None:
    """dst += q * src on sparse vectors."""
    for k, v in src.items():
        x = dst.get(k, 0) + q * v
        if x:
            dst[k] = x
        elif k in dst:
            del dst[k]


def smith_normal_form(matrix: SparseIntMatrix,
                      transforms: bool = True) -> SNFResult:
    """Smith normal form of an integer matrix.

    Returns factors in divisibility order (each dividing the next, all
    positive) plus unimodular U, V when `transforms` is set.  Every +-1
    entry is cancelled first by `_units`, the elimination that
    `cancel_units` runs on the table complexes; U and V replay its row
    and column updates.  The residual has no unit left and is finished
    by Euclid's reduction, each pivot an entry of smallest magnitude
    with least Markowitz fill.  Rows and columns are never physically
    swapped during elimination, the permutation is applied to the
    transforms at the end.
    """
    m = matrix.copy()
    nrows, ncols = m.nrows, m.ncols
    u = SparseIntMatrix.identity(nrows) if transforms else None
    # V is maintained column-major: vcols[c] = dict row -> value
    vcols = [{c: 1} for c in range(ncols)] if transforms else None

    col_rows: list[set[int]] = [set() for _ in range(ncols)]
    for r, row in enumerate(m.rows):
        for c in row:
            col_rows[c].add(r)

    pivots: list[tuple[int, int, int]] = []  # (row, column, factor)
    for r, c, phi, row, updates in _units(m.rows, col_rows):
        if u is not None:
            for r2, q in updates:
                _axpy(u.rows[r2], u.rows[r], -q)
            for c2, v in row.items():
                _axpy(vcols[c2], vcols[c], -v * phi)
            if phi < 0:
                u.rows[r] = {c2: -x for c2, x in u.rows[r].items()}
        pivots.append((r, c, 1))

    def add_row(src, dst, q):
        # row[dst] += q * row[src]
        if q == 0:
            return
        rdst, rsrc = m.rows[dst], m.rows[src]
        for c, v in rsrc.items():
            x = rdst.get(c, 0) + q * v
            if x:
                if c not in rdst:
                    col_rows[c].add(dst)
                rdst[c] = x
            elif c in rdst:
                col_rows[c].discard(dst)
                del rdst[c]
        if u is not None:
            _axpy(u.rows[dst], u.rows[src], q)

    def add_col(src, dst, q):
        # col[dst] += q * col[src]
        if q == 0:
            return
        for r in list(col_rows[src]):
            row = m.rows[r]
            x = row.get(dst, 0) + q * row[src]
            if x:
                if dst not in row:
                    col_rows[dst].add(r)
                row[dst] = x
            elif dst in row:
                col_rows[dst].discard(r)
                del row[dst]
        if vcols is not None:
            _axpy(vcols[dst], vcols[src], q)

    live = [r for r, row in enumerate(m.rows) if row]
    while live:
        _, _, pr, pc = min(
            (v if v > 0 else -v,
             (len(m.rows[r]) - 1) * (len(col_rows[c]) - 1), r, c)
            for r in live for c, v in m.rows[r].items())
        while True:
            pivot = m.rows[pr][pc]
            changed = False
            for r2 in list(col_rows[pc]):
                if r2 == pr:
                    continue
                add_row(pr, r2, -(m.rows[r2][pc] // pivot))
                if m.rows[r2].get(pc):
                    pr = r2  # the remainder is the smaller pivot
                    changed = True
                    break
            if changed:
                continue
            pivot = m.rows[pr][pc]
            for c2 in list(m.rows[pr]):
                if c2 == pc:
                    continue
                add_col(pc, c2, -(m.rows[pr][c2] // pivot))
                if m.rows[pr].get(c2):
                    pc = c2
                    changed = True
                    break
            if changed:
                continue
            if len(m.rows[pr]) == 1 and len(col_rows[pc]) == 1:
                break
        pivot = m.rows[pr].pop(pc)
        col_rows[pc].clear()
        if pivot < 0:
            pivot = -pivot
            if u is not None:
                u.rows[pr] = {c: -v for c, v in u.rows[pr].items()}
        pivots.append((pr, pc, pivot))
        live = [r for r in live if m.rows[r]]

    factors = [d for _, _, d in pivots]
    if u is not None:
        # permute the pivots onto the leading diagonal
        done_rows = {r for r, _, _ in pivots}
        done_cols = {c for _, c, _ in pivots}
        u = SparseIntMatrix(nrows, nrows, [u.rows[r] for r, _, _ in pivots]
                            + [u.rows[r] for r in range(nrows)
                               if r not in done_rows])
        vcols = ([vcols[c] for _, c, _ in pivots]
                 + [vcols[c] for c in range(ncols) if c not in done_cols])

    # enforce divisibility d_t | d_{t+1} on the diagonal
    changed = True
    while changed:
        changed = False
        for t in range(len(factors) - 1):
            a, b = factors[t], factors[t + 1]
            if b % a == 0:
                continue
            changed = True
            g, x, y = _xgcd(a, b)
            factors[t], factors[t + 1] = g, a // g * b
            if u is not None:
                # on diag(a, b): R_t += R_{t+1}; columns (t, t+1) <- the
                # gcd combination; then R_{t+1} -= (b y / g) R_t
                _axpy(u.rows[t], u.rows[t + 1], 1)
                _col_gcd_step(vcols, t, t + 1, a // g, b // g, x, y)
                _axpy(u.rows[t + 1], u.rows[t], -(b // g * y))
    if u is None:
        return SNFResult(None, None, factors, nrows, ncols)

    v = SparseIntMatrix(ncols, ncols)
    for c, col in enumerate(vcols):
        for r, val in col.items():
            v.rows[r][c] = val
    return SNFResult(u, v, factors, nrows, ncols)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with a x + b y = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _col_gcd_step(vcols, c1, c2, a, b, x, y):
    """Columns (c1, c2) <- (x c1 + y c2, -b c1 + a c2) for coprime a, b
    with a x + b y = 1.

    The transform [[x, -b], [y, a]] has determinant 1.
    """
    w1, w2 = {}, {}
    for r in set(vcols[c1]) | set(vcols[c2]):
        v1 = vcols[c1].get(r, 0)
        v2 = vcols[c2].get(r, 0)
        n1 = x * v1 + y * v2
        n2 = -b * v1 + a * v2
        if n1:
            w1[r] = n1
        if n2:
            w2[r] = n2
    vcols[c1], vcols[c2] = w1, w2


# ---------------------------------------------------------------------------
# cached per-diagram linear algebra
# ---------------------------------------------------------------------------


def basis(diagram: Diagram, i: int, j: int) -> list[EnhancedState]:
    return diagram.cached(("basis", i, j),
                          lambda: enumerate_states(diagram, i, j))


def matrix_d(diagram: Diagram, i: int, j: int) -> SparseIntMatrix:
    """Boundary matrix d_i at quantum degree j (cached)."""
    return diagram.cached(("mat", i, j), lambda: boundary_matrix(
        diagram, i, j, basis(diagram, i, j), basis(diagram, i + 1, j)))


def _snf(diagram: Diagram, i: int, j: int, transforms: bool) -> SNFResult:
    return diagram.cached(
        ("snft" if transforms else "snf", i, j),
        lambda: smith_normal_form(matrix_d(diagram, i, j), transforms))


def cancel_units(assemble: Callable[..., SparseIntMatrix],
                 length: int) -> list[SparseIntMatrix]:
    """Cancel every +-1 entry of the chain complex d_0, ..., d_{length-1}
    in one pass of increasing k (Gaussian elimination).

    d_k : C^k -> C^{k+1} has rows indexing C^{k+1}.  `assemble(k, keep)`
    returns d_k on the columns `keep` of C^k, in order (None: all): the
    generators that d_{k-1} left.  Returns the residual differentials
    of a homotopy equivalent complex with no unit entry; their rows and
    columns are the surviving generators, in their original order.

    A unit phi = d_k[r][c] drops generator c of C^k and r of C^{k+1}:
    d_k gets the rank-one update eps - gamma phi^-1 delta, row c of
    d_{k-1} and column r of d_{k+1} go, and nothing else changes, so
    column r is never assembled.  The pivots are those of `_units`.
    """
    residual: list[SparseIntMatrix] = []
    keep = prev = None  # C^k that d_{k-1} left; d_{k-1}, column renumbering
    for k in range(length + 1):
        # C^{length+1} = 0: the last step only finishes d_{length-1}
        mat = (assemble(k, keep) if k < length
               else SparseIntMatrix(0, len(keep)))
        cols: list[set[int]] = [set() for _ in range(mat.ncols)]
        for r, row in enumerate(mat.rows):
            for c in row:
                cols[c].add(r)
        pivots = {r: c for r, c, _, _, _ in _units(mat.rows, cols)}
        sources = set(pivots.values())
        live = [c for c in range(mat.ncols) if c not in sources]
        if prev is not None:
            pmat, index = prev
            residual.append(SparseIntMatrix(len(live), len(index), [
                {index[c]: v for c, v in pmat.rows[keep[c]].items()}
                for c in live]))
        keep = [r for r in range(mat.nrows) if r not in pivots]
        prev = mat, {c: t for t, c in enumerate(live)}
    return residual


def _reduced(diagram: Diagram, j: int) -> list[SNFResult]:
    """For i = 0..n: the rank-only SNF of the residual d_i left by
    `cancel_units` (cached per j); its `ncols` counts the generators of
    C^{i,j} that survive.  Each d_i is assembled on the generators that
    d_{i-1} left, and no full matrix is kept."""
    def reduce():
        bases = [enumerate_states(diagram, i, j)
                 for i in range(diagram.n_total + 1)] + [[]]

        def assemble(i, keep):
            live = bases[i] if keep is None else [bases[i][c] for c in keep]
            return boundary_matrix(diagram, i, j, live, bases[i + 1])

        return [smith_normal_form(m, transforms=False)
                for m in cancel_units(assemble, diagram.n_total + 1)]
    return diagram.cached(("reduced", j), reduce)


def homology_at(diagram: Diagram, i: int, j: int) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion invariant factors > 1) of Kh^{i,j}(D), read
    off the unit-cancelled complex at quantum degree j."""
    reduced = _reduced(diagram, j)

    def at(k: int) -> SNFResult:
        if 0 <= k < len(reduced):
            return reduced[k]
        return SNFResult(None, None, [], 0, 0)

    snf, prev = at(i), at(i - 1)
    free = snf.ncols - snf.rank - prev.rank
    torsion = tuple(d for d in prev.factors if d > 1)
    return free, torsion


# ---------------------------------------------------------------------------
# the full table
# ---------------------------------------------------------------------------


class KhovanovTable:
    """Integer Khovanov homology of a diagram, in both gradings.

    Entries are stored in diagram degrees (i, j); the link degrees are
    h = i - n and q = j + p - 2n.
    """

    def __init__(self, entries: dict[tuple[int, int], tuple[int, tuple[int, ...]]],
                 p: int, n: int):
        self.entries = {k: v for k, v in entries.items()
                        if v[0] or v[1]}
        self.p = p
        self.n = n

    def entry(self, i: int, j: int) -> tuple[int, tuple[int, ...]]:
        return self.entries.get((i, j), (0, ()))

    def entry_hq(self, h: int, q: int) -> tuple[int, tuple[int, ...]]:
        return self.entry(h + self.n, q - self.p + 2 * self.n)

    def hq_entries(self) -> dict[tuple[int, int], tuple[int, tuple[int, ...]]]:
        return {(i - self.n, j + self.p - 2 * self.n): v
                for (i, j), v in self.entries.items()}

    def has_torsion(self) -> bool:
        return any(v[1] for v in self.entries.values())

    def __eq__(self, other) -> bool:
        return (isinstance(other, KhovanovTable)
                and self.entries == other.entries
                and (self.p, self.n) == (other.p, other.n))

    def to_json(self) -> dict:
        table = {f"{i},{j}": {"rank": r, "torsion": list(t)}
                 for (i, j), (r, t) in sorted(self.entries.items())}
        return {"schema": 1, "offsets": {"p": self.p, "n": self.n},
                "table": table}

    def render_text(self) -> str:
        """Two-variable text grid: rows j descending, columns i ascending,
        with the link degrees (h, q) alongside."""
        if not self.entries:
            return "(empty homology)"
        is_ = sorted({i for i, _ in self.entries})
        js = sorted({j for _, j in self.entries}, reverse=True)
        irange = list(range(is_[0], is_[-1] + 1))

        def cell(i, j):
            r, tors = self.entry(i, j)
            parts = []
            if r == 1:
                parts.append("Z")
            elif r > 1:
                parts.append(f"Z^{r}")
            parts.extend(f"Z{d}" for d in tors)
            return "+".join(parts)

        head = ["j\\i (q\\h)"] + [f"{i} ({i - self.n})" for i in irange]
        rows = [head]
        for j in js:
            q = j + self.p - 2 * self.n
            rows.append([f"{j} ({q})"] + [cell(i, j) for i in irange])
        widths = [max(len(r[k]) for r in rows) for k in range(len(head))]
        lines = ["  ".join(r[k].rjust(widths[k]) for k in range(len(r)))
                 for r in rows]
        return "\n".join(lines)


def khovanov_table(diagram: Diagram,
                   limit: int = DEFAULT_CROSSING_LIMIT) -> KhovanovTable:
    """Full integer Khovanov homology table of the diagram."""
    if diagram.n_total > limit:
        raise SizeGuardError(diagram.n_total, limit)
    # quantum support per homological degree
    support: set[tuple[int, int]] = set()
    for labels in range(1 << diagram.n_total):
        i = bin(labels).count("1")
        m = smooth(diagram, labels).circles
        for plus_count in range(m + 1):
            support.add((i, i + 2 * plus_count - m))
    entries = {(i, j): homology_at(diagram, i, j)
               for (i, j) in sorted(support)}
    p, n, _ = diagram.stats()
    return KhovanovTable(entries, p, n)


# ---------------------------------------------------------------------------
# exactness oracle
# ---------------------------------------------------------------------------


def is_exact(chain: Chain) -> tuple[bool, Optional[Chain]]:
    """Decide whether the cycle is a boundary, with an integral witness.

    Returns (True, y) with d(y) = chain, or (False, None).  Raises
    NotACycleError if d(chain) != 0.
    """
    if not differential(chain.diagram, chain).is_zero():
        raise NotACycleError("is_exact needs a cycle")
    return _solve(chain)


def _solve(chain: Chain) -> tuple[bool, Optional[Chain]]:
    """`is_exact` on a chain known to be a cycle: solve d(y) = chain
    through the transform SNF of d_{i-1}."""
    diagram = chain.diagram
    i, j = chain.i, chain.j
    if chain.is_zero():
        return True, Chain(diagram, i - 1, j)
    b_to = basis(diagram, i, j)
    b_from = basis(diagram, i - 1, j)
    index = {s: r for r, s in enumerate(b_to)}
    vec = [0] * len(b_to)
    for s, c in chain.coeffs.items():
        vec[index[s]] = c
    if not b_from:
        return False, None
    snf = _snf(diagram, i - 1, j, transforms=True)
    b = snf.u.apply(vec)
    z = [0] * snf.ncols
    for t, d in enumerate(snf.factors):
        if b[t] % d:
            return False, None
        z[t] = b[t] // d
    if any(b[t] for t in range(snf.rank, snf.nrows)):
        return False, None
    y = snf.v.apply(z)
    witness = Chain(diagram, i - 1, j,
                    {b_from[k]: y[k] for k in range(len(b_from)) if y[k]},
                    check=False)
    return True, witness


def class_order(chain: Chain):
    """Order of the homology class of the cycle: an integer, or math.inf.

    The order divides the exponent of the torsion subgroup, i.e. the
    largest invariant factor of d_{i-1}.  The cycle is checked once, by
    `is_exact`; each further divisor m is tested by solving for m times
    the chain, a cycle because d(m v) = m d(v).
    """
    exact, _ = is_exact(chain)
    if exact:
        return 1
    snf = _snf(chain.diagram, chain.i - 1, chain.j, transforms=False)
    bound = snf.factors[-1] if snf.factors else 1
    for m in sorted(_divisors(bound)):
        if m == 1:
            continue
        exact, _ = _solve(m * chain)
        if exact:
            return m
    return math.inf


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)
