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
complex, `smith_normal_form` on its copy of one matrix.  It keeps a
row list and an exact live count per column, and hands its row updates
to the transform SNF, which logs them.  What is left has no unit entry
and is finished by fraction-free integer elimination with pivots chosen
of smallest magnitude (ties by least fill); Python integers keep
everything exact.

The exactness oracle factors the full matrices, with transforms,
because its witness is a chain of enhanced states.  The transforms
U M V = S are never built: the transform SNF keeps a flat log of its
row and column ops, in the matrix's own indices.  `is_exact` solves
d(y) = v over the integers by replaying the row ops forward on v, which
gives b = U v; the system is solvable iff b at each pivot row is
divisible by its invariant factor and b vanishes off the pivot rows.
Only then are the column ops replayed in reverse on z = b / S, giving
the witness y = V z.
`class_order` applies this to m v for the divisors m of the exponent
bound (the largest invariant factor), checking the cycle only once.
"""

from __future__ import annotations

import itertools
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
    """Invariant factors of M, each dividing the next, all positive.

    With transforms, also the log of the elimination U M V = S, in M's
    own row and column indices: S holds factor t at (pivot_rows[t],
    pivot_cols[t]) and is zero elsewhere.  U and V are never built;
    `apply_u` and `apply_v` replay the log on one vector.  A row op
    (s, sign, r1, q1, r2, q2, ...) subtracts q_k times row s from row
    r_k, then multiplies row s by sign.  A column op (c, c1, q1, ...)
    subtracts q_k times column c from column c_k.
    """

    factors: list[int]
    nrows: int
    ncols: int
    pivot_rows: Optional[list[int]] = None
    pivot_cols: Optional[list[int]] = None
    row_ops: Optional[list[tuple[int, ...]]] = None
    col_ops: Optional[list[tuple[int, ...]]] = None

    @property
    def rank(self) -> int:
        return len(self.factors)

    def apply_u(self, vec: list[int]) -> list[int]:
        """U vec: the row ops replayed forward."""
        b = list(vec)
        for op in self.row_ops:
            s = op[0]
            x = b[s]
            if x:
                for k in range(2, len(op), 2):
                    b[op[k]] -= op[k + 1] * x
                if op[1] < 0:
                    b[s] = -x
        return b

    def apply_v(self, vec: list[int]) -> list[int]:
        """V vec: the column ops replayed in reverse."""
        z = list(vec)
        for op in reversed(self.col_ops):
            z[op[0]] -= sum(op[k + 1] * z[op[k]] for k in range(1, len(op), 2))
        return z


def _units(rows: list[dict[int, int]], ncols: int, log: bool = False):
    """Cancel every +-1 entry of one matrix in place.

    `rows[r]` maps column -> nonzero entry.  A unit phi = rows[r][c] is
    cleared from its column by the row updates row_{r2} -= q row_r with
    q = rows[r2][c] phi (phi^-1 = phi), which give the other rows the
    rank-one update eps - gamma phi^-1 delta; then row r and column c
    are emptied.  The pivot row is the shortest row holding a unit, and
    its pivot the unit of the shortest column (the first such unit on
    ties), which keeps the fill small.  Yields (r, c, phi, row, updates)
    per pivot: `row` is the pivot row without c, `updates` the (r2, q)
    pairs in the order made when `log` is set, else None.

    Most pivot rows hold no other entry.  Then the update only drops
    column c from each other row, and a short loop does just that.

    `cols[c]`, built here from `rows`, lists the rows that may hold
    column c and `count[c]` is the exact number that do: fill appends,
    and a row listed twice or no longer holding c is skipped.
    The candidate rows wait in one bucket per row length, scanned from
    a low-water mark.  An updated row moves to the bucket of its new
    length; a taken row with no unit stays out until an update changes
    it.
    """
    cols: list[list[int]] = [[] for _ in range(ncols)]
    buckets: list[set[int]] = []
    for r, row in enumerate(rows):
        if row:
            for c in row:
                cols[c].append(r)
            length = len(row)
            while len(buckets) <= length:
                buckets.append(set())
            buckets[length].add(r)
    count = [len(col) for col in cols]
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
                n = count[c2]
                if best is None or n < best:
                    c, best = c2, n
        if c is None:
            continue
        phi = row.pop(c)
        updates = [] if log else None
        if not row:  # the other rows only lose their entry in column c
            for r2 in cols[c]:
                row2 = rows[r2]
                q = row2.pop(c, None)
                if q is None:
                    continue
                length = len(row2)
                buckets[length + 1].discard(r2)
                if log:
                    updates.append((r2, q * phi))
                if length:
                    buckets[length].add(r2)
                    if length < low:
                        low = length
        else:
            for c2 in row:
                count[c2] -= 1
            for r2 in cols[c]:
                row2 = rows[r2]
                q = row2.pop(c, None)
                if q is None:
                    continue
                buckets[len(row2) + 1].discard(r2)
                q *= phi
                for c2, v in row.items():
                    x = row2.get(c2, 0) - q * v
                    if x:
                        if c2 not in row2:
                            cols[c2].append(r2)
                            count[c2] += 1
                        row2[c2] = x
                    else:
                        del row2[c2]
                        count[c2] -= 1
                if log:
                    updates.append((r2, q))
                length = len(row2)
                if length:
                    while len(buckets) <= length:
                        buckets.append(set())
                    buckets[length].add(r2)
                    if length < low:
                        low = length
        cols[c], count[c] = [], 0
        rows[r] = {}  # not the emptied row: a fresh dict frees its table
        yield r, c, phi, row, updates


def smith_normal_form(matrix: SparseIntMatrix,
                      transforms: bool = True) -> SNFResult:
    """Smith normal form of an integer matrix.

    Returns the factors in divisibility order (each dividing the next,
    all positive) plus, when `transforms` is set, the log of row and
    column ops that `SNFResult` replays as U and V.  Every +-1 entry is
    cancelled first by `_units`, the elimination that `cancel_units`
    runs on the table complexes; its updates are logged as they come.
    The residual has no unit left and is finished by Euclid's
    reduction, each pivot an entry of smallest magnitude with least
    Markowitz fill.  Rows and columns are never swapped: the log keeps
    M's indices.  A pair of factors with d_t not dividing d_{t+1} is put
    back, its second row is added to its first, and the same Euclid
    steps leave the gcd and then the lcm: the log needs no other op.
    """
    m = matrix.copy()
    nrows, ncols = m.nrows, m.ncols
    row_ops, col_ops = ([], []) if transforms else (None, None)
    flat = itertools.chain.from_iterable

    pivots: list[tuple[int, int, int]] = []  # (row, column, factor)
    for r, c, phi, row, updates in _units(m.rows, ncols, transforms):
        if transforms:
            if updates or phi < 0:
                row_ops.append((r, phi, *flat(updates)))
            if row:
                col_ops.append((c, *flat((c2, v * phi)
                                         for c2, v in row.items())))
        pivots.append((r, c, 1))
    col_rows: list[set[int]] = [set() for _ in range(ncols)]
    for r, row in enumerate(m.rows):
        for c in row:
            col_rows[c].add(r)

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
        if transforms:
            row_ops.append((src, 1, dst, -q))

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
        if transforms:
            col_ops.append((src, dst, -q))

    def euclid(pr, pc):
        # clear the pivot's column by row steps and its row by column
        # steps, moving to each nonzero remainder, the smaller pivot; then
        # pop the pivot, made positive
        while True:
            pivot = m.rows[pr][pc]
            for r2 in list(col_rows[pc]):
                if r2 != pr:
                    add_row(pr, r2, -(m.rows[r2][pc] // pivot))
                    if pc in m.rows[r2]:
                        pr = r2
                        break
            else:
                for c2 in list(m.rows[pr]):
                    if c2 != pc:
                        add_col(pc, c2, -(m.rows[pr][c2] // pivot))
                        if c2 in m.rows[pr]:
                            pc = c2
                            break
                else:
                    break
        pivot = m.rows[pr].pop(pc)
        col_rows[pc].clear()
        if pivot < 0:
            pivot = -pivot
            if transforms:
                row_ops.append((pr, -1))
        return pr, pc, pivot

    live = [r for r, row in enumerate(m.rows) if row]
    while live:
        _, _, pr, pc = min(
            (v if v > 0 else -v,
             (len(m.rows[r]) - 1) * (len(col_rows[c]) - 1), r, c)
            for r in live for c, v in m.rows[r].items())
        pivots.append(euclid(pr, pc))
        live = [r for r in live if m.rows[r]]

    # enforce d_t | d_{t+1}: put a failing pair back, add its second row
    # to its first, and let Euclid leave the gcd, then the lcm, on the
    # 2x2 block; the gcd may fail against d_{t-1}, so step back a pair
    t = 0
    while t < len(pivots) - 1:
        (r1, c1, a), (r2, c2, b) = pivots[t], pivots[t + 1]
        if b % a == 0:
            t += 1
            continue
        m.rows[r1][c1], m.rows[r2][c2] = a, b
        col_rows[c1].add(r1)
        col_rows[c2].add(r2)
        add_row(r2, r1, 1)
        pr, pc, _ = pivots[t] = euclid(r1, c1)
        # the entry left is in the block's other row and column
        pivots[t + 1] = euclid(r1 + r2 - pr, c1 + c2 - pc)
        t = max(t - 1, 0)

    factors = [d for _, _, d in pivots]
    if not transforms:
        return SNFResult(factors, nrows, ncols)
    return SNFResult(factors, nrows, ncols, [r for r, _, _ in pivots],
                     [c for _, c, _ in pivots], row_ops, col_ops)


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
        pivots = {r: c for r, c, _, _, _ in _units(mat.rows, mat.ncols)}
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
    d_{i-1} left, only the bases of C^{i,j} and C^{i+1,j} are held, and
    no full matrix is kept."""
    def reduce():
        n = diagram.n_total
        basis = enumerate_states(diagram, 0, j)

        def assemble(i, keep):  # called for i = 0, 1, ..., n in turn
            nonlocal basis
            live = basis if keep is None else [basis[c] for c in keep]
            basis = enumerate_states(diagram, i + 1, j) if i < n else []
            return boundary_matrix(diagram, i, j, live, basis)

        return [smith_normal_form(m, transforms=False)
                for m in cancel_units(assemble, n + 1)]
    return diagram.cached(("reduced", j), reduce)


def homology_at(diagram: Diagram, i: int, j: int) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion invariant factors > 1) of Kh^{i,j}(D), read
    off the unit-cancelled complex at quantum degree j."""
    reduced = _reduced(diagram, j)

    def at(k: int) -> SNFResult:
        if 0 <= k < len(reduced):
            return reduced[k]
        return SNFResult([], 0, 0)

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
    b = snf.apply_u(vec)
    z = [0] * snf.ncols
    for r, c, d in zip(snf.pivot_rows, snf.pivot_cols, snf.factors):
        if b[r] % d:
            return False, None
        z[c], b[r] = b[r] // d, 0
    if any(b):
        return False, None
    y = snf.apply_v(z)
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
