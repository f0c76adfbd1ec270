"""The enhanced-state chain complex and its boundary matrices.

The differential acts on an enhanced state by turning one blue (A) scar
red at a time.  Turning the scar at crossing x red either merges the two
circles it touches or splits its single circle, and the circle signs
follow the usual rules: mergings (+,+) -> +, (+,-) -> -, (-,+) -> -, and
nothing on (-,-); splittings + -> (+,-) + (-,+) and - -> (-,-).  Each
term carries the sign (-1)^k, where k counts the B-labels at crossings
ordered before x.

Everything but the signs of the circles depends only on the Kauffman
state: which edges of the cube leave it, whether each merges or splits,
and where the untouched circles go.  Circles are indexed by their least
edge, so the untouched circles keep their order across an edge and
their signs move with one mask and one shift, whatever the number of
circles.  `_cube_edges` builds that table for a state and `_terms`
applies it to a sign mask; `_terms` is the one place where the
merge/split rule lives.  `differential` sums its terms into a chain's
coefficients, and `boundary_matrix` writes them straight into the
matrix, fetching one table per run of equal labels (bases are sorted
by labels).
"""

from __future__ import annotations

from typing import Optional

from .diagram import Diagram
from .smoothing import Chain, EnhancedState, degrees, enumerate_states, smooth


def differential(diagram: Diagram, arg) -> Chain:
    """d of an enhanced state or of a chain (extended linearly).

    The images of a chain's terms are summed into one coefficient map,
    so the cost is linear in the number of terms.  The keys summed are
    plain (labels, plus) tuples, which hash and compare equal to the
    `EnhancedState` of the same pair."""
    if isinstance(arg, Chain):
        items, i, j = arg.coeffs.items(), arg.i, arg.j
    else:
        items = ((arg, 1),)
        i, _, j = degrees(diagram, EnhancedState._make(arg))
    coeffs: dict[tuple[int, int], int] = {}
    for (labels, plus), scale in items:
        for key, sign in _terms(plus, _cube_edges(diagram, labels)):
            v = coeffs.get(key, 0) + sign * scale
            if v:
                coeffs[key] = v
            else:
                del coeffs[key]
    return Chain(diagram, i + 1, j,
                 {EnhancedState._make(s): c for s, c in coeffs.items()},
                 check=False)


def _cube_edges(diagram: Diagram, labels: int) -> list:
    """The cube edges leaving the Kauffman state `labels`.

    Returns one edge per A-labelled crossing x, in increasing x:
    (new_labels, odd, merge, b0, b1, t0, t1, keep, down, up).  odd is
    the parity of the B labels before x; b0, b1 are the bits of the
    circles the scar touches (side0, side1) and t0, t1 those of the
    circles it touches after the change.  The untouched circles move by
    one mask and one shift: their target signs are
    ``plus & keep | plus >> down << up``.

    That holds because circles are indexed by their least edge, and a
    circle the change does not touch keeps its edges, so the untouched
    circles keep their relative order; only the touched ones move.  With
    lo < hi the two touched indices:

    - merge: the merged circle holds both least edges, so it takes index
      lo.  Circles below hi other than lo keep their index, those above
      hi move down by one (down = hi + 1, up = hi), and t0 = t1 = 1 << lo
      needs no neighbour smoothing;
    - split: the part holding the source circle's least edge keeps its
      index lo = side0, and the other part lands at hi.  Circles below hi
      other than lo keep their index, those from hi up move up by one
      (down = hi, up = hi + 1); c0, c1 come from the neighbour's scar
      sides at x.

    In both cases keep = ((1 << hi) - 1) ^ (1 << lo).
    """
    sm = smooth(diagram, labels)
    edges = []
    k = 0  # number of B labels before the current crossing
    for x, (side0, side1) in enumerate(sm.scar_sides):
        if labels >> x & 1:
            k += 1
            continue
        new_labels = labels | (1 << x)
        if side0 != side1:  # merge
            lo, hi = (side0, side1) if side0 < side1 else (side1, side0)
            t0 = t1 = 1 << lo
            down, up = hi + 1, hi
        else:  # split
            c0, c1 = smooth(diagram, new_labels).scar_sides[x]
            t0, t1 = 1 << c0, 1 << c1
            lo, hi = side0, c0 + c1 - side0  # one of c0, c1 is side0
            down, up = hi, hi + 1
        edges.append((new_labels, k & 1, side0 != side1, 1 << side0,
                      1 << side1, t0, t1, ((1 << hi) - 1) ^ (1 << lo),
                      down, up))
    return edges


def _terms(plus: int, edges: list):
    """Yield the ((new_labels, target_plus), sign) terms of d of the
    enhanced state with sign mask `plus`, whose Kauffman state has the
    cube-edge table `edges`, in edge order.

    No key repeats: distinct edges change distinct crossings, and a
    split's two targets differ in the signs of its two circles."""
    for new_labels, odd, merge, b0, b1, t0, t1, keep, down, up in edges:
        if merge and not plus & (b0 | b1):
            continue  # (-,-) kills the term
        base = plus & keep | plus >> down << up
        sign = -1 if odd else 1
        if merge:  # (+,+) -> +, (+,-) and (-,+) -> -
            yield (new_labels, base | t0 if plus & b0 and plus & b1
                   else base), sign
        elif plus & b0:  # + -> (+,-) + (-,+)
            yield (new_labels, base | t0), sign
            yield (new_labels, base | t1), sign
        else:  # - -> (-,-)
            yield (new_labels, base), sign


def incidence(diagram: Diagram, s, t) -> int:
    """The incidence number i(s, t) in {-1, 0, +1}.

    Nonzero iff t is adjacent to s: same labels except a single crossing
    changing A -> B, equal quantum degree, equal signs on the common
    circles and an allowed merge/split sign transition; the value is
    then (-1)^k with k the number of B labels of s before the change
    crossing.
    """
    s = EnhancedState(*s)
    t = EnhancedState(*t)
    flips = s.labels ^ t.labels
    if flips == 0 or flips & (flips - 1):
        return 0
    if s.labels & flips:
        return 0  # the change must be A -> B in s
    x = flips.bit_length() - 1
    si, _, sj = degrees(diagram, s)
    ti, _, tj = degrees(diagram, t)
    if ti != si + 1 or tj != sj:
        return 0
    sm = smooth(diagram, s.labels)
    tm = smooth(diagram, t.labels)
    # common circles keep their signs
    touched_s = set(sm.scar_sides[x])
    for c, min_edge in enumerate(sm.min_edges):
        if c in touched_s:
            continue
        if (s.plus >> c & 1) != (t.plus >> tm.circle_of_edge[min_edge] & 1):
            return 0
    side0, side1 = sm.scar_sides[x]
    c0, c1 = tm.scar_sides[x]
    if side0 != side1:  # merging
        a = s.plus >> side0 & 1
        b = s.plus >> side1 & 1
        merged = t.plus >> c0 & 1
        if (a, b) == (0, 0):
            return 0
        if merged != (a and b):
            return 0
    else:  # splitting
        a = s.plus >> side0 & 1
        u = t.plus >> c0 & 1
        v = t.plus >> c1 & 1
        if a and (u, v) not in ((1, 0), (0, 1)):
            return 0
        if not a and (u, v) != (0, 0):
            return 0
    k = bin(s.labels & ((1 << x) - 1)).count("1")
    return -1 if k & 1 else 1


class SparseIntMatrix:
    """A sparse integer matrix stored as one dict per row."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int,
                 rows: Optional[list[dict[int, int]]] = None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows if rows is not None else [dict() for _ in range(nrows)]

    def set(self, r: int, c: int, v: int) -> None:
        if v:
            self.rows[r][c] = v
        else:
            self.rows[r].pop(c, None)

    def nnz(self) -> int:
        return sum(len(r) for r in self.rows)

    def copy(self) -> "SparseIntMatrix":
        return SparseIntMatrix(self.nrows, self.ncols,
                               [dict(r) for r in self.rows])

    @classmethod
    def identity(cls, n: int) -> "SparseIntMatrix":
        m = cls(n, n)
        for k in range(n):
            m.rows[k][k] = 1
        return m

    def matmul(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        out = SparseIntMatrix(self.nrows, other.ncols)
        for r, row in enumerate(self.rows):
            acc: dict[int, int] = {}
            for k, v in row.items():
                for c, w in other.rows[k].items():
                    x = acc.get(c, 0) + v * w
                    if x:
                        acc[c] = x
                    else:
                        del acc[c]
            out.rows[r] = acc
        return out

    def apply(self, vec: list[int]) -> list[int]:
        if len(vec) != self.ncols:
            raise ValueError("shape mismatch")
        return [sum(v * vec[c] for c, v in row.items()) for row in self.rows]

    def is_zero(self) -> bool:
        return all(not r for r in self.rows)

    def to_dense(self) -> list[list[int]]:
        return [[row.get(c, 0) for c in range(self.ncols)] for row in self.rows]


def boundary_matrix(diagram: Diagram, i: int, j: int,
                    basis_from: Optional[list[EnhancedState]] = None,
                    basis_to: Optional[list[EnhancedState]] = None
                    ) -> SparseIntMatrix:
    """Matrix of d_i : C^{i,j} -> C^{i+1,j} in the canonical bases.

    Column s, row t holds the incidence number i(s, t).  Each column is
    written from the `_terms` of its state, with the cube-edge table
    fetched once per run of basis states with equal labels; a state's
    terms have distinct keys, so nothing is accumulated.  Any order of
    `basis_from` gives the same matrix.
    """
    if basis_from is None:
        basis_from = enumerate_states(diagram, i, j)
    if basis_to is None:
        basis_to = enumerate_states(diagram, i + 1, j)
    index = dict(zip(basis_to, range(len(basis_to))))
    mat = SparseIntMatrix(len(basis_to), len(basis_from))
    rows = mat.rows
    last = edges = None
    for col, (labels, plus) in enumerate(basis_from):
        if labels != last:
            last = labels
            edges = _cube_edges(diagram, labels)
        for key, sign in _terms(plus, edges):
            rows[index[key]][col] = sign
    return mat
