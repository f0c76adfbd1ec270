"""Kauffman states, smoothed diagrams, enhanced states and chains.

A Kauffman state is a bitmask over the crossings of a diagram (bit set =
B label).  Smoothing resolves every crossing according to its label: A
joins slots (0,1) and (2,3), B joins (1,2) and (3,0).  The resulting
circles are traced over the diagram's port numbering
(`Diagram.ports`), turning at every crossing the way its smoothing
joins the slots, and each crossing leaves a scar (blue for A, red for
B) whose endpoints lie on one or two circles.

An enhanced state assigns a sign to every circle; it is stored as the
pair ``(labels, plus)`` of bitmasks, where bit c of ``plus`` is the sign
of the circle with canonical index c.  Circles are indexed by the
minimal edge label they contain, so equal smoothings compare bit-equal
across runs.

Degrees: i = number of B labels, theta = (#plus) - (#minus) circles,
j = i + theta.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Optional

from .diagram import Diagram


class SmoothingError(ValueError):
    """Invalid state or enhanced state for the given diagram."""


# translate table of a merge of circles lo < hi, under hi << 8 | lo:
# hi -> lo, every k > hi -> k - 1, the rest unchanged
_MERGES: dict[int, bytes] = {}


class Smoothing:
    """The circles-and-scars picture of one Kauffman state.

    The circles are walked over `Diagram.ports` (port p = 4 * crossing +
    slot).  A circle arriving at port p leaves its crossing through port
    ``p ^ 1`` (A label) or ``p ^ 3`` (B label) and arrives at the far
    end of that port's edge.  The circles are started from the edges'
    arrival ports in ascending label order, so circle k, the k-th
    walked, is numbered by its least edge.  Each step of the walk
    crosses one joined pair of slots, and records the circle as the
    pair's scar side.

    A state is walked only when it cannot be derived from a cached
    neighbour by one merge.  If the state u = labels ^ (1 << x) is
    already smoothed and its scar at x is a bichord on circles lo < hi,
    flipping x merges those two circles and touches no other.  The
    merged circle holds both least edges, so it takes index lo; the
    circles above hi each lose one index and the rest keep theirs (the
    rule `chaincomplex._cube_edges` uses for a merge).  Both pairs of x
    lie on the merged circle, and every other pair keeps its circle, so
    the state's `sides` is u's renumbered by that rule, one
    `bytes.translate`.  A neighbour whose `sides` is a tuple is passed
    over.

    A smoothing is flat: `sides` is bytes (a tuple above 256 circles),
    about 140 bytes a state at 14 crossings.  No data stored on a
    diagram refers back to it, so a CLI call's smoothings are freed on
    return.

    Attributes:
        circles: number of circles.
        sides: ``sides[2 x]`` and ``sides[2 x + 1]`` are the circles
            side0 and side1 that the scar of crossing x touches; side0
            runs through the joined pair containing slot 0.
    """

    __slots__ = ("circles", "sides")

    def __init__(self, diagram: Diagram, labels: int):
        cache = diagram._smooth_cache
        for x in range(diagram.n_total):
            u = cache.get(labels ^ (1 << x))
            if u is None:
                continue
            sides = u.sides
            lo, hi = sides[2 * x], sides[2 * x + 1]
            if lo == hi or type(sides) is tuple:
                continue
            if lo > hi:
                lo, hi = hi, lo
            table = _MERGES.get(hi << 8 | lo)
            if table is None:
                table = _MERGES[hi << 8 | lo] = (
                    bytes(range(hi)) + bytes((lo,)) + bytes(range(hi, 255)))
            self.circles = u.circles - 1
            self.sides = sides.translate(table)
            return
        far, _, arrivals = diagram.ports
        k = 0  # circles walked
        # joined pair t of crossing c is sides[2 c + t], -1 until walked;
        # from port p, t is bit 1 of the slot, xor bit 0 under B
        sides = [-1] * (len(far) >> 1)
        for _, p in arrivals:
            b = labels >> (p >> 2) & 1
            s = (p >> 1) ^ (p & b)
            if sides[s] >= 0:
                continue
            while sides[s] < 0:  # back at the start pair: circle closed
                sides[s] = k
                p = far[p ^ (b << 1 | 1)]
                b = labels >> (p >> 2) & 1
                s = (p >> 1) ^ (p & b)
            k += 1
        self.circles = k
        self.sides = bytes(sides) if k <= 256 else tuple(sides)

    def is_monochord(self, crossing: int) -> bool:
        return self.sides[2 * crossing] == self.sides[2 * crossing + 1]

    def circle_of(self, diagram: Diagram, labels: int, edge: int) -> int:
        """The circle through `edge`; `labels` is the state smoothed."""
        p = diagram.cached("edge_port", lambda: dict(diagram.ports[2]))[edge]
        return self.sides[(p >> 1) ^ (p & labels >> (p >> 2) & 1)]


def smooth(diagram: Diagram, labels: int) -> Smoothing:
    """Smooth the diagram according to the state; results are cached on
    the diagram and shared (read-only) between callers.  Only valid
    states enter the cache, so the range is checked on a miss only."""
    cache = diagram._smooth_cache
    sm = cache.get(labels)
    if sm is None:
        if labels < 0 or labels >> diagram.n_total:
            raise SmoothingError(f"state 0x{labels:x} does not match a "
                                 f"{diagram.n_total}-crossing diagram")
        sm = cache[labels] = Smoothing(diagram, labels)
    return sm


def state_A(diagram: Diagram) -> int:
    """The all-A state."""
    return 0


def state_B(diagram: Diagram) -> int:
    return (1 << diagram.n_total) - 1


def signed_state(diagram: Diagram) -> int:
    """A-labels on positive crossings, B-labels on negative ones."""
    mask = 0
    for ci, crossing in enumerate(diagram.crossings):
        if crossing.sign < 0:
            mask |= 1 << ci
    return mask


class EnhancedState(NamedTuple):
    """A Kauffman state with a sign on every circle (bit set = plus)."""

    labels: int
    plus: int


def degrees(diagram: Diagram, state: EnhancedState) -> tuple[int, int, int]:
    """(i, theta, j) of an enhanced state."""
    sm = smooth(diagram, state.labels)
    if state.plus >> sm.circles:
        raise SmoothingError("sign bitmask does not fit the circle count")
    i = bin(state.labels).count("1")
    plus = bin(state.plus).count("1")
    theta = 2 * plus - sm.circles
    return i, theta, i + theta


def enumerate_states(diagram: Diagram, i: int, j: int) -> list[EnhancedState]:
    """All enhanced states of degree (i, j), in canonical order.

    Order: label bitmask ascending, then sign bitmask ascending.
    """
    if i < 0 or i > diagram.n_total:
        return []
    states = _masks_with_popcount(diagram.n_total, i)
    return list(_enhancements(diagram, states, i, j))


def _enhancements(diagram: Diagram, states: Iterable[int], i: int,
                  j: int) -> Iterator[EnhancedState]:
    """The enhanced states of degree (i, j) over the given Kauffman
    states, each of which has i B labels: states in the order given,
    then sign bitmask ascending."""
    for labels in states:
        circles = smooth(diagram, labels).circles
        two_plus = circles + j - i
        if two_plus < 0 or two_plus % 2 or two_plus > 2 * circles:
            continue
        for plus in _masks_with_popcount(circles, two_plus // 2):
            yield EnhancedState(labels, plus)


def _masks_with_popcount(width: int, k: int) -> Iterator[int]:
    """Bitmasks of the given width with exactly k bits set, ascending."""
    if k < 0 or k > width:
        return
    if k == 0:
        yield 0
        return
    mask = (1 << k) - 1
    limit = 1 << width
    while mask < limit:
        yield mask
        # Gosper's hack: next mask with the same popcount
        low = mask & -mask
        ripple = mask + low
        mask = ripple | ((mask ^ ripple) >> (low.bit_length() + 1))


class Chain:
    """An integer linear combination of enhanced states of fixed (i, j).

    Zero coefficients are dropped; two chains are equal iff their
    coefficient maps are equal.  Degree bookkeeping is enforced: all
    member states must live in the same (i, j).
    """

    __slots__ = ("diagram", "i", "j", "coeffs")

    def __init__(self, diagram: Diagram, i: int, j: int,
                 coeffs: Optional[dict[EnhancedState, int]] = None,
                 check: bool = True):
        self.diagram = diagram
        self.i = i
        self.j = j
        coeffs = coeffs or {}
        if not check:  # the keys are EnhancedStates of degree (i, j)
            self.coeffs = {s: c for s, c in coeffs.items() if c}
            return
        self.coeffs: dict[EnhancedState, int] = {}
        for state, c in coeffs.items():
            if c == 0:
                continue
            state = EnhancedState(*state)
            di, _, dj = degrees(diagram, state)
            if (di, dj) != (i, j):
                raise SmoothingError(
                    f"state at degree ({di},{dj}) in a ({i},{j}) chain")
            self.coeffs[state] = c

    def is_zero(self) -> bool:
        return not self.coeffs

    def __len__(self) -> int:
        return len(self.coeffs)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Chain) and self.diagram == other.diagram
                and self.coeffs == other.coeffs
                and (self.is_zero() or (self.i, self.j) == (other.i, other.j)))

    def __hash__(self):
        if not self.coeffs:
            return hash(())  # zero chains compare equal across degrees
        return hash((self.i, self.j, frozenset(self.coeffs.items())))

    def _compat(self, other: "Chain") -> None:
        if self.diagram != other.diagram:
            raise SmoothingError("chains over different diagrams")
        if not self.is_zero() and not other.is_zero() and \
                (self.i, self.j) != (other.i, other.j):
            raise SmoothingError(
                f"degree mismatch: ({self.i},{self.j}) vs ({other.i},{other.j})")

    def __add__(self, other: "Chain") -> "Chain":
        self._compat(other)
        coeffs = dict(self.coeffs)
        for s, c in other.coeffs.items():
            c2 = coeffs.get(s, 0) + c
            if c2:
                coeffs[s] = c2
            else:
                coeffs.pop(s, None)
        return Chain(self.diagram, self.i, self.j, coeffs, check=False)

    def __neg__(self) -> "Chain":
        return self * -1

    def __sub__(self, other: "Chain") -> "Chain":
        return self + (-other)

    def __mul__(self, scalar: int) -> "Chain":
        if scalar == 0:
            return Chain(self.diagram, self.i, self.j)
        return Chain(self.diagram, self.i, self.j,
                     {s: scalar * c for s, c in self.coeffs.items()},
                     check=False)

    __rmul__ = __mul__

    def coefficient(self, state: EnhancedState) -> int:
        return self.coeffs.get(EnhancedState(*state), 0)

    def to_json(self) -> list[list]:
        return [[format(s.labels, "x"), format(s.plus, "x"), c]
                for s, c in sorted(self.coeffs.items())]

    def __repr__(self):
        if self.is_zero():
            return f"Chain(0; i={self.i}, j={self.j})"
        terms = ", ".join(f"{c}*({s.labels:#x},{s.plus:#x})"
                          for s, c in sorted(self.coeffs.items()))
        return f"Chain({terms}; i={self.i}, j={self.j})"
