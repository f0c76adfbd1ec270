"""Oriented link diagrams as planar diagram (PD) codes.

A diagram is a list of crossings, each holding four edge labels in
counterclockwise order starting at the incoming under-strand (the usual
PD convention, as on the Knot Atlas).  Edge orientations are inferred
from the code; every crossing then carries a sign, and the writhe is
``w = p - n``.

Besides the parser, this module builds the standard diagram families
used throughout the package: pretzel diagrams ``P(a_1, ..., a_n)``,
alternating-box rational diagrams, closures of three-strand braids and
the monocircular diagrams ``D(h1, h2) = P(-1, ..., -1, h2)``.

Every walk over a diagram runs on one flat port numbering, built by
`_ports`: port p = 4 * crossing + slot, and ``far[p]`` is the port at
the other end of its edge.  A strand goes straight on (``p ^ 2``), a
face turns to the next slot counterclockwise, and the circles of a
smoothing (`smoothing.Smoothing`) turn the way each crossing's label
joins its slots.

Crossings are totally ordered (construction order); `reorder_crossings`
is the only way to change the order.  Diagrams are immutable after
construction.
"""

from __future__ import annotations

import json
import re
from typing import Mapping, NamedTuple, Optional, Sequence


class DiagramError(ValueError):
    """Invalid diagram data (malformed PD code, bad family parameters...)."""


class Crossing(NamedTuple):
    edges: tuple[int, int, int, int]  # slots 0..3, CCW, slot 0 = incoming under
    sign: int  # +1 or -1


class Diagram:
    """An oriented link diagram with totally ordered crossings.

    Instances should be produced by `parse_pd`, the family constructors
    or `reorder_crossings`, never by mutating an existing diagram.
    `ports` holds the read-only ``(far, edge_at, arrivals)`` of `_ports`.
    Everything else derived from the diagram is built on first use and
    kept through `cached`; the smoothings keep their own map, read by
    `smoothing.smooth`.
    """

    __slots__ = (
        "crossings",
        "components",
        "family_negative",
        "ports",
        "_smooth_cache",
        "_store",
    )

    def __init__(self, crossings: tuple[Crossing, ...],
                 components: tuple[tuple[int, ...], ...],
                 family_negative: Optional[int] = None):
        self.crossings = crossings
        self.components = components
        # bitmask of crossings in negative twist regions, set by the family
        # constructors; component orientations can flip crossing signs on
        # multi-component links, so the entry signs are kept explicitly
        self.family_negative = family_negative
        self.ports = _ports([cr.edges for cr in crossings])
        self._smooth_cache: dict[int, object] = {}
        self._store: dict = {}

    def cached(self, key, build):
        """The derived data under `key`: `build()` on first use, kept
        for the life of the diagram.  Nothing is kept when `build`
        raises."""
        store = self._store
        if key not in store:
            store[key] = build()
        return store[key]

    # -- basic data -------------------------------------------------------

    @property
    def n_total(self) -> int:
        return len(self.crossings)

    @property
    def edges(self) -> frozenset[int]:
        return frozenset(self.ports[1])

    def stats(self) -> tuple[int, int, int]:
        """Return (p, n, w): positive count, negative count, writhe."""
        p = sum(1 for c in self.crossings if c.sign > 0)
        n = self.n_total - p
        return p, n, p - n

    def __eq__(self, other) -> bool:
        return isinstance(other, Diagram) and self.crossings == other.crossings

    def __hash__(self):
        return hash(self.crossings)

    def __repr__(self):
        terms = ",".join("X(%d,%d,%d,%d)" % c.edges for c in self.crossings)
        return f"Diagram[{terms}]"

    def pd_text(self) -> str:
        return ",".join("X(%d,%d,%d,%d)" % c.edges for c in self.crossings)

    # -- faces (planar structure carried by the CCW slot convention) ------

    def faces(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Faces of the underlying 4-valent planar map.

        Each face is the orbit of the corner-walk: arrive at port p,
        leave through the next slot counterclockwise, port
        ``p & ~3 | (p + 1) & 3``.  A face is recorded as the tuple of its
        arrival ports, each as (crossing, slot).  Every orbit starts at
        its least port, so a face begins at its least crossing.
        """
        def walk():
            far = self.ports[0]
            seen = [False] * len(far)
            faces = []
            for start in range(len(far)):
                orbit = []
                p = start
                while not seen[p]:
                    seen[p] = True
                    orbit.append(divmod(p, 4))
                    p = far[p & ~3 | (p + 1) & 3]
                if orbit:
                    faces.append(tuple(orbit))
            return tuple(faces)
        return self.cached("faces", walk)

    def bigons(self) -> dict[tuple[int, int], list[tuple[int, int, frozenset[int]]]]:
        """Bigon faces, keyed by the crossing pair (x, y) with x < y.

        The value records, per bigon face, the corner slots at either
        crossing and the two boundary edges: ``(slot_x, slot_y, {e, f})``
        where the face arrives at crossing x in slot slot_x.  A face
        begins at its least crossing, so its corners come as (x, y).
        """
        out: dict[tuple[int, int], list[tuple[int, int, frozenset[int]]]] = {}
        for face in self.faces():
            if len(face) != 2:
                continue
            (cx, sx), (cy, sy) = face
            if cx == cy:
                continue
            e = self.crossings[cx].edges[sx]
            f = self.crossings[cy].edges[sy]
            out.setdefault((cx, cy), []).append((sx, sy, frozenset((e, f))))
        return out

    def mirror(self) -> "Diagram":
        """Mirror image: reverse the cyclic order of every crossing."""
        quads = [(a, d, c, b) for (a, b, c, d) in
                 (c.edges for c in self.crossings)]
        return _finish(quads, mode="pd")


# ---------------------------------------------------------------------------
# assembly: quadruples -> oriented, sign-decorated Diagram
# ---------------------------------------------------------------------------


def _ports(quads: Sequence[Sequence[int]]) -> tuple[list[int], list[int],
                                                    list[tuple[int, int]]]:
    """The flat port numbering of the quadruples, port p = 4 * crossing +
    slot; every label must occur exactly twice.

    Returns ``(far, edge_at, arrivals)``: `far[p]` is the port at the
    other end of the edge at port p, `edge_at[p]` the label of that edge,
    and `arrivals` the pairs (edge, arrival port) in ascending label
    order, the arrival port being the later of the edge's two ports.
    """
    edge_at = [e for q in quads for e in q]
    far = [0] * len(edge_at)
    first: dict[int, int] = {}
    arrivals = []
    for p, e in enumerate(edge_at):
        p0 = first.setdefault(e, p)
        if p0 != p:
            far[p], far[p0] = p0, p
            arrivals.append((e, p))
    arrivals.sort()
    return far, edge_at, arrivals


def _finish(quads: Sequence[tuple[int, int, int, int]],
            mode: str = "pd",
            directed: Optional[Mapping[int, int]] = None,
            family_negative: Optional[int] = None) -> Diagram:
    """Build a Diagram from raw quadruples.

    mode="pd":   slot 0 of every quadruple is already the incoming
                 under-strand; orientations are recovered from these
                 constraints and checked for consistency.
    mode="auto": slot 0 only marks the under axis; each component is
                 oriented deterministically (or following `directed`,
                 a map edge -> head port) and crossings are rotated by
                 two slots where needed.

    Components are traced from the edges in ascending label order, so
    each starts at its least edge and they come in the order of their
    least edges.  A strand arriving at port p goes straight on through
    port ``p ^ 2``.
    """
    quads = [tuple(int(x) for x in q) for q in quads]
    for q in quads:
        if len(q) != 4:
            raise DiagramError(f"malformed quadruple {q!r}: expected 4 edge labels")
    counts: dict[int, int] = {}
    for q in quads:
        for e in q:
            counts[e] = counts.get(e, 0) + 1
    bad = sorted(e for e, k in counts.items() if k != 2)
    if bad:
        raise DiagramError(f"edge labels {bad} do not appear exactly twice")

    far, edge_at, arrivals = _ports(quads)
    components: list[tuple[int, ...]] = []
    head: dict[int, int] = {}  # port each edge points into
    for e0, start in arrivals:
        if e0 in head:
            continue
        cycle = [start]  # arrival ports along the strand
        p = far[start ^ 2]
        while p != start:
            cycle.append(p)
            p = far[p ^ 2]
        if mode == "pd":
            # slot 0 is the incoming under end, slot 2 the outgoing one
            votes = {p & 3 == 0 for p in cycle if not p & 1}
        else:
            votes = {p == directed[edge_at[p]] for p in cycle
                     if edge_at[p] in directed}
        if len(votes) > 1:
            raise DiagramError(
                "inconsistent orientation inference on component containing "
                f"edge {e0}")
        edges = [edge_at[p] for p in cycle]
        if votes:
            forward = votes.pop()
        else:
            forward = mode != "pd" or _label_forward(edges)
        if not forward:
            edges.reverse()
        m = edges.index(min(edges))
        components.append(tuple(edges[m:] + edges[:m]))
        for p in cycle:
            head[edge_at[p]] = p if forward else far[p]

    crossings = []
    for ci, q in enumerate(quads):
        p = 4 * ci
        under_in0 = head[q[0]] == p
        if mode == "pd" and not under_in0:
            raise DiagramError(
                f"inconsistent orientation inference at crossing {ci + 1}")
        over_in1, over_in3 = head[q[1]] == p + 1, head[q[3]] == p + 3
        if over_in1 == over_in3:
            raise DiagramError(
                f"inconsistent over-strand orientation at crossing {ci + 1}")
        if under_in0:
            crossings.append(Crossing(q, +1 if over_in3 else -1))
        else:  # rotate by two slots: slot 0 becomes the incoming under end
            crossings.append(Crossing(q[2:] + q[:2], +1 if over_in1 else -1))

    diagram = Diagram(tuple(crossings), tuple(components), family_negative)
    _check_planar(diagram)
    return diagram


def _check_planar(diagram: Diagram) -> None:
    """Euler-characteristic planarity check: a code whose face count is
    wrong cannot come from a planar drawing, and the face-based
    machinery downstream would silently misbehave.  Each connected
    piece drawn on its own sphere has n_piece + 2 faces, so a planar
    diagram of n crossings in `pieces` pieces has n + 2 * pieces."""
    n = diagram.n_total
    if n == 0:
        return
    # connected pieces of the 4-valent graph, crossing c having ports 4c..4c+3
    far = diagram.ports[0]
    seen = [False] * n
    pieces = 0
    for c0 in range(n):
        if seen[c0]:
            continue
        pieces += 1
        seen[c0] = True
        stack = [c0]
        while stack:
            c = stack.pop()
            for p in far[4 * c:4 * c + 4]:
                if not seen[p >> 2]:
                    seen[p >> 2] = True
                    stack.append(p >> 2)
    if len(diagram.faces()) != n + 2 * pieces:
        raise DiagramError(
            "PD code is not planar (face count "
            f"{len(diagram.faces())}, expected {n + 2 * pieces})")


def _label_forward(edges: list[int]) -> bool:
    """Fallback orientation for components with no under-passage.

    Orient so that the minimal edge label is followed by its smaller
    neighbour label (for sequentially labelled codes this is label + 1).
    """
    i = edges.index(min(edges))
    return edges[(i + 1) % len(edges)] <= edges[i - 1]


# ---------------------------------------------------------------------------
# PD code parsing
# ---------------------------------------------------------------------------

_PD_TERM = re.compile(r"[Xx]\s*[\(\[]([^\)\]]*)[\)\]]")


def parse_pd(text: str) -> Diagram:
    """Parse a PD code.

    Accepts comma separated ``X(a,b,c,d)`` terms (brackets also allowed,
    an optional ``PD[...]`` wrapper is ignored) or a JSON array of
    4-element integer arrays.  Edge labels are 1-based; orientations are
    inferred from the code.
    """
    text = text.strip()
    if not text:
        raise DiagramError("empty PD code")
    quads: list[tuple[int, ...]] = []
    if text[0] in "[{":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DiagramError(f"invalid JSON PD code: {exc}") from None
        if not isinstance(data, list):
            raise DiagramError("JSON PD code must be an array of quadruples")
        for q in data:
            if not isinstance(q, list) or len(q) != 4 or \
                    not all(isinstance(x, int) for x in q):
                raise DiagramError(f"malformed quadruple {q!r}")
            quads.append(tuple(q))
    else:
        terms = _PD_TERM.findall(text)
        leftover = _PD_TERM.sub("", text)
        leftover = re.sub(r"(?i)\bPD\b", "", leftover)
        if re.search(r"[0-9A-Za-z]", leftover):
            raise DiagramError(f"unrecognised PD syntax near {leftover.strip()!r}")
        if not terms:
            raise DiagramError("no X(a,b,c,d) terms found")
        for body in terms:
            parts = [p.strip() for p in body.split(",")]
            if len(parts) != 4 or not all(re.fullmatch(r"-?\d+", p) for p in parts):
                raise DiagramError(f"malformed quadruple X({body})")
            quads.append(tuple(int(p) for p in parts))
    return _finish(quads, mode="pd")


# ---------------------------------------------------------------------------
# family constructors
# ---------------------------------------------------------------------------


class _Builder:
    """Incremental diagram assembly used by the family constructors.

    Crossings are created with their under axis on slots 0-2 (slot 0 an
    arbitrary end of it); edges are allocated on demand when two ports
    are wired together.  `finish` orients components and normalises
    slot 0 to the incoming under end.
    """

    def __init__(self):
        self.slots: list[list[Optional[int]]] = []
        self.next_edge = 1
        self.negative_mask = 0
        self.directed: dict[int, int] = {}  # edge -> head port

    def crossing(self, kind: str) -> int:
        """Add a crossing; kind is 'v+'/'v-' (vertical band crossing with
        A-smoothing the pass-through resp. the hairpin one) or 'h+'/'h-'
        for horizontal bands.  Returns the crossing index."""
        self.slots.append([None, None, None, None])
        ci = len(self.slots) - 1
        if kind.endswith("-"):
            self.negative_mask |= 1 << ci
        return ci

    def port(self, crossing: int, corner: str, kind: str) -> tuple[int, int]:
        """Map a geometric corner name to a slot for the given crossing kind.

        Corners: vertical bands use TL/TR/BL/BR, horizontal bands use
        WT/WB/ET/EB (west-top, west-bottom, east-top, east-bottom).
        """
        table = {
            # under axis TL-BR; quadruple CCW from TL: (TL, BL, BR, TR)
            "v+": {"TL": 0, "BL": 1, "BR": 2, "TR": 3},
            # under axis TR-BL; CCW from TR: (TR, TL, BL, BR)
            "v-": {"TR": 0, "TL": 1, "BL": 2, "BR": 3},
            # under axis ET-WB; CCW from ET: (ET, WT, WB, EB)
            "h+": {"ET": 0, "WT": 1, "WB": 2, "EB": 3},
            # under axis WT-EB; CCW from WT: (WT, WB, EB, ET)
            "h-": {"WT": 0, "WB": 1, "EB": 2, "ET": 3},
        }
        return (crossing, table[kind][corner])

    def wire(self, a: tuple[int, int], b: tuple[int, int],
             forward: bool = False) -> int:
        """Connect two ports with a fresh edge; `forward` marks the edge
        as oriented from `a` to `b` (used by braid closures)."""
        e = self.next_edge
        self.next_edge += 1
        for (c, s) in (a, b):
            if self.slots[c][s] is not None:
                raise DiagramError(f"slot {(c, s)} wired twice")
        self.slots[a[0]][a[1]] = e
        self.slots[b[0]][b[1]] = e
        if forward:
            self.directed[e] = 4 * b[0] + b[1]
        return e

    def finish(self) -> Diagram:
        quads = []
        for ci, q in enumerate(self.slots):
            if any(x is None for x in q):
                raise DiagramError(f"crossing {ci + 1} has unwired slots")
            quads.append(tuple(q))
        return _finish(quads, mode="auto", directed=self.directed,
                       family_negative=self.negative_mask)


def _twist_band(b: _Builder, count: int, kind: str) -> dict[str, tuple[int, int]]:
    """A vertical twist band of `count` crossings, top to bottom.

    Returns its four outer ports NW/NE/SW/SE.
    """
    cs = [b.crossing(kind) for _ in range(count)]
    for m in range(count - 1):
        b.wire(b.port(cs[m], "BL", kind), b.port(cs[m + 1], "TL", kind))
        b.wire(b.port(cs[m], "BR", kind), b.port(cs[m + 1], "TR", kind))
    return {
        "NW": b.port(cs[0], "TL", kind), "NE": b.port(cs[0], "TR", kind),
        "SW": b.port(cs[-1], "BL", kind), "SE": b.port(cs[-1], "BR", kind),
    }


def pretzel(entries: Sequence[int]) -> Diagram:
    """Standard pretzel diagram P(a_1, ..., a_n).

    Vertical twist bands side by side, |a_l| crossings each, numbered
    band by band and top to bottom.  Positive entries twist so that the
    all-A smoothing runs straight through the band (forming a ladder);
    the convention is pinned by P(-1, 3), whose all-A smoothing has one
    height-1 and one height-3 ladder.
    """
    entries = [int(a) for a in entries]
    if not entries:
        raise DiagramError("pretzel needs at least one entry")
    if any(a == 0 for a in entries):
        raise DiagramError("pretzel entries must be nonzero")
    b = _Builder()
    bands = [_twist_band(b, abs(a), "v+" if a > 0 else "v-") for a in entries]
    n = len(bands)
    for l in range(n - 1):
        b.wire(bands[l]["NE"], bands[l + 1]["NW"])
        b.wire(bands[l]["SE"], bands[l + 1]["SW"])
    if n == 1:
        b.wire(bands[0]["NW"], bands[0]["NE"])
        b.wire(bands[0]["SW"], bands[0]["SE"])
    else:
        b.wire(bands[0]["NW"], bands[-1]["NE"])
        b.wire(bands[0]["SW"], bands[-1]["SE"])
    return b.finish()


def monocircular(h1: int, h2: int) -> Diagram:
    """Monocircular diagram D(h1, h2) = P(-1, ..., -1, h2) with h1 ones.

    Its all-A smoothing has a single circle and two blue ladders of
    heights h1 and h2.
    """
    if h1 < 1 or h2 < 1:
        raise DiagramError("monocircular parameters must be >= 1")
    return pretzel([-1] * h1 + [h2])


def rational(entries: Sequence[int]) -> Diagram:
    """Standard alternating-box rational diagram D(a_1, ..., a_m).

    Boxes alternate vertical / horizontal starting with a vertical one;
    box i has |a_i| crossings.  For m >= 2 the tangle is closed by the
    two outer arcs NW-SW and NE-SE; this is the closure under which, for
    all-positive entries, the all-A smoothing groups the blue scars into
    m ladders of heights a_1..a_m, each with periphery number one.  A
    single box is closed by the top and bottom arcs instead (the side
    closure would wrap the twist region into a closed annulus).
    """
    entries = [int(a) for a in entries]
    if not entries:
        raise DiagramError("rational needs at least one entry")
    if any(a == 0 for a in entries):
        raise DiagramError("rational entries must be nonzero")
    b = _Builder()

    def vbox(count, positive):
        return _twist_band(b, count, "v+" if positive else "v-")

    def hbox(count, positive):
        kind = "h+" if positive else "h-"
        cs = [b.crossing(kind) for _ in range(count)]
        for m in range(count - 1):
            b.wire(b.port(cs[m], "ET", kind), b.port(cs[m + 1], "WT", kind))
            b.wire(b.port(cs[m], "EB", kind), b.port(cs[m + 1], "WB", kind))
        return {
            "WT": b.port(cs[0], "WT", kind), "WB": b.port(cs[0], "WB", kind),
            "ET": b.port(cs[-1], "ET", kind), "EB": b.port(cs[-1], "EB", kind),
        }

    first = vbox(abs(entries[0]), entries[0] > 0)
    nw, ne = first["NW"], first["NE"]
    sw, se = first["SW"], first["SE"]
    for i, a in enumerate(entries[1:], start=2):
        if i % 2 == 0:  # horizontal box on the right
            box = hbox(abs(a), a > 0)
            b.wire(ne, box["WT"])
            b.wire(se, box["WB"])
            ne, se = box["ET"], box["EB"]
        else:  # vertical box at the bottom
            box = vbox(abs(a), a > 0)
            b.wire(sw, box["NW"])
            b.wire(se, box["NE"])
            sw, se = box["SW"], box["SE"]
    if len(entries) == 1:
        b.wire(nw, ne)
        b.wire(sw, se)
    elif len(entries) % 2:
        # last box vertical: close along the sides
        b.wire(nw, sw)
        b.wire(ne, se)
    else:
        # last box horizontal: close over the top and under the bottom
        b.wire(nw, ne)
        b.wire(sw, se)
    return b.finish()


def braid3_closure(exponents: Sequence[int]) -> Diagram:
    """Closure of the 3-braid sigma_1^{a_1} sigma_2^{a_2} ... .

    Odd positions are powers of sigma_1 (strands 1-2), even positions
    powers of sigma_2 (strands 2-3); the word is read left to right and
    crossings are numbered in that order.  All strands are oriented
    along the braid, so an all-positive word yields only positive
    crossings.
    """
    exponents = [int(a) for a in exponents]
    if not exponents:
        raise DiagramError("empty braid word")
    if any(a == 0 for a in exponents):
        raise DiagramError("braid exponents must be nonzero")
    b = _Builder()
    # dangling[i]: the lower end of strand position i so far; None until the
    # strand is first used, in which case we remember the top port instead.
    dangling: list[Optional[tuple[int, int]]] = [None, None, None]
    tops: list[Optional[tuple[int, int]]] = [None, None, None]
    for pos_word, a in enumerate(exponents):
        i = 0 if pos_word % 2 == 0 else 1  # strand pair (i, i+1)
        kind = "v+" if a > 0 else "v-"
        for _ in range(abs(a)):
            c = b.crossing(kind)
            for k, corner_top, corner_bot in ((i, "TL", "BL"), (i + 1, "TR", "BR")):
                top_port = b.port(c, corner_top, kind)
                if dangling[k] is None:
                    tops[k] = top_port
                else:
                    b.wire(dangling[k], top_port, forward=True)
                dangling[k] = b.port(c, corner_bot, kind)
    for k in range(3):
        if dangling[k] is None:
            raise DiagramError("braid word leaves a strand untouched")
        b.wire(dangling[k], tops[k], forward=True)
    return b.finish()


def reorder_crossings(diagram: Diagram, permutation: Sequence[int]) -> Diagram:
    """Same diagram with crossings reordered.

    ``permutation[k]`` is the old (0-based) index of the crossing placed
    at new position k; it must be a bijection on 0..n-1.
    """
    perm = list(permutation)
    if sorted(perm) != list(range(diagram.n_total)):
        raise DiagramError("not a bijection on crossing indices")
    crossings = tuple(diagram.crossings[old] for old in perm)
    fam = diagram.family_negative
    if fam is not None:
        fam = sum((fam >> old & 1) << new for new, old in enumerate(perm))
    return Diagram(crossings, diagram.components, fam)
