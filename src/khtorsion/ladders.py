"""Blue ladders, periphery numbers and the torsion-pattern hypotheses.

A ladder of a smoothed diagram is a maximal run of parallel blue scars
(steps) joining two arcs (rails).  Combinatorially, two blue crossings
are consecutive steps when they bound a common bigon face of the
diagram whose corner sits, at both crossings, on a pair of slots that
the B-smoothing joins (equivalently: neither A-smoothing joins the two
bigon edges to each other).  For the diagram families in this package
this agrees with the geometric maximal-disc picture; the combinatorial
criterion is the definition used throughout.

The periphery number of a ladder counts the outer circles obtained by
cutting all the ladders of the state at once: relabel every step of
every ladder to B, count the distinct circles incident to this ladder's
step scars, and subtract (height - 1); the result is 1 or 2.  It is
unchanged by relabelings away from the steps that keep the ladder a
ladder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .diagram import Diagram, reorder_crossings
from .smoothing import smooth


class LadderError(ValueError):
    """Ladder structure outside the supported combinatorics."""


@dataclass(frozen=True)
class Ladder:
    """A maximal run of parallel blue scars.

    steps: crossing indices ordered along the ladder, starting from the
        end with the minimal crossing index.
    gap_edges: for each consecutive step pair, the two bigon edges
        between them.
    periphery_number: 1 or 2, counted with every ladder of the state
        cut (see `periphery_number`).
    """

    steps: tuple[int, ...]
    gap_edges: tuple[frozenset[int], ...]
    periphery_number: int

    @property
    def height(self) -> int:
        return len(self.steps)

    def step_mask(self) -> int:
        mask = 0
        for s in self.steps:
            mask |= 1 << s
        return mask

    def to_json(self) -> dict:
        return {"steps": [s + 1 for s in self.steps],
                "height": self.height,
                "periphery": self.periphery_number}


def _blue_adjacencies(diagram: Diagram, labels: int):
    """Pairs of blue crossings joined by a ladder bigon, with the bigon
    edges; doubled bigons yield one adjacency."""
    adj: dict[tuple[int, int], list[frozenset[int]]] = {}
    for (x, y), corners in diagram.bigons().items():
        if labels >> x & 1 or labels >> y & 1:
            continue
        for sx, sy, edges in corners:
            if sx % 2 == 1 and sy % 2 == 1:
                adj.setdefault((x, y), []).append(edges)
    return adj


def detect_ladders(diagram: Diagram, labels: int) -> tuple[Ladder, ...]:
    """Partition the blue scars of the state into maximal ladders.

    Ladders are ordered by their minimal crossing index; within one
    ladder the steps start from the end carrying the smaller index.
    """
    blue = [x for x in range(diagram.n_total) if not labels >> x & 1]
    adj = _blue_adjacencies(diagram, labels)
    nbr: dict[int, list[int]] = {x: [] for x in blue}
    for (x, y) in adj:
        nbr[x].append(y)
        nbr[y].append(x)

    seen: set[int] = set()
    raw = []
    cut_mask = 0
    for x0 in blue:
        if x0 in seen:
            continue
        comp = _component(x0, nbr)
        seen.update(comp)
        steps = _path_order(comp, nbr)
        gaps = []
        for a, b in zip(steps, steps[1:]):
            key = (min(a, b), max(a, b))
            gaps.append(min(adj[key], key=sorted))
        raw.append((tuple(steps), tuple(gaps)))
        for s in steps:
            cut_mask |= 1 << s
    ladders = [Ladder(steps, gaps,
                      _periphery(diagram, labels | cut_mask, steps))
               for steps, gaps in raw]
    ladders.sort(key=lambda l: min(l.steps))
    return tuple(ladders)


def _component(x0: int, nbr: dict[int, list[int]]) -> list[int]:
    comp = [x0]
    seen = {x0}
    stack = [x0]
    while stack:
        x = stack.pop()
        for y in nbr[x]:
            if y not in seen:
                seen.add(y)
                comp.append(y)
                stack.append(y)
    return comp


def _path_order(comp: list[int], nbr: dict[int, list[int]]) -> list[int]:
    if len(comp) == 1:
        return comp
    degrees = {x: len(set(nbr[x]) & set(comp)) for x in comp}
    ends = sorted(x for x, d in degrees.items() if d == 1)
    if len(comp) == 2 and not ends:
        # two steps joined by a doubled bigon (degenerate two-crossing circle)
        return sorted(comp)
    if len(ends) != 2 or any(d > 2 for d in degrees.values()):
        raise LadderError(
            f"blue scars {sorted(c + 1 for c in comp)} do not form a ladder "
            "(branched or closed run of parallel scars)")
    start = ends[0]
    order = [start]
    prev = None
    cur = start
    while len(order) < len(comp):
        nxt = [y for y in nbr[cur] if y != prev and y in comp]
        nxt = sorted(set(nxt))
        if not nxt:
            raise LadderError("broken ladder path")
        prev, cur = cur, nxt[0]
        order.append(cur)
    return order


def _periphery(diagram: Diagram, cut_labels: int, steps: tuple[int, ...]) -> int:
    """Periphery count in the all-ladders-cut state."""
    sm = smooth(diagram, cut_labels)
    incident = set()
    for s in steps:
        incident.update(sm.scar_sides[s])
    periphery = len(incident) - (len(steps) - 1)
    if periphery not in (1, 2):
        raise LadderError(
            f"steps {[s + 1 for s in steps]} are not a ladder: "
            f"periphery count {periphery}")
    return periphery


def periphery_number(diagram: Diagram, labels: int, ladder: Ladder) -> int:
    """Periphery number of a ladder of this state.

    Every ladder of the state is cut (its steps relabelled B) and the
    circles incident to this ladder's steps are counted.
    """
    cut = labels
    for other in detect_ladders(diagram, labels):
        cut |= other.step_mask()
    return _periphery(diagram, cut, ladder.steps)


def break_ladders(diagram: Diagram, labels: int,
                  ladders: Sequence[Ladder]) -> tuple[int, int]:
    """Turn the first step of every ladder red.

    Returns (s1 labels, |s1 D|).
    """
    s1 = labels
    for ladder in ladders:
        s1 |= 1 << ladder.steps[0]
    return s1, smooth(diagram, s1).circles


@dataclass
class HypothesisReport:
    """Outcome of checking the torsion-pattern hypotheses for a state.

    route is "theorem", "corollary" or "rejected"; the per-item flags
    keep the evidence.  For the corollary route, s0_prime is the state
    with every step of each periphery-2 ladder turned red.
    """

    diagram: Diagram
    s0: int
    ladders: tuple[Ladder, ...]
    grouped_ok: bool          # every blue scar in a ladder of height >= 2
    all_periphery_one: bool   # theorem item 1
    has_height3: bool         # theorem item 2
    red_scars_bichord: bool   # theorem item 3 / corollary item 2
    has_p1_height3: bool      # corollary item 1
    s1: int
    s1_circles: int
    i0: int
    failures: list[str] = field(default_factory=list)
    s0_prime: Optional[int] = None

    @property
    def accepted_theorem(self) -> bool:
        return (self.grouped_ok and self.all_periphery_one
                and self.has_height3 and self.red_scars_bichord)

    @property
    def accepted_corollary(self) -> bool:
        return (self.grouped_ok and self.has_p1_height3
                and self.red_scars_bichord)

    @property
    def route(self) -> str:
        if self.accepted_theorem:
            return "theorem"
        if self.accepted_corollary:
            return "corollary"
        return "rejected"

    def heights(self) -> tuple[int, ...]:
        return tuple(l.height for l in self.ladders)

    def mu_heights(self) -> tuple[int, ...]:
        """Heights of the ladders that take a subset size mu: the
        periphery-one ladders.  On the theorem route these are all the
        ladders; on the corollary route the periphery-two ladders are
        turned red and take none."""
        return tuple(l.height for l in self.ladders
                     if l.periphery_number == 1)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "route": self.route,
            "ladders": [l.to_json() for l in self.ladders],
            "s0": format(self.s0, "x"),
            "s1": format(self.s1, "x"),
            "s1_circles": self.s1_circles,
            "i0": self.i0,
            "accepted_theorem": self.accepted_theorem,
            "accepted_corollary": self.accepted_corollary,
            "failures": list(self.failures),
            "s0_prime": None if self.s0_prime is None
                        else format(self.s0_prime, "x"),
        }


def check_hypotheses(diagram: Diagram, labels: int) -> HypothesisReport:
    """Check the main-theorem and relaxed-corollary hypotheses for s0."""
    ladders = detect_ladders(diagram, labels)
    failures = []

    short = [l for l in ladders if l.height < 2]
    grouped_ok = not short
    if short:
        failures.append(
            "height-1 ladder at crossing(s) "
            + ", ".join(str(l.steps[0] + 1) for l in short)
            + ": every blue ladder must have height >= 2")

    all_p1 = all(l.periphery_number == 1 for l in ladders)
    if not all_p1:
        bad = [l for l in ladders if l.periphery_number != 1]
        failures.append(
            "ladder(s) with periphery number two at steps "
            + "; ".join(str([s + 1 for s in l.steps]) for l in bad))

    has_h3 = any(l.height >= 3 for l in ladders)
    if not has_h3:
        failures.append("no ladder of height >= 3")

    has_p1_h3 = any(l.periphery_number == 1 and l.height >= 3 for l in ladders)
    if not has_p1_h3 and has_h3:
        failures.append("no ladder with periphery number one and height >= 3")

    s1, s1_circles = break_ladders(diagram, labels, ladders)
    sm1 = smooth(diagram, s1)
    red = [x for x in range(diagram.n_total) if labels >> x & 1]
    mono = [x for x in red if sm1.is_monochord(x)]
    red_ok = not mono
    if mono:
        failures.append(
            "red scar(s) at crossing(s) "
            + ", ".join(str(x + 1) for x in mono)
            + " stay monochords after breaking the ladders")

    i0 = len(red)
    s0_prime = None
    if any(l.periphery_number == 2 for l in ladders):
        s0_prime = labels
        for l in ladders:
            if l.periphery_number == 2:
                s0_prime |= l.step_mask()

    return HypothesisReport(
        diagram=diagram, s0=labels, ladders=ladders,
        grouped_ok=grouped_ok, all_periphery_one=all_p1,
        has_height3=has_h3, red_scars_bichord=red_ok,
        has_p1_height3=has_p1_h3,
        s1=s1, s1_circles=s1_circles, i0=i0,
        failures=failures, s0_prime=s0_prime)


def ladder_first_permutation(diagram: Diagram,
                             ladders: Sequence[Ladder]) -> list[int]:
    """Crossing order putting ladder steps first: ladder by ladder in
    step order, then the remaining crossings in their current order."""
    perm = []
    used = set()
    for ladder in ladders:
        perm.extend(ladder.steps)
        used.update(ladder.steps)
    perm.extend(x for x in range(diagram.n_total) if x not in used)
    return perm


def ladder_first(diagram: Diagram,
                 labels: int) -> tuple[Diagram, tuple[int, ...], int]:
    """Reorder the crossings along the ladders of the state `labels`.

    Returns the reordered diagram, the permutation (``perm[k]`` = old
    index of new crossing k) and `labels` relabelled to the new order.
    """
    perm = ladder_first_permutation(diagram, detect_ladders(diagram, labels))
    relabelled = sum((labels >> old & 1) << new for new, old in enumerate(perm))
    return reorder_crossings(diagram, perm), tuple(perm), relabelled
