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
step scars, and subtract (height - 1); the result is 1 or 2.  Every
blue scar is a step of some ladder, so the cut state is the all-B state
and the periphery number depends only on the ladder's steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .diagram import Diagram, reorder_crossings
from .smoothing import Smoothing, smooth, state_B


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


def detect_ladders(diagram: Diagram, labels: int) -> tuple[Ladder, ...]:
    """Partition the blue scars of the state into maximal ladders.

    Ladders are ordered by their minimal crossing index; within one
    ladder the steps start from the end carrying the smaller index.
    Every blue scar is a step of some ladder, so cutting all of them
    gives the all-B state: each periphery number is read off that one
    smoothing and depends only on the ladder's steps.
    """
    nbr: dict[int, list[int]] = {x: [] for x in range(diagram.n_total)
                                 if not labels >> x & 1}
    gaps: dict[tuple[int, int], frozenset[int]] = {}
    for (x, y), corners in diagram.bigons().items():
        edges = [e for sx, sy, e in corners if sx % 2 and sy % 2]
        if edges and x in nbr and y in nbr:
            # a doubled bigon yields one adjacency
            gaps[x, y] = gaps[y, x] = min(edges, key=sorted)
            nbr[x].append(y)
            nbr[y].append(x)
    runs = []
    seen: set[int] = set()
    for x0 in nbr:
        if x0 not in seen:
            steps = _run(x0, nbr)
            seen.update(steps)
            runs.append(steps)
    # labels | all-B is the all-B state, and a SmoothingError for a
    # mask wider than the diagram
    cut = smooth(diagram, labels | state_B(diagram))
    return tuple(
        Ladder(steps, tuple(gaps[a, b] for a, b in zip(steps, steps[1:])),
               _periphery(cut, steps))
        for steps in runs)


def _run(x0: int, nbr: dict[int, list[int]]) -> tuple[int, ...]:
    """The run of blue scars through x0, the least crossing of its run,
    ordered from its end with the smaller index.

    A crossing has two corners that its B-smoothing joins, so a scar has
    at most two neighbours, and a run is a path or a closed loop.  Both
    arms are walked out from x0; an arm that comes back to x0 has walked
    the whole loop, which is not a ladder.
    """
    arms = [[], []]
    for arm, cur in zip(arms, nbr[x0]):
        prev = x0
        while cur is not None:
            if cur == x0:
                raise LadderError(
                    f"blue scars {sorted(c + 1 for c in [x0] + arm)} do not "
                    "form a ladder (branched or closed run of parallel "
                    "scars)")
            arm.append(cur)
            prev, cur = cur, next((y for y in nbr[cur] if y != prev), None)
    steps = arms[0][::-1] + [x0] + arms[1]
    return tuple(steps if steps[0] < steps[-1] else steps[::-1])


def _periphery(cut: Smoothing, steps: tuple[int, ...]) -> int:
    """Periphery count of the steps in the all-B smoothing `cut`."""
    incident = {c for s in steps for c in cut.scar_sides[s]}
    periphery = len(incident) - (len(steps) - 1)
    if periphery not in (1, 2):
        raise LadderError(
            f"steps {[s + 1 for s in steps]} are not a ladder: "
            f"periphery count {periphery}")
    return periphery


def periphery_number(diagram: Diagram, labels: int, ladder: Ladder) -> int:
    """Periphery number of a ladder of this state.

    Cutting every ladder of the state relabels every blue scar B, so the
    circles incident to the ladder's steps are counted in the all-B
    smoothing.  Raises LadderError when the blue scars of the state do
    not form ladders.
    """
    detect_ladders(diagram, labels)
    return _periphery(smooth(diagram, state_B(diagram)), ladder.steps)


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
