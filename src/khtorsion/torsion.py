"""Explicit order-two torsion chains, even modules and certificates.

Given a state s0 whose blue scars group into ladders H_1..H_k of
heights h_1..h_k (all periphery one) and sizes 0 < mu_i <= h_i, the
chain X = s(mu_1,...,mu_k; +) sums every way of turning mu_i steps of
each H_i red, all circles enhanced +.  Its differential is twice

    V = sum over {i : mu_i even, mu_i < h_i} of
        (-1)^(mu_1+...+mu_{i-1}) s(..., 1+mu_i, ...; C_i^0 -),

where C_i^0 is the periphery circle at the first red scar of H_i.  When
moreover every h_i >= 2, some h_l >= 3 and the red scars of s0 become
bichords once every ladder is broken, the class [V] has order exactly
two; the non-exactness half of the certificate comes from an even
module built on one distinguished summand of V.

The crossing order must list the ladder steps first (ladder by ladder,
in step order): the signs above assume it.  `certify_torsion` reorders
internally and the certificate records the permuted diagram.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional, Sequence

from .chaincomplex import differential
from .diagram import Diagram
from .homology import class_order
from .ladders import (HypothesisReport, Ladder, break_ladders,
                      check_hypotheses, detect_ladders, ladder_first)
from .smoothing import Chain, EnhancedState, _enhancements, smooth


class TorsionError(ValueError):
    """Inadmissible parameters for a torsion construction."""


class HypothesisRejected(TorsionError):
    """The state fails the torsion-pattern hypotheses."""

    def __init__(self, report: HypothesisReport):
        super().__init__("; ".join(report.failures) or "hypotheses rejected")
        self.report = report


class EvenModuleError(TorsionError):
    """Invalid generating data for an even module."""


# ---------------------------------------------------------------------------
# state sums
# ---------------------------------------------------------------------------


def _chosen_mask(ladder: Ladder, chosen: Sequence[int]) -> int:
    mask = 0
    for pos in chosen:
        mask |= 1 << ladder.steps[pos]
    return mask


def _c0_circle(diagram: Diagram, sm, ladder: Ladder,
               chosen: Sequence[int]) -> int:
    """Canonical index of the periphery circle C^0 at the first red scar.

    Among the circles incident to the first red scar, the intermediate
    circle (the one between the first and second red scars, reached
    through the bigon towards the next step) is excluded; a monochord
    scar has C^0 as its only incident circle.
    """
    m1 = min(chosen)
    crossing = ladder.steps[m1]
    side0, side1 = sm.scar_sides[crossing]
    if side0 == side1:
        return side0
    if m1 < ladder.height - 1:
        down_edge = next(iter(ladder.gap_edges[m1]))
        down = sm.circle_of_edge[down_edge]
        if side0 == down and side1 == down:
            raise TorsionError("cannot separate periphery circle")
        if down not in (side0, side1):
            raise TorsionError(
                f"intermediate circle of ladder at crossing {crossing + 1} "
                "is not incident to its first red scar")
        return side1 if side0 == down else side0
    if ladder.height >= 2:
        up_edge = next(iter(ladder.gap_edges[m1 - 1]))
        up = sm.circle_of_edge[up_edge]
        if up not in (side0, side1):
            raise TorsionError(
                f"periphery circle of ladder at crossing {crossing + 1} "
                "is not incident to its first red scar")
        return up
    raise TorsionError(
        "periphery circle undefined for a bichord scar on a height-1 ladder")


def require_ladder_first(diagram: Diagram, ladders: Sequence[Ladder]) -> None:
    """The sign bookkeeping of the chains assumes the ladder-first
    crossing order: ladder by ladder, steps in order, before everything
    else.  `ladders.ladder_first` puts any diagram into this form."""
    expected = [s for ladder in ladders for s in ladder.steps]
    if expected != list(range(len(expected))):
        raise TorsionError(
            "crossing order is not ladder-first; reorder the diagram with "
            "ladder_first_permutation before building chains")


def state_sum(diagram: Diagram, s0: int, ladders: Sequence[Ladder],
              sizes: Sequence[int], minus_ladder: Optional[int] = None,
              coefficient: int = 1) -> Chain:
    """The chain s(sizes; +) or s(sizes; C_r^0 -) over the given ladders.

    sizes[i] steps of ladder i are turned red in every possible way;
    each summand is enhanced all-plus, with the periphery circle of
    ladder `minus_ladder` (an index into `ladders`) turned minus.
    """
    if len(sizes) != len(ladders):
        raise TorsionError("one subset size per ladder expected")
    for mu, ladder in zip(sizes, ladders):
        if not 0 < mu <= ladder.height:
            raise TorsionError(
                f"subset size {mu} out of range for a height-{ladder.height} ladder")
    coeffs: dict[EnhancedState, int] = {}
    degree = None
    choices = [itertools.combinations(range(l.height), mu)
               for l, mu in zip(ladders, sizes)]
    for pick in itertools.product(*choices):
        labels = s0
        for ladder, chosen in zip(ladders, pick):
            labels |= _chosen_mask(ladder, chosen)
        sm = smooth(diagram, labels)
        plus = (1 << sm.circles) - 1
        if minus_ladder is not None:
            c0 = _c0_circle(diagram, sm, ladders[minus_ladder],
                            pick[minus_ladder])
            plus &= ~(1 << c0)
        state = EnhancedState(labels, plus)
        i = bin(labels).count("1")
        j = i + 2 * bin(plus).count("1") - sm.circles
        if degree is None:
            degree = (i, j)
        elif degree != (i, j):
            raise TorsionError(
                f"state sum is not homogeneous: ({i},{j}) vs {degree}")
        coeffs[state] = coeffs.get(state, 0) + coefficient
    if degree is None:
        raise TorsionError("empty state sum")
    return Chain(diagram, degree[0], degree[1], coeffs, check=False)


def _v_degree(diagram: Diagram, s0: int, ladders: Sequence[Ladder],
              mu: Sequence[int]) -> tuple[int, int, int, int]:
    """The theorem's degree of V(mu) and the data it is read from.

    Returns (i0, |s1 D|, i, j) with i0 = |s0|, s1 = s0 with every ladder
    broken, i = i0 + 1 + sum(mu) and j = i0 + |s1 D| + 2 sum(mu) - k for
    k ladders.
    """
    i0 = bin(s0).count("1")
    _, s1_circles = break_ladders(diagram, s0, ladders)
    return (i0, s1_circles, i0 + 1 + sum(mu),
            i0 + s1_circles + 2 * sum(mu) - len(ladders))


def chain_X(diagram: Diagram, s0: int, ladders: Sequence[Ladder],
            mu: Sequence[int]) -> Chain:
    """X = s(mu_1, ..., mu_k; +)."""
    require_ladder_first(diagram, ladders)
    return state_sum(diagram, s0, ladders, mu)


def chain_V(diagram: Diagram, s0: int, ladders: Sequence[Ladder],
            mu: Sequence[int]) -> Chain:
    """V = the signed sum of s(..., 1+mu_i, ...; C_i^0 -) over the
    indices with mu_i even and mu_i < h_i; zero iff no index qualifies."""
    require_ladder_first(diagram, ladders)
    mu = list(mu)
    if len(mu) != len(ladders):
        raise TorsionError("one mu per ladder expected")
    for m, ladder in zip(mu, ladders):
        if not 0 < m <= ladder.height:
            raise TorsionError(
                f"mu={m} out of range for a height-{ladder.height} ladder")
        if ladder.periphery_number != 1:
            raise TorsionError(
                "chain V needs all participating ladders of periphery one")
    total = None
    for r, m in enumerate(mu):
        if m % 2 or m >= ladders[r].height:
            continue
        sign = -1 if sum(mu[:r]) % 2 else 1
        sizes = list(mu)
        sizes[r] = m + 1
        block = state_sum(diagram, s0, ladders, sizes, minus_ladder=r,
                          coefficient=sign)
        total = block if total is None else total + block
    if total is None:
        # the (empty) V sits in the theorem's degree
        _, _, i, j = _v_degree(diagram, s0, ladders, mu)
        return Chain(diagram, i, j)
    return total


def verify_dX_2V(diagram: Diagram, s0: int, ladders: Sequence[Ladder],
                 mu: Sequence[int]) -> tuple[bool, Chain]:
    """Check d(X) = 2 V and d(V) = 0; returns (ok, residual d(X) - 2V)."""
    x = chain_X(diagram, s0, ladders, mu)
    v = chain_V(diagram, s0, ladders, mu)
    residual = differential(diagram, x) - 2 * v
    ok = residual.is_zero() and differential(diagram, v).is_zero()
    return ok, residual


# ---------------------------------------------------------------------------
# even modules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvenModule:
    """Submodule spanned by enhanced states with exactly one minus circle
    over a set of base Kauffman states whose red scars are all bichords."""

    diagram: Diagram
    base_states: frozenset[int]
    basis: frozenset[EnhancedState]
    i: int
    j: int

    def projection_sum(self, chain: Chain) -> int:
        """epsilon(pi_M(chain)): the coefficient sum of the summands in
        the basis."""
        return sum(c for s, c in chain.coeffs.items() if s in self.basis)

    def summands_in_basis(self, chain: Chain) -> int:
        return sum(1 for s in chain.coeffs if s in self.basis)


def build_even_module(diagram: Diagram, base_states: Iterable[int]) -> EvenModule:
    """Even module of all one-minus-circle enhancements of the base states.

    Every red scar of every base state must be a bichord (this is what
    makes the module even); violations name the offending crossing.
    """
    base = frozenset(base_states)
    if not base:
        return EvenModule(diagram, base, frozenset(), 0, 0)
    degree = None
    basis = set()
    for labels in sorted(base):
        sm = smooth(diagram, labels)
        for x in range(diagram.n_total):
            if labels >> x & 1 and sm.is_monochord(x):
                raise EvenModuleError(
                    f"red scar at crossing {x + 1} of state 0x{labels:x} "
                    "is a monochord")
        i = bin(labels).count("1")
        j = i + (sm.circles - 2)  # exactly one minus circle
        if degree is None:
            degree = (i, j)
        elif degree != (i, j):
            raise EvenModuleError(
                "base states do not sit in a single bidegree")
        all_plus = (1 << sm.circles) - 1
        for c in range(sm.circles):
            basis.add(EnhancedState(labels, all_plus & ~(1 << c)))
    return EvenModule(diagram, base, frozenset(basis), degree[0], degree[1])


def verify_evenness(module: EvenModule, diagram: Diagram) -> bool:
    """Check that epsilon(pi_M(d Y)) is even for every enhanced-state
    generator Y of C^{i-1,j}; linearity does the rest.

    The differential turns one A label of Y into B, so pi_M(d Y) can be
    nonzero only when Y sits one B label below the labels L of a basis
    state: Y.labels = L ^ (1 << x) for a B label x of L.  Every other Y
    projects to 0, which is even, so only those Kauffman states are
    walked (ascending, each with all its sign masks of degree (i-1, j)).
    The verdict is that of the walk over all of C^{i-1,j}.
    """
    below = sorted({labels ^ (1 << x) for labels, _ in module.basis
                    if bin(labels).count("1") == module.i
                    for x in range(diagram.n_total) if labels >> x & 1})
    return not any(module.projection_sum(differential(diagram, y)) % 2
                   for y in _enhancements(diagram, below, module.i - 1,
                                          module.j))


def certify_not_exact(chain: Chain, module: EvenModule,
                      strict: bool = False) -> bool:
    """Non-exactness through the even module.

    Parity mode (default): true iff epsilon(pi_M(chain)) is odd.
    Strict mode: true iff exactly one summand of the chain is in the
    generating basis.  Either way, a true verdict certifies that the
    chain is not a boundary.
    """
    if not chain.is_zero() and (chain.i, chain.j) != (module.i, module.j):
        raise TorsionError(
            f"chain degree ({chain.i},{chain.j}) does not match the module "
            f"degree ({module.i},{module.j})")
    if strict:
        return module.summands_in_basis(chain) == 1
    return module.projection_sum(chain) % 2 == 1


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass
class TorsionCertificate:
    """Witness of an order-two torsion class [V].

    The diagram carried here is the input diagram with its crossings in
    ladder-first order (`permutation[k]` = original index of crossing k);
    all masks and chains refer to that order.
    """

    diagram: Diagram
    permutation: tuple[int, ...]
    route: str
    s0: int                 # route state (s0' on the corollary route)
    mu: tuple[int, ...]
    heights: tuple[int, ...]
    i0: int
    s1_circles: int
    i: int
    j: int
    h: int
    q: int
    chain_x: Chain
    chain_v: Chain
    generator: EnhancedState
    flags: dict = field(default_factory=dict)
    order: int = 2

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "diagram": self.diagram.pd_text(),
            "permutation": [p + 1 for p in self.permutation],
            "route": self.route,
            "s0": format(self.s0, "x"),
            "mu": list(self.mu),
            "heights": list(self.heights),
            "degrees": {"i": self.i, "j": self.j, "h": self.h, "q": self.q},
            "X": self.chain_x.to_json(),
            "V": self.chain_v.to_json(),
            "generator": [format(self.generator.labels, "x"),
                          format(self.generator.plus, "x")],
            "flags": dict(self.flags),
            "order": self.order,
        }


def admissible_mu(heights: Sequence[int], mu: Sequence[int]) -> bool:
    """The main-theorem condition: 2 <= mu_i <= h_i with some mu_r even
    and mu_r < h_r."""
    if len(mu) != len(heights):
        return False
    if any(not 2 <= m <= h for m, h in zip(mu, heights)):
        return False
    return any(m % 2 == 0 and m < h for m, h in zip(mu, heights))


def all_even_tuples(heights: Sequence[int]) -> list[tuple[int, ...]]:
    """Admissible tuples with every component even (these are pairwise
    distinct classes)."""
    ranges = [range(2, h + 1, 2) for h in heights]
    return [mu for mu in itertools.product(*ranges)
            if admissible_mu(heights, mu)]


class RouteSetup(NamedTuple):
    """The hypothesis report of a state and everything the chain
    construction needs, in ladder-first crossing order: the reordered
    diagram, the permutation, the route state relabelled and its
    ladders."""

    report: HypothesisReport
    diagram: Diagram
    permutation: tuple[int, ...]
    s0: int
    ladders: tuple[Ladder, ...]


def checked_hypotheses(diagram: Diagram, s0: int) -> HypothesisReport:
    """`check_hypotheses` for s0, stored with the diagram's other
    per-diagram data so that one diagram and state is checked once."""
    return diagram.cached(("hypotheses", s0),
                          lambda: check_hypotheses(diagram, s0))


def route_setup(diagram: Diagram, s0: int) -> RouteSetup:
    """Check the hypotheses for s0 and reorder the diagram ladder-first.

    The setup is stored with the diagram's other per-diagram data, keyed
    by the state, so every certificate of one diagram and state shares
    one ladder-first diagram and its smoothing and SNF caches.  Raises
    HypothesisRejected (not stored) when no route applies.
    """
    return diagram.cached(("route", s0), lambda: _route_setup(diagram, s0))


def _route_setup(diagram: Diagram, s0: int) -> RouteSetup:
    report = checked_hypotheses(diagram, s0)
    route = report.route
    if route == "rejected":
        raise HypothesisRejected(report)
    if route == "theorem":
        route_s0 = s0
    else:
        route_s0 = report.s0_prime
    d2, perm, s0_new = ladder_first(diagram, route_s0)
    ladders2 = detect_ladders(d2, s0_new)
    if route == "corollary":
        bad = [l for l in ladders2
               if l.periphery_number != 1 or l.height < 2]
        if bad:
            raise TorsionError(
                "corollary route failed to reduce to the main pattern")
        rep2 = check_hypotheses(d2, s0_new)
        if not rep2.accepted_theorem:
            raise TorsionError(
                "corollary route state rejected: " + "; ".join(rep2.failures))
    return RouteSetup(report, d2, perm, s0_new, ladders2)


def certify_torsion(diagram: Diagram, s0: int, mu: Sequence[int],
                    verify_even: bool = False,
                    oracle: bool = False) -> TorsionCertificate:
    """Produce an order-two torsion certificate for V(mu) at state s0.

    mu has one entry per periphery-one ladder (on the corollary route
    the periphery-two ladders are turned red beforehand and take no mu).
    `verify_even` checks the evenness of the certificate module on the
    generators of C^{i-1,j} one B label below its basis, the only ones
    whose differential can reach it, so the verdict is that of a walk
    over the whole degree (see `verify_evenness`); `oracle` additionally
    confirms the order through the integral exactness oracle: one
    `class_order` query, from which the flags that V is not exact
    (order != 1) and that 2V is exact (order 1 or 2) are read.
    Certificates of one diagram and state share one ladder-first diagram
    (see `route_setup`).
    """
    report, d2, perm, s0_new, ladders = route_setup(diagram, s0)
    mu = tuple(int(m) for m in mu)
    heights = tuple(l.height for l in ladders)
    if len(mu) != len(ladders):
        raise TorsionError(
            f"expected {len(ladders)} subset sizes (one per ladder), "
            f"got {len(mu)}")
    if not admissible_mu(heights, mu):
        raise TorsionError(
            f"mu={list(mu)} inadmissible for heights {list(heights)}: need "
            "2 <= mu_i <= h_i and some even mu_r < h_r")

    x = chain_X(d2, s0_new, ladders, mu)
    v = chain_V(d2, s0_new, ladders, mu)
    dx = differential(d2, x)
    if not (dx - 2 * v).is_zero():
        raise TorsionError("d(X) != 2V; construction invariant violated")
    if not differential(d2, v).is_zero():
        raise TorsionError("d(V) != 0; construction invariant violated")

    # distinguished summand: prefix subsets, r = first qualifying index
    r = next(t for t, m in enumerate(mu)
             if m % 2 == 0 and m < heights[t])
    gen_labels = s0_new
    for t, ladder in enumerate(ladders):
        size = mu[t] + 1 if t == r else mu[t]
        gen_labels |= _chosen_mask(ladder, range(size))
    sm = smooth(d2, gen_labels)
    c0 = _c0_circle(d2, sm, ladders[r], list(range(mu[r] + 1)))
    generator = EnhancedState(gen_labels,
                              ((1 << sm.circles) - 1) & ~(1 << c0))
    if generator not in v.coeffs:
        raise TorsionError("distinguished summand missing from V")

    module = build_even_module(d2, [gen_labels])
    flags = {
        "dX_equals_2V": True,
        "dV_zero": True,
        "not_exact_parity": certify_not_exact(v, module),
        "not_exact_strict": certify_not_exact(v, module, strict=True),
    }
    if not flags["not_exact_parity"] or not flags["not_exact_strict"]:
        raise TorsionError("even-module non-exactness certificate failed")
    if verify_even:
        flags["even_module_verified"] = verify_evenness(module, d2)
        if not flags["even_module_verified"]:
            raise TorsionError("even module failed the evenness check")

    i0, s1_circles, i, j = _v_degree(d2, s0_new, ladders, mu)
    if (v.i, v.j) != (i, j):
        raise TorsionError(
            f"degree formula mismatch: V at ({v.i},{v.j}), expected ({i},{j})")
    p, n, _ = d2.stats()
    if oracle:
        order = class_order(v)
        flags["oracle_not_exact"] = order != 1
        # 2V is exact iff the order divides 2; class_order then tests m = 2
        flags["oracle_2v_exact"] = order in (1, 2)
        flags["oracle_order"] = order
        if order != 2:
            raise TorsionError(f"oracle disagrees: class order {order}")
    return TorsionCertificate(
        diagram=d2, permutation=perm, route=report.route, s0=s0_new, mu=mu,
        heights=heights, i0=i0, s1_circles=s1_circles,
        i=i, j=j, h=i - n, q=j + p - 2 * n,
        chain_x=x, chain_v=v, generator=generator, flags=flags)


# ---------------------------------------------------------------------------
# monocircular diagrams D(h1, h2)
# ---------------------------------------------------------------------------


def _monocircular_setup(diagram: Diagram):
    ladders = detect_ladders(diagram, 0)
    sm = smooth(diagram, 0)
    if len(ladders) != 2 or sm.circles != 1:
        raise TorsionError(
            "not a monocircular diagram: the all-A smoothing must have one "
            "circle and exactly two ladders")
    require_ladder_first(diagram, ladders)
    return ladders


def monocircular_V(diagram: Diagram, which: int, mu: int) -> Chain:
    """The earlier pattern's chains on a monocircular diagram:
    V(mu, 0) = (-1)^mu s(mu, 1; C_1^0 -)  (which = 1) and
    V(0, mu) = s(1, mu; C_2^0 -)          (which = 2), for odd mu with
    1 <= mu < h_which; both live in degree (mu + 1, 2 mu - 1)."""
    ladders = _monocircular_setup(diagram)
    if which not in (1, 2):
        raise TorsionError("which must be 1 or 2")
    h = ladders[which - 1].height
    if mu % 2 == 0 or not 1 <= mu < h:
        raise TorsionError(
            f"mu must be odd with 1 <= mu < {h}; got {mu}")
    if which == 1:
        sizes = (mu, 1)
        coeff = -1 if mu % 2 else 1
        minus = 0
    else:
        sizes = (1, mu)
        coeff = 1
        minus = 1
    v = state_sum(diagram, 0, ladders, sizes, minus_ladder=minus,
                  coefficient=coeff)
    if (v.i, v.j) != (mu + 1, 2 * mu - 1):
        raise TorsionError(
            f"monocircular chain at ({v.i},{v.j}), expected "
            f"({mu + 1},{2 * mu - 1})")
    return v


def same_class(mu: Sequence[int], mu2: Sequence[int],
               heights: Sequence[int]) -> bool:
    """Whether V(mu) and V(mu2) define the same torsion class.

    Both tuples must be admissible for the main pattern on the given
    heights.  Distinct tuples are the same class iff the sums agree,
    exactly two coordinates t1, t2 differ, every other coordinate is odd
    or maximal, and (up to swapping the roles of the tuples)
    mu[t1] is even and < h[t1], mu[t2] is odd, and
    (mu2[t1], mu2[t2]) = (mu[t1] + 1, mu[t2] - 1).
    """
    mu = tuple(mu)
    mu2 = tuple(mu2)
    for t in (mu, mu2):
        if not admissible_mu(heights, t):
            raise TorsionError(f"inadmissible tuple {list(t)} for heights "
                               f"{list(heights)}")
    if mu == mu2:
        return True
    if sum(mu) != sum(mu2):
        return False
    diff = [t for t in range(len(mu)) if mu[t] != mu2[t]]
    if len(diff) != 2:
        return False
    if any(mu[t] % 2 == 0 and mu[t] < heights[t]
           for t in range(len(mu)) if t not in diff):
        return False

    def matches(a, b):
        for t1, t2 in ((diff[0], diff[1]), (diff[1], diff[0])):
            if (a[t1] % 2 == 0 and a[t1] < heights[t1] and a[t2] % 2 == 1
                    and b[t1] == a[t1] + 1 and b[t2] == a[t2] - 1):
                return True
        return False

    return matches(mu, mu2) or matches(mu2, mu)


def mono_vs_mono(mu: int, mu2: int) -> bool:
    """[V(mu, 0)] vs [V(0, mu2)]: equal iff mu = mu2 = 1."""
    if mu % 2 == 0 or mu2 % 2 == 0 or mu < 1 or mu2 < 1:
        raise TorsionError("monocircular chains take odd mu >= 1")
    return mu == 1 and mu2 == 1


def compare_with_monocircular(mu_pair: Sequence[int], mu_single: int,
                              which: int, heights: Sequence[int]) -> bool:
    """[V(mu1, mu2)] vs a monocircular class: always distinct."""
    if not admissible_mu(heights, mu_pair):
        raise TorsionError(f"inadmissible tuple {list(mu_pair)}")
    if which not in (1, 2):
        raise TorsionError("which must be 1 or 2")
    h = heights[which - 1]
    if mu_single % 2 == 0 or not 1 <= mu_single < h:
        raise TorsionError(f"mu must be odd with 1 <= mu < {h}")
    return False


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


@dataclass
class Grid:
    """The (mu1, mu2) grid of torsion classes for D(h1, h2).

    g1: pairs from the earlier monocircular pattern ((mu, 0) and
    (0, mu), mu odd below the height).  g2: admissible pairs of the main
    pattern.  Points with equal mu1 + mu2 share a homology module
    (i = mu1 + mu2 + 1, j = 2i - 3); same_class_pairs lists the merges.
    counts[i - 1] is the number of distinct order-two classes per i.
    """

    h1: int
    h2: int
    g1: tuple[tuple[int, int], ...]
    g2: tuple[tuple[int, int], ...]
    same_class_pairs: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    counts: tuple[int, ...]

    def count_at(self, i: int) -> int:
        return self.counts[i - 1] if 1 <= i <= len(self.counts) else 0

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "h1": self.h1, "h2": self.h2,
            "g1": [list(p) for p in self.g1],
            "g2": [list(p) for p in self.g2],
            "same_class_pairs": [[list(a), list(b)]
                                 for a, b in self.same_class_pairs],
            "counts": list(self.counts),
        }

    def render_text(self) -> str:
        lines = [f"grid G({self.h1},{self.h2}):  1 = monocircular pattern, "
                 "2 = ladder pattern, . = empty"]
        g1, g2 = set(self.g1), set(self.g2)
        for mu2 in range(self.h2, -1, -1):
            row = []
            for mu1 in range(0, self.h1 + 1):
                if (mu1, mu2) in g1:
                    row.append("1")
                elif (mu1, mu2) in g2:
                    row.append("2")
                else:
                    row.append(".")
            lines.append(f"mu2={mu2:2d}  " + " ".join(row))
        lines.append("        " + " ".join(f"{m % 10}" for m in range(self.h1 + 1)))
        lines.append("        mu1 = 0.." + str(self.h1))
        if self.same_class_pairs:
            lines.append("same class: " + ", ".join(
                f"{a}~{b}" for a, b in self.same_class_pairs))
        lines.append("Z2 count per homological degree i=1.."
                     + str(len(self.counts)) + ":")
        lines.append(",".join(str(c) for c in self.counts))
        return "\n".join(lines)


def grid(h1: int, h2: int) -> Grid:
    """Torsion classes of D(h1, h2) from both patterns, merged."""
    if h1 < 2 or h2 < 2:
        raise TorsionError("grid needs h1, h2 >= 2")
    heights = (h1, h2)
    g1 = [(mu, 0) for mu in range(1, h1, 2)] + \
         [(0, mu) for mu in range(1, h2, 2)]
    classes = admissible_classes(heights)
    g2 = [mu for cls in classes for mu in cls]
    # the single monocircular coincidence: V(1,0) ~ V(0,1); every class
    # of g2 is a clique of same_class, so its pairs are all merges
    merged = [((0, 1), (1, 0))]
    merged += [pair for cls in classes
               for pair in itertools.combinations(cls, 2)]

    # one class per point of g1 but (1, 0), and per class of g2, at
    # i = mu1 + mu2 + 1
    counts = [0] * (h1 + h2)
    for p in g1:
        if p != (1, 0):
            counts[sum(p)] += 1
    for cls in classes:
        counts[sum(cls[0])] += 1
    return Grid(h1, h2, tuple(sorted(g1)), tuple(sorted(g2)),
                tuple(sorted(merged)), tuple(counts))


# ---------------------------------------------------------------------------
# family lower bounds
# ---------------------------------------------------------------------------


@dataclass
class BoundReport:
    """Product-minus-one lower bound on the number of distinct order-two
    torsion subgroups, with the hypothesis flags of the family result."""

    family: str
    params: tuple[int, ...]
    applicable: bool
    bound: Optional[int]
    qualifying: tuple[int, ...]
    failures: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "family": self.family,
            "params": list(self.params),
            "applicable": self.applicable,
            "bound": self.bound,
            "qualifying": list(self.qualifying),
            "failures": list(self.failures),
        }


def _product_bound(entries: Iterable[int]) -> int:
    prod = 1
    for a in entries:
        prod *= a // 2
    return prod - 1


def family_lower_bound(family: str, params: Sequence[int]) -> BoundReport:
    """The pretzel / 3-braid / rational lower bounds on distinct Z2
    subgroups: a product of floor(a/2) over the qualifying entries,
    minus one.  Inapplicable hypotheses are flagged, not raised."""
    params = tuple(int(a) for a in params)
    failures = []
    if family == "pretzel":
        if any(a == 1 for a in params):
            failures.append("an entry equals 1")
        if not any(a >= 3 for a in params):
            failures.append("no entry >= 3")
        if sum(1 for a in params if a < 0) < 2:
            failures.append("fewer than two negative entries")
        qualifying = tuple(a for a in params if a > 0)
    elif family == "braid3":
        if len(params) % 2 or not params:
            failures.append("braid word needs exponents a_1..a_{2t}")
        if any(a == 1 for a in params):
            failures.append("an exponent equals 1")

        def surrounded(idx: int) -> bool:
            m = len(params)
            return (params[(idx - 1) % m] > 0 and params[(idx + 1) % m] > 0)

        qualifying = tuple(a for idx, a in enumerate(params)
                           if a > 0 and surrounded(idx))
        if not any(a > 2 for a in qualifying):
            failures.append(
                "no exponent > 2 cyclically surrounded by positive ones")
        if any(a < 0 and not surrounded(idx)
               for idx, a in enumerate(params)):
            failures.append(
                "a negative exponent is not cyclically surrounded by "
                "positive ones")
    elif family == "rational":
        if any(a < 2 for a in params):
            failures.append("every entry must be >= 2")
        if not any(a >= 3 for a in params):
            failures.append("no entry >= 3")
        qualifying = tuple(a for a in params if a > 0)
    else:
        raise TorsionError(f"unknown family {family!r}")
    applicable = not failures
    return BoundReport(
        family=family, params=params, applicable=applicable,
        bound=_product_bound(qualifying) if applicable else None,
        qualifying=qualifying if applicable else (),
        failures=tuple(failures))


def admissible_classes(heights: Sequence[int]) -> list[tuple[tuple[int, ...], ...]]:
    """All admissible tuples for the given ladder heights, grouped into
    torsion classes by the distinguishing conditions (`same_class`).

    A tuple mu with exactly one coordinate t even and below h_t is
    single-even, with class key mu + e_t; every other tuple is its own
    key.  `same_class` pairs a single-even mu (at t1) with
    mu + e_t1 - e_t2, single-even at t2 with the same key, and nothing
    else; a key mu + e_t has no even coordinate below its height, so
    it is no tuple's own key.  Each class is thus a clique of
    `same_class`.  Classes come sorted, each by its least tuple.
    """
    heights = tuple(heights)
    classes: dict[tuple[int, ...], list] = {}
    for mu in itertools.product(*[range(2, h + 1) for h in heights]):
        low_even = [t for t, h in enumerate(heights)
                    if mu[t] % 2 == 0 and mu[t] < h]
        if len(low_even) == 1:
            t = low_even[0]
            classes.setdefault(mu[:t] + (mu[t] + 1,) + mu[t + 1:],
                               []).append(mu)
        elif low_even:  # admissible, alone in its class
            classes[mu] = [mu]
    return sorted(tuple(v) for v in classes.values())


# ---------------------------------------------------------------------------
# rational links: existence of order-two torsion
# ---------------------------------------------------------------------------


@dataclass
class RationalTorsionResult:
    exists: bool
    failures: tuple[str, ...]
    report: Optional[HypothesisReport]
    certificate: Optional[TorsionCertificate]

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "exists": self.exists,
            "failures": list(self.failures),
            "route": self.report.route if self.report else None,
            "certificate": (self.certificate.to_json()
                            if self.certificate else None),
        }


def rational_torsion_exists(entries: Sequence[int],
                            diagram: Optional[Diagram] = None
                            ) -> RationalTorsionResult:
    """Order-two torsion for a standard rational diagram D(a_1..a_m).

    Hypotheses: no entry equal to one; a positive entry >= 3 whose
    neighbours are positive (at the ends, the single neighbour); every
    negative entry has positive neighbours.  The initial state labels
    the positive boxes A and the negative boxes B; acceptance goes
    through the relaxed-hypothesis route and one certificate (all
    subset sizes 2) is produced.  `diagram` is D(a_1..a_m) if the
    caller has built it already; it is built here otherwise.
    """
    from .diagram import rational

    entries = tuple(int(a) for a in entries)
    failures = []
    m = len(entries)
    if any(a == 1 for a in entries):
        failures.append("an entry equals 1")

    def pos(idx):
        return 0 <= idx < m and entries[idx] > 0

    big_ok = any(entries[j] >= 3 and (j == 0 or pos(j - 1))
                 and (j == m - 1 or pos(j + 1)) for j in range(m))
    if not big_ok:
        failures.append(
            "no entry >= 3 surrounded by positive entries")
    for idx, a in enumerate(entries):
        if a < 0:
            left_ok = idx == 0 or entries[idx - 1] > 0
            right_ok = idx == m - 1 or entries[idx + 1] > 0
            if not (left_ok and right_ok and m > 1):
                failures.append(
                    f"negative entry at position {idx + 1} is not "
                    "surrounded by positive entries")
    if failures:
        return RationalTorsionResult(False, tuple(failures), None, None)

    if diagram is None:
        diagram = rational(entries)
    s0 = diagram.family_negative
    report = checked_hypotheses(diagram, s0)
    if report.route == "rejected":
        return RationalTorsionResult(False, tuple(report.failures),
                                     report, None)
    mu = (2,) * len(report.mu_heights())
    cert = certify_torsion(diagram, s0, mu)
    return RationalTorsionResult(True, (), report, cert)
