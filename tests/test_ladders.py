"""Ladder detection, periphery numbers, hypothesis checking."""

import random

import pytest

from khtorsion import (LadderError, braid3_closure, break_ladders,
                       check_hypotheses, detect_ladders, khovanov_table,
                       monocircular, parse_pd, periphery_number, pretzel,
                       rational, signed_state, smooth, state_B)
from khtorsion.knotdata import (HOPF_2, KNOT_9_42, KNOT_9_42_CONWAY,
                                KNOT_9_42_MIRROR)


def heights(ladders):
    return sorted(l.height for l in ladders)


def profile(ladders):
    return sorted((l.height, l.periphery_number) for l in ladders)


def test_pretzel_hopf_ladders():
    ls = detect_ladders(pretzel([-1, 3]), 0)
    assert profile(ls) == [(1, 1), (3, 1)]


def test_monocircular_ladders():
    d = monocircular(3, 6)
    ls = detect_ladders(d, 0)
    assert profile(ls) == [(3, 1), (6, 1)]
    assert smooth(d, 0).circles == 1
    # ladder order follows the crossing order: the -1 scars first
    assert ls[0].steps == (0, 1, 2)
    assert ls[1].steps == (3, 4, 5, 6, 7, 8)


def test_monocircular_1_1():
    ls = detect_ladders(monocircular(1, 1), 0)
    assert heights(ls) == [1, 1]


def test_two_crossing_hopf_degenerate_ladder():
    # two parallel chords on a two-circle smoothing: one height-2 ladder
    ls = detect_ladders(parse_pd(HOPF_2), 0)
    assert profile(ls) == [(2, 1)]


def test_braid_7_2_ladders():
    ls = detect_ladders(braid3_closure([7, 2]), 0)
    assert profile(ls) == [(2, 1), (7, 1)]


def test_rational_all_positive_periphery_one():
    for entries in ([4, 2, 6], [2, 2], [3, 3, 3], [2, 5], [4, 4, 4, 4]):
        ls = detect_ladders(rational(entries), 0)
        assert heights(ls) == sorted(entries)
        assert all(l.periphery_number == 1 for l in ls)


def test_rational_single_box():
    ls = detect_ladders(rational([3]), 0)
    assert heights(ls) == [3]


def test_pretzel_signed_state_heights_are_positive_entries():
    # initial state: A on positive bands, B on negative bands
    d = pretzel([5, -3, 2, 3, -2])
    ls = detect_ladders(d, d.family_negative)
    assert profile(ls) == [(2, 1), (3, 1), (5, 1)]


def test_9_42_table_diagram_ladders():
    d = parse_pd(KNOT_9_42)
    ls = detect_ladders(d, 0)
    assert heights(ls) == [1, 1, 1, 1, 2, 3]
    # verified profile of the reconstructed table diagram; see the
    # docstring of khtorsion.knotdata
    assert profile(ls) == [(1, 1), (1, 2), (1, 2), (1, 2), (2, 1), (3, 1)]


def twist_regions(d):
    """Sizes of the twist regions that the bigons of `d` form."""
    regions = []
    for pair in d.bigons():
        touching = [r for r in regions if r & set(pair)]
        regions = [r for r in regions if r not in touching]
        regions.append(set(pair).union(*touching))
    return sorted(len(r) for r in regions)


def test_9_42_conway_diagram_has_the_homology_of_9_42():
    """The diagram that acceptance criterion 4 reads is a diagram of 9_42
    in the chirality of `KNOT_9_42`, as far as Khovanov homology tells:
    equal tables are necessary for two diagrams to present the same knot,
    but they do not prove it.  The twist regions (2, 2, 2, 3) are those of
    the Conway notation 22,3,2- of 9_42; the mirror's table differs, which
    fixes the chirality."""
    d = parse_pd(KNOT_9_42_CONWAY)
    table_diagram = parse_pd(KNOT_9_42)
    assert d.n_total == 9 and len(d.components) == 1
    assert twist_regions(d) == [2, 2, 2, 3]
    assert twist_regions(table_diagram) == [2, 2, 3]
    table = khovanov_table(d).hq_entries()
    assert table == khovanov_table(table_diagram).hq_entries()
    assert table != khovanov_table(parse_pd(KNOT_9_42_MIRROR)).hq_entries()


def test_partition_property():
    rng = random.Random(9)
    for d in (monocircular(3, 6), braid3_closure([3, -2, 2, 2]),
              rational([3, 2, -2, 2])):
        for _ in range(12):
            labels = rng.randrange(1 << d.n_total)
            try:
                ls = detect_ladders(d, labels)
            except LadderError:
                continue
            blue = [x for x in range(d.n_total) if not labels >> x & 1]
            steps = [s for l in ls for s in l.steps]
            assert sorted(steps) == sorted(blue)
            assert sum(l.height for l in ls) == len(blue)


def test_periphery_invariance_under_non_step_relabelings():
    # relabeling crossings away from the steps keeps the periphery number
    rng = random.Random(17)
    d = monocircular(3, 6)
    base = detect_ladders(d, 0)
    for ladder in base:
        others = [x for x in range(d.n_total) if x not in ladder.steps]
        for _ in range(25):
            flips = 0
            for x in others:
                if rng.random() < 0.5:
                    flips |= 1 << x
            try:
                ls2 = detect_ladders(d, flips)
            except LadderError:
                continue
            twin = [l for l in ls2 if l.steps == ladder.steps]
            if not twin:
                continue  # the ladder did not survive as a ladder
            assert twin[0].periphery_number == ladder.periphery_number
            assert periphery_number(d, flips, twin[0]) == \
                ladder.periphery_number


def test_periphery_counted_with_every_ladder_cut():
    # the definition: relabel every step of every ladder B and count the
    # circles incident to this ladder's steps; every blue scar is a step,
    # so the cut state is the all-B state
    rng = random.Random(4)
    for d in (monocircular(3, 6), braid3_closure([3, -2, 2, 2]),
              rational([3, 2, -2, 2]), pretzel([5, -3, 2, 3, -2])):
        for labels in [0] + [rng.randrange(1 << d.n_total)
                             for _ in range(40)]:
            try:
                ls = detect_ladders(d, labels)
            except LadderError:
                continue
            cut = labels
            for l in ls:
                cut |= l.step_mask()
            assert cut == state_B(d)
            sm = smooth(d, cut)
            for l in ls:
                incident = {sm.sides[2 * s + t] for s in l.steps
                            for t in (0, 1)}
                assert l.periphery_number == len(incident) - l.height + 1


def test_a_scar_has_at_most_two_ladder_neighbours():
    # a crossing has two corners that its B-smoothing joins, so a run of
    # blue scars is a path or a closed loop, never branched
    for d in (monocircular(3, 6), pretzel([2, 2]), pretzel([-3, 3, -3]),
              braid3_closure([7, 2]), rational([4, 2, 6]),
              parse_pd(KNOT_9_42), parse_pd(HOPF_2)):
        degree = [0] * d.n_total
        for (x, y), corners in d.bigons().items():
            for sx, sy, _ in corners:
                if sx % 2 and sy % 2:
                    degree[x] += 1
                    degree[y] += 1
        assert max(degree) <= 2


def test_closed_run_names_every_scar():
    d = pretzel([2, 2])
    with pytest.raises(LadderError) as info:
        detect_ladders(d, 0)
    # a run of scars is a path or a loop; it never branches
    assert str(info.value) == ("blue scars [1, 2, 3, 4] do not form a ladder "
                               "(closed run of parallel scars)")
    # a ladder of another state, asked for in the state with the loop
    with pytest.raises(LadderError):
        periphery_number(d, 0, detect_ladders(d, 0b0001)[0])


def test_break_ladders_monocircular():
    d = monocircular(3, 6)
    ls = detect_ladders(d, 0)
    s1, circles = break_ladders(d, 0, ls)
    assert circles == 1
    assert bin(s1).count("1") == 2


def test_break_ladders_hopf_pretzel():
    d = pretzel([-1, 3])
    ls = detect_ladders(d, 0)
    s1, _ = break_ladders(d, 0, ls)
    # the -1 band scar (crossing 1) is the first step of its ladder
    assert s1 >> 0 & 1


def test_break_ladders_no_blue():
    d = pretzel([-1, 3])
    s0 = state_B(d)
    ls = detect_ladders(d, s0)
    assert ls == ()
    s1, _ = break_ladders(d, s0, ls)
    assert s1 == s0


def test_hypotheses_monocircular_theorem_route():
    rep = check_hypotheses(monocircular(3, 6), 0)
    assert rep.route == "theorem"
    assert rep.accepted_theorem and rep.accepted_corollary
    assert rep.i0 == 0 and rep.s1_circles == 1


def test_hypotheses_hopf_rejected_height_one():
    rep = check_hypotheses(pretzel([-1, 3]), 0)
    assert rep.route == "rejected"
    assert any("height-1" in f for f in rep.failures)


def test_hypotheses_braid_7_2():
    rep = check_hypotheses(braid3_closure([7, 2]), 0)
    assert rep.accepted_corollary
    assert any(l.periphery_number == 1 and l.height == 7
               for l in rep.ladders)


def test_hypotheses_braid_3_m2_2_2():
    # the sigma_1^3 ladder is not cyclically surrounded by positive
    # exponents; its periphery number is two and the state is rejected
    d = braid3_closure([3, -2, 2, 2])
    rep = check_hypotheses(d, d.family_negative)
    assert profile(rep.ladders) == [(2, 1), (2, 2), (3, 2)]
    assert rep.route == "rejected"


def test_hypotheses_report_json():
    rep = check_hypotheses(monocircular(3, 6), 0)
    payload = rep.to_json()
    assert payload["schema"] == 1
    assert payload["route"] == "theorem"
    assert payload["i0"] == 0
    assert len(payload["ladders"]) == 2


def test_corollary_route_state():
    d = rational([3, 2, -2, 2])
    rep = check_hypotheses(d, d.family_negative)
    assert rep.route == "corollary"
    assert rep.s0_prime is not None
    # all steps of the periphery-two ladders are red in s0'
    for ladder in rep.ladders:
        if ladder.periphery_number == 2:
            assert rep.s0_prime & ladder.step_mask() == ladder.step_mask()


def test_ladder_first_permutation_orders_steps_first():
    from khtorsion import ladder_first_permutation, reorder_crossings
    d = pretzel([5, -3, 2, 3, -2])
    s0 = d.family_negative
    ladders = detect_ladders(d, s0)
    perm = ladder_first_permutation(d, ladders)
    d2 = reorder_crossings(d, perm)
    s0_new = sum(((s0 >> old & 1) << new) for new, old in enumerate(perm))
    ladders2 = detect_ladders(d2, s0_new)
    steps = [s for l in ladders2 for s in l.steps]
    assert steps == list(range(len(steps)))
    # reds follow the ladder steps
    assert all(x >= len(steps) for x in range(d2.n_total)
               if s0_new >> x & 1)
