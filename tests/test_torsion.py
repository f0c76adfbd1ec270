"""State sums, even modules, torsion certificates, grids and bounds."""

import itertools
import math
import random

import pytest

from khtorsion import (EnhancedState, EvenModuleError, HypothesisRejected,
                       TorsionError, admissible_classes, admissible_mu,
                       all_even_tuples, braid3_closure, build_even_module,
                       certify_not_exact, certify_torsion, chain_V, chain_X,
                       check_hypotheses, class_order, compare_with_monocircular,
                       detect_ladders, differential, enumerate_states,
                       family_lower_bound, grid, is_exact, mono_vs_mono,
                       monocircular, monocircular_V, parse_pd, pretzel,
                       rational, rational_torsion_exists, same_class,
                       signed_state, smooth, state_sum, verify_dX_2V,
                       verify_evenness)
from khtorsion.torsion import EvenModule, checked_hypotheses


# ---- state sums -----------------------------------------------------------


def test_chain_X_summand_counts():
    d = monocircular(3, 6)
    ls = detect_ladders(d, 0)
    assert len(chain_X(d, 0, ls, (2, 2))) == 45        # C(3,2)*C(6,2)
    assert len(chain_X(d, 0, ls, (3, 6))) == 1         # full subsets
    assert chain_X(d, 0, ls, (2, 2)).i == 4            # i0 + sum(mu)


def test_state_sum_six_summands_short_ladders():
    d = monocircular(3, 2)
    ls = detect_ladders(d, 0)
    v = state_sum(d, 0, ls, (2, 1), minus_ladder=0)
    assert len(v) == 6                                  # C(3,2)*C(2,1)


def test_chain_X_mu_out_of_range():
    d = monocircular(3, 6)
    ls = detect_ladders(d, 0)
    with pytest.raises(TorsionError):
        chain_X(d, 0, ls, (4, 2))
    with pytest.raises(TorsionError):
        chain_X(d, 0, ls, (0, 2))


def test_chain_V_blocks_and_signs():
    d = monocircular(3, 6)
    ls = detect_ladders(d, 0)
    v = chain_V(d, 0, ls, (2, 2))
    # blocks: s(3,2;C1^0-) with C(3,3)C(6,2)=15 summands, sign +1, and
    # s(2,3;C2^0-) with C(3,2)C(6,3)=60 summands, sign (-1)^2=+1
    assert len(v) == 75
    assert all(c == 1 for c in v.coeffs.values())
    assert (v.i, v.j) == (5, 7)


def test_chain_V_zero_when_all_odd_or_full():
    d = monocircular(3, 6)
    ls = detect_ladders(d, 0)
    assert chain_V(d, 0, ls, (3, 3)).is_zero()
    assert chain_V(d, 0, ls, (3, 6)).is_zero()
    assert not chain_V(d, 0, ls, (2, 3)).is_zero()


def test_dX_2V_examples():
    d = monocircular(3, 6)
    ls = detect_ladders(d, 0)
    ok, residual = verify_dX_2V(d, 0, ls, (2, 2))
    assert ok and residual.is_zero()
    d2 = monocircular(2, 5)
    ls2 = detect_ladders(d2, 0)
    ok, _ = verify_dX_2V(d2, 0, ls2, (1, 3))
    assert ok
    assert chain_V(d2, 0, ls2, (1, 3)).is_zero()


def test_dX_2V_five_band_pretzel():
    from khtorsion import ladder_first_permutation, reorder_crossings
    d = pretzel([5, -3, 2, 3, -2])
    s0 = d.family_negative
    perm = ladder_first_permutation(d, detect_ladders(d, s0))
    d2 = reorder_crossings(d, perm)
    s0_new = sum(((s0 >> old & 1) << new) for new, old in enumerate(perm))
    ls = detect_ladders(d2, s0_new)
    ok, _ = verify_dX_2V(d2, s0_new, ls, (2, 2, 2))
    assert ok


def test_chain_ops_demand_ladder_first_order():
    d = pretzel([5, -3, 2, 3, -2])
    s0 = d.family_negative
    ls = detect_ladders(d, s0)
    with pytest.raises(TorsionError):
        chain_X(d, s0, ls, (2, 2, 2))


# ---- even modules ---------------------------------------------------------


def test_build_even_module_generator_state():
    from khtorsion.torsion import _chosen_mask
    d = monocircular(3, 6)
    ls = detect_ladders(d, 0)
    gen = _chosen_mask(ls[0], range(3)) | _chosen_mask(ls[1], range(2))
    module = build_even_module(d, [gen])
    # one enhancement per circle of the generator smoothing
    assert len(module.basis) == smooth(d, gen).circles == 4
    assert (module.i, module.j) == (5, 7)
    assert verify_evenness(module, d)


def test_build_even_module_rejects_red_monochord():
    d = pretzel([-1])
    with pytest.raises(EvenModuleError) as err:
        build_even_module(d, [0b1])
    assert "crossing 1" in str(err.value)


def test_build_even_module_over_several_base_states():
    # base states in one bidegree: the union of their one-minus bases;
    # a base state in another bidegree is rejected
    e = certify_torsion(monocircular(3, 6), 0, (2, 2)).diagram
    m1, m2 = (build_even_module(e, [s]) for s in (0x1f, 0x2f))
    module = build_even_module(e, [0x2f, 0x1f])
    assert (module.i, module.j) == (m1.i, m1.j) == (m2.i, m2.j) == (5, 7)
    assert module.base_states == {0x1f, 0x2f}
    assert module.basis == m1.basis | m2.basis
    assert len(module.basis) == len(m1.basis) + len(m2.basis) == 8
    m3 = build_even_module(e, [0x3f])
    assert (m3.i, m3.j) == (6, 9)
    with pytest.raises(EvenModuleError, match="single bidegree"):
        build_even_module(e, [0x1f, 0x3f])


def test_empty_module_is_even():
    d = pretzel([1])
    module = build_even_module(d, [])
    assert verify_evenness(module, d)


def test_handmade_module_with_odd_projection_fails_evenness():
    # keep only one summand of a splitting pair: the projection of d(Y)
    # has coefficient sum 1
    d = pretzel([1])
    y = EnhancedState(0, 1)
    target = sorted(differential(d, y).coeffs)[0]
    bad = EvenModule(d, frozenset({1}), frozenset({target}), 1, 1)
    assert not verify_evenness(bad, d)


def test_verify_evenness_verdicts_on_certificate_modules():
    # the certificate modules of D(3,6) and P(5,-3,2,3,-2) are even, and
    # dropping any one basis state leaves an odd projection
    for d, s0, tuples in ((monocircular(3, 6), 0, [(2, 2), (2, 4), (2, 6)]),
                          (pretzel([5, -3, 2, 3, -2]), None,
                           [(2, 2, 2), (4, 2, 2)])):
        s0 = d.family_negative if s0 is None else s0
        for mu in tuples:
            cert = certify_torsion(d, s0, mu)
            module = build_even_module(cert.diagram, [cert.generator.labels])
            assert verify_evenness(module, cert.diagram)
            for b in sorted(module.basis):
                smaller = EvenModule(cert.diagram, module.base_states,
                                     module.basis - {b}, module.i, module.j)
                assert not verify_evenness(smaller, cert.diagram), (mu, b)


def _certificates():
    """Every all-even certificate of D(3,6), P(5,-3,2,3,-2) (signed),
    braid3(7,2) and rational(4,2,6) (signed), and of their mirrors at the
    signed state or at the complement of the state, where accepted, each
    with a flag that says whether it is of a mirror."""
    for d, signed in ((monocircular(3, 6), False),
                      (pretzel([5, -3, 2, 3, -2]), True),
                      (braid3_closure([7, 2]), False),
                      (rational([4, 2, 6]), True)):
        s0 = 0
        if signed:
            s0 = (d.family_negative if d.family_negative is not None
                  else signed_state(d))
        m = d.mirror()
        for e, s in ((d, s0), (m, signed_state(m)),
                     (m, ((1 << d.n_total) - 1) ^ s0)):
            report = checked_hypotheses(e, s)
            if report.route == "rejected":
                continue
            for mu in all_even_tuples(report.mu_heights()):
                yield e is m, certify_torsion(e, s, mu)


def test_verify_evenness_equals_full_walk():
    # the reference walks every generator Y of C^{i-1,j}
    rnd = random.Random(9)
    verdicts = []
    mirrors = 0
    for mirrored, cert in _certificates():
        mirrors += mirrored
        d = cert.diagram
        module = build_even_module(d, [cert.generator.labels])
        i, j, basis = module.i, module.j, module.basis
        images = [differential(d, y) for y in enumerate_states(d, i - 1, j)]
        same_degree = enumerate_states(d, i, j)
        # a state of C^{i+-2,j+-2} in the image of a generator y: no Y of
        # C^{i-1,j} reaches it, but y's labels have the parity of i-1
        y = next(y for k in (2, -2)
                 for y in enumerate_states(d, i + k - 1, j + k)
                 if differential(d, y).coeffs)
        stray = min(differential(d, y).coeffs)
        variants = [basis, basis | {stray}]
        variants += [basis - {b} for b in sorted(basis)]
        variants += [basis | set(rnd.sample(same_degree, k))
                     for k in (1, 2, 3)]
        modules = [EvenModule(d, module.base_states, frozenset(v), i, j)
                   for v in variants]
        # basis labels that are not the base states
        modules.append(EvenModule(d, frozenset({cert.s0}),
                                  basis - {min(basis)}, i, j))
        for m in modules:
            full = all(m.projection_sum(img) % 2 == 0 for img in images)
            assert verify_evenness(m, d) == full, (cert.mu, sorted(m.basis))
            verdicts.append(full)
    assert mirrors and True in verdicts and False in verdicts


def test_verify_evenness_walks_one_label_below_the_basis(count_calls):
    # one _terms call per generator of C^{i-1,j} one B label below a
    # basis state, a small part of the whole degree
    calls = count_calls("_terms")
    walked = total = 0
    for d, s0, tuples in ((monocircular(3, 6), 0, [(2, 2), (2, 4), (2, 6)]),
                          (pretzel([5, -3, 2, 3, -2]), None,
                           [(2, 2, 2), (4, 2, 2)])):
        s0 = d.family_negative if s0 is None else s0
        for mu in tuples:
            cert = certify_torsion(d, s0, mu)
            e = cert.diagram
            module = build_even_module(e, [cert.generator.labels])
            labels = {s.labels for s in module.basis}
            full = enumerate_states(e, module.i - 1, module.j)
            near = [y for y in full
                    if any(y.labels | (1 << x) in labels
                           for x in range(e.n_total)
                           if not y.labels >> x & 1)]
            before = calls["_terms"]
            assert verify_evenness(module, e)
            assert calls["_terms"] - before == len(near), mu
            walked += len(near)
            total += len(full)
    assert 100 * walked < total, (walked, total)


def test_certify_not_exact_modes():
    d = monocircular(3, 6)
    ls = detect_ladders(d, 0)
    from khtorsion.torsion import _chosen_mask
    gen = _chosen_mask(ls[0], range(3)) | _chosen_mask(ls[1], range(2))
    module = build_even_module(d, [gen])
    v = chain_V(d, 0, ls, (2, 2))
    assert certify_not_exact(v, module)
    assert certify_not_exact(v, module, strict=True)
    # an exact chain (a differential) projects evenly
    y = enumerate_states(d, module.i - 1, module.j)[0]
    dy = differential(d, y)
    assert not certify_not_exact(dy, module)
    # zero projection is inconclusive
    empty = EvenModule(d, frozenset(), frozenset(), v.i, v.j)
    assert not certify_not_exact(v, empty)


# ---- certificates ---------------------------------------------------------


def test_certificates_monocircular_3_6():
    d = monocircular(3, 6)
    expected_i = {(2, 2): 5, (2, 3): 6, (3, 2): 6, (2, 4): 7,
                  (2, 5): 8, (3, 4): 8, (2, 6): 9}
    for mu, i in expected_i.items():
        cert = certify_torsion(d, 0, mu)
        assert cert.route == "theorem"
        assert cert.i == i and cert.j == 2 * i - 3
        assert cert.order == 2
        assert cert.flags["not_exact_strict"]


def test_certificates_share_one_route_setup():
    # every mu of one diagram and state reuses one ladder-first diagram
    d = monocircular(3, 6)
    first = certify_torsion(d, 0, (2, 2))
    second = certify_torsion(d, 0, (2, 4))
    assert second.diagram is first.diagram
    assert first.diagram is not d
    assert certify_torsion(monocircular(3, 6), 0, (2, 2)).diagram \
        is not first.diagram


def test_certificate_oracle_and_json():
    cert = certify_torsion(monocircular(3, 6), 0, (2, 2),
                           verify_even=True, oracle=True)
    assert cert.flags["oracle_order"] == 2
    assert cert.flags["even_module_verified"]
    payload = cert.to_json()
    assert payload["schema"] == 1
    assert payload["degrees"] == {"i": 5, "j": 7, "h": 2, "q": 7}
    assert payload["order"] == 2


def test_certificate_oracle_flags_from_one_order_query(count_calls):
    # the flags are read off class_order(V), which checks the cycle once,
    # by is_exact(V), and tests 2V on one more solve for V, building no
    # witness; they must agree with direct exactness queries
    calls = count_calls("is_exact", "differential")
    cert = certify_torsion(monocircular(3, 6), 0, (2, 2), oracle=True)
    assert calls["is_exact"] == 1
    v = cert.chain_v
    calls.update(is_exact=0, differential=0)
    assert class_order(v) == 2
    assert calls == {"is_exact": 1, "differential": 1}
    assert cert.flags["oracle_not_exact"] == (not is_exact(v)[0])
    assert cert.flags["oracle_2v_exact"] == is_exact(2 * v)[0]


def test_witness_through_non_unit_pivots():
    # d_{i-1} of these certificates keeps entries +-2 after its units are
    # cancelled, so the witness of 2V replays Euclid's row and column ops
    d = pretzel([5, -3, 2, 3, -2])
    certs = [certify_torsion(monocircular(3, 6), 0, (2, 2))]
    certs += [certify_torsion(d, d.family_negative, mu) for mu in
              all_even_tuples(checked_hypotheses(
                  d, d.family_negative).mu_heights())]
    assert len(certs) == 3
    for cert in certs:
        v = cert.chain_v
        assert is_exact(v) == (False, None)
        exact, y = is_exact(2 * v)
        assert exact
        assert differential(cert.diagram, y) == 2 * v


def test_certify_rejects_hopf_pretzel():
    with pytest.raises(HypothesisRejected) as err:
        certify_torsion(pretzel([-1, 3]), 0, (2, 2))
    assert "height-1" in str(err.value)


def test_certify_inadmissible_mu():
    d = monocircular(3, 6)
    with pytest.raises(TorsionError):
        certify_torsion(d, 0, (3, 3))     # no even component below height
    with pytest.raises(TorsionError):
        certify_torsion(d, 0, (1, 2))     # below 2
    with pytest.raises(TorsionError):
        certify_torsion(d, 0, (2, 2, 2))  # wrong length


def test_certify_corollary_route_rational():
    # one periphery-one ladder (height 3): mu has a single entry
    d = rational([3, 2, -2, 2])
    cert = certify_torsion(d, d.family_negative, (2,), oracle=True)
    assert cert.route == "corollary"
    assert cert.flags["oracle_order"] == 2


def test_certificate_degree_formula_fields():
    cert = certify_torsion(monocircular(3, 6), 0, (2, 4))
    assert cert.i == cert.i0 + 1 + sum(cert.mu)
    k = len(cert.mu)
    assert cert.j == cert.i0 + cert.s1_circles + 2 * sum(cert.mu) - k


# ---- monocircular chains --------------------------------------------------


def test_monocircular_V_basic():
    d = monocircular(3, 6)
    v01 = monocircular_V(d, 2, 1)
    v10 = monocircular_V(d, 1, 1)
    assert v01 == -1 * v10
    assert (v01.i, v01.j) == (2, 1)
    v = monocircular_V(d, 2, 5)
    assert (v.i, v.j) == (6, 9)


def test_monocircular_V_validation():
    d = monocircular(3, 6)
    with pytest.raises(TorsionError):
        monocircular_V(d, 2, 2)    # even
    with pytest.raises(TorsionError):
        monocircular_V(d, 1, 3)    # mu >= h1
    with pytest.raises(TorsionError):
        monocircular_V(d, 3, 1)    # no such ladder
    with pytest.raises(TorsionError):
        monocircular_V(pretzel([-1, 3]), 1, 1)  # not monocircular (h1=1...)


def test_monocircular_V_order_two():
    d = monocircular(3, 6)
    for which, mu in ((1, 1), (2, 1), (2, 3), (2, 5)):
        assert class_order(monocircular_V(d, which, mu)) == 2


# ---- distinguishing -------------------------------------------------------


def test_same_class_positive_case():
    assert same_class((2, 3), (3, 2), (3, 6))
    assert same_class((3, 2), (2, 3), (3, 6))
    assert same_class((2, 2), (2, 2), (3, 6))


def test_same_class_inadmissible_reported():
    with pytest.raises(TorsionError):
        same_class((2, 4), (3, 3), (3, 6))


def test_all_even_tuples_distinct():
    heights = (4, 6)
    evens = all_even_tuples(heights)
    assert (2, 2) in evens and (2, 4) in evens
    for a, b in itertools.combinations(evens, 2):
        assert not same_class(a, b, heights)


def test_mono_comparisons():
    assert mono_vs_mono(1, 1)
    assert not mono_vs_mono(3, 3)
    with pytest.raises(TorsionError):
        mono_vs_mono(2, 1)
    assert not compare_with_monocircular((2, 2), 3, 2, (3, 6))
    assert not compare_with_monocircular((2, 2), 1, 1, (3, 6))


def test_all_even_tuples_never_merge():
    # V(2,2) vs the monocircular V(0,3) live in the same module for
    # D(3,6) (i=5? no: (2,2)->i=5, (0,3)->i=4); use D(2,4): (2,2)->i=5,
    # mono mu=3 -> i=4.  Keep to the predicate level here; the full
    # oracle equivalence is exercised in the acceptance suite.
    heights = (3, 6)
    for mu in all_even_tuples(heights):
        for mu2 in all_even_tuples(heights):
            if mu != mu2:
                assert not same_class(mu, mu2, heights)


# ---- grids ----------------------------------------------------------------


def test_grid_3_6_counts():
    g = grid(3, 6)
    assert list(g.counts) == [0, 1, 0, 1, 1, 2, 1, 1, 1]
    assert ((0, 1), (1, 0)) in g.same_class_pairs
    assert ((2, 3), (3, 2)) in g.same_class_pairs


def test_grid_10_15_counts():
    g = grid(10, 15)
    assert list(g.counts) == [0, 1, 0, 2, 1, 3, 2, 4, 3, 5, 4, 5, 5,
                              5, 5, 4, 5, 4, 4, 3, 3, 2, 2, 1, 1]


def test_grid_point_sets_definitions():
    for h1, h2 in itertools.product(range(2, 9), repeat=2):
        g = grid(h1, h2)
        g1 = {(mu, 0) for mu in range(1, h1, 2)} | \
             {(0, mu) for mu in range(1, h2, 2)}
        g2 = {(m1, m2) for m1 in range(2, h1 + 1)
              for m2 in range(2, h2 + 1)
              if (m1 % 2 == 0 and m1 < h1) or (m2 % 2 == 0 and m2 < h2)}
        assert set(g.g1) == g1
        assert set(g.g2) == g2

        # every merge: brute force over all pairs of g2, plus V(0,1) ~ V(1,0)
        pairs = {(a, b) for a, b in itertools.combinations(sorted(g2), 2)
                 if same_class(a, b, (h1, h2))}
        pairs.add(((0, 1), (1, 0)))
        assert g.same_class_pairs == tuple(sorted(pairs))

        # one class per connected component, counted at i = mu1 + mu2 + 1
        nbr = {p: set() for p in g1 | g2}
        for a, b in pairs:
            nbr[a].add(b)
            nbr[b].add(a)
        counts = [0] * (h1 + h2)
        seen = set()
        for p in sorted(nbr):
            if p in seen:
                continue
            counts[sum(p)] += 1
            stack = [p]
            while stack:
                q = stack.pop()
                if q not in seen:
                    seen.add(q)
                    stack.extend(nbr[q] - seen)
        assert list(g.counts) == counts


def test_grid_g1_g2_disjoint():
    g = grid(4, 7)
    assert not set(g.g1) & set(g.g2)


def test_grid_render_contains_counts():
    text = grid(3, 6).render_text()
    assert "0,1,0,1,1,2,1,1,1" in text


# ---- bounds and rational existence ---------------------------------------


def test_pretzel_bound_five_band():
    rep = family_lower_bound("pretzel", [5, -3, 2, 3, -2])
    assert rep.applicable and rep.bound == 1


def test_pretzel_bound_flags():
    rep = family_lower_bound("pretzel", [5, -3, 2, 3])
    assert not rep.applicable
    assert any("negative" in f for f in rep.failures)
    rep = family_lower_bound("pretzel", [1, -3, -2])
    assert not rep.applicable


def test_braid_bound():
    rep = family_lower_bound("braid3", [7, 2])
    assert rep.applicable and rep.bound == 2
    rep = family_lower_bound("braid3", [3, -2, 2, 2])
    assert not rep.applicable


def test_rational_bound():
    rep = family_lower_bound("rational", [4, 2, 6])
    assert rep.applicable and rep.bound == 5


def test_admissible_classes_five_band():
    classes = admissible_classes((5, 2, 3))
    assert len(classes) == 4
    reps = sorted(c[0] for c in classes)
    assert reps == [(2, 2, 2), (2, 2, 3), (4, 2, 2), (4, 2, 3)]


@pytest.mark.parametrize("ladders,top", [(1, 12), (2, 10), (3, 7), (4, 5)])
def test_admissible_classes_are_same_class_components(ladders, top):
    for heights in itertools.product(range(2, top + 1), repeat=ladders):
        tuples = [mu for mu in itertools.product(
            *[range(2, h + 1) for h in heights]) if admissible_mu(heights, mu)]
        # tuples of different sums sit in different homological degrees
        by_sum = {}
        for mu in tuples:
            by_sum.setdefault(sum(mu), []).append(mu)
        nbr = {mu: set() for mu in tuples}
        for group in by_sum.values():
            for a, b in itertools.combinations(group, 2):
                if same_class(a, b, heights):
                    nbr[a].add(b)
                    nbr[b].add(a)
        components, seen = [], set()
        for mu in tuples:
            if mu in seen:
                continue
            comp, stack = {mu}, [mu]
            while stack:
                for b in nbr[stack.pop()] - comp:
                    comp.add(b)
                    stack.append(b)
            seen |= comp
            components.append(tuple(sorted(comp)))
        assert admissible_classes(heights) == sorted(components)
        for comp in components:  # what grid relies on
            assert all(b in nbr[a] for a, b in itertools.combinations(comp, 2))


def test_rational_torsion_exists_cases():
    r = rational_torsion_exists([3, 2, -2, 2])
    assert r.exists and r.certificate is not None
    assert r.report.route in ("theorem", "corollary")
    r = rational_torsion_exists([2, -2, -2])
    assert not r.exists
    assert any("not surrounded" in f for f in r.failures)
    r = rational_torsion_exists([2, 2])
    assert not r.exists
    assert any(">= 3" in f for f in r.failures)
    # the literal reading of the hypothesis: the large entry's neighbours
    # must be positive; -2 next to the 4 disqualifies it
    r = rational_torsion_exists([3, -2, 4])
    assert not r.exists
    # single entries and the ends of the chain: an end entry has one
    # neighbour, which must be positive
    r = rational_torsion_exists([5])
    assert not r.exists and r.report.route == "rejected"
    assert r.failures == (
        "ladder(s) with periphery number two at steps [1, 2, 3, 4, 5]",
        "no ladder with periphery number one and height >= 3")
    for entries in ([2], [3, -2], [-2, 3]):
        r = rational_torsion_exists(entries)
        assert not r.exists and r.report is None
        assert r.failures == (
            "no entry >= 3 surrounded by positive entries",), entries
    for entries in ([3, 2], [2, 3], [2, 2, 3]):
        r = rational_torsion_exists(entries)
        assert r.exists and r.failures == (), entries
        assert r.report.route == "theorem"


def _census(h1, h2):
    """The grid's per-degree class counts of D(h1, h2) against its
    integral homology: any discrepancy would flag torsion beyond the two
    patterns."""
    from khtorsion import khovanov_table
    table = khovanov_table(monocircular(h1, h2))
    per_i = {}
    for (i, j), (_, tors) in table.entries.items():
        per_i[i] = per_i.get(i, 0) + len(tors)
    g = grid(h1, h2)
    for i in set(per_i) | set(range(1, len(g.counts) + 1)):
        assert per_i.get(i, 0) == g.count_at(i), (h1, h2, i)


def test_grid_counts_match_homology_torsion_census():
    # every D(h1, h2) with 2 <= h1 <= h2 and h1 + h2 <= 10
    checked = 0
    for h1 in range(2, 6):
        for h2 in range(h1, 11 - h1):
            _census(h1, h2)
            checked += 1
    assert checked == 16


@pytest.mark.slow
@pytest.mark.parametrize("h1, h2", [(h1, s - h1) for s in (11, 12)
                                    for h1 in range(2, s // 2 + 1)])
def test_grid_counts_match_homology_torsion_census_to_12(h1, h2):
    # h1 + h2 in {11, 12}: D(2, n) = P(-1, -1, n) is a twist knot, so
    # this is the paper's "all torsion of small twist knots"
    _census(h1, h2)


@pytest.mark.slow
@pytest.mark.parametrize("h1, h2", [(h1, s - h1) for s in (13, 14)
                                    for h1 in range(2, s // 2 + 1)])
def test_grid_counts_match_homology_torsion_census_to_14(h1, h2):
    # h1 + h2 in {13, 14}: 11 diagrams of 13 and 14 crossings
    _census(h1, h2)


# the family diagrams of up to 10 crossings whose hypotheses hold
CENSUS = ([("pretzel", p) for p in ((3, -2, -2), (4, -2, -2), (5, -2, -2),
                                    (6, -2, -2), (4, -3, -2), (3, 3, -2, -2))]
          + [("braid3", p) for p in ((3, 2), (4, 2), (5, 2), (6, 2), (4, 3),
                                     (4, 4), (3, 2, 3, 2))]
          + [("rational", p) for p in ((3, 2), (4, 2), (3, 3), (5, 2),
                                       (6, 2), (4, 4), (4, 2, 3))])


def _census_family(family, params):
    """A `CENSUS` diagram and the state its certificates start from."""
    d = {"pretzel": pretzel, "braid3": braid3_closure,
         "rational": rational}[family](list(params))
    return d, d.family_negative if d.family_negative is not None else 0


@pytest.mark.parametrize("family, params", CENSUS)
def test_family_census_against_table(family, params):
    # the paper's order-two classes against the integral homology: at
    # each (h, q) the table has at least as many Z2 summands as there are
    # distinct admissible classes among the all-even certificates there,
    # and the family bound and the admissible class count are at most
    # its Z2 summands in all
    from khtorsion import khovanov_table
    d, s0 = _census_family(family, params)
    heights = checked_hypotheses(d, s0).mu_heights()
    classes = admissible_classes(heights)
    class_of = {mu: k for k, members in enumerate(classes) for mu in members}
    found = {}
    for mu in all_even_tuples(heights):
        cert = certify_torsion(d, s0, mu)
        found.setdefault((cert.h, cert.q), set()).add(class_of[mu])
    z2 = {hq: tors.count(2)
          for hq, (_, tors) in khovanov_table(d).hq_entries().items()}
    for hq, ks in found.items():
        assert len(ks) <= z2.get(hq, 0), hq
    bound = family_lower_bound(family, params)
    assert bound.applicable and bound.bound <= sum(z2.values())
    assert len(classes) <= sum(z2.values())


# ---- the classes span the torsion -----------------------------------------


def _kept(chains):
    """The chains of one (i, j), each kept unless it plus the sum of some
    of those already kept is exact: for order-two classes, the kept
    count is the F2-dimension of their span."""
    kept = []
    for v in chains:
        if not any(is_exact(sum(subset, v))[0] for r in range(len(kept) + 1)
                   for subset in itertools.combinations(kept, r)):
            kept.append(v)
    return kept


def _by_degree(chains):
    groups = {}
    for v in chains:
        groups.setdefault((v.i, v.j), []).append(v)
    return groups


def _generation(h1, h2):
    """The admissible and monocircular classes of D(h1, h2) generate its
    torsion: at each degree with a class, the kept count is the number
    of Z2 and the torsion is Z2 only, and no other degree has torsion."""
    from khtorsion import khovanov_table
    d = monocircular(h1, h2)
    ladders = detect_ladders(d, 0)
    vs = [chain_V(d, 0, ladders, cls[0])
          for cls in admissible_classes((h1, h2))]
    vs += [monocircular_V(d, which, mu)
           for which, h in ((1, h1), (2, h2)) for mu in range(1, h, 2)]
    groups = _by_degree(vs)
    table = khovanov_table(d)
    for ij, chains in groups.items():
        _, tors = table.entry(*ij)
        assert set(tors) == {2}, (h1, h2, ij, tors)
        assert len(_kept(chains)) == len(tors), (h1, h2, ij)
    assert {ij for ij, (_, tors) in table.entries.items() if tors} \
        <= set(groups), (h1, h2)


@pytest.mark.parametrize("h1, h2", [(h1, s - h1) for s in range(4, 11)
                                    for h1 in range(2, s - 1)])
def test_classes_generate_twist_knot_torsion(h1, h2):
    _generation(h1, h2)


@pytest.mark.slow
@pytest.mark.parametrize("h1, h2", [(h1, s - h1) for s in (11, 12)
                                    for h1 in range(2, s - 1)])
def test_classes_generate_twist_knot_torsion_to_12(h1, h2):
    _generation(h1, h2)


@pytest.mark.parametrize("family, params", CENSUS)
def test_family_classes_are_independent(family, params):
    # one V per admissible class of the family state: none of them is
    # in the span of the others at its degree
    d, s0 = _census_family(family, params)
    classes = admissible_classes(checked_hypotheses(d, s0).mu_heights())
    vs = [certify_torsion(d, s0, cls[0]).chain_v for cls in classes]
    for chains in _by_degree(vs).values():
        assert len(_kept(chains)) == len(chains)
