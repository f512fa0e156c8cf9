import random
import re

import pytest

from helpers import (
    assert_classical_report_agrees,
    assert_mixed_relations,
    bicrossed_antipode_direct,
    bicrossed_mult_direct,
    check_mixed_relations_on_every_build,
    crossed_mult_direct,
    crossed_rows_direct,
    group_unified_product,
    idempotent_monoid_bialgebra,
    left_module_law_direct,
    one_entry_corruptions,
    s3_pair_with_bad_lact,
    sweedler_bialgebra,
    tensor_product_oracle,
    with_column,
    z4_crossed_with_bad_cocycle,
)
from hopfprod.classification import (
    ContextError,
    check_equivalence,
    enumerate_cocycles,
    trivial_lazy_cocycle,
)
from hopfprod.corpus import (
    s3_c3_ges,
    s3_matched_pair,
    s3_transposed_matched_pair,
    z2xz2_crossed_datum,
    z4_c2_ges,
    z4_crossed_datum,
)
from hopfprod.fields import QQ, PrimeField
from hopfprod.groups import builtin_group, group_algebra
from hopfprod.linalg import LinMap, basis_vec
from hopfprod.serialize import serialize
from hopfprod.special import (
    CrossedDatum,
    MatchedPair,
    build_bicrossed,
    build_crossed,
    check_bicrossed_equivalence,
    check_crossed,
    check_matched_pair,
    crossed_datum,
    deform_matched_pair,
    matched_pair_datum,
    trivial_matched_pair,
)
from hopfprod.structures import (
    FDHopf,
    antipode_solve,
    attach_antipode,
    check_bialgebra,
    trivial_action_left,
    trivial_action_right,
    trivial_cocycle,
)
from hopfprod.unified import (
    DatumConditionError,
    assemble_product,
    check_product_conditions,
    validate_datum,
)


@pytest.fixture(autouse=True)
def mixed_relations_on_every_build(monkeypatch):
    check_mixed_relations_on_every_build(monkeypatch)


def failing(report):
    return {item.condition for item in report.failures()}


def test_trivial_matched_pair_passes_and_gives_tensor_product():
    a = group_algebra(builtin_group("c3"))
    h = group_algebra(builtin_group("c2"))
    mp = trivial_matched_pair(a, h)
    assert check_matched_pair(mp).ok
    p = build_bicrossed(mp)
    t = tensor_product_oracle(a, h)
    assert p.carrier.mult == t.mult and p.carrier.delta == t.delta


def test_s3_matched_pair_passes():
    assert check_matched_pair(s3_matched_pair()).ok
    assert check_matched_pair(s3_transposed_matched_pair()).ok


def test_s3_bicrossed_equals_group_algebra():
    p = build_bicrossed(s3_matched_pair())
    expected = group_algebra(group_unified_product(s3_c3_ges()))
    assert p.carrier.mult == expected.mult
    assert p.carrier.delta == expected.delta
    assert p.carrier.unit == expected.unit


def test_s3_bicrossed_antipode_is_group_inverse():
    p = build_bicrossed(s3_matched_pair())
    expected = group_algebra(group_unified_product(s3_c3_ges()))
    assert isinstance(p.carrier, FDHopf)
    assert p.carrier.antipode == expected.antipode


def sweedler_action_symmetry_violation():
    # needs honestly non-cocommutative structure on both sides: take the
    # four-dimensional bialgebra acting on itself, right action trivial and a
    # left action redefined on the single pair (x, x)
    b = sweedler_bialgebra()
    lact = with_column(trivial_action_left(QQ, b.coalgebra, b.space), 2 * 4 + 2,
                       {0: QQ.one})  # x |> x := 1
    return MatchedPair(a=b, h=b, ract=trivial_action_right(QQ, b.space, b.coalgebra),
                       lact=lact)


def test_action_symmetry_violation_detected():
    rep = check_matched_pair(sweedler_action_symmetry_violation())
    items = {item.condition: item for item in rep.items}
    assert not items["action-symmetry"].passed
    assert items["action-symmetry"].witness == "(x,x)"


def oracle_matched_pairs():
    """Every matched pair the suite builds, valid or not, plus the trivial
    pairs of Sweedler's H4 (multi-term coproducts) with H4 and with k[C3]."""
    g = lambda name: group_algebra(builtin_group(name))
    h4 = attach_antipode(sweedler_bialgebra())
    return [
        s3_matched_pair(), s3_matched_pair(PrimeField(7)), s3_transposed_matched_pair(),
        trivial_matched_pair(g("c2"), g("c1")), trivial_matched_pair(g("c1"), g("c2")),
        trivial_matched_pair(g("c2"), g("c2")), trivial_matched_pair(g("s3"), g("c1")),
        trivial_matched_pair(g("c3"), g("c2")), trivial_matched_pair(g("c2"), g("c4")),
        trivial_matched_pair(g("c4"), g("c2")), trivial_matched_pair(g("c3"), g("s3")),
        trivial_matched_pair(h4, h4), trivial_matched_pair(h4, g("c3")),
        s3_pair_with_bad_lact(), sweedler_action_symmetry_violation(),
    ]


def oracle_crossed_data():
    return [z4_crossed_datum(), z2xz2_crossed_datum(), z4_crossed_with_bad_cocycle(),
            sweedler_cocycle_symmetry_violation()]


def test_bicrossed_direct_formula_matches_engine():
    built = 0
    for mp in oracle_matched_pairs():
        direct = bicrossed_mult_direct(mp)
        d = matched_pair_datum(mp)
        carrier = assemble_product(d)
        assert direct == carrier.mult
        if validate_datum(d).ok:
            assert_mixed_relations(d, carrier)
        if not check_matched_pair(mp).ok:
            continue
        p = build_bicrossed(mp)
        assert direct == p.carrier.mult
        if isinstance(mp.a, FDHopf) and isinstance(mp.h, FDHopf):
            assert bicrossed_antipode_direct(mp, p.carrier) == p.carrier.antipode
        built += 1
    assert built == 13


def _classical_corruption_cases():
    """Every one-entry corruption of the left action and the cocycle of the
    z4, Klein and trivial-H4 crossed data, and of either action of the S3,
    transposed-S3 and trivial-H4 matched pairs, over QQ and GF(5)."""
    for field in (QQ, PrimeField(5)):
        h4 = sweedler_bialgebra(field)
        for cd in (z4_crossed_datum(field), z2xz2_crossed_datum(field),
                   CrossedDatum(h4, h4, trivial_action_left(field, h4.coalgebra, h4.space),
                                trivial_cocycle(field, h4.coalgebra, h4.unit, h4.space))):
            yield from (CrossedDatum(cd.a, cd.h, x, cd.cocycle)
                        for x in one_entry_corruptions(cd.lact))
            yield from (CrossedDatum(cd.a, cd.h, cd.lact, f)
                        for f in one_entry_corruptions(cd.cocycle))
        for mp in (s3_matched_pair(field), s3_transposed_matched_pair(field),
                   trivial_matched_pair(h4, h4)):
            yield from (MatchedPair(mp.a, mp.h, r, mp.lact)
                        for r in one_entry_corruptions(mp.ract))
            yield from (MatchedPair(mp.a, mp.h, mp.ract, x)
                        for x in one_entry_corruptions(mp.lact))


def test_classical_checkers_agree_with_the_hand_written_formulas():
    # a seeded sample of the corruption set; each call also goes through the
    # every-call wrapper.  Rows that differ from the hand-written ones occur,
    # and only where a map fails to be a coalgebra map
    cases = random.Random(13).sample(list(_classical_corruption_cases()), 200)
    factors = {id(b): b for case in cases for b in (case.a, case.h)}
    assert all(check_bialgebra(b).ok for b in factors.values())
    seen = set()
    for case in cases:
        if isinstance(case, CrossedDatum):
            rep, direct = check_crossed(case), crossed_rows_direct(case)
        else:
            rep, direct = check_matched_pair(case), left_module_law_direct(case)
        same = assert_classical_report_agrees(case.a, case.h, rep, direct)
        maps_ok = all(it.passed for it in rep.items
                      if it.condition.endswith("-coalgebra-map"))
        seen.add((type(case).__name__, maps_ok, same))
    assert {(kind, True, True) for kind in ("CrossedDatum", "MatchedPair")} <= seen
    assert {(kind, False, False) for kind in ("CrossedDatum", "MatchedPair")} <= seen
    assert all(same for _, maps_ok, same in seen if maps_ok)


def test_crossed_trivial_everything_gives_tensor_product():
    cd = z2xz2_crossed_datum()
    assert check_crossed(cd).ok
    p = build_crossed(cd)
    t = tensor_product_oracle(cd.a, cd.h)
    assert p.carrier.mult == t.mult


def test_z4_crossed_datum_passes_group_cocycle_oracle():
    cd = z4_crossed_datum()
    rep = check_crossed(cd)
    assert rep.ok
    # independent oracle: f is a normalized 2-cocycle of C2 with values in
    # C2: f(y,z) f(y+z, w) = f(z, w) f(y, z+w) pointwise (trivial action)
    c2 = builtin_group("c2")
    f = {(i, j): next(iter(cd.cocycle.col(i * 2 + j))) for i in range(2)
         for j in range(2)}
    for y in range(2):
        for z in range(2):
            for w in range(2):
                lhs = c2.table[f[(y, z)]][f[(c2.table[y][z], w)]]
                rhs = c2.table[f[(z, w)]][f[(y, c2.table[z][w])]]
                assert lhs == rhs
    assert f[(1, 1)] == 1  # the nontrivial element


def test_z4_crossed_product_is_cyclic_of_order_four():
    p = build_crossed(z4_crossed_datum())
    expected = group_algebra(group_unified_product(z4_c2_ges()))
    assert p.carrier.mult == expected.mult
    # and the antipode solves to the inverse permutation of Z4
    assert antipode_solve(p.carrier) == expected.antipode


def test_crossed_equals_unified_with_trivial_ract_byte_identical():
    built = 0
    for cd in oracle_crossed_data():
        direct = serialize(crossed_mult_direct(cd))
        d = crossed_datum(cd)
        carrier = assemble_product(d)
        assert direct == serialize(carrier.mult)
        if validate_datum(d).ok:
            assert_mixed_relations(d, carrier)
        if check_crossed(cd).ok:
            assert direct == serialize(build_crossed(cd).carrier.mult)
            built += 1
    assert built == 2


def sweedler_cocycle_symmetry_violation():
    # non-symmetric cocycle over the non-cocommutative four-dimensional
    # bialgebra: f trivial except f(x, g) = 1, which skews the two tensor
    # legs (f(x, x) = g would still sit diagonally and pass)
    b = sweedler_bialgebra()
    cocycle = with_column(trivial_cocycle(QQ, b.coalgebra, b.unit, b.space), 2 * 4 + 1,
                          {0: QQ.one})
    return CrossedDatum(a=b, h=b, lact=trivial_action_left(QQ, b.coalgebra, b.space),
                        cocycle=cocycle)


def test_cocycle_symmetry_violation_detected():
    rep = check_crossed(sweedler_cocycle_symmetry_violation())
    items = {item.condition: item for item in rep.items}
    assert not items["cocycle-symmetry"].passed
    assert items["cocycle-symmetry"].witness == "(x,g)"


def test_deform_by_trivial_cocycle_is_identity():
    mp = s3_matched_pair()
    u = trivial_lazy_cocycle(mp.h.unit_coalgebra(), mp.a)
    d = deform_matched_pair(mp, u)
    assert d.components_equal(matched_pair_datum(mp)) is None


def test_deform_group_case_matches_pointwise_oracle():
    mp = s3_matched_pair()
    h_unital = mp.h.unit_coalgebra()
    c3 = builtin_group("c3")
    ges = s3_c3_ges()
    for u in enumerate_cocycles(h_unital, mp.a):
        d = deform_matched_pair(mp, u)
        assert validate_datum(d).ok
        assert check_product_conditions(d).ok
        # pointwise oracle: f'(h, g) = u(h) (h |> u(g)) u(h g)^-1 in C3
        um = {i: next(iter(u.linmap.col(i))) for i in range(2)}
        for hi in range(2):
            for gi in range(2):
                lact_val = next(iter(
                    mp.lact.bilin(basis_vec(QQ, hi),
                                  basis_vec(QQ, um[gi]), 3)))
                prod = c3.table[c3.table[um[hi]][lact_val]][
                    c3.inverse[um[ges.star[hi][gi]]]]
                assert d.cocycle.col(hi * 2 + gi) == {prod: QQ.one}


def test_deformed_dot_formula_collapses_to_original():
    # the deformed dot (h <| u(g1)) . g2 equals the original multiplication
    # whenever the right action kills the cocycle; checked, not assumed
    mp = s3_matched_pair()
    h_unital = mp.h.unit_coalgebra()
    for u in enumerate_cocycles(h_unital, mp.a):
        hd = mp.h.dim
        cols = {}
        for hi in range(hd):
            for gi in range(hd):
                out = {}
                for (g1, g2), cg in mp.h.coalgebra.expand(gi, 2):
                    term = mp.h.mul(
                        mp.ract.bilin(basis_vec(QQ, hi),
                                      u.linmap.apply(basis_vec(QQ, g1)), mp.a.dim),
                        basis_vec(QQ, g2))
                    for k, v in term.items():
                        out[k] = out.get(k, QQ.zero) + cg * v
                cols[hi * hd + gi] = {k: v for k, v in out.items() if v != 0}
        deformed_dot = LinMap(QQ, mp.h.mult.domain, mp.h.space, cols)
        assert deformed_dot == mp.h.mult


def test_deform_is_equivalent_to_original_via_same_cocycle():
    mp = s3_matched_pair()
    base_datum = matched_pair_datum(mp)
    h_unital = mp.h.unit_coalgebra()
    for u in enumerate_cocycles(h_unital, mp.a):
        d2 = deform_matched_pair(mp, u)
        result = check_equivalence(base_datum, d2, u)
        assert result.ok
        assert result.certificate is not None


def test_deform_rejects_cocycle_not_killed_by_ract():
    mp = s3_transposed_matched_pair()
    cands = enumerate_cocycles(mp.h.unit_coalgebra(), mp.a)
    nontrivial = [u for u in cands
                  if u.linmap != trivial_lazy_cocycle(mp.h.unit_coalgebra(),
                                                      mp.a).linmap]
    assert nontrivial
    with pytest.raises(ValueError, match="does not kill"):
        deform_matched_pair(mp, nontrivial[0])


def test_builders_refuse_a_failing_classical_datum():
    for build, bad, first in (
            (build_bicrossed, s3_pair_with_bad_lact(),
             ("left-module-law", "((1 2),(1 2),(0 1 2))")),
            (build_crossed, z4_crossed_with_bad_cocycle(), ("cocycle-normalization", "(1)"))):
        with pytest.raises(DatumConditionError) as err:
            build(bad)
        item = err.value.report.first_failure()
        assert (item.condition, item.witness) == first


def _monoid_pair():
    """A matched pair over the monoid bialgebra k{e, z}, which has no antipode."""
    return trivial_matched_pair(idempotent_monoid_bialgebra(), group_algebra(builtin_group("c1")))


def _foreign_unit():
    """A cocycle over (k[C2], k[C2]), the context of no matched pair below."""
    d = crossed_datum(z4_crossed_datum())
    return trivial_lazy_cocycle(d.ext, d.base)


def _c2_pair():
    c2 = group_algebra(builtin_group("c2"))
    return trivial_matched_pair(c2, c2)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: deform_matched_pair(_monoid_pair(), _foreign_unit()),
                 "deformation needs an antipode on the base", id="deform-no-antipode"),
    pytest.param(lambda: deform_matched_pair(s3_matched_pair(), _foreign_unit()),
                 "cocycle context does not match the matched pair", id="deform-context"),
    pytest.param(lambda: check_bicrossed_equivalence(s3_matched_pair(), _c2_pair(),
                                                     _foreign_unit()),
                 "matched pairs must share both Hopf algebras", id="equivalence-pairs"),
    pytest.param(lambda: check_bicrossed_equivalence(_monoid_pair(), _monoid_pair(),
                                                     _foreign_unit()),
                 "bicrossed equivalence needs Hopf algebras on both sides",
                 id="equivalence-no-antipode"),
    pytest.param(lambda: check_bicrossed_equivalence(s3_matched_pair(), s3_matched_pair(),
                                                     _foreign_unit()),
                 "cocycle context does not match the matched pairs", id="equivalence-context"),
])
def test_each_refusal_raises_a_context_error_with_its_message(call, message):
    with pytest.raises(ContextError, match=f"^{re.escape(message)}$"):
        call()
