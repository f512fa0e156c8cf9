import dataclasses
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    assert_bicrossed_report_agrees,
    idempotent_monoid_bialgebra,
    one_entry_corruptions,
    product_projections,
    s4_over_s3_datum,
    sweedler_bialgebra,
    tensor_map,
    trivial_datum,
    twist_map,
    with_column,
)
from hopfprod.classification import (
    CapExceededError,
    ContextError,
    NotGroupLikeError,
    check_equivalence,
    cocycle_convolve,
    deform_datum,
    cocycle_inverse,
    LazyCocycle,
    NotALazyCocycleError,
    enumerate_cocycles,
    is_lazy_cocycle,
    quotient_classes,
    trivial_lazy_cocycle,
)
from hopfprod.corpus import (
    s3_matched_pair,
    s3_transposed_matched_pair,
    z2xz2_crossed_datum,
    z4_crossed_datum,
)
from hopfprod.factorization import FactorizationInput, recover_datum
from hopfprod.fields import QQ, PrimeField
from hopfprod.groups import builtin_group, group_algebra, grouplike_coalgebra
from hopfprod.linalg import LinMap, compose, tensor_space, tensor_vec, vec_add_into
from hopfprod.reports import Report
from hopfprod.special import (
    MatchedPair,
    check_bicrossed_equivalence,
    crossed_datum,
    deform_matched_pair,
    matched_pair_datum,
    trivial_matched_pair,
)
from hopfprod.structures import FDAlgebra, FDBialgebra, UnitalCoalgebra, attach_antipode
from hopfprod.unified import assemble_product, build_unified_product


def test_trivial_cocycle_is_lazy():
    a = group_algebra(builtin_group("s3"))
    h = grouplike_coalgebra(("p", "q"), QQ)
    u = trivial_lazy_cocycle(h, a)
    assert is_lazy_cocycle(u.linmap, h, a)


def test_every_pointed_set_map_is_lazy():
    a = group_algebra(builtin_group("s3"))
    h = grouplike_coalgebra(("p", "q", "r"), QQ)
    cands = enumerate_cocycles(h, a)
    assert len(cands) == 36
    for u in cands:
        assert is_lazy_cocycle(u.linmap, h, a)


def test_map_to_a_sum_of_grouplikes_is_not_lazy():
    a = group_algebra(builtin_group("c2"))
    h = grouplike_coalgebra(("p", "q"), QQ)
    bad = LinMap(QQ, h.space, a.space,
                 {0: {0: QQ.one}, 1: {0: QQ.one, 1: QQ.one}})
    assert not is_lazy_cocycle(bad, h, a)


def test_public_constructor_rejects_a_non_lazy_map():
    a = group_algebra(builtin_group("c2"))
    h = grouplike_coalgebra(("p", "q"), QQ)
    bad = LinMap(QQ, h.space, a.space, {0: {0: QQ.one}, 1: {0: QQ.one, 1: QQ.one}})
    with pytest.raises(NotALazyCocycleError, match="map is not a lazy cocycle"):
        LazyCocycle(bad, h, a)
    with pytest.raises(ValueError, match="cocycle shape does not match"):
        LazyCocycle(LinMap(QQ, h.space, tensor_space(h.space, h.space), {}), h, a)


def test_map_moving_the_basepoint_is_not_lazy():
    a = group_algebra(builtin_group("c2"))
    h = grouplike_coalgebra(("p", "q"), QQ)
    bad = LinMap(QQ, h.space, a.space, {0: {1: QQ.one}, 1: {0: QQ.one}})
    assert not is_lazy_cocycle(bad, h, a)


def test_lazy_condition_fails_on_noncocommutative_input():
    # identity-style map out of the four-dimensional coalgebra violates the
    # component-swap condition
    b = sweedler_bialgebra()
    h = UnitalCoalgebra(b.coalgebra, b.unit)
    ident = LinMap.identity(QQ, b.space)
    assert not is_lazy_cocycle(ident, h, b)


def test_convolution_unit_neutral_and_inverse():
    a = group_algebra(builtin_group("s3"))
    h = grouplike_coalgebra(("p", "q"), QQ)
    unit = trivial_lazy_cocycle(h, a)
    for u in enumerate_cocycles(h, a):
        assert cocycle_convolve(u, unit).linmap == u.linmap
        assert cocycle_convolve(unit, u).linmap == u.linmap
        v = cocycle_inverse(u)
        assert cocycle_convolve(u, v).linmap == unit.linmap
        assert cocycle_convolve(v, u).linmap == unit.linmap
        # S_A . u shares the stored columns of S_A
        assert all(v.linmap.cols[i] is a.antipode.cols[col[0][0]]
                   for i, col in u.linmap.cols.items())


def test_the_group_operations_are_held_against_is_lazy_cocycle():
    # the library does not re-validate products and inverses; the tests do,
    # on every call, so an unchecked non-lazy factor is caught there
    a = group_algebra(builtin_group("c2"))
    h = grouplike_coalgebra(("p", "q"), QQ)
    bad = LazyCocycle._unchecked(LinMap(QQ, h.space, a.space,
                                        {0: {0: QQ.one}, 1: {0: QQ.one, 1: QQ.one}}), h, a)
    with pytest.raises(AssertionError, match="not a lazy cocycle"):
        cocycle_convolve(bad, trivial_lazy_cocycle(h, a))
    with pytest.raises(AssertionError, match="not a lazy cocycle"):
        cocycle_inverse(bad)


def test_convolution_is_pointwise_product_on_grouplikes():
    g = builtin_group("s3")
    a = group_algebra(g)
    h = grouplike_coalgebra(("p", "q"), QQ)
    cands = enumerate_cocycles(h, a)
    for u in cands[:6]:
        for v in cands[:6]:
            w = cocycle_convolve(u, v)
            for i in range(2):
                ui = next(iter(u.linmap.col(i)))
                vi = next(iter(v.linmap.col(i)))
                assert w.linmap.col(i) == {g.table[ui][vi]: QQ.one}
                assert w.linmap.cols[i] is a.mult.cols[ui * a.dim + vi]


def test_cocycle_group_table_isomorphic_to_s3():
    # |X| = 2 over k[S3]: six cocycles, convolution table equals the S3 table
    # under u -> u(q)
    g = builtin_group("s3")
    a = group_algebra(g)
    h = grouplike_coalgebra(("p", "q"), QQ)
    cands = enumerate_cocycles(h, a)
    index_of = {next(iter(u.linmap.col(1))): k for k, u in enumerate(cands)}
    assert sorted(index_of) == list(range(6))
    for u in cands:
        for v in cands:
            w = cocycle_convolve(u, v)
            ui = next(iter(u.linmap.col(1)))
            vi = next(iter(v.linmap.col(1)))
            assert next(iter(w.linmap.col(1))) == g.table[ui][vi]


def test_enumeration_counts_and_caps():
    a2 = group_algebra(builtin_group("c2"))
    assert len(enumerate_cocycles(grouplike_coalgebra(("p", "q"), QQ), a2)) == 2
    cands = enumerate_cocycles(grouplike_coalgebra(("p", "q", "r"), QQ), a2)
    assert len(cands) == 4
    # the candidates share one stored column per basis element of A
    assert len({id(col) for u in cands for col in u.linmap.cols.values()}) == a2.dim
    for u in cands:
        for v in cands:
            assert any(cocycle_convolve(u, v).linmap == w.linmap for w in cands)
    with pytest.raises(CapExceededError):
        enumerate_cocycles(grouplike_coalgebra(("p", "q", "r"), QQ), a2, cap=3)


def test_enumeration_rejects_non_grouplike():
    b = sweedler_bialgebra()
    h = UnitalCoalgebra(b.coalgebra, b.unit)
    with pytest.raises(NotGroupLikeError):
        enumerate_cocycles(h, group_algebra(builtin_group("c2")))
    with pytest.raises(NotGroupLikeError):
        enumerate_cocycles(grouplike_coalgebra(("p", "q"), QQ), b)


def _grouplike_look_alike(side, defect):
    """(H, A) over two points with one defect planted in the coalgebra of H
    or of A, the rest group-like: an epsilon of 2, a delta point off the
    diagonal, or a delta column 2 e_j."""
    from hopfprod.structures import FDCoalgebra

    h, a = grouplike_coalgebra(("p", "q"), QQ), group_algebra(builtin_group("c2"))
    c = h.coalg if side == "h" else a.coalgebra
    delta, eps = c.delta, c.epsilon
    if defect == "eps-2":
        eps = with_column(eps, 1, {0: QQ.of(2)})
    elif defect == "delta-off-diagonal":
        delta = with_column(delta, 1, {1 * c.dim + 0: QQ.one})
    else:
        delta = with_column(delta, 1, {1 * c.dim + 1: QQ.of(2)})
    c = FDCoalgebra(QQ, c.space, delta, eps)
    if side == "h":
        return UnitalCoalgebra(c, h.unit), a
    return h, FDBialgebra(c, a.algebra)


@pytest.mark.parametrize("side", ["h", "a"])
@pytest.mark.parametrize("defect", ["eps-2", "delta-off-diagonal", "delta-2e"])
def test_enumeration_rejects_one_point_off_group_like(side, defect):
    h, a = _grouplike_look_alike(side, defect)
    name = side.upper()
    with pytest.raises(NotGroupLikeError, match=f"^{name} is not group-like on its basis$"):
        enumerate_cocycles(h, a)


def test_self_equivalence_via_trivial_cocycle_is_identity():
    d = matched_pair_datum(s3_matched_pair())
    u = trivial_lazy_cocycle(d.ext, d.base)
    result = check_equivalence(d, d, u)
    assert result.ok
    cert = result.certificate
    assert cert.phi == LinMap.identity(QQ, cert.phi.domain)
    assert cert.psi == LinMap.identity(QQ, cert.psi.domain)


def test_equivalence_gate_on_differing_ract():
    from hopfprod.corpus import a4_unified_datum
    from hopfprod.structures import trivial_action_right

    d = a4_unified_datum()  # its right action is genuinely nontrivial
    d2 = type(d)(base=d.base, ext=d.ext, dot=d.dot,
                 ract=trivial_action_right(QQ, d.ext.space, d.base.coalgebra),
                 lact=d.lact, cocycle=d.cocycle)
    assert d2.ract != d.ract
    u = trivial_lazy_cocycle(d.ext, d.base)
    result = check_equivalence(d, d2, u)
    assert not result.ok
    assert result.report.items[0].condition == "ract-equal"
    assert not result.report.items[0].passed
    assert result.certificate is None


def test_certificate_diagram_properties():
    mp = s3_matched_pair()
    d = matched_pair_datum(mp)
    base_product = build_unified_product(d)
    for u in enumerate_cocycles(d.ext, d.base):
        d2 = deform_matched_pair(mp, u)
        result = check_equivalence(d, d2, u)
        assert result.ok
        cert = result.certificate
        deformed_product = build_unified_product(d2)
        # phi restricts to the identity on the base and commutes with the
        # projection onto H
        assert compose(cert.phi, deformed_product.incl_base) == base_product.incl_base
        _, base_proj_ext, base_coaction = product_projections(base_product)
        _, deformed_proj_ext, deformed_coaction = product_projections(deformed_product)
        assert compose(base_proj_ext, cert.phi) == deformed_proj_ext
        # and with the coaction
        ident_h = LinMap.identity(QQ, d.ext.space)
        assert compose(base_coaction, cert.phi) == \
            compose(tensor_map(cert.phi, ident_h), deformed_coaction)


def test_equivalence_symmetry_and_transitivity():
    mp = s3_matched_pair()
    d = matched_pair_datum(mp)
    cands = enumerate_cocycles(d.ext, d.base)
    u, v = cands[1], cands[2]
    du = deform_matched_pair(mp, u)
    # symmetry: if du is the u-deformation of d, then d is the (S o u)
    # deformation of du
    assert check_equivalence(d, du, u).ok
    assert check_equivalence(du, d, cocycle_inverse(u)).ok
    # transitivity along convolution: deforming d by v*u matches deforming
    # du by v (the cocycles compose by convolution)
    duv = deform_matched_pair(mp, cocycle_convolve(v, u))
    assert check_equivalence(du, duv, v).ok
    assert check_equivalence(d, duv, cocycle_convolve(v, u)).ok


def test_deforming_a_nontrivial_cocycle_datum_stays_equivalent():
    # the A4 datum has a nontrivial cocycle, so this exercises the full
    # deformation formula including the term twisted by the deformed dot
    from hopfprod.classification import deform_datum
    from hopfprod.corpus import a4_unified_datum
    from hopfprod.unified import check_product_conditions, validate_datum

    d = a4_unified_datum()
    cands = enumerate_cocycles(d.ext, d.base)
    assert len(cands) == 32
    for u in cands[:3] + cands[-2:]:
        d2 = deform_datum(d, u)
        assert validate_datum(d2).ok
        assert check_product_conditions(d2).ok
        assert check_equivalence(d, d2, u).ok
    d2 = deform_datum(d, cands[1])
    assert d2.components_equal(d) is not None
    assert quotient_classes([d, d2]) == [[0, 1]]


def test_quotient_classes_singleton():
    d = matched_pair_datum(s3_matched_pair())
    assert quotient_classes([d]) == [[0]]


def test_quotient_classes_z4_deformations_one_class(monkeypatch):
    import hopfprod.classification
    from hopfprod.classification import deform_datum

    dz = crossed_datum(z4_crossed_datum())
    cands = enumerate_cocycles(dz.ext, dz.base)
    assert len(cands) == 2
    data = [dz] + [deform_datum(dz, u) for u in cands]
    # over C2 the coboundary of any pointed map is trivial, so every
    # deformation lands back on dz itself
    for d2 in data[1:]:
        assert d2.components_equal(dz) is None
    assembled = []
    assemble = hopfprod.classification.assemble_product
    monkeypatch.setattr(hopfprod.classification, "assemble_product",
                        lambda d: assembled.append(d) or assemble(d))
    assert quotient_classes(data) == [[0, 1, 2]]
    assert len(assembled) == len(data)  # each datum once, not once per pair


def test_quotient_classes_separate_z4_from_klein():
    dz = crossed_datum(z4_crossed_datum())
    dk = crossed_datum(z2xz2_crossed_datum())
    classes = quotient_classes([dz, dk])
    assert classes == [[0], [1]]


def test_quotient_classes_joins_a_dot_whose_columns_were_inserted_in_another_order():
    d = crossed_datum(z4_crossed_datum())
    dot = d.dot
    reordered = LinMap(dot.field, dot.domain, dot.codomain, dict(reversed(dot.cols.items())))
    assert list(reordered.cols) == list(reversed(dot.cols))
    assert quotient_classes([d, dataclasses.replace(d, dot=reordered)]) == [[0, 1]]


def _monoid_datum():
    """A datum over the monoid bialgebra k{e, z}, which has no antipode."""
    return trivial_datum(idempotent_monoid_bialgebra(), group_algebra(builtin_group("c1")))


def test_quotient_classes_refuses_a_base_without_antipode_before_assembling(monkeypatch):
    import hopfprod.classification

    def refuse(d):
        raise AssertionError("assemble_product called")

    monkeypatch.setattr(hopfprod.classification, "assemble_product", refuse)
    with pytest.raises(ContextError, match="^equivalence checking needs a Hopf base$"):
        quotient_classes([_monoid_datum()])
    # a coalgebra that is not group-like is named first, antipode or not
    d = trivial_datum(idempotent_monoid_bialgebra(), sweedler_bialgebra())
    with pytest.raises(NotGroupLikeError, match="^H is not group-like on its basis$"):
        quotient_classes([d])


def _unit(d):
    return trivial_lazy_cocycle(d.ext, d.base)


def _z4():
    return crossed_datum(z4_crossed_datum())


def _s3():
    return matched_pair_datum(s3_matched_pair())


def _unit_off_the_basis(name):
    """(H, A) over which the unit of H, or of A, is not a basis vector."""
    h, a = grouplike_coalgebra(("p", "q"), QQ), group_algebra(builtin_group("c2"))
    if name == "h":
        return UnitalCoalgebra(h.coalg, {0: QQ.one, 1: QQ.one}), a
    return h, FDBialgebra(a.coalgebra, FDAlgebra(QQ, a.space, a.mult, {0: QQ.of(2)}))


@pytest.mark.parametrize("call, exc, message", [
    pytest.param(lambda: cocycle_convolve(_unit(_z4()), _unit(_s3())), ContextError,
                 "cocycles live over different (H, A) pairs", id="convolve-contexts"),
    pytest.param(lambda: cocycle_inverse(_unit(_monoid_datum())), ContextError,
                 "convolution inverse needs an antipode on the base", id="inverse-no-antipode"),
    pytest.param(lambda: enumerate_cocycles(*_unit_off_the_basis("h")), NotGroupLikeError,
                 "the unit of H is not a basis vector", id="enumerate-unit-of-h"),
    pytest.param(lambda: enumerate_cocycles(*_unit_off_the_basis("a")), NotGroupLikeError,
                 "the unit of A is not a basis vector", id="enumerate-unit-of-a"),
    pytest.param(lambda: deform_datum(_z4(), _unit(_s3())), ContextError,
                 "cocycle context does not match the datum", id="deform-context"),
    pytest.param(lambda: deform_datum(_monoid_datum(), _unit(_monoid_datum())), ContextError,
                 "deformation needs a Hopf base", id="deform-no-antipode"),
    pytest.param(lambda: check_equivalence(_z4(), _z4(), _unit(_s3())), ContextError,
                 "cocycle context does not match the data", id="equivalence-context"),
    pytest.param(lambda: quotient_classes([_z4(), _s3()]), ContextError,
                 "all data must share the base, coalgebra and right action",
                 id="classes-context"),
    pytest.param(lambda: quotient_classes([_monoid_datum()]), ContextError,
                 "equivalence checking needs a Hopf base", id="classes-no-antipode"),
])
def test_each_refusal_raises_its_error_with_its_message(call, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        call()


def test_quotient_classes_of_no_data_is_empty():
    assert quotient_classes([]) == []


def test_deformation_is_a_left_action_on_a_non_abelian_base():
    # deforming by u and then by v is deforming by v * u; over the
    # non-abelian k[S3] some drawn pair with u * v != v * u tells the two
    # orders apart
    from hopfprod.classification import deform_datum

    d = s4_over_s3_datum()
    cands = enumerate_cocycles(d.ext, d.base)
    assert len(cands) == 216
    rng = random.Random(26)
    told_apart = 0
    for _ in range(12):
        u, v = rng.sample(cands, 2)
        twice = deform_datum(deform_datum(d, u), v)
        assert twice.components_equal(deform_datum(d, cocycle_convolve(v, u))) is None
        uv = cocycle_convolve(u, v)
        if uv.linmap != cocycle_convolve(v, u).linmap:
            told_apart += twice.components_equal(deform_datum(d, uv)) is not None
    assert told_apart >= 1


def cocycle_complement(e: FDBialgebra, d, u: LazyCocycle) -> LinMap:
    """The inclusion of H_u = {u(h1) h2} into the product e = A # H of d,
    h -> sum u(h1) (x) h2, where a (x) h sits at a * dim H + h."""
    field, nh = d.field, d.ext.dim
    cols = {}
    for hi in range(nh):
        col = cols[hi] = {}
        for (h1, h2), c in d.ext.coalg.expand(hi, 2):
            for ai, x in u.linmap.col(h1).items():
                vec_add_into(field, col, {ai * nh + h2: x}, c)
    return LinMap(field, d.ext.space, e.space, cols)


@pytest.mark.parametrize("name, field, count", [
    ("a4-unified", QQ, 32), ("a4-unified", PrimeField(5), 32), ("s4-over-s3", QQ, 216)],
    ids=["a4-unified-QQ", "a4-unified-GF5", "s4-over-s3-QQ"])
def test_factorizing_through_the_complement_of_a_cocycle_gives_its_deformation(
        name, field, count):
    # the factorization theorem against the classification theorem: E
    # factorizes through A and H_u = {u(h1) h2}, and recover_datum, which
    # reads E through its multiplication map, must give the datum that
    # deform_datum computes without building E
    from hopfprod.corpus import a4_unified_datum

    d = a4_unified_datum(field) if name == "a4-unified" else s4_over_s3_datum()
    e = assemble_product(d)
    incl_a = LinMap(field, d.base.space, e.space,
                    {ai: tensor_vec(field, {ai: field.one}, d.ext.unit, d.ext.dim)
                     for ai in range(d.base.dim)})
    cands = enumerate_cocycles(d.ext, d.base)
    assert len(cands) == count
    moved = 0
    for u in cands:
        fi = FactorizationInput.build(e, incl_a, cocycle_complement(e, d, u))
        want = deform_datum(d, u)
        assert recover_datum(fi).components_equal(want) is None
        moved += d.components_equal(want) is not None
    assert moved == count - 1


def test_every_quotient_call_is_held_against_the_pairwise_relation(monkeypatch):
    # the autouse fixture wraps each binding of quotient_classes and holds
    # its partition against the pairwise oracle: count the oracle's calls,
    # then hand it a wrong partition
    import helpers
    import hopfprod
    import hopfprod.classification

    pairwise = helpers.quotient_classes_pairwise
    calls = []
    monkeypatch.setattr(helpers, "quotient_classes_pairwise",
                        lambda *args: calls.append(args[0]) or pairwise(*args))
    dz = crossed_datum(z4_crossed_datum())
    dk = crossed_datum(z2xz2_crossed_datum())
    for quotient in (quotient_classes, hopfprod.quotient_classes,
                     hopfprod.classification.quotient_classes):
        assert quotient([dz, dk, dz]) == [[0, 2], [1]]
    assert len(calls) == 3
    monkeypatch.setattr(helpers, "quotient_classes_pairwise", lambda *args: [[0, 1, 2]])
    with pytest.raises(AssertionError, match="differ from the pairwise relation"):
        quotient_classes([dz, dk, dz])


def test_quotient_classes_leaves_a_hit_whose_certificate_fails(monkeypatch):
    # a deformation hits data[2], but its certificate is made to fail: it is
    # not joined, nothing is raised, and it starts a class of its own
    import inspect

    import hopfprod.classification
    from hopfprod.classification import EquivalenceResult, deform_datum

    mp = s3_matched_pair()
    d = matched_pair_datum(mp)
    cands = enumerate_cocycles(d.ext, d.base)
    data = [d, deform_datum(d, cands[1]), deform_datum(d, cands[2])]
    certify = inspect.unwrap(hopfprod.classification._certify)

    def refusing(rep, d1, d2, u, prod, prod2):
        if d2 is not data[2]:
            return certify(rep, d1, d2, u, prod, prod2)
        rep.add("phi-bijective", False)
        return EquivalenceResult(rep, None)

    monkeypatch.setattr(hopfprod.classification, "_certify", refusing)
    orbits = inspect.unwrap(quotient_classes)
    assert orbits(data) == [[0, 1], [2]]


def test_bicrossed_equivalence_trivial_case():
    mp = trivial_matched_pair(group_algebra(builtin_group("c3")),
                              group_algebra(builtin_group("c2")))
    u = trivial_lazy_cocycle(mp.h.unit_coalgebra(), mp.a)
    assert check_bicrossed_equivalence(mp, mp, u).ok


def test_bicrossed_equivalence_transposed_s3_only_trivial():
    mp = s3_transposed_matched_pair()
    cands = enumerate_cocycles(mp.h.unit_coalgebra(), mp.a)
    assert len(cands) == 4
    verdicts = [check_bicrossed_equivalence(mp, mp, u).ok for u in cands]
    trivial = trivial_lazy_cocycle(mp.h.unit_coalgebra(), mp.a)
    for u, ok in zip(cands, verdicts):
        assert ok == (u.linmap == trivial.linmap)
    assert verdicts.count(True) == 1


def test_bicrossed_equivalence_c3_base_s3_all_pass():
    # with the abelian base C3 the right action is trivial and conjugation
    # vanishes, so every pointed map passes: the base-C2 split above is the
    # instance where only the trivial cocycle survives
    mp = s3_matched_pair()
    cands = enumerate_cocycles(mp.h.unit_coalgebra(), mp.a)
    assert len(cands) == 3
    assert all(check_bicrossed_equivalence(mp, mp, u).ok for u in cands)


def test_bicrossed_equivalence_direct_product_deformed_by_central_map():
    # on a direct product the triviality identity collapses to the pointwise
    # coboundary u(h) u(g) u(hg)^-1 = 1, so exactly the group homomorphisms
    # into the (central) base pass: for C2 -> C4 those send t to 0 or 2
    c4 = builtin_group("c4")
    mp = trivial_matched_pair(group_algebra(c4),
                              group_algebra(builtin_group("c2")))
    cands = enumerate_cocycles(mp.h.unit_coalgebra(), mp.a)
    verdicts = {}
    for u in cands:
        target = next(iter(u.linmap.col(1)))
        verdicts[target] = check_bicrossed_equivalence(mp, mp, u).ok
    assert verdicts == {0: True, 1: False, 2: True, 3: False}


def _bicrossed_equivalence_cases():
    """The S3, transposed-S3 and C4 x C2 pairs over QQ and GF(5) and the
    trivial pair of Sweedler's H4 and k[C2], each clean and under every
    one-entry corruption of either action, with all their cocycles."""
    c2 = builtin_group("c2")
    pairs = []
    for field in (QQ, PrimeField(5)):
        pairs += [s3_matched_pair(field), s3_transposed_matched_pair(field),
                  trivial_matched_pair(group_algebra(builtin_group("c4"), field),
                                       group_algebra(c2, field))]
    h4 = trivial_matched_pair(attach_antipode(sweedler_bialgebra(QQ)), group_algebra(c2, QQ))
    h = h4.h.unit_coalgebra()
    h4_cocycles = [trivial_lazy_cocycle(h, h4.a),
                   LazyCocycle(LinMap(QQ, h.space, h4.a.space, {0: {0: QQ.one}, 1: {1: QQ.one}}),
                               h, h4.a)]
    for mp in pairs + [h4]:
        cocycles = (h4_cocycles if mp is h4
                    else enumerate_cocycles(mp.h.unit_coalgebra(), mp.a))
        variants = [mp]
        variants += [MatchedPair(mp.a, mp.h, r, mp.lact) for r in one_entry_corruptions(mp.ract)]
        variants += [MatchedPair(mp.a, mp.h, mp.ract, x) for x in one_entry_corruptions(mp.lact)]
        for bad in variants:
            for u in cocycles:
                yield bad, bad, u
                yield bad, mp, u


def test_bicrossed_equivalence_agrees_with_the_direct_triviality_formula():
    # a seeded sample of the corruption set, covering every combination of
    # the ract-kills-cocycle and direct cocycle-triviality verdicts
    cases = list(_bicrossed_equivalence_cases())
    seen = set()
    for mp, mp2, u in random.Random(12).sample(cases, 1500):
        rep = check_bicrossed_equivalence(mp, mp2, u)
        outcome = assert_bicrossed_report_agrees(mp, u, rep)
        if outcome is None:
            assert not rep.ok and mp2.ract != mp.ract
        else:
            seen.add(outcome + (rep.ok,))
    assert {(True, True, True), (True, False, False), (False, True, False),
            (False, False, False)} <= seen


# ---------------------------------------------------------------------------
# independent reference formulas for the shared deformation evaluators


def composed_is_lazy_cocycle(u, h, a):
    """The lazy-cocycle test as composed maps: a unital coalgebra map with
    (id (x) u) . delta = (id (x) u) . twist . delta."""
    from hopfprod.structures import is_coalgebra_map

    if not is_coalgebra_map(u, h.coalg, a.coalgebra):
        return False
    if u.apply(h.unit) != a.unit:
        return False
    ident = LinMap.identity(h.field, h.space)
    straight = compose(tensor_map(ident, u), h.delta)
    crossed = compose(tensor_map(ident, u),
                      compose(twist_map(h.field, h.space, h.space), h.delta))
    return straight == crossed


def _amul(a, *vs):
    out = vs[0]
    for v in vs[1:]:
        out = a.mul(out, v)
    return out


def reference_deform_matched_pair(mp, u):
    """The bicrossed deformation in closed form, for a u the right action
    kills: the dot stays the multiplication of H, the left action conjugates
    by u and the cocycle is u(h1) (h2 |> u(g1)) S_A(u(h3 g2))."""
    from hopfprod.linalg import basis_vec, tensor_space, vec_add_into
    from hopfprod.unified import ExtendingDatum

    a, h = mp.a, mp.h
    field = mp.field
    hc, ac = h.coalgebra, a.coalgebra
    bv = lambda i: basis_vec(field, i)
    adim, hdim = a.dim, h.dim
    um, sa = u.linmap, a.antipode
    lact_cols = {}
    for hi in range(hdim):
        for ci in range(adim):
            out: dict = {}
            for (h1, h2, h3), ch in hc.expand(hi, 3):
                for (c1, c2), cc in ac.expand(ci, 2):
                    term = _amul(a, um.apply(bv(h1)),
                                 mp.lact.bilin(bv(h2), bv(c1), adim),
                                 sa.apply(um.apply(mp.ract.bilin(bv(h3), bv(c2), adim))))
                    vec_add_into(field, out, term, field.mul(ch, cc))
            lact_cols[hi * adim + ci] = out
    coc_cols = {}
    for hi in range(hdim):
        for gi in range(hdim):
            out = {}
            for (h1, h2, h3), ch in hc.expand(hi, 3):
                for (g1, g2), cg in hc.expand(gi, 2):
                    term = _amul(a, um.apply(bv(h1)),
                                 mp.lact.bilin(bv(h2), um.apply(bv(g1)), adim),
                                 sa.apply(um.apply(h.mul(bv(h3), bv(g2)))))
                    vec_add_into(field, out, term, field.mul(ch, cg))
            coc_cols[hi * hdim + gi] = out
    return ExtendingDatum(
        base=a, ext=h.unit_coalgebra(), dot=h.mult, ract=mp.ract,
        lact=LinMap(field, tensor_space(h.space, a.space), a.space, lact_cols),
        cocycle=LinMap(field, tensor_space(h.space, h.space), a.space, coc_cols),
    )


def reference_kill_failure(mp, u):
    """The first pair (h, g) with h <| u(g) != counit(g) h, as labels."""
    from hopfprod.linalg import basis_vec, vec_scale

    field, h = mp.field, mp.h
    for hi in range(h.dim):
        for gi in range(h.dim):
            got = mp.ract.bilin(basis_vec(field, hi), u.linmap.col(gi), mp.a.dim)
            want = vec_scale(field, h.counit(basis_vec(field, gi)), basis_vec(field, hi))
            if got != want:
                return f"({h.space.labels[hi]},{h.space.labels[gi]})"
    return None


def reference_deformation_rows(d, d2, u):
    """(condition, passed, witness) rows for the right-action gate and the
    three deformation formulas, in the order check_equivalence reports them;
    the deformed cocycle is written against d2's own dot."""
    from hopfprod.linalg import basis_vec, vec_add_into

    if d2.ract != d.ract:
        return [("ract-equal", False, "right actions differ")]
    a, h = d.base, d.ext
    field = d.field
    hc, ac = h.coalg, a.coalgebra
    bv = lambda i: basis_vec(field, i)
    sa, um = a.antipode, u.linmap
    adim, hdim = a.dim, h.dim
    hl, al = h.space.labels, a.space.labels

    def lact(hi, ci):
        want: dict = {}
        for (h1, h2, h3), ch in hc.expand(hi, 3):
            for (c1, c2), cc in ac.expand(ci, 2):
                term = _amul(a, um.apply(bv(h1)),
                             d.lact.bilin(bv(h2), bv(c1), adim),
                             sa.apply(um.apply(d.ract.bilin(bv(h3), bv(c2), adim))))
                vec_add_into(field, want, term, field.mul(ch, cc))
        return d2.lact.bilin(bv(hi), bv(ci), adim) == want

    def dot(hi, gi):
        want: dict = {}
        for (g1, g2), cg in hc.expand(gi, 2):
            term = d.dot.bilin(d.ract.bilin(bv(hi), um.apply(bv(g1)), adim),
                               bv(g2), hdim)
            vec_add_into(field, want, term, cg)
        return d2.dot.bilin(bv(hi), bv(gi), hdim) == want

    def cocycle(hi, gi):
        want: dict = {}
        for (h1, h2, h3, h4), ch in hc.expand(hi, 4):
            for (g1, g2, g3, g4), cg in hc.expand(gi, 4):
                term = _amul(
                    a,
                    um.apply(bv(h1)),
                    d.lact.bilin(bv(h2), um.apply(bv(g1)), adim),
                    d.cocycle.bilin(
                        d.ract.bilin(bv(h3), um.apply(bv(g2)), adim), bv(g3), hdim),
                    sa.apply(um.apply(d2.dot.bilin(bv(h4), bv(g4), hdim))),
                )
                vec_add_into(field, want, term, field.mul(ch, cg))
        return d2.cocycle.bilin(bv(hi), bv(gi), hdim) == want

    rows = [("ract-equal", True, None)]
    for name, holds, left, right in (("deformed-lact", lact, hl, al),
                                     ("deformed-dot", dot, hl, hl),
                                     ("deformed-cocycle", cocycle, hl, hl)):
        witness = next((f"({left[i]},{right[j]})"
                        for i in range(len(left)) for j in range(len(right))
                        if not holds(i, j)), None)
        rows.append((name, witness is None, witness))
    return rows


def killed_cocycle_pairs():
    from hopfprod.fields import PrimeField

    return [
        s3_matched_pair(),
        s3_matched_pair(PrimeField(7)),
        trivial_matched_pair(group_algebra(builtin_group("c4")),
                             group_algebra(builtin_group("c2"))),
        trivial_matched_pair(group_algebra(builtin_group("c3")),
                             group_algebra(builtin_group("s3"))),
    ]


def test_deform_matched_pair_matches_the_closed_formula():
    from hopfprod.serialize import serialize

    count = 0
    for mp in killed_cocycle_pairs():
        for u in enumerate_cocycles(mp.h.unit_coalgebra(), mp.a):
            assert reference_kill_failure(mp, u) is None
            assert serialize(deform_matched_pair(mp, u)) == \
                serialize(reference_deform_matched_pair(mp, u))
            count += 1
    assert count == 253


def test_deform_matched_pair_names_the_pair_the_ract_does_not_kill():
    mp = s3_transposed_matched_pair()
    witnesses = []
    for u in enumerate_cocycles(mp.h.unit_coalgebra(), mp.a):
        witness = reference_kill_failure(mp, u)
        if witness is None:
            deform_matched_pair(mp, u)
            continue
        with pytest.raises(ValueError) as info:
            deform_matched_pair(mp, u)
        assert str(info.value) == f"right action does not kill the cocycle at {witness}"
        witnesses.append(witness)
    assert witnesses == ["((0 1 2),(0 2 1))", "((0 1 2),(0 1 2))",
                         "((0 1 2),(0 1 2))"]


def _with_one_entry_changed(m: LinMap, k: int) -> LinMap:
    cols = {i: dict(col) for i, col in m.cols.items()}
    old = next(iter(cols.get(k, {0: None})))
    cols[k] = {(old + 1) % m.codomain.dim: m.field.one}
    return LinMap(m.field, m.domain, m.codomain, cols)


def test_check_equivalence_rows_match_the_reference_on_perturbations():
    from dataclasses import replace

    from hopfprod.classification import deform_datum
    from hopfprod.corpus import a4_unified_datum

    failing = set()
    for d in (a4_unified_datum(), crossed_datum(z4_crossed_datum())):
        u = enumerate_cocycles(d.ext, d.base)[1]
        d2 = deform_datum(d, u)
        cases = [d2] + [replace(d2, **{name: _with_one_entry_changed(getattr(d2, name), k)})
                        for name in ("lact", "dot", "cocycle")
                        for k in range(getattr(d2, name).domain.dim)]
        for d2p in cases:
            want = reference_deformation_rows(d, d2p, u)
            got = [(it.condition, it.passed, it.witness)
                   for it in check_equivalence(d, d2p, u).report.items]
            assert got[:len(want)] == want
            if not all(passed for _, passed, _ in want):
                assert len(got) == len(want)
            failing.update(name for name, passed, _ in want if not passed)
    assert failing == {"deformed-lact", "deformed-dot", "deformed-cocycle"}


def sweedler_base_datum(field):
    """A datum over A = H4, which is not group-like, so the legs c1, c2 of
    delta(x) = x (x) 1 + g (x) x differ: H = k{1, t}, the right action moves
    t <| x to the unit point, and the lazy cocycle u sends t to g.  The datum
    need not be valid to be deformed.  Returns the datum and u."""
    from hopfprod.linalg import tensor_space
    from hopfprod.structures import (
        attach_antipode,
        trivial_action_left,
        trivial_cocycle,
    )
    from hopfprod.unified import ExtendingDatum

    one = field.one
    a = attach_antipode(sweedler_bialgebra(field))
    h = grouplike_coalgebra(("1", "t"), field)
    hh, ha = tensor_space(h.space, h.space), tensor_space(h.space, a.space)
    dot = LinMap(field, hh, h.space, {0: {0: one}, 1: {1: one}, 2: {1: one}, 3: {0: one}})
    ract = LinMap(field, ha, h.space, {0: {0: one}, 1: {0: one}, 4: {1: one},
                                       5: {1: one}, 6: {0: one}})
    d = ExtendingDatum(base=a, ext=h, dot=dot, ract=ract,
                       lact=trivial_action_left(field, h.coalg, a.space),
                       cocycle=trivial_cocycle(field, h.coalg, a.unit, a.space))
    u = LazyCocycle(LinMap(field, h.space, a.space, {0: {0: one}, 1: {1: one}}), h, a)
    return d, u


def test_deformation_over_sweedler_base_matches_the_reference():
    from dataclasses import replace

    from hopfprod.classification import deform_datum
    from hopfprod.fields import PrimeField

    for field in (QQ, PrimeField(5)):
        one = field.one
        d, u = sweedler_base_datum(field)
        d2 = deform_datum(d, u)
        assert d2.lact.col(1 * 4 + 2) == {0: one, 2: field.neg(one)}  # t |>' x = 1 - x
        assert reference_deformation_rows(d, d2, u) == [
            ("ract-equal", True, None), ("deformed-lact", True, None),
            ("deformed-dot", True, None), ("deformed-cocycle", True, None)]
        for name in ("lact", "dot", "cocycle"):
            for k in range(getattr(d2, name).domain.dim):
                d2p = replace(d2, **{name: _with_one_entry_changed(getattr(d2, name), k)})
                want = reference_deformation_rows(d, d2p, u)
                got = [(it.condition, it.passed, it.witness)
                       for it in check_equivalence(d, d2p, u).report.items]
                assert got == want


def _with_one_entry_added(m: LinMap, k: int) -> LinMap:
    """m with one more entry, of value one, in the column at ``k``."""
    cols = {i: dict(col) for i, col in m.cols.items()}
    col = cols.setdefault(k, {})
    col[(max(col, default=0) + 1) % m.codomain.dim] = m.field.one
    return LinMap(m.field, m.domain, m.codomain, cols)


def test_certificate_rows_match_the_composed_oracle_on_failing_certificates():
    """``_certify`` is handed a perturbed product as ``prod2``, a cocycle
    scaled at one point (no longer convolution-invertible by S_A . u), or a
    coalgebra H with one coproduct entry added (no longer coassociative);
    every row must match the composed reference, failing ones included."""
    from dataclasses import replace

    from helpers import certificate_rows_composed
    from hopfprod.classification import _certify, deform_datum
    from hopfprod.corpus import a4_unified_datum
    from hopfprod.fields import PrimeField
    from hopfprod.reports import Report
    from hopfprod.structures import FDCoalgebra
    from hopfprod.unified import assemble_product

    a4 = a4_unified_datum()
    cases = [(a4, enumerate_cocycles(a4.ext, a4.base)[1])]
    cases += [sweedler_base_datum(field) for field in (QQ, PrimeField(5))]
    failing = set()
    for d, u in cases:
        d2 = deform_datum(d, u)
        prod, prod2 = assemble_product(d), assemble_product(d2)
        h, two = d.ext, d.field.of(2)
        runs = [(d, d2, u, prod, prod2)]
        runs += [(d, d2, u, prod, assemble_product(
                     replace(d2, **{name: _with_one_entry_changed(getattr(d2, name), k)})))
                 for name in ("lact", "ract", "dot", "cocycle")
                 for k in range(0, getattr(d2, name).domain.dim, 3)]
        runs += [(d, d2, LazyCocycle._unchecked(
                     with_column(u.linmap, k, {j: d.field.mul(two, x)
                                               for j, x in u.linmap.col(k).items()}),
                     h, d.base), prod, prod2)
                 for k in range(h.dim)]
        for k in range(h.dim):
            delta = _with_one_entry_added(h.delta, k)
            hp = UnitalCoalgebra(FDCoalgebra(d.field, h.space, delta, h.coalg.epsilon), h.unit)
            runs.append((replace(d, ext=hp), d2, u, prod, prod2))
        for run in runs:
            rep = Report()
            _certify(rep, *run)
            want, _, _ = certificate_rows_composed(*run)
            assert [(it.condition, it.passed, it.witness) for it in rep.items] == want
            failing.update(name for name, passed, _ in want if not passed)
    assert {"phi-left-module", "phi-right-comodule", "phi-bijective"} <= failing


def test_lazy_cocycle_verdict_matches_the_composed_maps():
    import random

    from helpers import random_linmap
    from hopfprod.corpus import a4_unified_datum
    from hopfprod.fields import PrimeField

    contexts = [(mp.h.unit_coalgebra(), mp.a) for mp in killed_cocycle_pairs()]
    contexts += [(s3_transposed_matched_pair().h.unit_coalgebra(),
                  s3_transposed_matched_pair().a)]
    for d in (a4_unified_datum(), crossed_datum(z4_crossed_datum())):
        contexts.append((d.ext, d.base))
    verdicts = []
    for h, a in contexts:
        for u in enumerate_cocycles(h, a):
            verdicts.append(is_lazy_cocycle(u.linmap, h, a))
            assert verdicts[-1] == composed_is_lazy_cocycle(u.linmap, h, a)
    rng = random.Random(4)
    for field in (QQ, PrimeField(5)):
        h4 = sweedler_bialgebra(field)
        h = UnitalCoalgebra(h4.coalgebra, h4.unit)
        c2 = group_algebra(builtin_group("c2"), field)
        one = field.one
        # 1 -> 1, g -> t and 1 -> 1, g -> 1 with x, gx -> 0 are both unital
        # coalgebra maps; only the second satisfies the lazy identity
        for a, m in ((h4, LinMap.identity(field, h4.space)),
                     (h4, LinMap(field, h4.space, h4.space, {0: {0: one}, 1: {0: one}})),
                     (c2, LinMap(field, h4.space, c2.space, {0: {0: one}, 1: {1: one}})),
                     (c2, LinMap(field, h4.space, c2.space, {0: {0: one}, 1: {0: one}}))):
            verdicts.append(is_lazy_cocycle(m, h, a))
            assert verdicts[-1] == composed_is_lazy_cocycle(m, h, a)
        for a in (h4, c2):
            for _ in range(20):
                m = random_linmap(rng, field, h.space, a.space, density=0.3)
                assert is_lazy_cocycle(m, h, a) == composed_is_lazy_cocycle(m, h, a)
    assert True in verdicts and False in verdicts


def test_every_deform_datum_call_is_held_against_the_hand_expanded_formulas(monkeypatch):
    # the autouse fixture wraps each binding of deform_datum, including the
    # one deform_matched_pair calls: count the oracle's calls, then hand it
    # a wrong deformation
    import helpers
    import hopfprod.classification
    from hopfprod.classification import deform_datum
    from hopfprod.corpus import a4_unified_datum

    direct = helpers.deform_datum_direct
    calls = []
    monkeypatch.setattr(helpers, "deform_datum_direct",
                        lambda d, u: calls.append(u) or direct(d, u))
    d = a4_unified_datum()
    u = enumerate_cocycles(d.ext, d.base)[1]
    for deform in (deform_datum, hopfprod.classification.deform_datum):
        assert deform(d, u).components_equal(d) == "dot"
    mp = s3_matched_pair()
    v = enumerate_cocycles(mp.h.unit_coalgebra(), mp.a)[1]
    deform_matched_pair(mp, v)
    assert calls == [u, u, v]
    monkeypatch.setattr(helpers, "deform_datum_direct",
                        lambda d, u: direct(d, trivial_lazy_cocycle(d.ext, d.base)))
    with pytest.raises(AssertionError, match="differs from the hand-expanded formulas"):
        deform_datum(d, u)


def character_cocycle(dd, chars, target):
    """u(p_x) = sum_chi chi(x) g_chi on the double's factors H = k^G and
    A = k[G], where ``target`` names the basis element g_chi of A for each
    character chi, listed as sign vectors on the elements of G."""
    field = dd.field
    cols = {}
    for x in range(dd.ext.dim):
        col: dict = {}
        for chi, t in zip(chars, target):
            col[t] = field.add(col.get(t, field.zero), field.of(chi[x]))
        cols[x] = col
    return LazyCocycle(LinMap(field, dd.ext.space, dd.base.space, cols), dd.ext, dd.base)


def test_character_cocycles_deform_the_double_of_c2xc2_as_the_formulas_do(monkeypatch):
    # H = k^G and A = k[G] for G = C2 x C2 over GF(3), neither of them
    # group-like on the other's side: every pointed map chi -> g_chi from
    # the characters to G gives a lazy cocycle, 64 in all; six of them,
    # five of which move the cocycle, are deformed by the engine alone and
    # held against the hand-expanded formulas once each
    import inspect
    from dataclasses import replace
    from itertools import product as iproduct

    import hopfprod.classification
    import hopfprod.linalg
    import hopfprod.structures
    from helpers import deform_datum_direct, drinfeld_double_datum, rebind_everywhere

    deform_datum = inspect.unwrap(hopfprod.classification.deform_datum)
    for wrapped in (hopfprod.structures.convolution, hopfprod.linalg.compose):
        rebind_everywhere(monkeypatch, wrapped, inspect.unwrap(wrapped))

    f3 = PrimeField(3)
    dd = drinfeld_double_datum("c2xc2", f3)
    dd = replace(dd, base=attach_antipode(dd.base))
    g = builtin_group("c2xc2")
    n = g.order
    chars = [s for s in iproduct((1, -1), repeat=n)
             if all(s[g.table[x][y]] == s[x] * s[y] for x in range(n) for y in range(n))]
    assert len(chars) == 4 and chars[0] == (1,) * n
    targets = [t for t in iproduct(range(n), repeat=n) if t[0] == g.identity]
    assert len(targets) == 64
    moved = 0
    for target in targets[::11]:
        u = character_cocycle(dd, chars, target)
        e = deform_datum(dd, u)
        assert e.components_equal(deform_datum_direct(dd, u)) is None, target
        assert (e.dot, e.lact, e.ract) == (dd.dot, dd.lact, dd.ract)
        moved += e.cocycle != dd.cocycle
    assert moved == 5


def test_deformation_matches_the_hand_expanded_formulas_on_drawn_maps():
    # the convolution form equals the hand-expanded sums whenever H is
    # counital and coassociative and A is counital, whatever the maps: H is
    # Sweedler's H4, which is not cocommutative, A carries H4's coalgebra
    # with a drawn multiplication that is not associative and a drawn map in
    # place of the antipode, and u and the four structure maps are drawn
    # too, none of them lazy, multiplicative or normalized
    import inspect
    import random

    import hopfprod.classification
    from helpers import deform_datum_direct, random_linmap
    from hopfprod.structures import FDAlgebra, FDHopf, check_algebra
    from hopfprod.unified import ExtendingDatum

    deform = inspect.unwrap(hopfprod.classification.deform_datum)
    rng = random.Random(27)
    for field in (QQ, PrimeField(5)):
        h4 = sweedler_bialgebra(field)
        h = UnitalCoalgebra(h4.coalgebra, h4.unit)
        square = tensor_space(h4.space, h4.space)
        for _ in range(3):
            draw = lambda dom, cod: random_linmap(rng, field, dom, cod, density=0.4)
            algebra = FDAlgebra(field, h4.space, draw(square, h4.space), h4.unit)
            assert not check_algebra(algebra).items[0].passed  # associativity fails
            a = FDHopf(h4.coalgebra, algebra, draw(h4.space, h4.space))
            d = ExtendingDatum(base=a, ext=h, dot=draw(square, h4.space),
                               ract=draw(square, h4.space), lact=draw(square, a.space),
                               cocycle=draw(square, a.space))
            u = LazyCocycle._unchecked(draw(h4.space, a.space), h, a)
            assert deform(d, u).components_equal(deform_datum_direct(d, u)) is None


# How a drawn map meets the index-table precondition of a fast path: a
# table of basis vectors meets it; one column scaled by 2 or -1, of two
# terms or zero breaks it.
MAP_KINDS = ("table", "table", "table", "scaled", "two-term", "zero")


@st.composite
def stored_column_data(draw):
    """A datum over QQ or GF(5) whose maps, the multiplication and antipode
    of A, and a map u: H -> A are each drawn whole from :data:`MAP_KINDS`:
    an index table, or an index table with one column broken.  H and the
    coalgebra of A are each group-like on two or three points, where the
    coproduct is an index table; group-like on two points rescaled to the
    basis e_0, 2 e_1, whose coproduct of 2 e_1 is one term with coefficient
    1/2 and counit 2; or Sweedler's H4, whose counit kills x and gx."""
    from helpers import rescaled_bialgebra
    from hopfprod.structures import FDAlgebra, FDHopf
    from hopfprod.unified import ExtendingDatum

    field = draw(st.sampled_from((QQ, PrimeField(5))))
    one = field.one

    def coalgebra(kind, prefix):
        if kind == "h4":
            return sweedler_bialgebra(field).coalgebra
        if kind == "scaled":
            return rescaled_bialgebra(group_algebra(builtin_group("c2"), field),
                                      (one, field.of(2)), (f"{prefix}0", f"{prefix}1")).coalgebra
        return grouplike_coalgebra([f"{prefix}{k}" for k in range(kind)], field).coalg

    def linmap(dom, cod) -> LinMap:
        n = cod.dim
        points = draw(st.lists(st.integers(0, n - 1), min_size=dom.dim, max_size=dom.dim))
        cols = {i: {j: one} for i, j in enumerate(points)}
        kind, i = draw(st.sampled_from(MAP_KINDS)), draw(st.integers(0, dom.dim - 1))
        j = points[i]
        if kind == "scaled":
            cols[i] = {j: field.of(draw(st.sampled_from((2, -1))))}
        elif kind == "two-term":
            cols[i] = {j: one, (j + 1) % n: one}
        elif kind == "zero":
            del cols[i]
        return LinMap(field, dom, cod, cols)

    hc = coalgebra(draw(st.sampled_from((2, 3, "scaled", "h4"))), "h")
    ac = coalgebra(draw(st.sampled_from((2, "scaled", "h4"))), "a")
    hh, ha = tensor_space(hc.space, hc.space), tensor_space(hc.space, ac.space)
    a = FDHopf(ac, FDAlgebra(field, ac.space, linmap(tensor_space(ac.space, ac.space), ac.space),
                             {0: one}), linmap(ac.space, ac.space))
    h = UnitalCoalgebra(hc, {0: one})
    d = ExtendingDatum(base=a, ext=h, dot=linmap(hh, hc.space), ract=linmap(ha, hc.space),
                       lact=linmap(ha, ac.space), cocycle=linmap(hh, ac.space))
    return d, LazyCocycle._unchecked(linmap(hc.space, ac.space), h, a)


def through_u_direct(d, u, m: LinMap) -> LinMap:
    """(h, g) -> sum m(h <| u(g1), g2), every term through the general
    bilinear loop: the oracle of m composed with the twist over <|,
    ``classification._twist(d.ract, u, ...)``."""
    from helpers import bilin_direct
    from hopfprod.linalg import vec_add_into

    field, hdim, adim = d.field, d.ext.dim, d.base.dim
    cols = {}
    for hi in range(hdim):
        for gi in range(hdim):
            col: dict = {}
            for (g1, g2), c in d.ext.coalg.expand(gi, 2):
                acted = bilin_direct(d.ract, hi, u.linmap.col(g1), adim)
                vec_add_into(field, col, bilin_direct(m, acted, g2, hdim), c)
            cols[hi * hdim + gi] = col
    return LinMap(field, d.dot.domain, m.codomain, cols)


def test_stored_column_paths_match_the_loops_and_the_oracles(monkeypatch):
    # each site builds its result from the index tables of the maps it
    # reads where all of them are tables, and runs its loop otherwise; both
    # must give what the hand-expanded and composed oracles give, and each
    # of the two runs at least once at every site over the examples
    import inspect

    import hopfprod.classification as cls
    import hopfprod.unified as uni
    from helpers import certificate_rows_composed, deform_datum_direct

    seen = set()

    def tables(site, *maps):
        seen.add((site, all(m.points is not None for m in maps)))

    def spy(name, fn, operands):
        def spied(*args):
            tables(name, *operands(*args))
            return fn(*args)
        return spied

    monkeypatch.setattr(cls, "compose", spy("compose", cls.compose, lambda f, g: (g,)))
    monkeypatch.setattr(cls, "convolution", spy("convolution", cls.convolution,
                                                lambda f, g, src, dst: (src.delta, f, g)))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(stored_column_data())
    def check(data):
        d, u = data
        delta = d.ext.coalg.delta
        e = inspect.unwrap(cls.deform_datum)(d, u)
        assert e.components_equal(deform_datum_direct(d, u)) is None
        tables("lact-through-u", u.linmap)
        tables("ract-twist", delta, u.linmap, d.ract)
        t = cls._twist(d.ract, u.linmap, d.ext.coalg, d.dot.domain, d.dot.domain)
        for m in (d.dot, d.cocycle):
            assert compose(m, t) == through_u_direct(d, u, m)

        # phi and psi, and the rows the certificate adds; each assembly, and
        # so its second sum, is held against assemble_product_direct
        prod, prod2 = uni.assemble_product(d), uni.assemble_product(e)
        for x in (d, e):
            tables("second-sum", delta, x.cocycle, x.dot)
        rows, phi, psi = certificate_rows_composed(d, e, u, prod, prod2)
        su = compose(d.base.antipode, u.linmap)
        for w in (u.linmap, su):
            tables("twist", delta, w, d.base.mult)
        mult, hc = d.base.mult, d.ext.coalg
        assert cls._twist(mult, u.linmap, hc, prod2.space, prod.space) == phi
        assert cls._twist(mult, su, hc, prod.space, prod2.space) == psi
        rep = Report("certificate")
        cls._certify(rep, d, e, u, prod, prod2)
        assert [(it.condition, it.passed, it.witness) for it in rep.items] == rows

    check()
    sites = ("compose", "convolution", "ract-twist", "lact-through-u", "twist", "second-sum")
    assert seen == {(site, ran) for site in sites for ran in (True, False)}


def test_twist_of_index_tables_reads_w_at_the_first_leg():
    # delta_H, w and op index tables: column (x, h) is the one entry
    # op(x, w(h1)) (x) h2.  This delta sends e_i to two different legs,
    # which no counital coalgebra does, so a reading that confuses the legs
    # gives another column; held against the composed maps, both for the
    # table and, with w scaled, for the loop
    from hopfprod.classification import _twist
    from hopfprod.linalg import BasedSpace
    from hopfprod.structures import FDCoalgebra, counit_all_ones

    one = QQ.one
    s3 = group_algebra(builtin_group("s3"))
    x = BasedSpace(("p", "q", "r"))
    legs = ((0, 1), (1, 2), (2, 0))
    hc = FDCoalgebra(QQ, x, LinMap(QQ, x, tensor_space(x, x),
                                   {i: {l * 3 + r: one} for i, (l, r) in enumerate(legs)}),
                     counit_all_ones(QQ, x))
    src = tensor_space(s3.space, x)
    ident_a, ident_h = LinMap.identity(QQ, s3.space), LinMap.identity(QQ, x)
    for w in (LinMap(QQ, x, s3.space, {0: {1: one}, 1: {2: one}, 2: {3: one}}),
              LinMap(QQ, x, s3.space, {0: {1: one}, 1: {2: QQ.of(2)}, 2: {3: one}})):
        t = _twist(s3.mult, w, hc, src, src)
        composed = compose(tensor_map(s3.mult, ident_h), compose(
            tensor_map(ident_a, tensor_map(w, ident_h)), tensor_map(ident_a, hc.delta)))
        assert t == composed
        assert (t.points is not None) == (w.points is not None)
