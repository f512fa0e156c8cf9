import pytest

from helpers import product_projections, sweedler_bialgebra, with_column
from hopfprod.classification import (
    CapExceededError,
    NotGroupLikeError,
    check_bicrossed_equivalence,
    check_equivalence,
    cocycle_convolve,
    cocycle_inverse,
    LazyCocycle,
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
from hopfprod.fields import QQ
from hopfprod.groups import builtin_group, group_algebra, grouplike_coalgebra
from hopfprod.linalg import LinMap, compose
from hopfprod.special import (
    crossed_datum,
    deform_matched_pair,
    matched_pair_datum,
    trivial_matched_pair,
)
from hopfprod.structures import UnitalCoalgebra
from hopfprod.unified import build_unified_product


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


def test_the_group_operations_are_held_against_is_lazy_cocycle():
    # the library does not re-validate products and inverses; the tests do,
    # on every call, so an unchecked non-lazy factor is caught there
    a = group_algebra(builtin_group("c2"))
    h = grouplike_coalgebra(("p", "q"), QQ)
    bad = LazyCocycle(LinMap(QQ, h.space, a.space,
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
        from hopfprod.linalg import tensor_map

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


# ---------------------------------------------------------------------------
# independent reference formulas for the shared deformation evaluators


def composed_is_lazy_cocycle(u, h, a):
    """The lazy-cocycle test as composed maps: a unital coalgebra map with
    (id (x) u) . delta = (id (x) u) . twist . delta."""
    from hopfprod.structures import is_coalgebra_map
    from hopfprod.linalg import tensor_map, twist_map

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
    u = LazyCocycle.build(LinMap(field, h.space, a.space, {0: {0: one}, 1: {1: one}}), h, a)
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
        runs += [(d, d2, LazyCocycle(with_column(u.linmap, k, {j: d.field.mul(two, x)
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
