import random
from itertools import product as iproduct

import pytest

from helpers import (
    convolution_direct,
    oracle_is_coalgebra_map,
    random_linmap,
    sweedler_bialgebra,
    tensor_map,
    twist_map,
    with_column,
)
from hopfprod.fields import QQ, PrimeField
from hopfprod.groups import builtin_group, group_algebra, grouplike_coalgebra
from hopfprod.linalg import (
    SCALAR_SPACE,
    BasedSpace,
    DimensionError,
    LinMap,
    compose,
    tensor_space,
    tensor_vec,
)
from hopfprod.reports import Report
from hopfprod.structures import (
    FDAlgebra,
    FDBialgebra,
    FDCoalgebra,
    NoAntipodeError,
    _counits,
    antipode_solve,
    check_algebra,
    check_bialgebra,
    check_coalgebra,
    convolution,
    convolution_unit,
    counit_all_ones,
    grouplike_delta,
    grouplike_indices,
    is_algebra_antimap,
    is_algebra_map,
    is_coalgebra_antimap,
    is_coalgebra_map,
    tensor_algebra,
    tensor_bialgebra,
    tensor_coalgebra,
)


def grouplike(labels):
    space = BasedSpace(labels)
    return FDCoalgebra(QQ, space, grouplike_delta(QQ, space),
                       counit_all_ones(QQ, space))


def failing(report):
    return {item.condition for item in report.failures()}


def test_grouplike_coalgebra_passes():
    rep = check_coalgebra(grouplike(("a", "b", "c", "d", "e2", "f")))
    assert rep.ok


def test_one_dimensional_coalgebra_passes():
    rep = check_coalgebra(grouplike(("1",)))
    assert rep.ok


def test_corrupt_delta_fails_coassociativity_with_witness():
    space = BasedSpace(("u", "v"))
    one = QQ.one
    # delta(v) = v (x) v + v (x) u breaks coassociativity exactly at v
    delta = LinMap(QQ, space, tensor_space(space, space),
                   {0: {0: one}, 1: {3: one, 2: one}})
    c = FDCoalgebra(QQ, space, delta, counit_all_ones(QQ, space))
    rep = check_coalgebra(c)
    items = {item.condition: item for item in rep.items}
    assert not items["coassociativity"].passed
    assert items["coassociativity"].witness == "v"


def test_group_bialgebra_passes():
    rep = check_bialgebra(group_algebra(builtin_group("c2")))
    assert rep.ok


def test_tensor_product_bialgebra_passes():
    b = tensor_bialgebra(group_algebra(builtin_group("c2")),
                         group_algebra(builtin_group("c3")))
    assert check_bialgebra(b).ok


def test_sweedler_bialgebra_passes():
    assert check_bialgebra(sweedler_bialgebra()).ok


def test_broken_counit_unit_detected():
    # counit scaled by 2: counit(1) = 2.  A failing counit-unit row cannot
    # come alone (the counit laws force counit(unit) = 1), so assert the
    # failures stay on the counit side and name counit-unit among them.
    h = group_algebra(builtin_group("c2"))
    eps2 = LinMap(QQ, h.space, SCALAR_SPACE,
                  {i: {0: QQ.of(2)} for i in range(2)})
    broken = FDBialgebra(FDCoalgebra(QQ, h.space, h.delta, eps2), h.algebra)
    rep = check_bialgebra(broken)
    fails = failing(rep)
    assert "counit-unit" in fails
    assert fails <= {"counit-left", "counit-right",
                     "counit-multiplicative", "counit-unit"}


def test_is_coalgebra_map_identity():
    c = grouplike(("a", "b"))
    assert is_coalgebra_map(LinMap.identity(QQ, c.space), c, c)


def test_sum_of_grouplikes_is_not_a_coalgebra_map():
    c = grouplike(("a", "b", "c"))
    one = QQ.one
    m = LinMap(QQ, c.space, c.space,
               {0: {0: one}, 1: {1: one, 2: one}, 2: {2: one}})
    assert not is_coalgebra_map(m, c, c)


def test_any_set_map_of_grouplikes_is_a_coalgebra_map():
    src = grouplike(("a", "b", "c"))
    dst = grouplike(("p", "q"))
    for targets in iproduct(range(2), repeat=3):
        m = LinMap(QQ, src.space, dst.space,
                   {i: {t: QQ.one} for i, t in enumerate(targets)})
        assert is_coalgebra_map(m, src, dst)


def test_antimap_identity_on_cocommutative():
    c = grouplike(("a", "b"))
    assert is_coalgebra_antimap(LinMap.identity(QQ, c.space), c, c)


def test_antimap_group_inverse():
    g = builtin_group("s3")
    h = group_algebra(g)
    assert is_coalgebra_antimap(h.antipode, h.coalgebra, h.coalgebra)


def test_identity_is_not_an_antimap_on_noncocommutative():
    b = sweedler_bialgebra()
    assert not is_coalgebra_antimap(LinMap.identity(QQ, b.space),
                                    b.coalgebra, b.coalgebra)
    assert is_coalgebra_antimap(antipode_solve(b), b.coalgebra, b.coalgebra)


def test_convolution_unit_is_neutral():
    rng = random.Random(11)
    h = group_algebra(builtin_group("c3"))
    unit = convolution_unit(h.coalgebra, h.algebra)
    cols = {i: {rng.randrange(3): QQ.of(rng.randrange(1, 5))} for i in range(3)}
    f = LinMap(QQ, h.space, h.space, cols)
    assert convolution(f, unit, h.coalgebra, h.algebra) == f
    assert convolution(unit, f, h.coalgebra, h.algebra) == f


def test_convolution_of_set_maps_is_pointwise_product():
    g = builtin_group("s3")
    h = group_algebra(g)
    x = grouplike_coalgebra(("p", "q"), QQ)
    u = LinMap(QQ, x.space, h.space, {0: {0: QQ.one}, 1: {3: QQ.one}})
    v = LinMap(QQ, x.space, h.space, {0: {1: QQ.one}, 1: {2: QQ.one}})
    w = convolution(u, v, x.coalg, h.algebra)
    # pointwise product oracle, evaluated per group-like
    assert w.col(0) == {g.table[0][1]: QQ.one}
    assert w.col(1) == {g.table[3][2]: QQ.one}


def test_convolution_is_associative_on_random_maps():
    rng = random.Random(12)
    h = group_algebra(builtin_group("c4"))

    def rand_map():
        cols = {}
        for i in range(4):
            col = {}
            for j in range(4):
                if rng.random() < 0.6:
                    col[j] = QQ.of(rng.randrange(-3, 4))
            cols[i] = col
        return LinMap(QQ, h.space, h.space, cols)

    for _ in range(10):
        f, g, k = rand_map(), rand_map(), rand_map()
        fg = convolution(f, g, h.coalgebra, h.algebra)
        gk = convolution(g, k, h.coalgebra, h.algebra)
        assert convolution(fg, k, h.coalgebra, h.algebra) == \
            convolution(f, gk, h.coalgebra, h.algebra)


def test_convolution_matches_the_composed_maps():
    # non-cocommutative sources (H4, H4 (x) H4) and non-commutative targets
    # (k[S3], H4), over QQ and GF(7)
    rng = random.Random(13)
    for field in (QQ, PrimeField(7)):
        h4 = sweedler_bialgebra(field)
        sources = [h4.coalgebra, tensor_coalgebra(h4.coalgebra, h4.coalgebra)]
        targets = [group_algebra(builtin_group("s3"), field).algebra, h4.algebra]
        for src, dst in iproduct(sources, targets):
            for density in (0.2, 0.7):
                f = random_linmap(rng, field, src.space, dst.space, density)
                g = random_linmap(rng, field, src.space, dst.space, density)
                got = convolution(f, g, src, dst)
                assert got == convolution_direct(f, g, src, dst)
                assert (got.domain, got.codomain) == (src.space, dst.space)


def test_convolution_rejects_a_factor_of_the_wrong_shape():
    h = group_algebra(builtin_group("c3"))
    ident = LinMap.identity(QQ, h.space)
    pair = BasedSpace(("a", "b"))
    short = LinMap.identity(QQ, pair)
    wide = LinMap(QQ, h.space, pair, {0: {0: QQ.one}})
    for f, g in ((ident, short), (short, ident), (wide, ident), (ident, wide)):
        with pytest.raises(DimensionError):
            convolution(f, g, h.coalgebra, h.algebra)


def test_antipode_composed_with_map_is_convolution_inverse():
    g = builtin_group("s3")
    h = group_algebra(g)
    x = grouplike_coalgebra(("p", "q", "r"), QQ)
    u = LinMap(QQ, x.space, h.space,
               {0: {0: QQ.one}, 1: {3: QQ.one}, 2: {5: QQ.one}})
    su = compose(h.antipode, u)
    unit = convolution_unit(x.coalg, h.algebra)
    assert convolution(su, u, x.coalg, h.algebra) == unit
    assert convolution(u, su, x.coalg, h.algebra) == unit


def test_antipode_solve_group_algebra_is_inverse_permutation():
    for name in ("c4", "s3", "q8"):
        g = builtin_group(name)
        b = group_algebra(g)
        s = antipode_solve(FDBialgebra(b.coalgebra, b.algebra))
        expected = LinMap(QQ, b.space, b.space,
                          {i: {g.inverse[i]: QQ.one} for i in range(g.order)})
        assert s == expected


def test_antipode_solve_ground_field():
    b = group_algebra(builtin_group("c1"))
    s = antipode_solve(FDBialgebra(b.coalgebra, b.algebra))
    assert s == LinMap.identity(QQ, b.space)


def test_idempotent_monoid_has_no_antipode():
    # the two-element monoid {1, e} with e*e = e
    space = BasedSpace(("1", "e"))
    one = QQ.one
    mult = LinMap(QQ, tensor_space(space, space), space,
                  {0: {0: one}, 1: {1: one}, 2: {1: one}, 3: {1: one}})
    b = FDBialgebra(
        FDCoalgebra(QQ, space, grouplike_delta(QQ, space), counit_all_ones(QQ, space)),
        FDAlgebra(QQ, space, mult, {0: one}, associative="yes"),
    )
    assert check_bialgebra(b).ok
    with pytest.raises(NoAntipodeError) as exc:
        antipode_solve(b)
    assert exc.value.side == "left"


def test_left_but_no_right_convolution_inverse_names_the_right_side():
    # not a bialgebra: on the group-like coalgebra {1, x, y} take the unital,
    # non-associative product with y x = y y = 1 and x x = x y = 0.  Then
    # S = (1, y, y) solves S * id = unit . counit, but x S(x) = 0, so the
    # identity has no right convolution inverse.
    space = BasedSpace(("1", "x", "y"))
    one = QQ.one
    mult = LinMap(QQ, tensor_space(space, space), space,
                  {0: {0: one}, 1: {1: one}, 2: {2: one}, 3: {1: one},
                   7: {0: one}, 8: {0: one}, 6: {2: one}})
    b = FDBialgebra(
        FDCoalgebra(QQ, space, grouplike_delta(QQ, space), counit_all_ones(QQ, space)),
        FDAlgebra(QQ, space, mult, {0: one}),
    )
    assert not check_algebra(b.algebra).ok
    with pytest.raises(NoAntipodeError) as exc:
        antipode_solve(b)
    assert exc.value.side == "right"


def test_hopf_antipode_is_algebra_and_coalgebra_antimap():
    for name in ("s3", "d4", "q8"):
        h = group_algebra(builtin_group(name))
        assert is_coalgebra_antimap(h.antipode, h.coalgebra, h.coalgebra)
        assert is_algebra_antimap(h.antipode, h.algebra, h.algebra)
    b = sweedler_bialgebra()
    s = antipode_solve(b)
    assert is_algebra_antimap(s, b.algebra, b.algebra)


def test_sweedler_antipode_closed_form():
    # from the defining relations: S(g) = g, S(x) = -gx, S(gx) = x
    b = sweedler_bialgebra()
    s = antipode_solve(b)
    one = QQ.one
    assert s == LinMap(QQ, b.space, b.space,
                       {0: {0: one}, 1: {1: one},
                        2: {3: QQ.neg(one)}, 3: {2: one}})


def test_grouplike_detection():
    b = sweedler_bialgebra()
    assert grouplike_indices(b.coalgebra) == [0, 1]
    g = group_algebra(builtin_group("c4"))
    assert grouplike_indices(g.coalgebra) == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# the composed-map formulation of every axiom, kept as an oracle: each side
# of an identity is built as a whole linear map and the two maps compared


def _first_difference(f: LinMap, g: LinMap, labels):
    """Label of the first domain basis index where two maps differ."""
    if f == g:
        return None
    for i in range(len(labels)):
        if f.col(i) != g.col(i):
            return labels[i]
    return "shape"


def oracle_check_coalgebra(c):
    ident = LinMap.identity(c.field, c.space)
    rep = Report("coalgebra axioms")
    lhs = compose(tensor_map(c.delta, ident), c.delta)
    rhs = compose(tensor_map(ident, c.delta), c.delta)
    rep.add("coassociativity", lhs == rhs, _first_difference(lhs, rhs, c.space.labels))
    left = compose(tensor_map(c.epsilon, ident), c.delta)
    rep.add("counit-left", left == ident, _first_difference(left, ident, c.space.labels))
    right = compose(tensor_map(ident, c.epsilon), c.delta)
    rep.add("counit-right", right == ident, _first_difference(right, ident, c.space.labels))
    return rep


def oracle_check_algebra(a):
    ident = LinMap.identity(a.field, a.space)
    rep = Report("algebra axioms")
    lhs = compose(a.mult, tensor_map(a.mult, ident))
    rhs = compose(a.mult, tensor_map(ident, a.mult))
    labels3 = tensor_space(tensor_space(a.space, a.space), a.space).labels
    rep.add("associativity", lhs == rhs, _first_difference(lhs, rhs, labels3))
    eta = a.unit_map()
    left = compose(a.mult, tensor_map(eta, ident))
    rep.add("unit-left", left == ident, _first_difference(left, ident, a.space.labels))
    right = compose(a.mult, tensor_map(ident, eta))
    rep.add("unit-right", right == ident, _first_difference(right, ident, a.space.labels))
    return rep


def oracle_check_bialgebra(b):
    field = b.field
    rep = Report("bialgebra axioms")
    rep.extend(oracle_check_coalgebra(b.coalgebra))
    rep.extend(oracle_check_algebra(b.algebra))
    pair_labels = tensor_space(b.space, b.space).labels
    square = tensor_algebra(b.algebra, b.algebra)
    lhs = compose(b.delta, b.mult)
    rhs = compose(square.mult, tensor_map(b.delta, b.delta))
    rep.add("comult-multiplicative", lhs == rhs, _first_difference(lhs, rhs, pair_labels))
    delta_unit = b.delta.apply(b.unit)
    want = tensor_vec(field, b.unit, b.unit, b.dim)
    rep.add("comult-unit", delta_unit == want, "unit")
    lhs = compose(b.epsilon, b.mult)
    rhs = tensor_map(b.epsilon, b.epsilon)
    rep.add("counit-multiplicative", lhs == rhs, _first_difference(lhs, rhs, pair_labels))
    eps_unit = b.counit(b.unit)
    rep.add("counit-unit", eps_unit == field.one, "unit")
    return rep


def oracle_is_algebra_map(f, src, dst, flip=False):
    ff = tensor_map(f, f)
    if flip:
        ff = compose(ff, twist_map(f.field, src.space, src.space))
    return compose(f, src.mult) == compose(dst.mult, ff) and f.apply(src.unit) == dst.unit


def rows(report):
    return [(it.condition, it.passed, it.witness) for it in report.items]


def assert_checkers_match_oracle(b):
    assert rows(check_coalgebra(b.coalgebra)) == rows(oracle_check_coalgebra(b.coalgebra))
    assert rows(check_algebra(b.algebra)) == rows(oracle_check_algebra(b.algebra))
    assert rows(check_bialgebra(b)) == rows(oracle_check_bialgebra(b))


F5 = PrimeField(5)


def oracle_fixtures():
    c2, c3 = (group_algebra(builtin_group(n)) for n in ("c2", "c3"))
    return [
        c2, c3,
        group_algebra(builtin_group("s3")),
        group_algebra(builtin_group("c3"), F5),
        sweedler_bialgebra(),
        sweedler_bialgebra(F5),
        sweedler_bialgebra(PrimeField(3)),
        tensor_bialgebra(c2, c3),
        tensor_bialgebra(sweedler_bialgebra(), c2),
    ]


def oracle_tensor_coalgebra_delta(c, d):
    """(id (x) twist (x) id) . (delta_c (x) delta_d), composed."""
    field = c.field
    shuffle = tensor_map(
        tensor_map(LinMap.identity(field, c.space), twist_map(field, c.space, d.space)),
        LinMap.identity(field, d.space),
    )
    return compose(shuffle, tensor_map(c.delta, d.delta))


def test_tensor_coalgebra_matches_the_composed_shuffle():
    from hopfprod.serialize import serialize

    s3 = group_algebra(builtin_group("s3"))
    for x, y in [(b, b) for b in oracle_fixtures()] + [(sweedler_bialgebra(), s3),
                                                          (s3, sweedler_bialgebra())]:
        got = tensor_coalgebra(x.coalgebra, y.coalgebra)
        want = FDCoalgebra(got.field, got.space,
                           oracle_tensor_coalgebra_delta(x.coalgebra, y.coalgebra),
                           tensor_map(x.epsilon, y.epsilon))
        assert got == want
        assert serialize(got) == serialize(want)


def oracle_tensor_algebra_mult(a, b):
    """(m_a (x) m_b) . (id (x) twist (x) id), composed."""
    field = a.field
    shuffle = tensor_map(
        tensor_map(LinMap.identity(field, a.space), twist_map(field, b.space, a.space)),
        LinMap.identity(field, b.space),
    )
    return compose(tensor_map(a.mult, b.mult), shuffle)


def test_tensor_algebra_matches_the_composed_shuffle():
    from helpers import scaled_sweedler
    from hopfprod.serialize import serialize

    s3 = group_algebra(builtin_group("s3"))
    h4, h4_f5, scaled = sweedler_bialgebra(), sweedler_bialgebra(F5), scaled_sweedler()
    for x, y in [(h4, h4), (h4_f5, h4_f5), (s3, h4), (scaled, scaled)]:
        got = tensor_algebra(x.algebra, y.algebra)
        want = FDAlgebra(got.field, got.space, oracle_tensor_algebra_mult(x.algebra, y.algebra),
                         got.unit)
        assert got.mult == want.mult
        assert serialize(tensor_bialgebra(x, y)) == serialize(
            FDBialgebra(tensor_coalgebra(x.coalgebra, y.coalgebra), want))


def test_checkers_match_composed_map_oracle():
    for b in oracle_fixtures():
        assert check_bialgebra(b).ok
        assert_checkers_match_oracle(b)


def corruptions(b):
    """Every bialgebra that differs from b in exactly one structure constant."""
    field, n = b.field, b.dim
    bump = lambda v: field.add(v, field.one)
    for name, m in (("mult", b.mult), ("delta", b.delta), ("epsilon", b.epsilon)):
        for i in range(m.domain.dim):
            for j in range(m.codomain.dim):
                cols = {k: m.col(k) for k in range(m.domain.dim)}
                cols[i][j] = bump(cols[i].get(j, field.zero))
                new = LinMap(field, m.domain, m.codomain, cols)
                delta = new if name == "delta" else b.delta
                epsilon = new if name == "epsilon" else b.epsilon
                mult = new if name == "mult" else b.mult
                yield FDBialgebra(FDCoalgebra(field, b.space, delta, epsilon),
                                  FDAlgebra(field, b.space, mult, b.unit))
    for j in range(n):
        unit = dict(b.unit)
        unit[j] = bump(unit.get(j, field.zero))
        yield FDBialgebra(b.coalgebra, FDAlgebra(field, b.space, b.mult, unit))


def test_checkers_match_oracle_on_every_one_entry_corruption():
    seen = set()
    count = 0
    for b in (sweedler_bialgebra(), group_algebra(builtin_group("c3"), F5)):
        for broken in corruptions(b):
            assert_checkers_match_oracle(broken)
            seen.update(it.condition for it in check_bialgebra(broken).failures())
            count += 1
    # 64 + 64 + 4 + 4 entries of H4, 27 + 27 + 3 + 3 of k[C3]
    assert count == 196
    assert seen == {"coassociativity", "counit-left", "counit-right",
                    "associativity", "unit-left", "unit-right",
                    "comult-multiplicative", "comult-unit",
                    "counit-multiplicative", "counit-unit"}


def set_map(field, src, dst, targets):
    return LinMap(field, src.space, dst.space,
                  {i: {t: field.one} for i, t in enumerate(targets)})


def assert_predicates_match_oracle(f, src, dst):
    for flip, coalg_pred, alg_pred in ((False, is_coalgebra_map, is_algebra_map),
                                       (True, is_coalgebra_antimap, is_algebra_antimap)):
        assert coalg_pred(f, src.coalgebra, dst.coalgebra) == \
            oracle_is_coalgebra_map(f, src.coalgebra, dst.coalgebra, flip)
        assert alg_pred(f, src.algebra, dst.algebra) == \
            oracle_is_algebra_map(f, src.algebra, dst.algebra, flip)


def test_predicates_match_oracle_on_set_maps():
    rng = random.Random(31)
    groups = {name: group_algebra(builtin_group(name)) for name in ("c2", "c3", "s3")}
    groups["h4"] = sweedler_bialgebra()
    verdicts = set()
    for _ in range(60):
        src, dst = (groups[rng.choice(sorted(groups))] for _ in range(2))
        f = set_map(QQ, src, dst, [rng.randrange(dst.dim) for _ in range(src.dim)])
        assert_predicates_match_oracle(f, src, dst)
        verdicts.add(is_coalgebra_map(f, src.coalgebra, dst.coalgebra))
    assert verdicts == {True, False}
    s3 = groups["s3"]
    inverse = s3.antipode
    assert_predicates_match_oracle(inverse, s3, s3)
    assert is_algebra_antimap(inverse, s3.algebra, s3.algebra)
    assert not is_algebra_map(inverse, s3.algebra, s3.algebra)


def test_predicates_match_oracle_on_noncocommutative_h4():
    rng = random.Random(32)
    for field in (QQ, F5):
        h4 = sweedler_bialgebra(field)
        ident = LinMap.identity(field, h4.space)
        s = antipode_solve(h4)
        zero = LinMap.zero(field, h4.space, h4.space)
        for f in (ident, s, compose(s, s), zero):
            assert_predicates_match_oracle(f, h4, h4)
        # the zero map respects comultiplication but not the counit
        assert not is_coalgebra_map(zero, h4.coalgebra, h4.coalgebra)
        assert not is_coalgebra_antimap(zero, h4.coalgebra, h4.coalgebra)
        assert is_coalgebra_map(ident, h4.coalgebra, h4.coalgebra)
        assert not is_coalgebra_antimap(ident, h4.coalgebra, h4.coalgebra)
        assert not is_algebra_antimap(ident, h4.algebra, h4.algebra)
        assert is_algebra_antimap(s, h4.algebra, h4.algebra)
        for _ in range(20):
            f = random_linmap(rng, field, h4.space, h4.space, density=0.3)
            assert_predicates_match_oracle(f, h4, h4)


def test_linmap_equality_stays_structural():
    rng = random.Random(21)
    for field in (QQ, PrimeField(5)):
        m = random_linmap(rng, field, BasedSpace(("a", "b", "c")), BasedSpace(("p", "q")))
        twin = LinMap(field, m.domain, m.codomain, {i: m.col(i) for i in m.cols})
        assert twin is not m and twin == m and hash(twin) == hash(m)
        for i, j in iproduct(range(3), range(2)):
            col = m.col(i)
            col[j] = field.add(col.get(j, field.zero), field.one)
            other = with_column(m, i, col)
            assert other != m and m != other


def test_counit_and_coproduct_tables_read_the_structure_maps():
    for field in (QQ, PrimeField(5)):
        h4 = sweedler_bialgebra(field)
        coalgebras = [h4.coalgebra, tensor_coalgebra(h4.coalgebra, h4.coalgebra),
                      group_algebra(builtin_group("s3"), field).coalgebra]
        for c in coalgebras:
            n = c.dim
            assert _counits(c) == tuple(c.epsilon.col(i).get(0, field.zero) for i in range(n))
            assert _counits(c) is _counits(c)
            for i in range(n):
                want = sorted((divmod(k, n), x) for k, x in c.delta.col(i).items())
                assert c.expand(i, 2) == want
