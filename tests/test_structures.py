import functools
import random
from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    convolution_direct,
    is_algebra_antimap,
    is_coalgebra_antimap,
    oracle_is_algebra_map,
    oracle_is_coalgebra_map,
    oracle_tensor_algebra_mult,
    oracle_tensor_coalgebra_delta,
    random_linmap,
    sweedler_bialgebra,
    tensor_map,
    tensor_product_oracle,
    trivial_datum,
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
    FDHopf,
    NoAntipodeError,
    UnitalCoalgebra,
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
    is_algebra_map,
    is_coalgebra_map,
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
    b = tensor_product_oracle(group_algebra(builtin_group("c2")),
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
    assert oracle_is_coalgebra_map(LinMap.identity(QQ, c.space), c, c, flip=True)


def test_antimap_group_inverse():
    g = builtin_group("s3")
    h = group_algebra(g)
    assert oracle_is_coalgebra_map(h.antipode, h.coalgebra, h.coalgebra, flip=True)


def test_identity_is_not_an_antimap_on_noncocommutative():
    b = sweedler_bialgebra()
    assert not oracle_is_coalgebra_map(LinMap.identity(QQ, b.space),
                                       b.coalgebra, b.coalgebra, flip=True)
    assert oracle_is_coalgebra_map(antipode_solve(b), b.coalgebra, b.coalgebra, flip=True)


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
    # each column is the stored product column itself
    assert w.cols[0] is h.mult.cols[0 * 6 + 1] and w.cols[1] is h.mult.cols[3 * 6 + 2]


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


@functools.cache
def convolution_bialgebras(field):
    """H4 and H4 (x) k[C2], each with its antipode, and k[S3]: sources with
    multi-term comultiplications and non-commutative targets."""
    h4 = sweedler_bialgebra(field)
    h4c2 = tensor_product_oracle(h4, group_algebra(builtin_group("c2"), field))
    hopf = [FDHopf(b.coalgebra, b.algebra, antipode_solve(b)) for b in (h4, h4c2)]
    return hopf + [group_algebra(builtin_group("s3"), field)]


def convolution_values(field):
    if field == QQ:
        return st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-5, 3)])
    return st.integers(1, 6)


@st.composite
def convolution_cases(draw):
    """(f, g, src, dst, want) over QQ or GF(7), where want is None or the
    known convolution.  A factor's columns are each empty, one entry with
    coefficient one, one scaled entry or several entries.  One case in four
    is (c id) * S on a Hopf algebra, c times the unit: every column where
    the counit vanishes cancels to empty."""
    field = draw(st.sampled_from([QQ, PrimeField(7)]))
    value = convolution_values(field)
    hopf = convolution_bialgebras(field)
    if draw(st.integers(0, 3)) == 0:
        b = draw(st.sampled_from(hopf[:2]))
        c = draw(value)
        scaled = LinMap(field, b.space, b.space, {i: {i: c} for i in range(b.dim)})
        want = LinMap(field, b.space, b.space,
                      {i: {r: field.mul(c, x) for r, x in col}
                       for i, col in convolution_unit(b.coalgebra, b.algebra).cols.items()})
        return scaled, b.antipode, b.coalgebra, b.algebra, want
    src = draw(st.sampled_from(hopf[:2])).coalgebra
    dst = draw(st.sampled_from(hopf)).algebra

    def factor():
        cols = {}
        for i in range(src.dim):
            kind = draw(st.sampled_from(["empty", "one", "scaled", "terms"]))
            if kind == "empty":
                continue
            rows = draw(st.lists(st.integers(0, dst.dim - 1), unique=True,
                                 min_size=1 if kind != "terms" else 2,
                                 max_size=1 if kind != "terms" else 4))
            cols[i] = {r: field.one if kind == "one" else draw(value) for r in rows}
        return LinMap(field, src.space, dst.space, cols)

    return factor(), factor(), src, dst, None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(convolution_cases())
def test_convolution_agrees_with_the_composed_maps_on_drawn_factors(case):
    f, g, src, dst, want = case
    got = convolution(f, g, src, dst)
    direct = convolution_direct(f, g, src, dst)
    assert got == direct and hash(got) == hash(direct)
    if want is not None:
        assert got == want
        assert set(got.cols) == {i for i, e in enumerate(_counits(src))
                                 if not src.field.is_zero(e)}


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
        assert oracle_is_coalgebra_map(h.antipode, h.coalgebra, h.coalgebra, flip=True)
        assert oracle_is_algebra_map(h.antipode, h.algebra, h.algebra, flip=True)
    b = sweedler_bialgebra()
    s = antipode_solve(b)
    assert oracle_is_algebra_map(s, b.algebra, b.algebra, flip=True)


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
    square = oracle_tensor_algebra_mult(b.algebra, b.algebra)
    lhs = compose(b.delta, b.mult)
    rhs = compose(square, tensor_map(b.delta, b.delta))
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
        tensor_product_oracle(c2, c3),
        tensor_product_oracle(sweedler_bialgebra(), c2),
    ]


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


def test_tensor_algebra_matches_the_composed_shuffle():
    # the tensor product is the unified product of the trivial datum
    from helpers import scaled_sweedler
    from hopfprod.serialize import serialize
    from hopfprod.unified import assemble_product

    s3 = group_algebra(builtin_group("s3"))
    h4, h4_f5, scaled = sweedler_bialgebra(), sweedler_bialgebra(F5), scaled_sweedler()
    for x, y in [(h4, h4), (h4_f5, h4_f5), (s3, h4), (scaled, scaled)]:
        assert serialize(assemble_product(trivial_datum(x, y))) == serialize(
            tensor_product_oracle(x, y))


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


@functools.cache
def drawn_bases(field):
    """k[C2], k[C3], k[C4] and k[S3], whose products and coproducts are one
    term each, and H4, whose are not."""
    groups = [group_algebra(builtin_group(n), field) for n in ("c2", "c3", "c4", "s3")]
    return groups + [sweedler_bialgebra(field)]


def drawn_column(draw, field, dim, kinds):
    """A column of one drawn kind: zero, one entry with coefficient one, one
    entry with coefficient -1 or 2, or two entries."""
    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        return {}
    rows = draw(st.lists(st.integers(0, dim - 1), unique=True,
                         min_size=1 + (kind == "terms"), max_size=1 + (kind == "terms")))
    scale = st.sampled_from([field.neg(field.one), field.of(2)])
    return {r: field.one if kind == "one" else draw(scale) for r in rows}


@st.composite
def drawn_bialgebras(draw, field=None, base=None):
    """``base``, or one of :func:`drawn_bases` over ``field`` (drawn from QQ
    and GF(7) when not given), with up to three product columns replaced:
    moved to another basis element (a group table with one entry changed,
    mostly non-associative), scaled by -1 or 2, zeroed or given two
    entries.  One case in four also replaces every coproduct by 1 (x) 1, so
    that a product is multiplicative at every pair except at a zeroed
    column, and one in four by a drawn term c e_p (x) e_q; in both, the two
    legs of a product are other columns than the product."""
    if field is None:
        field = draw(st.sampled_from([QQ, PrimeField(7)]))
    b = base or draw(st.sampled_from(drawn_bases(field)))
    n = b.dim
    cols = {k: b.mult.col(k) for k in range(n * n)}
    for _ in range(draw(st.integers(0, 3))):
        cols[draw(st.integers(0, n * n - 1))] = drawn_column(
            draw, field, n, ["one", "scaled", "zero", "terms"])
    coalg = b.coalgebra
    kind = draw(st.sampled_from(["base", "base", "unit", "drawn"]))
    if kind != "base":
        (u,) = b.unit
        delta = LinMap(field, b.space, b.delta.codomain,
                       {i: {u * n + u: field.one} if kind == "unit"
                        else drawn_column(draw, field, n * n, ["one", "scaled"])
                        for i in range(n)})
        coalg = FDCoalgebra(field, b.space, delta, b.epsilon)
    mult = LinMap(field, b.mult.domain, b.space, cols)
    return FDBialgebra(coalg, FDAlgebra(field, b.space, mult, b.unit))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(drawn_bialgebras())
def test_checker_rows_and_witnesses_match_the_oracle_on_drawn_products(b):
    assert rows(check_algebra(b.algebra)) == rows(oracle_check_algebra(b.algebra))
    assert rows(check_bialgebra(b)) == rows(oracle_check_bialgebra(b))


@st.composite
def drawn_algebra_maps(draw):
    """(f, src, dst) for two :func:`drawn_bialgebras`, src drawn from a base
    and dst from the same base or another, where f is the identity (when
    the dimensions agree), with at most one column replaced, or has drawn
    columns: all with coefficient one, all scaled, or of every kind."""
    field = draw(st.sampled_from([QQ, PrimeField(7)]))
    base = draw(st.sampled_from(drawn_bases(field)))
    src = draw(drawn_bialgebras(field, base))
    dst = draw(drawn_bialgebras(field, draw(st.sampled_from([base, *drawn_bases(field)]))))
    if src.dim == dst.dim and draw(st.booleans()):
        cols = {i: {i: field.one} for i in range(src.dim)}
        if draw(st.booleans()):
            cols[draw(st.integers(0, src.dim - 1))] = drawn_column(
                draw, field, dst.dim, ["one", "scaled", "zero"])
    else:
        kinds = draw(st.sampled_from([["one"], ["scaled"], ["one", "scaled", "zero", "terms"]]))
        cols = {i: drawn_column(draw, field, dst.dim, kinds) for i in range(src.dim)}
    return LinMap(field, src.space, dst.space, cols), src, dst


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(drawn_algebra_maps())
def test_predicates_match_the_oracle_on_drawn_maps(case):
    assert_predicates_match_oracle(*case)


def set_map(field, src, dst, targets):
    return LinMap(field, src.space, dst.space,
                  {i: {t: field.one} for i, t in enumerate(targets)})


def assert_predicates_match_oracle(f, src, dst):
    assert is_coalgebra_map(f, src.coalgebra, dst.coalgebra) == \
        oracle_is_coalgebra_map(f, src.coalgebra, dst.coalgebra)
    assert is_algebra_map(f, src.algebra, dst.algebra) == \
        oracle_is_algebra_map(f, src.algebra, dst.algebra)


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


def test_structure_equality_is_structural_after_the_identity_test(monkeypatch):
    s3, twin, c6 = (group_algebra(builtin_group(n)) for n in ("s3", "s3", "c6"))
    h4 = sweedler_bialgebra()
    c4 = group_algebra(builtin_group("c4"))
    pairs = [  # (x, a distinct object equal to x, an object not equal to x)
        (c4.coalgebra, group_algebra(builtin_group("c4")).coalgebra, h4.coalgebra),
        (s3.algebra, twin.algebra, c6.algebra),
        (s3.unit_coalgebra(), twin.unit_coalgebra(),
         UnitalCoalgebra(s3.coalgebra, {1: QQ.one})),
        (FDBialgebra(s3.coalgebra, s3.algebra), FDBialgebra(twin.coalgebra, twin.algebra),
         FDBialgebra(c6.coalgebra, c6.algebra)),
        (s3, twin, FDHopf(s3.coalgebra, s3.algebra, LinMap.identity(QQ, s3.space))),
    ]
    for x, same, other in pairs:
        assert same is not x and x == same and same == x and hash(x) == hash(same)
        assert x != other and other != x
    # an object is equal to itself without comparing a single structure map
    def refuse(self, other):
        raise AssertionError("structure maps compared")
    monkeypatch.setattr(LinMap, "__eq__", refuse)
    for x, _, _ in pairs:
        assert x == x


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
