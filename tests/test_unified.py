import dataclasses
import random
from itertools import product as iproduct

import pytest

from helpers import (
    LEG_ROWS,
    a4_unified_look_alikes,
    assemble_product_direct,
    assert_mixed_relations,
    check_mixed_relations_on_every_build,
    drinfeld_double_datum,
    h4_datum_with_bad_lact,
    h4_datum_with_c2_cocycle,
    h4_trivial_datum,
    leg_rows_direct,
    one_entry_corruptions,
    perturb_group_structure,
    oracle_check_bialgebra,
    oracle_check_coalgebra,
    oracle_is_algebra_map,
    oracle_is_coalgebra_map,
    product_antipode,
    product_projections,
    random_group_structure,
    rebind_everywhere,
    scaled_h4_trivial_datum,
    sweedler_bialgebra,
    tensor_map,
    tensor_product_oracle,
    trivial_datum,
    with_coalgebra_column,
    with_column,
)
import hopfprod.structures
import hopfprod.unified
from hopfprod.classification import check_equivalence, deform_datum, enumerate_cocycles
from hopfprod.corpus import (
    a4_order2_ges,
    a4_unified_datum,
    s3_matched_pair,
    z4_crossed_datum,
)
from hopfprod.fields import QQ, PrimeField
from hopfprod.groups import (
    GroupExtendingStructure,
    builtin_group,
    coset_extending_structure,
    group_algebra,
    grouplike_coalgebra,
    lift_to_hopf,
    small_corpus_names,
)
from hopfprod.linalg import (
    SCALAR_SPACE,
    BasedSpace,
    LinMap,
    PreimageSolver,
    basis_vec,
    compose,
    tensor_space,
    tensor_vec,
    vec_scale,
)
from hopfprod.reports import Report
from hopfprod.serialize import serialize
from hopfprod.special import (
    CrossedDatum,
    MatchedPair,
    check_crossed,
    check_matched_pair,
    crossed_datum,
    matched_pair_datum,
)
from hopfprod.structures import (
    FDAlgebra,
    FDBialgebra,
    FDCoalgebra,
    FDHopf,
    NoAntipodeError,
    antipode_solve,
    UnitalCoalgebra,
    _coalgebra_map_halves,
    _ground_coalgebra,
    _grouplike,
    attach_antipode,
    check_algebra,
    check_bialgebra,
    check_coalgebra,
    counit_all_ones,
    is_algebra_map,
    is_coalgebra_map,
    left_convolution_inverse,
    tensor_coalgebra,
)
from hopfprod.unified import (
    CONDITION_NAMES,
    CONDITION_SHAPES,
    ExtendingDatum,
    MAP_SHAPES,
    DatumConditionError,
    _condition_evaluators,
    _normalization_evaluators,
    _scan_condition,
    _tables,
    assemble_product,
    build_unified_product,
    check_product_conditions,
    solve_product_antipode,
    validate_datum,
)


@pytest.fixture(autouse=True)
def mixed_relations_on_every_build(monkeypatch):
    check_mixed_relations_on_every_build(monkeypatch)


def failing(report):
    return {item.condition for item in report.failures()}


def grouplike_of(d):
    """Whether H and A of d are group-like, as a check decides it once."""
    return _grouplike(d.ext.coalg), _grouplike(d.base.coalgebra)


def test_trivial_datum_all_checks_pass():
    a = group_algebra(builtin_group("c2"))
    h = group_algebra(builtin_group("c2"))
    d = trivial_datum(a, h)
    assert validate_datum(d).ok
    rep = check_product_conditions(d)
    assert rep.ok
    assert tuple(item.condition for item in rep.items) == CONDITION_NAMES


def test_trivial_datum_product_is_tensor_bialgebra():
    a = group_algebra(builtin_group("c2"))
    h = group_algebra(builtin_group("c2"))
    p = build_unified_product(trivial_datum(a, h))
    t = tensor_product_oracle(a, h)
    assert p.carrier.mult == t.mult
    assert p.carrier.delta == t.delta
    # and it is the group algebra of the Klein four group up to labels
    k4 = group_algebra(builtin_group("c2xc2"))
    assert p.carrier.mult == k4.mult


def test_a4_datum_passes_everything():
    d = a4_unified_datum()
    assert validate_datum(d).ok
    assert check_product_conditions(d).ok


def test_broken_cocycle_normalization_detected():
    d = a4_unified_datum()
    bad_cols = {i: d.cocycle.col(i) for i in range(d.cocycle.domain.dim)}
    # overwrite f(1_H, h) for one h != basepoint with a non-unit group element
    bad_cols[0 * 6 + 2] = {1: QQ.one}
    bad = type(d)(base=d.base, ext=d.ext, dot=d.dot, ract=d.ract, lact=d.lact,
                  cocycle=LinMap(QQ, d.cocycle.domain, d.cocycle.codomain, bad_cols))
    rep = validate_datum(bad)
    assert "cocycle-normal-left" in failing(rep)


def test_wrong_cocycle_value_breaks_twisted_laws():
    ges = a4_order2_ges()
    cocyc = [list(row) for row in ges.cocyc]
    cocyc[3][4] = 1 - cocyc[3][4]  # swap the order-2 group element
    broken = GroupExtendingStructure(
        group=ges.group, x_labels=ges.x_labels, ract=ges.ract, lact=ges.lact,
        cocyc=tuple(map(tuple, cocyc)), star=ges.star,
    )
    d = lift_to_hopf(broken)
    assert validate_datum(d).ok
    rep = check_product_conditions(d)
    assert failing(rep) & {"twisted-associativity", "twisted-module",
                           "cocycle-condition"}


def test_build_refuses_bad_datum_and_names_conditions():
    ges = a4_order2_ges()
    star = [list(row) for row in ges.star]
    star[2][3], star[2][4] = star[2][4], star[2][3]
    broken = GroupExtendingStructure(
        group=ges.group, x_labels=ges.x_labels, ract=ges.ract, lact=ges.lact,
        cocyc=ges.cocyc, star=tuple(map(tuple, star)),
    )
    with pytest.raises(DatumConditionError) as err:
        build_unified_product(lift_to_hopf(broken))
    assert err.value.report.failures()


def test_embeddings_and_generator_identity():
    d = matched_pair_datum(s3_matched_pair())
    p = build_unified_product(d)
    a, h = d.base, d.ext
    e = p.carrier
    assert is_algebra_map(p.incl_base, a.algebra, e.algebra)
    assert is_coalgebra_map(p.incl_base, a.coalgebra, e.coalgebra)
    assert is_coalgebra_map(p.incl_ext, h.coalg, e.coalgebra)
    # injectivity via the projections being one-sided inverses
    proj_base, proj_ext, _ = product_projections(p)
    assert compose(proj_base, p.incl_base) == LinMap.identity(QQ, a.space)
    assert compose(proj_ext, p.incl_ext) == LinMap.identity(QQ, h.space)
    # every basis element a (x) g factors through the two embeddings
    for ai in range(a.dim):
        for gi in range(h.dim):
            got = e.mul(p.incl_base.col(ai), p.incl_ext.col(gi))
            assert got == tensor_vec(QQ, basis_vec(QQ, ai), basis_vec(QQ, gi), h.dim)


def test_coaction_shape():
    d = matched_pair_datum(s3_matched_pair())
    p = build_unified_product(d)
    col = product_projections(p)[2].col(1 * 2 + 1)
    # a (x) h goes to a (x) h1 (x) h2; group-like h gives a single term
    assert col == {(1 * 2 + 1) * 2 + 1: QQ.one}


def test_degenerate_one_dimensional_ext_collapses_to_base():
    a = group_algebra(builtin_group("s3"))
    h = group_algebra(builtin_group("c1"))
    d = trivial_datum(a, h)
    assert validate_datum(d).ok
    assert check_product_conditions(d).ok
    p = build_unified_product(d)
    # dim(H) = 1 means index (i, 0) = i: structure constants must equal A's
    assert p.carrier.mult == a.mult
    assert p.carrier.delta == a.delta
    assert p.carrier.epsilon == a.epsilon
    assert p.carrier.unit == a.unit


def test_condition_oracle_equivalence_randomized_smoke():
    # the full 200-sample run is acceptance criterion 1
    rng = random.Random(100)
    groups = [builtin_group(n) for n in ("c1", "c2", "c3", "c4", "c2xc2")]
    for _ in range(25):
        ges = random_group_structure(rng, rng.choice(groups), rng.randrange(1, 5))
        d = lift_to_hopf(ges)
        assert validate_datum(d).ok
        conditions_ok = check_product_conditions(d).ok
        carrier = assemble_product(d)
        assert conditions_ok == check_bialgebra(carrier).ok
        assert_mixed_relations(d, carrier)


def test_product_antipode_ground_field_base():
    a = group_algebra(builtin_group("c1"))
    h = group_algebra(builtin_group("c2"))
    d = trivial_datum(a, h)
    p = build_unified_product(d)
    s = product_antipode(p, h.antipode)
    # S(1 (x) g) = 1 (x) g^-1; every element of C2 is its own inverse
    assert s == LinMap.identity(QQ, p.carrier.space)


def test_product_antipode_rejects_bad_inputs():
    d = matched_pair_datum(s3_matched_pair())
    p = build_unified_product(d)
    h = d.ext
    not_antimap = LinMap(QQ, h.space, h.space, {0: {1: QQ.one}, 1: {0: QQ.one}})
    with pytest.raises(ValueError, match="antimorphism|dot inverse"):
        product_antipode(p, not_antimap)
    not_inverse = LinMap.identity(QQ, h.space)
    # the identity is a coalgebra antimap here but not a dot inverse? it is
    # one for C2 (every element is an involution), so use a constant map
    constant = LinMap(QQ, h.space, h.space, {0: {0: QQ.one}, 1: {0: QQ.one}})
    with pytest.raises(ValueError) as exc:
        product_antipode(p, constant)
    assert str(exc.value) == "s_h is not a two-sided dot inverse at (1 2)"


def full_solves(monkeypatch) -> list:
    """From now on record each carrier the product antipode hands to the
    full solve of ``antipode_solve``."""
    full, carriers = hopfprod.unified.antipode_solve, []

    def recorded(b):
        carriers.append(b)
        return full(b)
    monkeypatch.setattr(hopfprod.unified, "antipode_solve", recorded)
    return carriers


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=repr)
def test_product_antipode_is_solved_on_one_tensor_h(field, monkeypatch):
    """On a Hopf base the restricted system decides: X = S j for
    j: h -> 1 (x) h, and S(a (x) h) = X(h) (S_A(a) (x) 1).  The data include
    H4 over H4, whose coproducts have several terms and whose antipode has
    order four."""
    carriers = full_solves(monkeypatch)
    h4 = sweedler_bialgebra(field)
    for d in (matched_pair_datum(s3_matched_pair(field)), crossed_datum(z4_crossed_datum(field)),
              a4_unified_datum(field), trivial_datum(attach_antipode(h4), h4)):
        p = build_unified_product(d)
        s = solve_product_antipode(p)
        e = p.carrier
        assert s == antipode_solve(e)
        assert left_convolution_inverse(p.incl_ext, d.ext.coalg, e.algebra) == \
            compose(s, p.incl_ext)
        assert compose(s, p.incl_base) == compose(p.incl_base, d.base.antipode)
    assert carriers == []


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=repr)
def test_product_antipode_without_base_antipode_is_the_full_solve(field, monkeypatch):
    """The datum recovered from D(k[S3]) has a bialgebra base, so the
    product antipode is the full solve of the carrier."""
    carriers = full_solves(monkeypatch)
    d = drinfeld_double_datum("s3", field)
    assert not isinstance(d.base, FDHopf)
    p = build_unified_product(d)
    assert solve_product_antipode(p) == antipode_solve(p.carrier)
    assert carriers == [p.carrier]


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=repr)
def test_product_antipode_of_the_double_is_an_antimap(field):
    """The antipode of D(k[S3]), a product whose coproducts have several
    terms, reverses products and coproducts."""
    p = build_unified_product(drinfeld_double_datum("s3", field))
    e, s = p.carrier, solve_product_antipode(p)
    assert oracle_is_algebra_map(s, e.algebra, e.algebra, flip=True)
    assert oracle_is_coalgebra_map(s, e.coalgebra, e.coalgebra, flip=True)
    # neither factor of D(k[S3]) is commutative and cocommutative at once
    assert not oracle_is_algebra_map(s, e.algebra, e.algebra)
    assert not oracle_is_coalgebra_map(s, e.coalgebra, e.coalgebra)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=repr)
def test_product_antipode_with_a_corrupted_base_antipode_is_the_full_solve(field, monkeypatch):
    """A base antipode off by one entry makes the assembled S fail its
    convolution check, and the full solve gives the true antipode."""
    carriers = full_solves(monkeypatch)
    d = a4_unified_datum(field)
    want = solve_product_antipode(build_unified_product(d))
    base = d.base
    corruptions = [bad for bad in one_entry_corruptions(base.antipode) if bad != base.antipode]
    for bad in corruptions:
        d2 = dataclasses.replace(d, base=FDHopf(base.coalgebra, base.algebra, bad))
        assert solve_product_antipode(build_unified_product(d2)) == want
    assert len(carriers) == len(corruptions)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=repr)
def test_product_of_the_idempotent_star_monoid_has_no_antipode(field, monkeypatch):
    """The idempotent star tx * tx = tx passes every condition, so its
    product is a bialgebra, the monoid bialgebra of a monoid that is no
    group.  The restricted system is inconsistent, and the full solve
    refuses it on the left."""
    carriers = full_solves(monkeypatch)
    ges = GroupExtendingStructure(
        group=builtin_group("c2"), x_labels=("1x", "tx"),
        ract=((0, 0), (1, 1)), lact=((0, 1), (0, 1)),
        cocyc=((0, 0), (0, 0)), star=((0, 1), (1, 1)),
    )
    d = lift_to_hopf(ges, field)
    p = build_unified_product(d)
    assert left_convolution_inverse(p.incl_ext, d.ext.coalg, p.carrier.algebra) is None
    with pytest.raises(NoAntipodeError) as exc:
        solve_product_antipode(p)
    assert exc.value.side == "left"
    assert carriers == [p.carrier]


def test_mixed_relations_verified_on_build():
    # mixed products against unit components collapse to the short closed
    # forms; the oracle re-multiplies the built carrier to check them on A4,
    # on H4 (x) H4 (multi-term coproducts) and on every subgroup split of
    # the corpus groups of order at most 12
    f5 = PrimeField(5)
    data = [a4_unified_datum(), a4_unified_datum(f5), h4_trivial_datum(QQ),
            h4_trivial_datum(f5)]
    for name in small_corpus_names():
        g = builtin_group(name)
        if g.order <= 12:
            data += [lift_to_hopf(coset_extending_structure(g, indices))
                     for indices in g.all_subgroups()]
    assert len(data) == 4 + 72
    for d in data:
        assert_mixed_relations(d, build_unified_product(d).carrier)
    # the identities need only the normalizations, so they also hold on the
    # assembled product of a datum that fails cocycle-symmetry; this one has
    # a nontrivial cocycle over the non-cocommutative H4, where swapping the
    # legs of a coproduct in the product formula shows
    for field in (QQ, f5):
        d = h4_datum_with_c2_cocycle(field)
        assert validate_datum(d).ok
        assert_mixed_relations(d, assemble_product(d))


def test_build_refuses_a_datum_that_fails_only_the_product_conditions():
    d = h4_datum_with_bad_lact()
    assert validate_datum(d).ok
    with pytest.raises(DatumConditionError) as err:
        build_unified_product(d)
    first = err.value.report.first_failure()
    assert (first.condition, first.witness) == ("lact-multiplicative", "(g,g,x)")


@pytest.mark.parametrize("datum, name, failing", [
    (lambda: crossed_datum(z4_crossed_datum()), "dot",
     "dot-coalgebra-map, dot-unit-left, dot-unit-right"),
    (h4_trivial_datum, "lact",
     "lact-coalgebra-map, lact-normal-unit-right, lact-normal-unit-left"),
], ids=["z4-dot", "h4-lact"])
def test_build_refuses_a_datum_that_fails_validation(datum, name, failing):
    """Column 0 of the map dropped: the unit normalizations on it fail."""
    d = datum()
    d = dataclasses.replace(d, **{name: with_column(getattr(d, name), 0, {})})
    with pytest.raises(DatumConditionError, match=f"^datum conditions fail: {failing}$"):
        build_unified_product(d)


def test_datum_checks_build_no_tensor_product_coalgebra(monkeypatch):
    def refuse(*args):
        raise AssertionError("tensor_coalgebra called")

    rebind_everywhere(monkeypatch, hopfprod.structures.tensor_coalgebra, refuse)
    for d in (a4_unified_datum(), h4_trivial_datum(), h4_datum_with_bad_lact()):
        validate_datum(d)
        check_product_conditions(d)
    assert check_matched_pair(s3_matched_pair()).ok
    assert check_crossed(z4_crossed_datum()).ok


def first_coalgebra_map_failure(m, src, dst):
    """The label of the first basis element of src at which the composed
    maps delta_dst . m and (m (x) m) . delta_src, or counit_dst . m and
    counit_src, differ."""
    sides = ((compose(dst.delta, m), compose(tensor_map(m, m), src.delta)),
             (compose(dst.epsilon, m), src.epsilon))
    return next(src.space.labels[i] for i in range(src.dim)
                if any(lhs.col(i) != rhs.col(i) for lhs, rhs in sides))


def composed_coalgebra_map_rows(hc, ac):
    """A function of named structure maps that gives their
    "<name>-coalgebra-map" rows by ``oracle_is_coalgebra_map`` on the
    tensor-product coalgebra of their shape, over H = hc and A = ac."""
    coalgs, verdicts = {"h": hc, "a": ac}, {}

    def rows(**maps):
        for name, m in maps.items():
            if (name, m) not in verdicts:
                left, right, target = (coalgs[k] for k in MAP_SHAPES[name])
                verdicts[name, m] = oracle_is_coalgebra_map(
                    m, tensor_coalgebra(left, right), target)
        return [(f"{name}-coalgebra-map", verdicts[name, m], None)
                for name, m in maps.items()]
    return rows


def test_coalgebra_map_rows_match_the_composed_oracle():
    """Every "*-coalgebra-map" row of validate_datum, check_matched_pair and
    check_crossed, and the comult-multiplicative condition, against
    ``oracle_is_coalgebra_map(m, tensor_coalgebra(X, Y), Z)`` on the corpus
    and the H4 data and their one-entry corruptions, over QQ and GF(5)."""
    def rows(rep, names):
        return [(it.condition, it.passed, it.witness) for it in rep.items
                if it.condition in names]

    def variants(obj, names):
        """obj, then obj with one of its maps corrupted in one entry."""
        yield obj
        for name in names:
            for m in one_entry_corruptions(getattr(obj, name)):
                yield dataclasses.replace(obj, **{name: m})

    verdicts = []
    for field in (QQ, PrimeField(5)):
        mp, cd = s3_matched_pair(field), z4_crossed_datum(field)
        # over QQ, H4 in a basis whose coproducts carry coefficients other than 1
        h4 = scaled_h4_trivial_datum() if field == QQ else h4_trivial_datum(field)
        for d in (matched_pair_datum(mp), crossed_datum(cd), h4,
                  h4_datum_with_c2_cocycle(field)):
            hc = d.ext.coalg
            composed = composed_coalgebra_map_rows(hc, d.base.coalgebra)
            for d2 in variants(d, MAP_SHAPES):
                want = composed(ract=d2.ract, lact=d2.lact, cocycle=d2.cocycle, dot=d2.dot)
                assert rows(validate_datum(d2), {row[0] for row in want}) == want
                verdicts += [row[1] for row in want]
            hh = tensor_coalgebra(hc, hc)
            for d2 in variants(d, ["dot"]):
                rep = Report()
                _scan_condition(rep, _condition_evaluators(d2, grouplike_of(d2)),
                                "comult-multiplicative")
                ok = oracle_is_coalgebra_map(d2.dot, hh, hc)
                witness = None if ok else first_coalgebra_map_failure(d2.dot, hh, hc)
                assert rows(rep, {"comult-multiplicative"}) == \
                    [("comult-multiplicative", ok, witness)]
                verdicts.append(ok)
        for check, obj, names in ((check_matched_pair, mp, ("ract", "lact")),
                                  (check_crossed, cd, ("lact", "cocycle"))):
            composed = composed_coalgebra_map_rows(obj.h.coalgebra, obj.a.coalgebra)
            for obj2 in variants(obj, names):
                want = composed(**{name: getattr(obj2, name) for name in names})
                assert rows(check(obj2), {row[0] for row in want}) == want
                verdicts += [row[1] for row in want]
    assert verdicts.count(False) > 100 and verdicts.count(True) > 100


def leg_test_data():
    """(datum, corruptions per map) for data with multi-term coproducts on H,
    on A or on neither: the doubles D(k[C2]) and D(k[C3]), H4 (x) H4 over
    QQ, GF(5) and in the scaled QQ basis, H4 over k[C2] with a nontrivial
    cocycle and with a nontrivial left action too, and the corpus data.
    The oracle expands 243 terms per tuple of D(k[C3]), so that double gets
    fewer corruptions.  Then :func:`table_test_data`, whose coproducts are
    index tables that split a point into two different legs, and
    :func:`grouplike_table_data`, whose rows are read from their tables."""
    f5 = PrimeField(5)
    return [(drinfeld_double_datum("c2", QQ), 4), (drinfeld_double_datum("c2", f5), 4),
            (drinfeld_double_datum("c3", QQ), 1), (drinfeld_double_datum("c3", f5), 1),
            (h4_trivial_datum(QQ), 4), (h4_trivial_datum(f5), 4),
            (scaled_h4_trivial_datum(), 4),
            (h4_datum_with_c2_cocycle(QQ), 4), (h4_datum_with_c2_cocycle(f5), 4),
            (twisted_h4_datum(QQ), 4), (twisted_h4_datum(f5), 4),
            (a4_unified_datum(), 4), (matched_pair_datum(s3_matched_pair()), 4),
            (crossed_datum(z4_crossed_datum()), 4)] + [
                (d, 2) for d in table_test_data() + grouplike_table_data()]


# How table_datum splits a point x of H or of A: "diagonal" is the group-like
# x (x) x; "left" (e_0 (x) e_x) and "right" (e_x (x) e_0) are coassociative
# and not diagonal; "drawn" sends x to two drawn points and is in general not
# coassociative, so that Delta^2 split on the left leg and on the right differ.
SPLITS = {"diagonal": lambda rng, n, x: (x, x), "left": lambda rng, n, x: (0, x),
          "right": lambda rng, n, x: (x, 0),
          "drawn": lambda rng, n, x: (rng.randrange(n), rng.randrange(n))}


def table_datum(rng, field, h_split, a_split, nh=3, na=3):
    """A datum over H on nh points and A on na points whose coproducts split
    as :data:`SPLITS` names, with counits all one, and whose four maps and
    product of A are drawn index tables.  The unit e_0 of H and of A is
    pinned as the unit normalizations ask, so that more tuples hold."""
    one = field.one
    hs = BasedSpace(tuple(f"h{k}" for k in range(nh)))
    sa = BasedSpace(tuple(f"a{k}" for k in range(na)))

    def coalgebra(space, split):
        n = space.dim
        legs = [SPLITS[split](rng, n, x) for x in range(n)]
        delta = LinMap(field, space, tensor_space(space, space),
                       {x: {l * n + r: one} for x, (l, r) in enumerate(legs)})
        return FDCoalgebra(field, space, delta, counit_all_ones(field, space))

    def drawn(left, right, cod, pin):
        """x (x) y -> pin(x, y), or a drawn point where that is None"""
        cols = {}
        for x, y in iproduct(range(left.dim), range(right.dim)):
            k = pin(x, y)
            cols[x * right.dim + y] = {rng.randrange(cod.dim) if k is None else k: one}
        return LinMap(field, tensor_space(left, right), cod, cols)

    def unit_pins(x, y):
        return y if x == 0 else x if y == 0 else None

    mult = drawn(sa, sa, sa, unit_pins)
    base = FDBialgebra(coalgebra(sa, a_split), FDAlgebra(field, sa, mult, {0: one}))
    ext = UnitalCoalgebra(coalgebra(hs, h_split), {0: one})
    return ExtendingDatum(
        base, ext, dot=drawn(hs, hs, hs, unit_pins),
        ract=drawn(hs, sa, hs, lambda x, y: x if y == 0 else 0 if x == 0 else None),
        lact=drawn(hs, sa, sa, lambda x, y: y if x == 0 else 0 if y == 0 else None),
        cocycle=drawn(hs, hs, sa, lambda x, y: 0 if 0 in (x, y) else None))


def table_test_data():
    """Index-table data whose coproducts are not diagonal, on H, on A and on
    both, over QQ and GF(5): look-alikes of group-like data, which are not
    group-like and so take the loops, where each leg is read as it is."""
    rng = random.Random(7)
    splits = [("left", "diagonal"), ("diagonal", "left"), ("right", "right"),
              ("left", "right"), ("drawn", "diagonal"), ("diagonal", "drawn"),
              ("drawn", "drawn")]
    return [table_datum(rng, field, h_split, a_split)
            for field in (QQ, PrimeField(5)) for h_split, a_split in splits for _ in range(2)]


def twisted_h4_datum(field):
    """:func:`h4_datum_with_c2_cocycle` with x |> 1 = s as well: a cocycle
    and a left action that are both nontrivial on the non-cocommutative H4,
    so that the order of the legs of Delta(g) shows in twisted-module and
    cocycle-condition."""
    d = h4_datum_with_c2_cocycle(field)
    return dataclasses.replace(d, lact=with_column(d.lact, 2 * 2 + 0, {1: field.one}))


def with_corruptions(d, rng, per_map):
    """d, then up to ``per_map`` seeded one-entry corruptions of each of its
    four structure maps."""
    yield d
    for name in MAP_SHAPES:
        variants = list(one_entry_corruptions(getattr(d, name)))
        for m in rng.sample(variants, min(per_map, len(variants))):
            yield dataclasses.replace(d, **{name: m})


def condition_tuples(d, name):
    """Every basis tuple of the condition ``name`` of d, in scan order, with
    its positions ranging over H or A as :data:`CONDITION_SHAPES` says."""
    dims = {"h": d.ext.dim, "a": d.base.dim}
    shape = CONDITION_SHAPES[CONDITION_NAMES.index(name)]
    return list(iproduct(*(range(dims[k]) for k in shape)))


def failing_tuples(table, name):
    """The tuples the row ``name`` of an evaluator table yields, to its end;
    none for a row the table decides (None)."""
    return [] if table[name] is None else list(table[name][0]())


def test_collapsed_leg_rows_agree_with_the_expanded_oracle_on_every_tuple():
    """Each row of :data:`LEG_ROWS` yields exactly the tuples at which
    :func:`leg_rows_direct` is false, in scan order, and a decided row
    (None) is true on every tuple: first row by row, each run to its end
    through one table, then through a fresh table whose rows are advanced
    in a shuffled interleaving, so that one row reads the collapsed legs and
    products another row stored, out of turn.  The table rows of
    :func:`grouplike_table_data` are generators; every verdict of every
    tuple is still held against the oracle."""
    rng = random.Random(18)
    verdicts, generators = [], 0
    for d, per_map in leg_test_data():
        for d2 in with_corruptions(d, rng, per_map):
            direct = leg_rows_direct(d2)
            want = {}
            for name in LEG_ROWS:
                tuples = condition_tuples(d2, name)
                ok = [direct[name](*t) for t in tuples]
                want[name] = [t for t, v in zip(tuples, ok) if not v]
                verdicts += ok
            table = _condition_evaluators(d2, grouplike_of(d2))
            for name in LEG_ROWS:
                assert failing_tuples(table, name) == want[name], name
            generators += _tables(d2, grouplike_of(d2)) is not None
            table = _condition_evaluators(d2, grouplike_of(d2))
            rows = {name: table[name][0]() for name in LEG_ROWS if table[name] is not None}
            turns = [name for name in rows for _ in range(len(want[name]) + 1)]
            rng.shuffle(turns)
            got = {name: [] for name in LEG_ROWS}
            for name in turns:
                t = next(rows[name], None)
                if t is not None:
                    got[name].append(t)
            assert got == want
    assert verdicts.count(False) > 1000 and verdicts.count(True) > 1000
    assert generators > 20


def test_normalization_rows_on_index_tables_yield_what_their_loops_yield():
    """Each unit normalization of ``validate_datum`` read off index tables
    yields the failing indices, in order, and the labels that its loop
    gives with ``LinMap.points`` read as None, on every datum and
    corruption of :func:`leg_test_data` and on those with drawn counits."""
    rng = random.Random(19)
    data = [d2 for d, per_map in leg_test_data() for d2 in with_corruptions(d, rng, per_map)]
    data += [with_drawn_counits(rng, d) for d in table_test_data() + grouplike_table_data()]
    on_tables, failing = 0, 0
    for d in data:
        def rows():
            return {name: (list(row()), labels)
                    for name, (row, labels) in _normalization_evaluators(d).items()}
        got, want = rows(), on_loops(rows)
        assert got == want
        on_tables += None not in [m.points for m in (d.lact, d.ract, d.cocycle, d.dot)]
        failing += sum(bool(tuples) for tuples, _ in got.values())
    assert on_tables > 100 and failing > 50


def test_two_condition_checks_on_one_datum_give_equal_reports():
    rng = random.Random(5)
    for d, _ in leg_test_data():
        for d2 in with_corruptions(d, rng, 1):
            first, second = check_product_conditions(d2), check_product_conditions(d2)
            assert first.items == second.items
            assert serialize(first) == serialize(second)


def grouplike_table_data():
    """:func:`table_datum` with diagonal splits: group-like H and A on three
    points whose four maps and product of A are drawn index tables, over QQ
    and GF(5); the product of A is in general not associative."""
    rng = random.Random(8)
    return [table_datum(rng, field, "diagonal", "diagonal")
            for field in (QQ, PrimeField(5)) for _ in range(6)]


def test_table_data_assemble_as_the_direct_loop():
    """The non-diagonal :func:`table_test_data` are not group-like, so the
    assembly sums them (``_tables`` gives None) into the product
    ``assemble_product_direct`` gives.  Group-like data with drawn tables,
    and their one-entry corruptions that stay tables, are read from their
    points; the autouse fixture holds each of those carriers against
    ``assemble_product_direct``, which reads every leg of every coproduct
    afresh."""
    for d in table_test_data():
        assert _tables(d, grouplike_of(d)) is None
        assert assemble_product(d).mult == assemble_product_direct(d).mult
    rng = random.Random(9)
    tables = 0
    for d in grouplike_table_data():
        assert _tables(d, grouplike_of(d)) is not None
        for d2 in with_corruptions(d, rng, 8):
            tables += _tables(d2, grouplike_of(d2)) is not None
            assemble_product(d2)
    assert tables > 100


def test_group_like_data_are_checked_and_assembled_on_their_tables(monkeypatch):
    """a4-unified is read from its index tables, and H4 (x) H4, whose
    coproducts have several terms, is summed."""
    summed = []
    for name in ("_vector_rows", "_summed_product"):
        original = getattr(hopfprod.unified, name)

        def recorded(*args, original=original, name=name):
            summed.append(name)
            return original(*args)
        monkeypatch.setattr(hopfprod.unified, name, recorded)
    a4, h4 = a4_unified_datum(), h4_trivial_datum()
    assert _tables(a4, grouplike_of(a4)) is not None
    assert _tables(h4, grouplike_of(h4)) is None
    assert check_product_conditions(a4).ok
    assemble_product(a4)
    assert summed == []
    assert check_product_conditions(h4).ok
    assemble_product(h4)
    assert summed == ["_vector_rows", "_summed_product"]


def on_loops(fn, *args):
    """fn(*args) with every ``LinMap.points`` read as None, so that each
    checker, predicate, solver and ``tensor_coalgebra`` takes its loop."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LinMap, "points", property(lambda self: None))
        return fn(*args)


def drawn_table_bialgebra(rng, field, n):
    """Index tables on n points for the coproduct and the product, drawn
    freely, with counits drawn among 0, 1 and 2 and the unit 1 e_u, 2 e_u or
    e_0 + e_u: the classical checkers fail most rows of it, each at a witness."""
    space = BasedSpace(tuple(f"p{k}" for k in range(n)))
    square = tensor_space(space, space)
    delta = LinMap(field, space, square, {i: {rng.randrange(n * n): field.one} for i in range(n)})
    eps = LinMap(field, space, SCALAR_SPACE,
                 {i: {0: field.of(rng.choice((0, 1, 1, 2)))} for i in range(n)})
    mult = LinMap(field, square, space, {k: {rng.randrange(n): field.one} for k in range(n * n)})
    u = rng.randrange(n)
    unit = rng.choice(({u: field.one}, {u: field.of(2)}, {0: field.one, u: field.one}))
    return FDBialgebra(FDCoalgebra(field, space, delta, eps), FDAlgebra(field, space, mult, unit))


def with_drawn_counits(rng, d):
    """d with the counits of H and of A drawn among 0, 1 and 2 per point,
    so that a unit normalization scaled by a counit can fail on it."""
    field = d.field

    def drawn(c):
        eps = LinMap(field, c.space, SCALAR_SPACE,
                     {i: {0: field.of(rng.choice((0, 1, 1, 2)))} for i in range(c.dim)})
        return FDCoalgebra(field, c.space, c.delta, eps)
    return dataclasses.replace(d, base=FDBialgebra(drawn(d.base.coalgebra), d.base.algebra),
                               ext=UnitalCoalgebra(drawn(d.ext.coalg), d.ext.unit))


def fresh(c):
    """c as a new coalgebra object, so that ``tensor_coalgebra`` builds
    afresh what it keeps per pair of factor objects."""
    return FDCoalgebra(c.field, c.space, c.delta, c.epsilon)


def report_rows(rep):
    return [(it.condition, it.passed, it.witness) for it in rep.items]


def test_checkers_on_index_tables_match_their_loops():
    """The table paths of the classical checkers, of the rows of
    ``validate_datum`` and of ``tensor_coalgebra`` give what their loops
    give, rows and witnesses: on the non-diagonal :func:`table_test_data`
    and their corruptions, on those data with drawn counits, on random
    group-like data and on freely drawn table bialgebras."""
    rng = random.Random(11)
    data = [d2 for d in table_test_data() for d2 in with_corruptions(d, rng, 2)]
    data += [with_drawn_counits(rng, d) for d in table_test_data()] + grouplike_table_data()
    for field in (QQ, PrimeField(5), PrimeField(7)):
        for name, nx in (("c2", 3), ("c3", 2), ("s3", 2)):
            data.append(lift_to_hopf(random_group_structure(rng, builtin_group(name), nx), field))
    bialgebras, failed = [], 0
    for d in data:
        want, got = on_loops(validate_datum, d), validate_datum(d)
        assert report_rows(got) == report_rows(want)
        failed += not got.ok
        for c, e in ((d.base.coalgebra, d.ext.coalg), (d.ext.coalg, d.ext.coalg)):
            table, loop = tensor_coalgebra(fresh(c), fresh(e)), on_loops(
                tensor_coalgebra, fresh(c), fresh(e))
            assert table.delta.points is not None
            assert (table.delta.cols, table.epsilon.cols) == (loop.delta.cols, loop.epsilon.cols)
        bialgebras.append(assemble_product(d))
    bialgebras += [drawn_table_bialgebra(rng, field, n)
                   for field in (QQ, PrimeField(5)) for n in (1, 2, 3, 4) for _ in range(25)]
    rows = []
    for b in bialgebras:
        for check, arg in ((check_coalgebra, b.coalgebra), (check_algebra, b.algebra),
                           (check_bialgebra, b)):
            got = report_rows(check(arg))
            assert got == report_rows(on_loops(check, arg)), check.__name__
            rows += got
    assert failed > 20
    assert sum(not ok for _, ok, _ in rows) > 500 and sum(ok for _, ok, _ in rows) > 500


def test_solvers_on_index_tables_match_their_loops():
    """``PreimageSolver`` and ``left_convolution_inverse`` read off index
    tables what their eliminations give: the pivots, L and K with K's
    labels, the preimages (vectors with stored zeros, outside the image and
    out of range included) and the convolution inverses, None included.
    The tables include non-injective maps and products whose right
    multiplications do not permute the basis, which take the eliminations."""
    rng = random.Random(12)
    seen = set()
    for field in (QQ, PrimeField(5)):
        values = [field.zero, field.one, field.of(2), field.of(3)]
        for _ in range(60):
            n, ncod = rng.randrange(1, 4), rng.randrange(1, 6)
            dom, cod = (BasedSpace(tuple(f"{p}{k}" for k in range(m)))
                        for p, m in (("d", n), ("c", ncod)))
            points = ([rng.randrange(ncod) for _ in range(n)] if n > ncod or rng.random() < 0.3
                      else rng.sample(range(ncod), n))
            f = LinMap(field, dom, cod, {i: {j: field.one} for i, j in enumerate(points)})
            solver, loop = PreimageSolver(f), on_loops(PreimageSolver, f)
            injective = len(set(points)) == n
            seen.add(("preimage", injective))
            assert solver.pivots == loop.pivots
            for m, w in ((solver.left_inverse, loop.left_inverse),
                         (solver.cokernel, loop.cokernel)):
                assert (m.cols, m.domain.labels, m.codomain.labels) == \
                    (w.cols, w.domain.labels, w.codomain.labels)
            for _ in range(8):
                v = {rng.randrange(ncod + 1): rng.choice(values) for _ in range(rng.randrange(4))}
                vv = {rng.randrange(ncod * ncod + 1): rng.choice(values)
                      for _ in range(rng.randrange(4))}
                assert solver.preimage(v) == on_loops(loop.preimage, v)
                assert solver.pair_preimage(vv) == on_loops(loop.pair_preimage, vv)
        for _ in range(150):
            b = drawn_table_bialgebra(rng, field, rng.randrange(1, 4))
            if rng.random() < 0.4:
                dst = group_algebra(builtin_group(rng.choice(("c2", "c3", "s3"))), field).algebra
            else:
                dst = b.algebra
            src = b.coalgebra
            j = LinMap(field, src.space, dst.space,
                       {i: {rng.randrange(dst.dim): field.one} for i in range(src.dim)})
            got = left_convolution_inverse(j, src, dst)
            assert got == on_loops(left_convolution_inverse, j, src, dst)
            n, mp = dst.dim, dst.mult.points
            permutes = all(len({mp[t * n + s] for t in range(n)}) == n
                           for s in {j.points[p % src.dim] for p in src.delta.points})
            seen.add(("inverse", permutes, got is None))
    assert seen == {("preimage", True), ("preimage", False), ("inverse", True, True),
                    ("inverse", True, False), ("inverse", False, True),
                    ("inverse", False, False)}


# The rows decided once per check on group-like data that are scanned
# elsewhere (the coalgebra axioms, the two multiplicative rows of a
# bialgebra and three of the nine conditions); the coalgebra-map rows (of
# validate_datum, check_matched_pair, check_crossed and the certificate's
# phi-coalgebra-map) and the two unit rows of a bialgebra are decided too.
DECIDED_SCANS = {"coassociativity", "counit-left", "counit-right", "comult-multiplicative",
                 "counit-multiplicative", "cocycle-symmetry", "action-symmetry"}
DECIDED_SYMMETRY = ("cocycle-symmetry", "action-symmetry")


def decided_row_data(rng):
    """The corpus data and random lifts of set-level structures over QQ,
    GF(5) and GF(7), on which the rows are decided, then look-alikes that
    must take the loops: a4-unified and the lifts with one point of Delta_H
    or Delta_A off the diagonal, with one counit of 0 or 2, or with one
    column of a map scaled to 2 e_j; drawn index tables on non-diagonal and
    on group-like coproducts; and the H4 data."""
    f5, f7 = PrimeField(5), PrimeField(7)
    data = [a4_unified_datum(), a4_unified_datum(f5), matched_pair_datum(s3_matched_pair(f5)),
            crossed_datum(z4_crossed_datum())]
    data += [lift_to_hopf(random_group_structure(rng, builtin_group(name), nx), field)
             for field in (QQ, f5, f7) for name, nx in (("c2", 3), ("c3", 2), ("s3", 2))]
    look_alikes = list(a4_unified_look_alikes().values())
    for d in data:
        field = d.field
        for which, c in (("ext", d.ext.coalg), ("base", d.base.coalgebra)):
            x, y = rng.sample(range(c.dim), 2)
            for part, col in (("delta", {x * c.dim + y: field.one}), ("epsilon", {}),
                              ("epsilon", {0: field.of(2)})):
                c2 = with_coalgebra_column(c, part, x, col)
                look_alikes.append(dataclasses.replace(d, **{which: (
                    UnitalCoalgebra(c2, d.ext.unit) if which == "ext"
                    else FDBialgebra(c2, d.base.algebra))}))
        name = rng.choice(list(MAP_SHAPES))
        m = getattr(d, name)
        k = rng.randrange(m.domain.dim)
        (j,) = m.col(k)
        look_alikes.append(dataclasses.replace(d, **{name: with_column(m, k, {j: field.of(2)})}))
    look_alikes += table_test_data()[::3] + grouplike_table_data()[::3]
    look_alikes += [h4_trivial_datum(), scaled_h4_trivial_datum(), h4_datum_with_c2_cocycle(),
                    twisted_h4_datum(PrimeField(5))]
    return data, look_alikes


def bialgebra_look_alikes(e, rng):
    """e, then e with one point of its coproduct off the diagonal, with one
    counit of 0 or 2, and with one column of its product scaled by 2."""
    yield e
    field, c = e.field, e.coalgebra
    x, y = rng.sample(range(e.dim), 2)
    for part, col in (("delta", {x * e.dim + y: field.one}), ("epsilon", {}),
                      ("epsilon", {0: field.of(2)})):
        yield FDBialgebra(with_coalgebra_column(c, part, x, col), e.algebra)
    k = rng.randrange(e.dim * e.dim)
    mult = with_column(e.mult, k, vec_scale(field, field.of(2), e.mult.col(k)))
    yield FDBialgebra(c, FDAlgebra(field, e.space, mult, e.unit))


def first_failing_tuple(d, name, holds):
    """The witness label "(a,b)" of the first tuple of the condition
    ``name`` of d, in scan order, at which ``holds`` is false; None when
    there is none."""
    labels = {"h": d.ext.space.labels, "a": d.base.space.labels}
    shape = CONDITION_SHAPES[CONDITION_NAMES.index(name)]
    t = next((t for t in condition_tuples(d, name) if not holds(*t)), None)
    return None if t is None else "(" + ",".join(labels[k][x] for k, x in zip(shape, t)) + ")"


def test_decided_rows_match_the_oracles_and_their_loops():
    """Every row decided on group-like data gives the verdict and witness of
    its composed-map oracle and of its loop, run with ``LinMap.points`` read
    as None: on the data of :func:`decided_row_data` and their coalgebras,
    on the products of the corpus data, of the lifts over QQ and of every
    sixth look-alike, and on the look-alikes of the first of those
    products (:func:`bialgebra_look_alikes`).  The oracles
    are ``oracle_check_coalgebra``, ``oracle_check_bialgebra``,
    ``oracle_is_coalgebra_map`` on the tensor-product coalgebra, and the
    expanded :func:`leg_rows_direct` for the two symmetry rows."""
    rng = random.Random(38)
    verdicts = {}
    data, look_alikes = decided_row_data(rng)
    for d in data + look_alikes:
        hc, ac = d.ext.coalg, d.base.coalgebra
        for c in (hc, ac):
            got = report_rows(check_coalgebra(c))
            assert got == report_rows(oracle_check_coalgebra(c))
            assert got == report_rows(on_loops(check_coalgebra, c))
        rep = validate_datum(d)
        assert report_rows(rep) == report_rows(on_loops(validate_datum, d))
        unit = LinMap(d.field, SCALAR_SPACE, hc.space, {0: d.ext.unit})
        ok = oracle_is_coalgebra_map(unit, _ground_coalgebra(d.field), hc)
        map_rows = [("unit-h-grouplike", ok, None if ok else "1_H")]
        map_rows += composed_coalgebra_map_rows(hc, ac)(
            ract=d.ract, lact=d.lact, cocycle=d.cocycle, dot=d.dot)
        assert report_rows(rep)[:len(map_rows)] == map_rows
        rep = check_product_conditions(d)
        assert report_rows(rep) == report_rows(on_loops(check_product_conditions, d))
        ok = oracle_is_coalgebra_map(d.dot, tensor_coalgebra(hc, hc), hc)
        want = [("comult-multiplicative", ok,
                 None if ok else first_coalgebra_map_failure(d.dot, tensor_coalgebra(hc, hc), hc))]
        direct = leg_rows_direct(d)
        for name in DECIDED_SYMMETRY:
            witness = first_failing_tuple(d, name, direct[name])
            want.append((name, witness is None, witness))
        rows = {row[0]: row for row in report_rows(rep)}
        assert [rows[name] for name, _, _ in want] == want
        for row in want + map_rows:
            verdicts.setdefault(row[0], set()).add(row[1])
    for d in data[:7] + look_alikes[::6]:
        e = assemble_product(d)
        for e2 in bialgebra_look_alikes(e, rng) if d is data[0] else [e]:
            for check, oracle, arg in ((check_coalgebra, oracle_check_coalgebra, e2.coalgebra),
                                       (check_bialgebra, oracle_check_bialgebra, e2)):
                got = report_rows(check(arg))
                assert got == report_rows(oracle(arg))
                assert got == report_rows(on_loops(check, arg))
            for name, passed, _ in got:
                verdicts.setdefault(f"bialgebra {name}", set()).add(passed)
    a4 = a4_unified_datum()
    for u in enumerate_cocycles(a4.ext, a4.base)[:3]:
        for d2 in (a4, deform_datum(a4, u)):
            rep = check_equivalence(a4, d2, u).report
            assert report_rows(rep) == report_rows(on_loops(
                lambda: check_equivalence(a4, d2, u).report))
            verdicts.setdefault("phi", set()).add(rep.ok)
    assert sum(_grouplike(d.ext.coalg) and _grouplike(d.base.coalgebra) for d in data) == 13
    assert all(seen == {True, False} for seen in verdicts.values()), verdicts


def test_decided_rows_are_scanned_on_their_loops(monkeypatch):
    """On group-like data no decided row is scanned, and no map's
    coalgebra-map halves are read, not even those of the unit of the
    product; with ``LinMap.points`` read as None nothing is group-like, and
    every decided row is scanned again and every map's halves read, both
    units' included.  A spy on ``_scan`` records the rows it scans, and one
    on ``_coalgebra_map_halves`` the maps it is given."""
    scan, halves = hopfprod.structures._scan, _coalgebra_map_halves
    scanned, maps = set(), []

    def scan_spy(rep, name, failing, label):
        scanned.add(name)
        return scan(rep, name, failing, label)

    def halves_spy(m, *coalgebras):
        maps.append(m)
        return halves(m, *coalgebras)
    rebind_everywhere(monkeypatch, scan, scan_spy)
    rebind_everywhere(monkeypatch, halves, halves_spy)
    for d in (a4_unified_datum(), crossed_datum(z4_crossed_datum(PrimeField(5))),
              matched_pair_datum(s3_matched_pair())):
        e = assemble_product(d)

        def run():
            scanned.clear()
            maps.clear()
            for rep in (validate_datum(d), check_product_conditions(d), check_bialgebra(e)):
                assert rep.ok
            return set(scanned), list(maps)
        names, read = run()
        assert not names & DECIDED_SCANS
        assert read == []
        names, read = on_loops(run)
        assert DECIDED_SCANS <= names
        for m in (d.ract, d.lact, d.cocycle, d.dot, e.mult):
            assert any(x is m for x in read)
        for space in (d.ext.space, e.space):
            assert any(x.domain.dim == 1 and x.codomain.labels == space.labels for x in read)


def test_unit_rows_of_a_scaled_unit_are_evaluated(monkeypatch):
    """A group-like E whose product is an index table and whose unit is
    2 e_u is a look-alike of the data on which comult-unit and counit-unit
    are decided: its unit k -> E is no index table, so both rows are
    evaluated on the unit map, and both fail at "unit", as the oracle and
    the loops say; with 1 e_u both hold, and nothing is evaluated."""
    halves, maps = _coalgebra_map_halves, []

    def halves_spy(m, *coalgebras):
        maps.append(m)
        return halves(m, *coalgebras)
    rebind_everywhere(monkeypatch, halves, halves_spy)
    for d in (a4_unified_datum(), lift_to_hopf(random_group_structure(
            random.Random(47), builtin_group("s3"), 2), PrimeField(5))):
        e = assemble_product(d)
        (u,) = e.unit
        two = e.field.of(2)
        for unit, passed in (({u: e.field.one}, True), ({u: two}, False)):
            b = FDBialgebra(e.coalgebra, FDAlgebra(e.field, e.space, e.mult, unit))
            maps.clear()
            rows = {row[0]: row for row in report_rows(check_bialgebra(b))}
            unit_maps = [m for m in maps if m.domain.dim == 1]
            assert len(unit_maps) == (0 if passed else 1)
            witness = None if passed else "unit"
            want = [("comult-unit", passed, witness), ("counit-unit", passed, witness)]
            assert [rows["comult-unit"], rows["counit-unit"]] == want
            assert report_rows(check_bialgebra(b)) == report_rows(oracle_check_bialgebra(b))
            assert report_rows(check_bialgebra(b)) == report_rows(on_loops(check_bialgebra, b))


def fresh_lift(ges, field):
    """ges linearized over new factors, each map built through ``LinMap(...)``
    from its table: the lift of a structure as if nothing were shared."""
    a, h = group_algebra(ges.group, field), grouplike_coalgebra(ges.x_labels, field)
    spaces = {"a": a.space, "h": h.space}
    tables = {"dot": ges.star, "ract": ges.ract, "lact": ges.lact, "cocycle": ges.cocyc}
    maps = {}
    for name, (left, right, target) in MAP_SHAPES.items():
        n = spaces[right].dim
        maps[name] = LinMap(field, tensor_space(spaces[left], spaces[right]), spaces[target],
                            {x * n + y: {z: field.one} for x, row in enumerate(tables[name])
                             for y, z in enumerate(row)})
    return ExtendingDatum(base=a, ext=h, **maps)


def lift_outputs(d):
    """The canonical bytes of the three reports of a datum and of its product."""
    e = assemble_product(d)
    return [serialize(rep) for rep in (validate_datum(d), check_product_conditions(d),
                                       check_bialgebra(e))] + [serialize(e)]


def test_lifts_over_shared_factors_give_what_fresh_factors_give():
    """Over QQ, GF(5) and GF(7), coset splits, their one-entry perturbations
    (over the split's group object) and random structures over the builtin
    groups are lifted over the factors their group object shares, and give
    byte for byte the reports and product of the same datum over new
    factors (:func:`fresh_lift`), as they are and with ``LinMap.points``
    read as None."""
    rng = random.Random(39)
    count, failing = 0, 0
    for field in (QQ, PrimeField(5), PrimeField(7)):
        structures = []
        for name in ("s3", "c4", "c2xc2", "d4", "a4"):
            g = builtin_group(name)
            for sub in g.all_subgroups():
                if len(sub) <= 4 and g.order // len(sub) <= 4:
                    split = coset_extending_structure(g, sub)
                    structures += [split] + [perturb_group_structure(rng, split)
                                             for _ in range(2)]
        structures += [random_group_structure(rng, builtin_group(name), nx)
                       for name, nx in (("c2", 3), ("c3", 2), ("c2xc2", 2)) for _ in range(3)]
        for ges in structures:
            shared, fresh = lift_to_hopf(ges, field), fresh_lift(ges, field)
            assert shared.base is lift_to_hopf(ges, field).base
            assert shared.components_equal(fresh) is None
            want = lift_outputs(fresh)
            assert lift_outputs(shared) == want
            assert on_loops(lift_outputs, shared) == on_loops(lift_outputs, fresh_lift(ges, field))
            count += 1
            failing += b'"ok":false' in want[1]
    assert count == 252 and 100 < failing < count
