import dataclasses
import random

import pytest

from helpers import (
    assert_mixed_relations,
    check_mixed_relations_on_every_build,
    h4_datum_with_bad_lact,
    h4_datum_with_c2_cocycle,
    h4_trivial_datum,
    one_entry_corruptions,
    oracle_is_coalgebra_map,
    product_projections,
    random_group_structure,
    rebind_everywhere,
    scaled_h4_trivial_datum,
    tensor_map,
    trivial_datum,
)
import hopfprod.structures
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
    lift_to_hopf,
    small_corpus_names,
)
from hopfprod.linalg import LinMap, basis_vec, compose, tensor_vec
from hopfprod.reports import Report
from hopfprod.special import (
    CrossedDatum,
    MatchedPair,
    check_crossed,
    check_matched_pair,
    crossed_datum,
    matched_pair_datum,
)
from hopfprod.structures import (
    check_bialgebra,
    is_algebra_map,
    is_coalgebra_map,
    tensor_bialgebra,
    tensor_coalgebra,
)
from hopfprod.unified import (
    CONDITION_NAMES,
    MAP_SHAPES,
    DatumConditionError,
    _condition_evaluators,
    _scan_condition,
    assemble_product,
    build_unified_product,
    check_product_conditions,
    product_antipode,
    validate_datum,
)


@pytest.fixture(autouse=True)
def mixed_relations_on_every_build(monkeypatch):
    check_mixed_relations_on_every_build(monkeypatch)


def failing(report):
    return {item.condition for item in report.failures()}


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
    t = tensor_bialgebra(a, h)
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
    with pytest.raises(ValueError, match="dot inverse"):
        product_antipode(p, constant)


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
                _scan_condition(rep, _condition_evaluators(d2), "comult-multiplicative")
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
