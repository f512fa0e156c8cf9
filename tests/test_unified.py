import random

import pytest

from helpers import (
    assert_mixed_relations,
    check_mixed_relations_on_every_build,
    h4_datum_with_c2_cocycle,
    h4_trivial_datum,
    random_group_structure,
    trivial_datum,
)
from hopfprod.corpus import a4_order2_ges, a4_unified_datum, s3_matched_pair
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
from hopfprod.special import matched_pair_datum
from hopfprod.structures import (
    check_bialgebra,
    is_algebra_map,
    is_coalgebra_map,
    tensor_bialgebra,
)
from hopfprod.unified import (
    CONDITION_NAMES,
    DatumConditionError,
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
    assert compose(p.proj_base, p.incl_base) == LinMap.identity(QQ, a.space)
    assert compose(p.proj_ext, p.incl_ext) == LinMap.identity(QQ, h.space)
    # every basis element a (x) g factors through the two embeddings
    for ai in range(a.dim):
        for gi in range(h.dim):
            got = e.mul(p.incl_base.col(ai), p.incl_ext.col(gi))
            assert got == tensor_vec(QQ, basis_vec(QQ, ai), basis_vec(QQ, gi), h.dim)


def test_coaction_shape():
    d = matched_pair_datum(s3_matched_pair())
    p = build_unified_product(d)
    col = p.coaction.col(1 * 2 + 1)
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
