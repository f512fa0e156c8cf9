import pytest

from helpers import recover_datum_composed, trivial_datum
from hopfprod.cli import main
from hopfprod.corpus import a4_unified_datum, s3_matched_pair
from hopfprod.factorization import (
    FactorizationInput,
    FactorizationInputError,
    NotAFactorizationError,
    mult_map,
    recover_datum,
    roundtrip_check,
    transfer_structure,
)
from hopfprod.fields import QQ, PrimeField
from hopfprod.groups import builtin_group, group_algebra
from hopfprod.linalg import BasedSpace, LinMap, compose, invert, rank
from hopfprod.serialize import serialize
from hopfprod.special import matched_pair_datum
from hopfprod.structures import (
    FDHopf,
    antipode_solve,
    attach_antipode,
    is_algebra_map,
    is_coalgebra_map,
)
from hopfprod.unified import (
    CONDITION_NAMES,
    build_unified_product,
    check_product_conditions,
    validate_datum,
)


def basis_inclusion(space_labels, ambient, indices):
    return LinMap(QQ, BasedSpace(space_labels), ambient.space,
                  {k: {i: QQ.one} for k, i in enumerate(indices)})


def test_mult_map_full_base_times_unit_is_identity():
    e = group_algebra(builtin_group("s3"))
    incl_a = LinMap.identity(QQ, e.space)
    incl_h = basis_inclusion(("e",), e, [0])
    fi = FactorizationInput.build(e, incl_a, incl_h)
    u = mult_map(fi)
    # A (x) k has the same dimension as E and u is the identity on indices
    assert u == LinMap.identity(QQ, e.space)


def test_mult_map_direct_product_is_permutation():
    e = group_algebra(builtin_group("c2xc2"))
    # the two C2 factors inside the Klein group
    subs = [s for s in builtin_group("c2xc2").all_subgroups() if len(s) == 2]
    incl_a = basis_inclusion(("a0", "a1"), e, subs[0])
    incl_h = basis_inclusion(("h0", "h1"), e, subs[1])
    fi = FactorizationInput.build(e, incl_a, incl_h)
    u = mult_map(fi)
    assert rank(u) == 4
    for i in range(4):
        col = u.col(i)
        assert len(col) == 1 and set(col.values()) == {QQ.one}


def test_mult_map_s3_factorization_is_bijective():
    s3 = builtin_group("s3")
    e = group_algebra(s3)
    c3 = sorted(s3.closure_of([3]))
    incl_a = basis_inclusion(("e", "r", "r2"), e, c3)
    incl_h = basis_inclusion(("e", "t"), e, [0, 1])
    fi = FactorizationInput.build(e, incl_a, incl_h)
    u = mult_map(fi)
    assert rank(u) == 6
    invert(u)  # must not raise


def test_recover_direct_product_is_trivial():
    e = group_algebra(builtin_group("c2xc2"))
    subs = [s for s in builtin_group("c2xc2").all_subgroups() if len(s) == 2]
    incl_a = basis_inclusion(("a0", "a1"), e, subs[0])
    incl_h = basis_inclusion(("h0", "h1"), e, subs[1])
    d = recover_datum(FactorizationInput.build(e, incl_a, incl_h))
    from hopfprod.structures import (
        trivial_action_left,
        trivial_action_right,
        trivial_cocycle,
    )

    assert d.ract == trivial_action_right(QQ, d.ext.space, d.base.coalgebra)
    assert d.lact == trivial_action_left(QQ, d.ext.coalg, d.base.space)
    assert d.cocycle == trivial_cocycle(QQ, d.ext.coalg, d.base.unit, d.base.space)
    # the dot is the multiplication of the second C2 factor
    assert d.dot.col(3) == {0: QQ.one}


def test_recover_z4_coset_oracle():
    e = group_algebra(builtin_group("c4"))
    incl_a = basis_inclusion(("0", "2"), e, [0, 2])
    incl_h = basis_inclusion(("0", "1"), e, [0, 1])
    d = recover_datum(FactorizationInput.build(e, incl_a, incl_h))
    assert validate_datum(d).ok and check_product_conditions(d).ok
    # coset oracle in the ambient cyclic group: 1 + 1 = 2 + 0, so the
    # cocycle at (1, 1) is the subgroup element 2 and the dot lands on 0
    assert d.cocycle.col(3) == {1: QQ.one}
    assert d.dot.col(3) == {0: QQ.one}
    # trivial actions
    from hopfprod.structures import trivial_action_right

    assert d.ract == trivial_action_right(QQ, d.ext.space, d.base.coalgebra)


def test_recover_a4_has_nontrivial_cocycle_and_ract():
    # built here from explicit inclusions, independently of the coset helper
    a4 = builtin_group("a4")
    e = group_algebra(a4)
    invol = next(x for x in range(1, 12) if a4.table[x][x] == 0)
    sub = [0, invol]
    cosets = {}
    for g in range(12):
        key = frozenset(a4.table[a][g] for a in sub)
        cosets.setdefault(key, min(key))
    reps = sorted(cosets.values())
    incl_a = basis_inclusion(tuple(a4.labels[i] for i in sub), e, sub)
    incl_h = basis_inclusion(tuple(a4.labels[i] for i in reps), e, reps)
    d = recover_datum(FactorizationInput.build(e, incl_a, incl_h))
    assert validate_datum(d).ok and check_product_conditions(d).ok
    from hopfprod.structures import trivial_action_right, trivial_cocycle

    assert d.cocycle != trivial_cocycle(QQ, d.ext.coalg, d.base.unit, d.base.space)
    assert d.ract != trivial_action_right(QQ, d.ext.space, d.base.coalgebra)


def test_recovered_product_isomorphic_to_ambient():
    s3 = builtin_group("s3")
    e = group_algebra(s3)
    c3 = sorted(s3.closure_of([3]))
    incl_a = basis_inclusion(("e", "r", "r2"), e, c3)
    incl_h = basis_inclusion(("e", "t"), e, [0, 1])
    fi = FactorizationInput.build(e, incl_a, incl_h)
    d = recover_datum(fi)
    p = build_unified_product(d)
    u = mult_map(fi)
    # u: A (x) H -> E must be an isomorphism of bialgebras
    assert is_algebra_map(u, p.carrier.algebra, e.algebra)
    assert is_coalgebra_map(u, p.carrier.coalgebra, e.coalgebra)
    invert(u)


def test_recovered_trivial_cocycle_coincides_with_two_action_product():
    # the recovered S3 datum has trivial cocycle, so its product must equal
    # the two-action product of the corresponding matched pair
    from hopfprod.special import build_bicrossed

    s3 = builtin_group("s3")
    e = group_algebra(s3)
    c3 = sorted(s3.closure_of([3]))
    incl_a = basis_inclusion(("e", "r", "r2"), e, c3)
    incl_h = basis_inclusion(("e", "t"), e, [0, 1])
    d = recover_datum(FactorizationInput.build(e, incl_a, incl_h))
    from hopfprod.structures import trivial_cocycle

    assert d.cocycle == trivial_cocycle(QQ, d.ext.coalg, d.base.unit, d.base.space)
    engine = build_unified_product(d)
    direct = build_bicrossed(s3_matched_pair())
    assert engine.carrier.mult == direct.carrier.mult


def test_not_a_factorization_reports_rank_deficit():
    e = group_algebra(builtin_group("c4"))
    incl_a = basis_inclusion(("0", "2"), e, [0, 2])
    incl_h = basis_inclusion(("0b", "2b"), e, [0, 2])
    fi = FactorizationInput.build(e, incl_a, incl_h)
    with pytest.raises(NotAFactorizationError) as err:
        recover_datum(fi)
    assert err.value.deficit == 2
    assert err.value.rank == 2


def test_input_validation_errors():
    e = group_algebra(builtin_group("s3"))
    not_injective = LinMap(QQ, BasedSpace(("p", "q")), e.space,
                           {0: {0: QQ.one}, 1: {0: QQ.one}})
    good_h = basis_inclusion(("e",), e, [0])
    with pytest.raises(FactorizationInputError, match="injective"):
        FactorizationInput.build(e, not_injective, good_h)
    # a 3-cycle without its square: not closed under multiplication
    not_closed = basis_inclusion(("r",), e, [3])
    with pytest.raises(FactorizationInputError, match="closed|unit"):
        FactorizationInput.build(e, not_closed, good_h)
    # H must contain the unit of E
    no_unit = basis_inclusion(("t",), e, [1])
    with pytest.raises(FactorizationInputError, match="unit"):
        FactorizationInput.build(e, LinMap.identity(QQ, e.space), no_unit)


def test_non_basis_aligned_subcoalgebra_that_is_not_closed():
    e = group_algebra(builtin_group("c4"))
    incl_a = basis_inclusion(("0", "2"), e, [0, 2])
    # H spanned by 1 and g + g^2: delta(g + g^2) = g (x) g + g^2 (x) g^2
    # lies outside H (x) H
    incl_h = LinMap(QQ, BasedSpace(("u0", "u1")), e.space,
                    {0: {0: QQ.one}, 1: {1: QQ.one, 2: QQ.one}})
    with pytest.raises(FactorizationInputError) as exc:
        FactorizationInput.build(e, incl_a, incl_h)
    assert str(exc.value) == "the subcoalgebra image is not closed under comultiplication"


def test_non_basis_aligned_subcoalgebra():
    e = group_algebra(builtin_group("c4"))
    incl_a = basis_inclusion(("0", "2"), e, [0, 2])
    # H spanned by 1 and 1 + g: a subcoalgebra not aligned with the basis,
    # so the recovered datum lives over a non-group-like coalgebra
    incl_h = LinMap(QQ, BasedSpace(("u0", "u1")), e.space,
                    {0: {0: QQ.one}, 1: {0: QQ.one, 1: QQ.one}})
    fi = FactorizationInput.build(e, incl_a, incl_h)
    d = recover_datum(fi)
    from hopfprod.structures import grouplike_indices

    assert grouplike_indices(d.ext.coalg) != [0, 1]
    assert validate_datum(d).ok
    assert check_product_conditions(d).ok
    p = build_unified_product(d)
    # independent full verification of the rebuilt object
    from hopfprod.structures import check_bialgebra

    assert check_bialgebra(p.carrier).ok
    u = mult_map(fi)
    assert is_algebra_map(u, p.carrier.algebra, e.algebra)
    assert is_coalgebra_map(u, p.carrier.coalgebra, e.coalgebra)


def test_transfer_structure_identity_and_permutation():
    e = group_algebra(builtin_group("s3"))
    ident = LinMap.identity(QQ, e.space)
    t = transfer_structure(e, e.coalgebra, ident)
    assert t.mult == e.mult and t.unit == e.unit
    assert isinstance(t, FDHopf) and t.antipode == e.antipode

    # permutation of the basis: conjugated structure constants
    perm = [0, 2, 1, 4, 3, 5]
    u = LinMap(QQ, e.space, e.space, {i: {perm[i]: QQ.one} for i in range(6)})
    t2 = transfer_structure(e, e.coalgebra, u)
    g = builtin_group("s3")
    inv = {p: i for i, p in enumerate(perm)}
    for i in range(6):
        for j in range(6):
            # oracle: l . l' = u^-1(u(l) u(l'))
            expected = inv[g.table[perm[i]][perm[j]]]
            assert t2.mult.col(i * 6 + j) == {expected: QQ.one}
    # transfer back along the inverse recovers the original
    back = transfer_structure(t2, e.coalgebra, invert(u))
    assert back.mult == e.mult and back.antipode == e.antipode


def test_transfer_requires_coalgebra_map():
    e = group_algebra(builtin_group("c2"))
    bad = LinMap(QQ, e.space, e.space,
                 {0: {0: QQ.one}, 1: {0: QQ.one, 1: QQ.one}})
    with pytest.raises(ValueError, match="coalgebra"):
        transfer_structure(e, e.coalgebra, bad)


def test_roundtrip_corpus():
    a = group_algebra(builtin_group("c2"))
    h = group_algebra(builtin_group("c2"))
    for d in (trivial_datum(a, h),
              matched_pair_datum(s3_matched_pair()),
              a4_unified_datum()):
        result = roundtrip_check(d)
        assert result.ok, result.mismatch


def test_transferred_antipode_matches_solver():
    s3 = builtin_group("s3")
    e = group_algebra(s3)
    c3 = sorted(s3.closure_of([3]))
    incl_a = basis_inclusion(("e", "r", "r2"), e, c3)
    incl_h = basis_inclusion(("e", "t"), e, [0, 1])
    fi = FactorizationInput.build(e, incl_a, incl_h)
    d = recover_datum(fi)
    p = build_unified_product(d)
    u = mult_map(fi)
    transferred = compose(invert(u), compose(e.antipode, u))
    assert transferred == antipode_solve(p.carrier)


def c4_split_with_unit_off_the_basis(field):
    """E = k[C4] with A = span{1, g^2} and H = span{1 + g, 1 - g}: the unit
    of H is (u0 + u1) / 2, not a basis vector of H."""
    e = group_algebra(builtin_group("c4"), field)
    one = field.one
    incl_a = LinMap(field, BasedSpace(("1", "g2")), e.space, {0: {0: one}, 1: {2: one}})
    incl_h = LinMap(field, BasedSpace(("u0", "u1")), e.space,
                    {0: {0: one, 1: one}, 1: {0: one, 1: field.neg(one)}})
    return e, incl_a, incl_h


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "GF5"])
def test_factorization_with_a_unit_off_the_basis(field, tmp_path, capsys):
    e, incl_a, incl_h = c4_split_with_unit_off_the_basis(field)
    fi = FactorizationInput.build(e, incl_a, incl_h)
    half = field.inv(field.of(2))
    assert fi.ext.unit == {0: half, 1: half}
    d = recover_datum(fi)
    assert d.components_equal(recover_datum_composed(fi)) is None
    assert validate_datum(d).ok
    conditions = check_product_conditions(d)
    assert conditions.ok
    assert {item.condition for item in conditions.items} >= set(CONDITION_NAMES)
    p = build_unified_product(d)
    u = mult_map(fi)
    assert is_algebra_map(u, p.carrier.algebra, e.algebra)
    assert is_coalgebra_map(u, p.carrier.coalgebra, e.coalgebra)
    assert rank(u) == e.dim
    assert roundtrip_check(d).ok
    assert attach_antipode(p.carrier).antipode == compose(invert(u), compose(e.antipode, u))

    paths = {name: tmp_path / f"{name}.json" for name in ("e", "a", "h", "datum", "built")}
    for name, obj in (("e", e), ("a", incl_a), ("h", incl_h)):
        paths[name].write_bytes(serialize(obj))
    assert main(["factorize", str(paths["e"]), "--sub-a", str(paths["a"]),
                 "--sub-h", str(paths["h"]), "--out", str(paths["datum"])]) == 0
    assert paths["datum"].read_bytes() == serialize(d)
    assert main(["build", str(paths["datum"]), "--out", str(paths["built"])]) == 0
    assert capsys.readouterr().err == ""
