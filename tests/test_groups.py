import gc
import random
import weakref

import pytest

from helpers import (
    check_group_structure_direct,
    group_unified_product,
    pair_bijection_is_isomorphism,
    perturb_group_structure,
    random_group_structure,
)
from hopfprod.corpus import a4_order2_ges, s3_c3_ges, z4_c2_ges
from hopfprod.fields import QQ, PrimeField
from hopfprod.groups import (
    BUILTIN_NAMES,
    GroupExtendingStructure,
    GroupTable,
    NotAGroupError,
    NotASubgroupError,
    builtin_group,
    check_group_structure,
    coset_extending_structure,
    group_algebra,
    lift_to_hopf,
    small_corpus_names,
)
from hopfprod.structures import check_bialgebra
from hopfprod.unified import assemble_product, check_product_conditions, validate_datum

EXPECTED_ORDERS = {"c1": 1, "c7": 7, "c12": 12, "c2xc2": 4, "s3": 6,
                   "d4": 8, "q8": 8, "a4": 12, "s4": 24}


def test_builtin_orders_and_identity():
    for name, order in EXPECTED_ORDERS.items():
        g = builtin_group(name)
        assert g.order == order
        assert g.identity == 0


def test_a6_order_and_simple_facts():
    a6 = builtin_group("a6")
    assert a6.order == 360
    assert a6.identity == 0
    # every element has an inverse and the inverse table is an involution
    assert all(a6.inverse[a6.inverse[x]] == x for x in range(360))


def test_corrupt_table_rejected():
    g = builtin_group("s3")
    table = [list(row) for row in g.table]
    table[3][4] = table[3][3]  # break the Latin property / associativity
    with pytest.raises(NotAGroupError):
        GroupTable(table, g.labels)


def test_missing_identity_rejected():
    with pytest.raises(NotAGroupError):
        GroupTable([[1, 0], [1, 0]], ["a", "b"])


def test_subgroup_counts_match_known_values():
    known = {"c2xc2": 5, "s3": 6, "d4": 10, "q8": 6, "a4": 10, "s4": 30, "c12": 6}
    for name, count in known.items():
        assert len(builtin_group(name).all_subgroups()) == count


def test_subgroup_table_and_rejection():
    s3 = builtin_group("s3")
    subs = s3.all_subgroups()
    assert (0,) in subs and tuple(range(6)) in subs
    for indices in subs:
        sub, back = s3.subgroup_table(indices)
        assert sub.order == len(indices)
        assert back == indices
    with pytest.raises(NotASubgroupError):
        s3.subgroup_table([0, 3])  # a 3-cycle without its square


def test_coset_structure_full_subgroup_is_trivial():
    s3 = builtin_group("s3")
    ges = coset_extending_structure(s3, range(6))
    assert ges.x_size == 1
    assert check_group_structure(ges).ok


def test_coset_split_refuses_bad_representatives():
    s3 = builtin_group("s3")
    rotations = (0, 3, 4)
    for reps, message in (([1, 2], "must contain the identity"),
                          ([0, 3, 4], "share a right coset"),
                          ([0], "do not cover")):
        with pytest.raises(ValueError, match=message):
            coset_extending_structure(s3, rotations, reps)


def test_default_representatives_when_the_identity_is_not_index_zero():
    # the identity "e" is index 1: it represents the subgroup's own coset,
    # and every other coset is represented by its least index
    g = GroupTable([[1, 0, 3, 2], [0, 1, 2, 3], [3, 2, 1, 0], [2, 3, 0, 1]],
                   ["a", "e", "b", "c"])
    assert g.identity == 1
    assert coset_extending_structure(g, [1, 0]).rep_indices == (1, 2)
    assert coset_extending_structure(g, [1, 2]).rep_indices == (1, 0)


def test_s3_c3_split_is_bicrossed():
    ges = s3_c3_ges()
    assert ges.x_size == 2
    e = ges.group.identity
    assert all(ges.cocyc[x][y] == e for x in range(2) for y in range(2))
    # representatives {e, (1 2)} form a subgroup, which is why the cocycle
    # is trivial
    s3 = builtin_group("s3")
    reps = set(ges.rep_indices)
    assert all(s3.table[a][b] in reps for a in reps for b in reps)


def test_a4_order2_split_is_neither_trivial():
    ges = a4_order2_ges()
    assert ges.x_size == 6
    e = ges.group.identity
    assert any(ges.cocyc[x][y] != e for x in range(6) for y in range(6))
    assert any(ges.ract[x][a] != x for x in range(6) for a in range(2))
    assert check_group_structure(ges).ok


def test_group_unified_product_trivial_structure_gives_klein_four():
    c2 = builtin_group("c2")
    ges = GroupExtendingStructure(
        group=c2, x_labels=("1x", "tx"),
        ract=((0, 0), (1, 1)), lact=((0, 1), (0, 1)),
        cocyc=((0, 0), (0, 0)), star=((0, 1), (1, 0)),
    )
    assert check_group_structure(ges).ok
    product = group_unified_product(ges)
    assert product.order == 4
    assert all(product.table[x][x] == product.identity for x in range(4))


def test_group_products_match_ambient_groups():
    for ges in (s3_c3_ges(), z4_c2_ges(), a4_order2_ges()):
        assert pair_bijection_is_isomorphism(ges)


def test_monoid_star_passes_conditions_but_trips_group_guard():
    c2 = builtin_group("c2")
    # the idempotent star tx*tx = tx satisfies all the product conditions
    # (the product is a monoid bialgebra) but has no inverses, so the
    # group guard must fire
    ges = GroupExtendingStructure(
        group=c2, x_labels=("1x", "tx"),
        ract=((0, 0), (1, 1)), lact=((0, 1), (0, 1)),
        cocyc=((0, 0), (0, 0)), star=((0, 1), (1, 1)),
    )
    assert check_group_structure(ges).ok
    with pytest.raises(NotAGroupError):
        group_unified_product(ges)


def test_lift_trivial_structure_gives_trivial_maps():
    c2 = builtin_group("c2")
    ges = GroupExtendingStructure(
        group=c2, x_labels=("1x", "tx"),
        ract=((0, 0), (1, 1)), lact=((0, 1), (0, 1)),
        cocyc=((0, 0), (0, 0)), star=((0, 1), (1, 0)),
    )
    d = lift_to_hopf(ges)
    from hopfprod.structures import (
        trivial_action_left,
        trivial_action_right,
        trivial_cocycle,
    )

    assert d.ract == trivial_action_right(QQ, d.ext.space, d.base.coalgebra)
    assert d.lact == trivial_action_left(QQ, d.ext.coalg, d.base.space)
    assert d.cocycle == trivial_cocycle(QQ, d.ext.coalg, d.base.unit, d.base.space)


def test_lift_matches_matched_pair_datum_for_s3():
    from hopfprod.corpus import s3_matched_pair
    from hopfprod.special import matched_pair_datum

    lifted = lift_to_hopf(s3_c3_ges())
    induced = matched_pair_datum(s3_matched_pair())
    assert lifted.components_equal(induced) is None


def test_functoriality_smoke():
    # the full order <= 24 sweep runs in the acceptance suite
    for name in ("c6", "s3", "q8"):
        g = builtin_group(name)
        for indices in g.all_subgroups():
            ges = coset_extending_structure(g, indices)
            datum = lift_to_hopf(ges)
            assert validate_datum(datum).ok
            assert check_product_conditions(datum).ok
            from hopfprod.unified import assemble_product

            product = assemble_product(datum)
            expected = group_algebra(group_unified_product(ges))
            assert product.mult == expected.mult
            assert product.delta == expected.delta
            assert product.epsilon == expected.epsilon
            assert product.unit == expected.unit


def test_functoriality_over_prime_field():
    f7 = PrimeField(7)
    ges = s3_c3_ges()
    datum = lift_to_hopf(ges, f7)
    assert validate_datum(datum).ok
    assert check_product_conditions(datum).ok
    from hopfprod.unified import assemble_product

    product = assemble_product(datum)
    expected = group_algebra(group_unified_product(ges), f7)
    assert product.mult == expected.mult
    assert check_bialgebra(product).ok


def test_group_algebra_passes_axioms():
    for name in ("c1", "c2", "s3", "q8"):
        h = group_algebra(builtin_group(name))
        assert check_bialgebra(h).ok


def test_bicrossed_detection_full_corpus():
    # trivial cocycle <=> the representative set is a subgroup <=> exact
    # factorization through the subgroup and that complement, checked both
    # ways over every subgroup of every builtin group of order <= 24
    for name in small_corpus_names():
        g = builtin_group(name)
        for indices in g.all_subgroups():
            ges = coset_extending_structure(g, indices)
            e = ges.group.identity
            trivial = all(ges.cocyc[x][y] == e
                          for x in range(ges.x_size) for y in range(ges.x_size))
            reps = set(ges.rep_indices)
            closed = g.is_subgroup(reps)
            products = {g.table[a][x] for a in indices for x in reps}
            exact = closed and len(reps) * len(set(indices)) == g.order \
                and products == set(range(g.order))
            assert trivial == closed
            assert closed == exact


def test_c2_antipode_is_identity():
    h = group_algebra(builtin_group("c2"))
    from hopfprod.linalg import LinMap as LM

    assert h.antipode == LM.identity(QQ, h.space)


def test_grouplike_coalgebra_basics():
    from hopfprod.groups import grouplike_coalgebra
    from hopfprod.structures import check_coalgebra

    single = grouplike_coalgebra(("1",))
    assert single.dim == 1 and check_coalgebra(single.coalg).ok
    six = grouplike_coalgebra(tuple("abcdef"))
    assert six.dim == 6 and check_coalgebra(six.coalg).ok
    assert six.unit == {0: QQ.one}


def test_closure_of_matches_a_brute_force_closure():
    """closure_of on every pair of elements of every builtin group of order
    at most 24 is the least set holding the identity and the pair that is
    closed under products and inverses."""
    def brute_force(g, gens):
        seen = {g.identity, *gens}
        while True:
            more = {g.table[x][y] for x in seen for y in seen} | {g.inverse[x] for x in seen}
            if more <= seen:
                return seen
            seen |= more

    groups = [builtin_group(name) for name in BUILTIN_NAMES]
    groups = [g for g in groups if g.order <= 24]
    assert max(g.order for g in groups) == 24
    for g in groups:
        for x in range(g.order):
            for y in range(g.order):
                assert g.closure_of([x, y]) == brute_force(g, [x, y]), (g.labels[x], g.labels[y])
        assert g.closure_of([]) == {g.identity}


@pytest.mark.parametrize("name, row, col, value, message", [
    ("ract", 1, 1, 2, "codomain index 2 out of range"),
    ("star", 1, 0, 5, "codomain index 5 out of range"),
    ("lact", 1, 1, -1, "codomain index -1 out of range"),
    ("cocyc", 1, 1, 2, "codomain index 2 out of range"),
])
def test_lift_of_a_structure_with_an_entry_out_of_range_raises(name, row, col, value, message):
    """A set-level structure is not validated, so an entry outside X or G
    reaches the lift, which refuses it with the DimensionError of the first
    bad entry, as ``LinMap(...)`` words it; a later bad entry is not named."""
    from hopfprod.linalg import DimensionError

    ges = z4_c2_ges()
    table = [list(r) for r in getattr(ges, name)]
    table[row][col] = value
    maps = {key: getattr(ges, key) for key in ("ract", "lact", "cocyc", "star")}
    maps[name] = tuple(map(tuple, table))
    # a second bad entry in the last map the lift reads
    if name != "cocyc":
        maps["cocyc"] = ((0, 0), (0, 7))
    bad = GroupExtendingStructure(group=ges.group, x_labels=ges.x_labels, **maps)
    with pytest.raises(DimensionError) as exc:
        lift_to_hopf(bad)
    assert str(exc.value) == message


def test_lifts_over_one_group_object_share_its_factors():
    """Lifts over one group object, one X and one field share k[G] and H by
    identity, and with them the tensor coalgebra of the product; the four
    maps are built afresh for each lift."""
    ges = a4_order2_ges()
    other = random_group_structure(random.Random(1), ges.group, ges.x_size)
    other = GroupExtendingStructure(group=ges.group, x_labels=ges.x_labels, ract=other.ract,
                                    lact=other.lact, cocyc=other.cocyc, star=other.star)
    for field in (QQ, PrimeField(5)):
        d1, d2, d3 = lift_to_hopf(ges, field), lift_to_hopf(ges, field), lift_to_hopf(other, field)
        assert d1.base is d2.base is d3.base and d1.ext is d2.ext is d3.ext
        assert d1.dot == d2.dot and d1.dot is not d2.dot
        assert assemble_product(d1).coalgebra is assemble_product(d3).coalgebra


def test_factors_are_shared_by_group_object_field_and_x_labels_only():
    """Another field, other X labels, or another group object with an equal
    table but other labels each get factors of their own, with their own
    field and labels."""
    ges = s3_c3_ges()
    d = lift_to_hopf(ges, QQ)
    for field in (PrimeField(5), PrimeField(7)):
        d2 = lift_to_hopf(ges, field)
        assert d2.base is not d.base and d2.ext is not d.ext
        assert d2.base.field == d2.ext.field == field
    relabelled = GroupExtendingStructure(
        group=ges.group, x_labels=("u", "v"), ract=ges.ract, lact=ges.lact,
        cocyc=ges.cocyc, star=ges.star)
    d2 = lift_to_hopf(relabelled, QQ)
    assert d2.base is d.base and d2.ext is not d.ext
    assert d2.ext.space.labels == ("u", "v")
    twin = GroupTable(ges.group.table, [f"g{k}" for k in range(ges.group.order)])
    assert twin == ges.group
    d2 = lift_to_hopf(GroupExtendingStructure(
        group=twin, x_labels=ges.x_labels, ract=ges.ract, lact=ges.lact,
        cocyc=ges.cocyc, star=ges.star), QQ)
    assert d2.base is not d.base and d2.ext is not d.ext
    assert d2.base.space.labels == twin.labels and d.base.space.labels == ges.group.labels


def test_a_group_object_keeps_a_bounded_number_of_extensions():
    """Lifting over 20 X label sets keeps at most _SHARED_EXTENSIONS H on the
    group object, and k[G] keeps a tensor coalgebra and a product space only
    for those: a dropped H is freed."""
    from hopfprod.groups import _SHARED_EXTENSIONS

    g = builtin_group("c3")
    base = random_group_structure(random.Random(2), g, 2)
    group = GroupTable(g.table, g.labels)
    dropped = []
    for k in range(20):
        ges = GroupExtendingStructure(group=group, x_labels=(f"p{k}", f"q{k}"), ract=base.ract,
                                      lact=base.lact, cocyc=base.cocyc, star=base.star)
        d = lift_to_hopf(ges)
        assemble_product(d)
        dropped.append(weakref.ref(d.ext.coalg))
        assert len(group._extensions) == min(k + 1, _SHARED_EXTENSIONS)
        assert len(d.base.coalgebra._tensors) == min(k + 1, _SHARED_EXTENSIONS)
        kept = [key[1] for key in group._extensions]
        # A (x) H for each H kept, besides A (x) A and what the tests build
        assert [s.labels for s in d.base.space._products if s.dim == 2] == kept
    del d
    gc.collect()
    assert [ref() is None for ref in dropped] == [True] * 16 + [False] * 4
    assert kept == [(f"p{k}", f"q{k}") for k in range(16, 20)]


def test_set_level_check_gives_the_rows_of_the_hand_written_oracle():
    """check_group_structure, which scans the engine's table rows, gives the
    title, rows and witnesses of check_group_structure_direct, the formulas
    written out by hand: on the coset splits of every small builtin group,
    two one-entry perturbations of each, random structures, and those with
    x . basepoint moved off x.  Each of the seven scanned rows fails on
    some of them."""
    rng = random.Random(40)
    structures = []
    for name in small_corpus_names():
        g = builtin_group(name)
        for sub in g.all_subgroups():
            split = coset_extending_structure(g, sub)
            structures += [split] + [perturb_group_structure(rng, split) for _ in range(2)]
    for name in ("c1", "c2", "c3", "c4", "c2xc2", "s3"):
        for nx in range(1, 5):
            ges = random_group_structure(rng, builtin_group(name), nx)
            structures.append(ges)
            if nx > 1:
                star = (ges.star[0], (0,) + ges.star[1][1:]) + ges.star[2:]
                structures.append(GroupExtendingStructure(
                    group=ges.group, x_labels=ges.x_labels, ract=ges.ract, lact=ges.lact,
                    cocyc=ges.cocyc, star=star))
    failing = set()
    for ges in structures:
        report = check_group_structure(ges)
        assert report.to_obj() == check_group_structure_direct(ges).to_obj()
        failing.update(item.condition for item in report.failures())
    assert failing == {"unit-normalization", "right-module", "twisted-associativity",
                       "lact-multiplicative", "ract-dot-compat", "twisted-module",
                       "cocycle-condition"}
