import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    dense_from_linmap,
    preimage_direct,
    random_linmap,
    rank_by_column_elimination,
    tensor_map,
    twist_map,
)
from hopfprod.fields import QQ, PrimeField
from hopfprod.linalg import (
    BasedSpace,
    DimensionError,
    LinMap,
    NotInvertibleError,
    PreimageSolver,
    basis_vec,
    compose,
    invert,
    tensor_space,
    tensor_vec,
    vec_add_into,
)

S2 = BasedSpace(("a", "b"))
S3 = BasedSpace(("p", "q", "r"))
S4 = BasedSpace(("w", "x", "y", "z"))


def test_tensor_space_row_major_order():
    t = tensor_space(S2, S3)
    assert t.dim == 6
    assert t.labels == ("(a,p)", "(a,q)", "(a,r)", "(b,p)", "(b,q)", "(b,r)")


def test_tensor_space_unit_factor_collapses_to_second_order():
    one = BasedSpace(("1",))
    t = tensor_space(one, S3)
    assert t.dim == 3
    # index order is exactly the second factor's order
    assert [lbl.split(",")[1].rstrip(")") for lbl in t.labels] == list(S3.labels)


def test_tensor_space_not_symmetric():
    ab = tensor_space(S3, S2)
    ba = tensor_space(S2, S3)
    assert ab.dim == ba.dim == 6
    assert ab.labels != ba.labels


def test_compose_identity_both_sides():
    rng = random.Random(3)
    f = random_linmap(rng, QQ, S3, S4)
    ident3 = LinMap.identity(QQ, S3)
    ident4 = LinMap.identity(QQ, S4)
    assert compose(ident4, f) == f
    assert compose(f, ident3) == f


def test_compose_matches_dense_matrix_product_oracle():
    rng = random.Random(4)
    for _ in range(10):
        f = random_linmap(rng, QQ, S3, S3)
        g = random_linmap(rng, QQ, S3, S3)
        fm, gm = dense_from_linmap(f), dense_from_linmap(g)
        # independent oracle: entry-wise dot products of the dense matrices
        expected = [[sum(fm[i][k] * gm[k][j] for k in range(3)) for j in range(3)]
                    for i in range(3)]
        got = dense_from_linmap(compose(f, g))
        assert got == expected


def test_compose_shares_one_entry_columns_and_sums_the_rest():
    f = LinMap(QQ, S3, S4, {0: {1: 1}, 1: {2: 5}, 2: {0: 1, 3: 2}})
    g = LinMap(QQ, S4, S3, {0: {0: 1}, 1: {1: 1}, 2: {2: 1}, 3: {0: 2, 1: 3}})
    fg = compose(f, g)
    assert fg.cols[0] == f.cols[0] and fg.cols[1] == f.cols[1]
    assert fg.cols[2] == f.cols[2] and fg.col(3) == {1: 2, 2: 15}
    # g an index table: column i is f's stored column at g(i), a one-entry
    # column the same tuple
    table = LinMap(QQ, S4, S3, {0: {0: 1}, 1: {1: 1}, 2: {2: 1}, 3: {0: 1}})
    assert table.points == (0, 1, 2, 0) and g.points is None
    ft = compose(f, table)
    assert ft.cols[0] is f.cols[0] and ft.cols[1] is f.cols[1] and ft.cols[3] is f.cols[0]
    assert ft.cols[2] == f.cols[2]
    cancel = LinMap(QQ, S2, S3, {0: {0: 1, 1: Fraction(-1, 5)}, 1: {1: 1}})
    f2 = LinMap(QQ, S3, S4, {0: {3: 1}, 1: {3: 5}})
    assert compose(f2, cancel).cols == {1: ((3, 5),)}


def test_points_is_the_index_table_of_a_map_sending_basis_to_basis():
    two = BasedSpace(("a", "b"))
    empty = BasedSpace(())
    assert LinMap(QQ, S3, two, {0: {1: 1}, 1: {0: 1}, 2: {1: 1}}).points == (1, 0, 1)
    assert LinMap(QQ, S3, two, {0: {1: 1}, 1: {0: 2}, 2: {1: 1}}).points is None
    assert LinMap(QQ, S3, two, {0: {1: 1}, 1: {0: 1, 1: 1}, 2: {1: 1}}).points is None
    assert LinMap(QQ, S3, two, {0: {1: 1}, 2: {1: 1}}).points is None
    assert LinMap(QQ, empty, two, {}).points == ()
    # read once: the same tuple on every read
    f5 = PrimeField(5)
    m = LinMap(f5, S2, two, {0: ((1, f5.one),), 1: {0: f5.one}})
    assert m.points == (1, 0) and m.points is m.points


def test_compose_associative_randomized():
    rng = random.Random(5)
    for _ in range(10):
        f = random_linmap(rng, QQ, S3, S2)
        g = random_linmap(rng, QQ, S4, S3)
        h = random_linmap(rng, QQ, S2, S4)
        assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_bilin_agrees_with_apply_on_every_index_vector_mix():
    rng = random.Random(10)
    for field in (QQ, PrimeField(5)):
        def args(space):
            """Every basis index, a random vector and the zero vector."""
            vec = random_linmap(rng, field, BasedSpace(("1",)), space, density=0.6).col(0)
            return [*range(space.dim), vec, {}]

        def as_vec(x):
            return basis_vec(field, x) if isinstance(x, int) else x

        for _ in range(8):
            m = random_linmap(rng, field, tensor_space(S3, S2), S4, density=0.5)
            stored = dict(m.cols)
            for v in args(S3):
                for w in args(S2):
                    got = m.bilin(v, w, S2.dim)
                    assert got == m.apply(tensor_vec(field, as_vec(v), as_vec(w), S2.dim))
                    got[0] = field.one  # the result never aliases a stored column
            assert m.cols == stored


FIELDS = {"QQ": QQ, "GF(7)": PrimeField(7)}


def nonzero(field):
    """Nonzero values of the field: over QQ one, integers and fractions."""
    if field == QQ:
        return st.sampled_from([1, -1, 3, Fraction(1, 2), Fraction(-5, 3)])
    return st.integers(1, 6)


@st.composite
def bilin_cases(draw):
    """(map, v, w, cancels) with v and w each a basis index, a one-term
    vector or a vector of several terms.  One case in four duplicates the
    columns of two left indices and takes v as their difference, so that
    every sum cancels."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    value = nonzero(field)
    m = random_linmap(random.Random(draw(st.integers(0, 2**16))), field,
                      tensor_space(S3, S2), S4, density=0.6)
    cols = {i: {k: draw(value) for k, _ in col} for i, col in m.cols.items()}

    def arg(space):
        kind = draw(st.sampled_from(["index", "one-term", "terms"]))
        if kind == "index":
            return draw(st.integers(0, space.dim - 1))
        keys = draw(st.lists(st.integers(0, space.dim - 1), unique=True,
                             min_size=1 if kind == "one-term" else 2,
                             max_size=1 if kind == "one-term" else space.dim))
        return {k: draw(value) for k in keys}

    v, w = arg(S3), arg(S2)
    cancels = draw(st.integers(0, 3)) == 0
    if cancels:
        i1, i2 = draw(st.lists(st.integers(0, S3.dim - 1), unique=True, min_size=2,
                               max_size=2))
        for j in range(S2.dim):
            cols[i2 * S2.dim + j] = dict(cols.get(i1 * S2.dim + j, {}))
        c = draw(value)
        v = {i1: c, i2: field.neg(c)}
    return LinMap(field, m.domain, m.codomain, cols), v, w, cancels


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(bilin_cases())
def test_bilin_agrees_with_the_general_loop(case):
    m, v, w, cancels = case
    stored = dict(m.cols)
    field = m.field

    def as_vec(x):
        return basis_vec(field, x) if isinstance(x, int) else x

    got = m.bilin(v, w, S2.dim)
    assert got == m.apply(tensor_vec(field, as_vec(v), as_vec(w), S2.dim))
    if cancels:
        assert got == {}
    assert all(not m.field.is_zero(x) for x in got.values())
    got[0] = m.field.one  # the result never aliases a stored column
    assert m.cols == stored


def test_bilin_one_term_path_scales_and_cancels():
    f7 = PrimeField(7)
    m = LinMap(f7, tensor_space(S2, S2), S3, {1: {0: 3, 2: 5}})
    assert m.bilin(0, 1, 2) == m.bilin({0: 1}, {1: 1}, 2) == {0: 3, 2: 5}
    assert m.bilin({0: 2}, {1: 4}, 2) == {0: 3, 2: 5}  # 2 * 4 = 1 mod 7
    assert m.bilin({0: 3}, 1, 2) == {0: 2, 2: 1}
    assert m.bilin({0: 0}, 1, 2) == m.bilin(0, {1: 7}, 2) == {}
    q = LinMap(QQ, tensor_space(S2, S2), S3, {1: {0: Fraction(2, 3), 2: -1}})
    assert q.bilin({0: Fraction(3, 2)}, 1, 2) == {0: 1, 2: Fraction(-3, 2)}
    assert type(q.bilin({0: Fraction(3, 2)}, 1, 2)[0]) is int


def test_compose_dimension_mismatch():
    f = LinMap.identity(QQ, S3)
    g = LinMap.identity(QQ, S2)
    with pytest.raises(DimensionError):
        compose(f, g)


def test_tensor_map_identity():
    ident = tensor_map(LinMap.identity(QQ, S2), LinMap.identity(QQ, S3))
    assert ident == LinMap.identity(QQ, tensor_space(S2, S3))


def test_tensor_map_matches_contraction_oracle():
    rng = random.Random(6)
    f = random_linmap(rng, QQ, S2, S3)
    eps = LinMap(QQ, S3, BasedSpace(("1",)),
                 {i: {0: QQ.of(i + 1)} for i in range(3)})
    t = tensor_map(f, eps)
    fm = dense_from_linmap(f)
    # brute-force contraction: (f (x) eps)(e_i (x) e_j) = eps(e_j) * f(e_i)
    for i in range(2):
        for j in range(3):
            col = t.col(i * 3 + j)
            expected = {k: fm[k][i] * (j + 1) for k in range(3)
                        if fm[k][i] * (j + 1) != 0}
            assert col == expected


def test_tensor_map_interchange_law():
    rng = random.Random(7)
    for _ in range(6):
        f = random_linmap(rng, QQ, S2, S3)
        g = random_linmap(rng, QQ, S3, S2)
        h = random_linmap(rng, QQ, S3, S2)
        k = random_linmap(rng, QQ, S2, S3)
        lhs = compose(tensor_map(f, g), tensor_map(h, k))
        rhs = tensor_map(compose(f, h), compose(g, k))
        assert lhs == rhs


def test_twist_is_an_involution():
    tw = twist_map(QQ, S2, S3)
    wt = twist_map(QQ, S3, S2)
    assert compose(wt, tw) == LinMap.identity(QQ, tensor_space(S2, S3))


def test_invert_identity_and_permutation():
    ident = LinMap.identity(QQ, S4)
    assert invert(ident) == ident
    perm = LinMap(QQ, S4, S4, {0: {2: QQ.one}, 1: {0: QQ.one},
                               2: {3: QQ.one}, 3: {1: QQ.one}})
    inv = invert(perm)
    assert compose(inv, perm) == ident
    assert compose(perm, inv) == ident


def test_invert_random_multiply_back():
    rng = random.Random(8)
    found = 0
    while found < 5:
        f = random_linmap(rng, QQ, S4, S4, density=0.9)
        try:
            g = invert(f)
        except NotInvertibleError:
            continue
        found += 1
        ident = LinMap.identity(QQ, S4)
        assert compose(f, g) == ident
        assert compose(g, f) == ident


def test_invert_fails_iff_rank_deficient():
    rng = random.Random(9)
    for _ in range(25):
        f = random_linmap(rng, QQ, S3, S3, density=0.5)
        r = rank_by_column_elimination(f)
        try:
            invert(f)
            assert r == 3
        except NotInvertibleError as exc:
            assert r < 3
            assert exc.rank == r


@pytest.mark.parametrize("dom, cod", [(S2, S3), (S3, S2)], ids=["2->3", "3->2"])
def test_invert_refuses_a_map_that_is_not_square(dom, cod):
    f = LinMap(QQ, dom, cod, {i: {i: QQ.one} for i in range(2)})
    with pytest.raises(DimensionError, match="^only square maps can be inverted$"):
        invert(f)


def test_rank_and_preimage_pivots_match_column_elimination():
    rng = random.Random(11)
    for field in (QQ, PrimeField(5)):
        for dom in (S2, S3, S4):
            for cod in (S2, S3, S4):
                for _ in range(6):
                    f = random_linmap(rng, field, dom, cod, density=0.4)
                    r = rank_by_column_elimination(f)
                    solver = PreimageSolver(f)
                    assert len(solver.pivots) == r
                    assert solver.cokernel.codomain.dim == cod.dim - r


def test_linmap_normalization_drops_zeros():
    m = LinMap(QQ, S2, S2, {0: {0: QQ.zero, 1: QQ.one}, 1: {}})
    assert m.cols == {0: ((1, QQ.one),)}
    assert m.col(1) == {}


def test_linmap_rejects_out_of_range_indices():
    with pytest.raises(DimensionError):
        LinMap(QQ, S2, S2, {5: {0: QQ.one}})
    with pytest.raises(DimensionError):
        LinMap(QQ, S2, S2, {0: {7: QQ.one}})


def test_equality_and_hash_do_not_depend_on_the_order_columns_were_inserted_in():
    cols = {0: {1: QQ.one, 3: Fraction(1, 2)}, 1: {0: QQ.one}, 2: {2: QQ.of(5)},
            3: {0: QQ.one, 1: QQ.one}}
    m = LinMap(QQ, S4, S4, cols)
    r = LinMap(QQ, S4, S4, dict(reversed(cols.items())))
    assert list(m.cols) == [0, 1, 2, 3] and list(r.cols) == [3, 2, 1, 0]
    assert m == r and r == m and hash(m) == hash(r)
    assert {m: "m"}[r] == "m" and {r: "r"}[m] == "r"
    assert len({m, r}) == 1
    # the same domain indices with another value are another map
    other = LinMap(QQ, S4, S4, {**cols, 2: {2: QQ.of(6)}})
    assert other != m and m != other
    # and the same columns between spaces of other dimensions too
    assert LinMap(QQ, S4, BasedSpace("abcde"), cols) != m


def test_linmap_keeps_a_stored_one_entry_column():
    """A one-entry tuple is kept as that tuple, and gives the map the dict
    gives; with a zero value or an index out of range it is dropped or
    refused just as the dict is."""
    for field, v in ((QQ, Fraction(1, 3)), (PrimeField(7), 4)):
        col = ((2, v),)
        m = LinMap(field, S2, S3, {0: col, 1: {0: 1}})
        d = LinMap(field, S2, S3, {0: {2: v}, 1: {0: 1}})
        assert m.cols[0] is col
        assert m == d and hash(m) == hash(d) and m.col(0) == {2: v}
        assert LinMap(field, S2, S3, {0: ((1, field.zero),)}).cols == {}
        for j in (3, -1):
            with pytest.raises(DimensionError) as from_dict:
                LinMap(field, S2, S3, {0: {j: v}})
            with pytest.raises(DimensionError) as from_tuple:
                LinMap(field, S2, S3, {0: ((j, v),)})
            assert str(from_tuple.value) == str(from_dict.value) == \
                f"codomain index {j} out of range"
    assert LinMap(PrimeField(7), S2, S3, {0: ((1, 7),)}).cols == {}


def test_linmap_takes_a_stored_column_of_any_length():
    """A tuple of (index, value) pairs of any length reads as its dict: an
    empty one leaves the column out, a longer one is sorted with its zeros
    dropped, an index out of range is refused, and a repeated index, which
    the dict would silently merge, raises ValueError."""
    assert LinMap(QQ, S2, S3, {0: (), 1: {0: 1}}).cols == {1: ((0, 1),)}
    m = LinMap(QQ, S2, S3, {0: ((2, 3), (0, Fraction(1, 2)), (1, 0))})
    assert m.cols == {0: ((0, Fraction(1, 2)), (2, 3))}
    assert m == LinMap(QQ, S2, S3, {0: {2: 3, 0: Fraction(1, 2)}})
    with pytest.raises(DimensionError, match="codomain index 3 out of range"):
        LinMap(QQ, S2, S3, {0: ((0, 1), (3, 1))})
    with pytest.raises(ValueError, match="column 1 repeats a codomain index"):
        LinMap(QQ, S2, S3, {1: ((0, 1), (0, 2))})


def normalized_direct(field, ncod: int, cols: dict):
    """The columns a LinMap stores for ``cols``, entry by entry: zeros
    dropped, then sorted, then every codomain index checked in that order;
    the message of the DimensionError it raises, if any."""
    norm = {}
    for i, col in cols.items():
        entries = tuple(sorted((j, v) for j, v in col.items() if not field.is_zero(v)))
        for j, _ in entries:
            if not 0 <= j < ncod:
                return f"codomain index {j} out of range"
        if entries:
            norm[i] = entries
    return norm


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([QQ, PrimeField(7)]),
       st.dictionaries(st.integers(0, 3), st.dictionaries(
           st.integers(-2, 5),
           st.one_of(st.integers(-8, 8), st.sampled_from([Fraction(1, 2), Fraction(-2, 3)])),
           max_size=5), max_size=4))
def test_linmap_columns_match_the_entrywise_normalization(field, cols):
    """Sorted once, with only the ends checked and zeros filtered only when
    present, a column gives what the entry-by-entry loop gives, and an
    index outside the codomain is named as that loop names it, whether a
    column comes as a dict or as a tuple of pairs; over GF(7) the values
    include unreduced ones such as 7 and -1."""
    if field != QQ:
        cols = {i: {j: int(v) for j, v in col.items()} for i, col in cols.items()}
    want = normalized_direct(field, 3, cols)
    # a column handed in as a tuple of pairs, unsorted, normalizes the same way
    as_tuples = {i: tuple(reversed(col.items())) for i, col in cols.items()}
    for given_cols in (cols, as_tuples):
        try:
            got = LinMap(field, S4, S3, given_cols).cols
        except DimensionError as exc:
            got = str(exc)
        assert got == want


def random_vector(rng, field, dim, density=0.5) -> dict:
    return {j: field.of(rng.randrange(1, 5), rng.randrange(1, 4))
            for j in range(dim) if rng.random() < density}


def random_injective(rng, field, dom, cod) -> LinMap:
    while True:
        f = random_linmap(rng, field, dom, cod, density=0.5)
        if rank_by_column_elimination(f) == dom.dim:
            return f


def test_preimage_matches_the_echelon_oracle():
    rng = random.Random(31)
    for field in (QQ, PrimeField(5)):
        for dom in (S2, S3, S4):
            for _ in range(6):
                f = random_linmap(rng, field, dom, S4, density=0.5)
                solver = PreimageSolver(f)
                inside = f.apply(random_vector(rng, field, dom.dim))
                for v in (inside, random_vector(rng, field, 4), {}):
                    got = solver.preimage(v)
                    assert got == preimage_direct(f, v)
                    if got is not None:
                        assert f.apply(got) == v
                assert solver.preimage(inside) is not None


def test_pair_preimage_matches_the_tensor_square_oracle():
    rng = random.Random(32)
    for field in (QQ, PrimeField(5)):
        for dom in (S2, S3):
            f = random_injective(rng, field, dom, S4)
            square = tensor_map(f, f)
            solver = PreimageSolver(f)
            outside = [w for w in (random_vector(rng, field, 4) for _ in range(20))
                       if preimage_direct(f, w) is None]
            assert outside
            for _ in range(5):
                x = random_vector(rng, field, dom.dim ** 2) or {0: field.one}
                v = square.apply(x)
                assert solver.pair_preimage(v) == preimage_direct(square, v) == x
                u = f.apply(random_vector(rng, field, dom.dim) or {0: field.one})
                w = rng.choice(outside)
                # in im f (x) E or E (x) im f, but not in im f (x) im f
                for bad in (tensor_vec(field, u, w, 4), tensor_vec(field, w, u, 4)):
                    assert preimage_direct(square, bad) is None
                    assert solver.pair_preimage(bad) is None
                    mixed = dict(v)
                    vec_add_into(field, mixed, bad)
                    assert solver.pair_preimage(mixed) is None
                r = random_vector(rng, field, 16, density=0.3)
                assert solver.pair_preimage(r) == preimage_direct(square, r)
