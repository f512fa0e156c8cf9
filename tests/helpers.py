"""Shared fixtures and independent oracles for the test suite."""
from __future__ import annotations

import dataclasses
import functools
import sys
from dataclasses import dataclass
from itertools import product as iproduct

import hopfprod as hp
import hopfprod.classification
import hopfprod.factorization
import hopfprod.groups
import hopfprod.linalg
import hopfprod.special
import hopfprod.structures
import hopfprod.unified
from hopfprod.corpus import a4_unified_datum, s3_matched_pair, z4_crossed_datum
from hopfprod.fields import QQ, PrimeField
from hopfprod.groups import GroupExtendingStructure, GroupTable, NotAGroupError
from hopfprod.linalg import (
    SCALAR_SPACE,
    BasedSpace,
    DimensionError,
    LinMap,
    NotInvertibleError,
    _rows_of,
    _rref,
    basis_vec,
    compose,
    invert,
    solve_system,
    tensor_space,
    tensor_vec,
    vec_add_into,
    vec_scale,
)
from hopfprod.reports import Report
from hopfprod.structures import (
    FDAlgebra,
    FDBialgebra,
    FDCoalgebra,
    FDHopf,
    NoAntipodeError,
    UnitalCoalgebra,
    _scan,
    _tuple_label,
    check_algebra,
    check_coalgebra,
    convolution,
    convolution_unit,
    trivial_action_left,
    trivial_action_right,
    trivial_cocycle,
)
from hopfprod.unified import ExtendingDatum, UnifiedProduct, _base_inclusion


def random_group_structure(rng, group, x_size) -> GroupExtendingStructure:
    """Uniformly random set-level maps with the unit normalization pinned."""
    ng, e = group.order, group.identity
    ract = [[rng.randrange(x_size) for _ in range(ng)] for _ in range(x_size)]
    lact = [[rng.randrange(ng) for _ in range(ng)] for _ in range(x_size)]
    cocyc = [[rng.randrange(ng) for _ in range(x_size)] for _ in range(x_size)]
    star = [[rng.randrange(x_size) for _ in range(x_size)] for _ in range(x_size)]
    for x in range(x_size):
        ract[x][e] = x
        lact[x][e] = e
        cocyc[x][0] = e
        cocyc[0][x] = e
        star[x][0] = x
        star[0][x] = x
    for a in range(ng):
        ract[0][a] = 0
        lact[0][a] = a
    return GroupExtendingStructure(
        group=group,
        x_labels=tuple(f"x{k}" for k in range(x_size)),
        ract=tuple(map(tuple, ract)),
        lact=tuple(map(tuple, lact)),
        cocyc=tuple(map(tuple, cocyc)),
        star=tuple(map(tuple, star)),
    )


def strip_provenance(ges: GroupExtendingStructure) -> GroupExtendingStructure:
    return GroupExtendingStructure(
        group=ges.group, x_labels=ges.x_labels, ract=ges.ract,
        lact=ges.lact, cocyc=ges.cocyc, star=ges.star,
    )


def perturb_group_structure(rng, ges: GroupExtendingStructure) -> GroupExtendingStructure:
    """Change one non-pinned entry of one of the four maps, if any exists."""
    ng, nx, e = ges.group.order, ges.x_size, ges.group.identity
    slots = []
    for x in range(1, nx):
        for a in range(ng):
            if a != e:
                slots.append(("ract", x, a, nx))
                slots.append(("lact", x, a, ng))
    for x in range(1, nx):
        for y in range(1, nx):
            slots.append(("cocyc", x, y, ng))
            slots.append(("star", x, y, nx))
    slots = [(name, i, j, size) for name, i, j, size in slots if size > 1]
    if not slots:
        return strip_provenance(ges)
    name, i, j, size = slots[rng.randrange(len(slots))]
    table = [list(row) for row in getattr(ges, name)]
    old = table[i][j]
    table[i][j] = rng.choice([v for v in range(size) if v != old])
    out = strip_provenance(ges)
    return GroupExtendingStructure(
        group=out.group, x_labels=out.x_labels,
        ract=tuple(map(tuple, table)) if name == "ract" else out.ract,
        lact=tuple(map(tuple, table)) if name == "lact" else out.lact,
        cocyc=tuple(map(tuple, table)) if name == "cocyc" else out.cocyc,
        star=tuple(map(tuple, table)) if name == "star" else out.star,
    )


def check_group_structure_direct(ges: GroupExtendingStructure) -> Report:
    """The set-level conditions written out by hand, the independent oracle
    of ``groups.check_group_structure``: the same title, rows, order and
    witnesses.

    On group-like bases the two tensor-symmetry conditions hold identically,
    so the battery below is normalization plus the six specialized identities.
    """
    g = ges.group
    nx, ng = ges.x_size, g.order
    e, base = g.identity, 0
    rep = Report("set-level extending structure")
    mul = g.mult
    xs, gs = range(nx), range(ng)
    xl, gl = ges.x_labels, g.labels

    def normal(x, a):
        return (ges.lact[x][e] == e and ges.ract[x][e] == x
                and ges.lact[base][a] == a and ges.ract[base][a] == base
                and ges.cocyc[x][base] == e and ges.cocyc[base][x] == e
                and ges.star[x][base] == x and ges.star[base][x] == x)

    _scan(rep, "unit-normalization", iproduct(xs, gs), normal, _tuple_label(xl, gl))
    _scan(rep, "right-module", iproduct(xs, gs, gs),
          lambda x, a, b: ges.ract[ges.ract[x][a]][b] == ges.ract[x][mul(a, b)],
          _tuple_label(xl, gl, gl))
    _scan(rep, "twisted-associativity", iproduct(xs, xs, xs),
          lambda x, y, z: ges.star[ges.star[x][y]][z]
          == ges.star[ges.ract[x][ges.cocyc[y][z]]][ges.star[y][z]],
          _tuple_label(xl, xl, xl))
    _scan(rep, "lact-multiplicative", iproduct(xs, gs, gs),
          lambda x, a, b: ges.lact[x][mul(a, b)]
          == mul(ges.lact[x][a], ges.lact[ges.ract[x][a]][b]),
          _tuple_label(xl, gl, gl))
    _scan(rep, "ract-dot-compat", iproduct(xs, xs, gs),
          lambda x, y, a: ges.ract[ges.star[x][y]][a]
          == ges.star[ges.ract[x][ges.lact[y][a]]][ges.ract[y][a]],
          _tuple_label(xl, xl, gl))

    def twisted_module(x, y, a):
        ya = ges.lact[y][a]
        lhs = mul(ges.lact[x][ya], ges.cocyc[ges.ract[x][ya]][ges.ract[y][a]])
        return lhs == mul(ges.cocyc[x][y], ges.lact[ges.star[x][y]][a])

    _scan(rep, "twisted-module", iproduct(xs, xs, gs), twisted_module,
          _tuple_label(xl, xl, gl))

    def cocycle_condition(x, y, z):
        fyz = ges.cocyc[y][z]
        lhs = mul(ges.lact[x][fyz], ges.cocyc[ges.ract[x][fyz]][ges.star[y][z]])
        return lhs == mul(ges.cocyc[x][y], ges.cocyc[ges.star[x][y]][z])

    _scan(rep, "cocycle-condition", iproduct(xs, xs, xs), cocycle_condition,
          _tuple_label(xl, xl, xl))

    rep.add("action-symmetry", True)  # identical tensor legs on group-like bases
    rep.add("cocycle-symmetry", True)
    return rep


def sweedler_bialgebra(field=QQ) -> FDBialgebra:
    """The four-dimensional bialgebra with basis 1, g, x, gx where g*g = 1,
    x*x = 0, x*g = -g*x, delta(g) = g (x) g, delta(x) = x (x) 1 + g (x) x.
    The canonical small example with a non-cocommutative comultiplication."""
    one = field.one
    neg = field.neg(one)
    space = hp.BasedSpace(("1", "g", "x", "gx"))
    delta = LinMap(field, space, tensor_space(space, space), {
        0: {0: one},
        1: {5: one},
        2: {8: one, 6: one},      # x (x) 1 + g (x) x
        3: {13: one, 3: one},     # gx (x) g + 1 (x) gx
    })
    epsilon = LinMap(field, space, SCALAR_SPACE, {0: {0: one}, 1: {0: one}})
    mult_table = {
        (0, 0): {0: one}, (0, 1): {1: one}, (0, 2): {2: one}, (0, 3): {3: one},
        (1, 0): {1: one}, (1, 1): {0: one}, (1, 2): {3: one}, (1, 3): {2: one},
        (2, 0): {2: one}, (2, 1): {3: neg}, (2, 2): {}, (2, 3): {},
        (3, 0): {3: one}, (3, 1): {2: neg}, (3, 2): {}, (3, 3): {},
    }
    mult = LinMap(field, tensor_space(space, space), space,
                  {i * 4 + j: col for (i, j), col in mult_table.items()})
    coalg = FDCoalgebra(field, space, delta, epsilon)
    alg = FDAlgebra(field, space, mult, {0: one}, associative="yes")
    return FDBialgebra(coalg, alg)


def idempotent_monoid_bialgebra(field=QQ) -> FDBialgebra:
    """k{e, z} with z * z = z: the monoid bialgebra of a monoid that is no
    group.  Group-like on its basis, and it has no antipode."""
    one = field.one
    space = hp.BasedSpace(("e", "z"))
    delta = LinMap(field, space, tensor_space(space, space), {0: {0: one}, 1: {3: one}})
    epsilon = LinMap(field, space, SCALAR_SPACE, {0: {0: one}, 1: {0: one}})
    mult = LinMap(field, tensor_space(space, space), space,
                  {0: {0: one}, 1: {1: one}, 2: {1: one}, 3: {1: one}})
    return FDBialgebra(FDCoalgebra(field, space, delta, epsilon),
                       FDAlgebra(field, space, mult, {0: one}))


def rescaled_bialgebra(b: FDBialgebra, scales, labels) -> FDBialgebra:
    """b in the basis c_i e_i, for nonzero field values c_i = ``scales[i]``.

    With m(e_i, e_j) = sum_k m_k e_k the new constants are c_i c_j m_k / c_k;
    delta picks up c_i / (c_j c_k), epsilon c_i and the unit 1 / c_k.
    """
    f = b.field
    inv = [f.inv(c) for c in scales]
    n = b.dim
    space = hp.BasedSpace(labels)
    mult = LinMap(f, tensor_space(space, space), space, {
        i * n + j: {k: f.mul(f.mul(scales[i], scales[j]), f.mul(m, inv[k]))
                    for k, m in b.mult.col(i * n + j).items()}
        for i in range(n) for j in range(n)})
    delta = LinMap(f, space, tensor_space(space, space), {
        i: {jk: f.mul(f.mul(scales[i], d), f.mul(inv[jk // n], inv[jk % n]))
            for jk, d in b.delta.col(i).items()}
        for i in range(n)})
    epsilon = LinMap(f, space, SCALAR_SPACE, {
        i: {0: f.mul(scales[i], e)} for i in range(n) for e in b.epsilon.col(i).values()})
    unit = {k: f.mul(u, inv[k]) for k, u in b.algebra.unit.items()}
    return FDBialgebra(FDCoalgebra(f, space, delta, epsilon),
                       FDAlgebra(f, space, mult, unit))


def scaled_sweedler() -> FDBialgebra:
    """Sweedler's H4 over QQ in the basis 1, g/2, x/2, gx/3.  Its structure
    constants include 1/4, 3/4, 1/3 and 1/2: a non-integral QQ fixture."""
    f = QQ
    return rescaled_bialgebra(sweedler_bialgebra(f), (f.one, f.of(1, 2), f.of(1, 2), f.of(1, 3)),
                              ("1", "g/2", "x/2", "gx/3"))


def trivial_datum(a: FDBialgebra, h: FDBialgebra) -> hp.ExtendingDatum:
    return hp.matched_pair_datum(hp.trivial_matched_pair(a, h))


def drinfeld_double(group, field=QQ) -> FDBialgebra:
    """The Drinfeld double D(k[G]) from its textbook presentation (Kassel,
    *Quantum Groups*, IX.4), on the basis e(x, g) = p_x (x) g, index x n + g:

    * e(x, g) e(y, h) = [x = g y g^-1] e(x, gh), with unit sum_x e(x, 1);
    * delta e(x, g) = sum_{yz = x} e(y, g) (x) e(z, g), counit [x = 1].

    It is not cocommutative unless G is abelian."""
    n, t, inv, one = group.order, group.table, group.inverse, field.one
    space = hp.BasedSpace(tuple(f"e({x},{y})" for x in group.labels for y in group.labels))
    mult, delta = {}, {}
    for x, s in iproduct(range(n), repeat=2):
        for y, r in iproduct(range(n), repeat=2):
            if x == t[t[s][y]][inv[s]]:
                mult[(x * n + s) * n * n + y * n + r] = {x * n + t[s][r]: one}
        delta[x * n + s] = {(y * n + s) * n * n + z * n + s: one
                            for y, z in iproduct(range(n), repeat=2) if t[y][z] == x}
    square = tensor_space(space, space)
    epsilon = LinMap(field, space, SCALAR_SPACE,
                     {group.identity * n + s: {0: one} for s in range(n)})
    unit = {x * n + group.identity: one for x in range(n)}
    return FDBialgebra(FDCoalgebra(field, space, LinMap(field, space, square, delta), epsilon),
                       FDAlgebra(field, space, LinMap(field, square, space, mult), unit))


def drinfeld_double_factors(group, field=QQ):
    """D(k[G]) with the inclusions of A = k[G], g -> sum_x e(x, g), and of
    H = k^G, p_x -> e(x, 1), the two factors it is the product of."""
    double = drinfeld_double(group, field)
    n, one = group.order, field.one
    incl_a = LinMap(field, hp.BasedSpace(group.labels), double.space,
                    {s: {x * n + s: one for x in range(n)} for s in range(n)})
    incl_h = LinMap(field, hp.BasedSpace(tuple(f"p{x}" for x in group.labels)), double.space,
                    {x: {x * n + group.identity: one} for x in range(n)})
    return double, incl_a, incl_h


def drinfeld_double_datum(group_name: str, field=QQ) -> ExtendingDatum:
    """The extending datum recovered from D(k[G]) through k[G] and k^G."""
    fi = hp.FactorizationInput.build(*drinfeld_double_factors(hp.builtin_group(group_name),
                                                              field))
    return hopfprod.factorization.recover_datum(fi)


def s4_over_s3_datum() -> ExtendingDatum:
    """The split of S4 along a copy of S3: A = k[S3], four cosets, 216 cocycles."""
    s4 = hp.builtin_group("s4")
    return hp.lift_to_hopf(hp.coset_extending_structure(
        s4, next(idx for idx in s4.all_subgroups() if len(idx) == 6)))


def group_unified_product(ges: GroupExtendingStructure) -> GroupTable:
    """The product group on G x X with the twisted multiplication, at set
    level: the oracle of the linear product of ``lift_to_hopf(ges)``.

    (a, x) (b, y) = (a . (x |> b) . f(x <| b, y), (x <| b) * y), indexed
    row-major so index (a, x) = a * |X| + x matches the tensor convention.
    """
    g = ges.group
    nx = ges.x_size
    mul = g.mult
    n = g.order * nx
    table = [[0] * n for _ in range(n)]
    for a in range(g.order):
        for x in range(nx):
            row = table[a * nx + x]
            for b in range(g.order):
                xb_g = ges.lact[x][b]
                xb_x = ges.ract[x][b]
                for y in range(nx):
                    out_a = mul(mul(a, xb_g), ges.cocyc[xb_x][y])
                    out_x = ges.star[xb_x][y]
                    row[b * nx + y] = out_a * nx + out_x
    labels = [f"({ga},{lx})" for ga in g.labels for lx in ges.x_labels]
    try:
        return GroupTable(table, labels)
    except NotAGroupError as exc:
        raise NotAGroupError(f"twisted product is not a group: {exc}") from exc


def pair_bijection_is_isomorphism(ges: GroupExtendingStructure) -> bool:
    """Does (a, x) -> a * x carry the twisted product onto the ambient group?"""
    ambient = ges.ambient
    product = group_unified_product(ges)
    nx = ges.x_size
    to_ambient = []
    for a_sub in ges.sub_indices:
        for r in ges.rep_indices:
            to_ambient.append(ambient.table[a_sub][r])
    if sorted(to_ambient) != list(range(ambient.order)):
        return False
    for p in range(product.order):
        for q in range(product.order):
            if to_ambient[product.table[p][q]] != \
                    ambient.table[to_ambient[p]][to_ambient[q]]:
                return False
    return True


def tensor_map(f: LinMap, g: LinMap, only=None) -> LinMap:
    """(f (x) g)(e_i (x) e_j) = f(e_i) (x) g(e_j), row-major indexing: the
    composed form of the maps the library evaluates pointwise.  With
    ``only``, a set of flat domain indices, just those columns are built
    and every other one is left zero."""
    field, mul = f.field, f.field.mul
    gdim, cdim = g.domain.dim, g.codomain.dim
    if only is None:
        pairs = ((i, j) for i in f.cols for j in g.cols)
    else:
        pairs = (divmod(k, gdim) for k in sorted(only))
    cols = {}
    for i, j in pairs:
        fcol, gcol = f.cols.get(i), g.cols.get(j)
        if fcol and gcol:
            if len(fcol) == len(gcol) == 1:
                # one entry, handed over as the one-entry tuple LinMap keeps
                (a, x), (b, y) = fcol[0], gcol[0]
                cols[i * gdim + j] = ((a * cdim + b, mul(x, y)),)
            else:
                cols[i * gdim + j] = {a * cdim + b: mul(x, y) for a, x in fcol for b, y in gcol}
    return LinMap(field, tensor_space(f.domain, g.domain),
                  tensor_space(f.codomain, g.codomain), cols)


def twist_map(field, a: BasedSpace, b: BasedSpace) -> LinMap:
    """The flip a (x) b -> b (x) a."""
    cols = {i * b.dim + j: {j * a.dim + i: field.one}
            for i in range(a.dim) for j in range(b.dim)}
    return LinMap(field, tensor_space(a, b), tensor_space(b, a), cols)


def oracle_tensor_coalgebra_delta(c, d):
    """(id (x) twist (x) id) . (delta_c (x) delta_d), composed."""
    field = c.field
    shuffle = tensor_map(
        tensor_map(LinMap.identity(field, c.space), twist_map(field, c.space, d.space)),
        LinMap.identity(field, d.space),
    )
    return compose(shuffle, tensor_map(c.delta, d.delta))


def oracle_tensor_algebra_mult(a, b):
    """(m_a (x) m_b) . (id (x) twist (x) id), composed."""
    field = a.field
    shuffle = tensor_map(
        tensor_map(LinMap.identity(field, a.space), twist_map(field, b.space, a.space)),
        LinMap.identity(field, b.space),
    )
    return compose(tensor_map(a.mult, b.mult), shuffle)


def tensor_product_oracle(x: FDBialgebra, y: FDBialgebra) -> FDBialgebra:
    """The tensor-product bialgebra x (x) y from the composed shuffles, as an
    oracle for the product of the trivial datum."""
    field = x.field
    space = tensor_space(x.space, y.space)
    coalg = FDCoalgebra(field, space, oracle_tensor_coalgebra_delta(x.coalgebra, y.coalgebra),
                        tensor_map(x.epsilon, y.epsilon))
    alg = FDAlgebra(field, space, oracle_tensor_algebra_mult(x.algebra, y.algebra),
                    tensor_vec(field, x.unit, y.unit, y.dim))
    return FDBialgebra(coalg, alg)


def oracle_is_coalgebra_map(f, src, dst, flip=False):
    """delta_dst . f = (f (x) f) . delta_src, the factors swapped when
    ``flip``, and counit_dst . f = counit_src, through the composed maps."""
    rhs = compose(tensor_map(f, f), src.delta)
    if flip:
        rhs = compose(twist_map(f.field, dst.space, dst.space), rhs)
    return compose(dst.delta, f) == rhs and compose(dst.epsilon, f) == src.epsilon


def oracle_is_algebra_map(f, src, dst, flip=False):
    """f . m_src = m_dst . (f (x) f), the factors swapped before f (x) f when
    ``flip``, and f(1_src) = 1_dst, through the composed maps."""
    ff = tensor_map(f, f)
    if flip:
        ff = compose(ff, twist_map(f.field, src.space, src.space))
    return compose(f, src.mult) == compose(dst.mult, ff) and f.apply(src.unit) == dst.unit


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


def is_coalgebra_antimap(f, src, dst) -> bool:
    """delta_dst . f = twist . (f (x) f) . delta_src and the counits agree."""
    return oracle_is_coalgebra_map(f, src, dst, flip=True)


def is_algebra_antimap(f, src, dst) -> bool:
    """f . m_src = m_dst . (f (x) f) . twist and f(1_src) = 1_dst."""
    return oracle_is_algebra_map(f, src, dst, flip=True)


def bilin_direct(m: LinMap, v, w, right_dim: int) -> dict:
    """m applied to v (x) w with every pair of terms adding its scaled
    column, a basis index counting with coefficient one: the general loop of
    :meth:`LinMap.bilin`, as the oracle of its one-term path."""
    f = m.field
    left = ((v, None),) if isinstance(v, int) else v.items()
    right = ((w, None),) if isinstance(w, int) else tuple(w.items())
    out = {}
    for i, x in left:
        base = i * right_dim
        for j, y in right:
            c = y if x is None else x if y is None else f.mul(x, y)
            for k, z in m.cols.get(base + j, ()):
                s = f.add(out.get(k, f.zero), z if c is None else f.mul(c, z))
                if f.is_zero(s):
                    out.pop(k, None)
                else:
                    out[k] = s
    return out


class DatumOps:
    """The structure maps of a datum and the product of its base as
    two-argument evaluators, each argument a basis index or a sparse vector,
    every one evaluated by :func:`bilin_direct`: the oracles read no
    structure map through the engine's own bilinear evaluation."""

    def __init__(self, d: ExtendingDatum):
        adim, hdim = d.base.dim, d.ext.dim

        def bind(m: LinMap, n: int):
            return lambda v, w: bilin_direct(m, v, w, n)
        self.ract, self.lact = bind(d.ract, adim), bind(d.lact, adim)
        self.coc, self.dot = bind(d.cocycle, hdim), bind(d.dot, hdim)
        self.amul = bind(d.base.mult, adim)


def dense_from_linmap(m: LinMap):
    """A dense matrix M[j][i] with f(e_i) = sum_j M[j][i] e_j, for oracles."""
    rows = [[m.field.zero] * m.domain.dim for _ in range(m.codomain.dim)]
    for i in range(m.domain.dim):
        for j, v in m.col(i).items():
            rows[j][i] = v
    return rows


def matrix_rows(m: LinMap) -> list:
    """The nonzero entries of each row of the matrix of m, as (column,
    value) pairs in column order: the rows of :func:`dense_from_linmap`
    with the zeros left out (a stored value is never zero)."""
    rows = [[] for _ in range(m.codomain.dim)]
    for i, col in sorted(m.cols.items()):
        for j, v in col:
            rows[j].append((i, v))
    return rows


def dense_compose_direct(f: LinMap, g: LinMap):
    """The dense matrix of f after g, each entry summed over the row of f
    and the column of g in index order, as the oracle of
    ``linalg.compose``.  Only the nonzero entries of both factors are
    visited, so the cost follows their entries and the size of the result,
    not the size of the factors' dense matrices."""
    field = f.field
    grows = matrix_rows(g)
    out = []
    for frow in matrix_rows(f):
        row = [field.zero] * g.domain.dim
        for k, x in frow:
            for i, y in grows[k]:
                row[i] = field.add(row[i], field.mul(x, y))
        out.append(row)
    return out


def convolution_direct(f: LinMap, g: LinMap, src: FDCoalgebra, dst: FDAlgebra) -> LinMap:
    """The convolution m_dst . (f (x) g) . delta_src through the composed
    maps, as an oracle for the pointwise ``structures.convolution``.  f (x) g
    is built only on the columns delta_src reaches, the only ones the
    composite reads."""
    reached = {k for col in src.delta.cols.values() for k, _ in col}
    return compose(dst.mult, compose(tensor_map(f, g, reached), src.delta))


def preimage_direct(f: LinMap, v: dict):
    """A preimage of v under f with every free unknown zero, or None: the
    reduced echelon form of [f | id] read row by row on v, as an oracle for
    ``PreimageSolver``.  Apply it to ``tensor_map(f, f)`` for the oracle of
    ``PreimageSolver.pair_preimage``."""
    field, n = f.field, f.domain.dim
    rows = _rows_of(f)
    for r, row in enumerate(rows):
        row[n + r] = field.one
    pivots = _rref(field, rows, n)

    def read(row):
        acc = field.zero
        for c, coeff in row.items():
            if c >= n:
                acc = field.add(acc, field.mul(coeff, v.get(c - n, field.zero)))
        return acc

    pivot_rows = {r for _, r in pivots}
    if any(not field.is_zero(read(row)) for r, row in enumerate(rows)
           if r not in pivot_rows):
        return None
    sol = {}
    for col, r in pivots:
        acc = read(rows[r])
        if not field.is_zero(acc):
            sol[col] = acc
    return sol


def rank_by_column_elimination(f: LinMap) -> int:
    """The rank of f by Gaussian elimination on its columns, independent of
    the row echelon form that ``linalg`` reduces, as an oracle for the
    pivot count of ``PreimageSolver`` and for ``invert``."""
    field = f.field
    cols = [f.col(i) for i in range(f.domain.dim) if f.cols.get(i)]
    r = 0
    for j in range(f.codomain.dim):
        pick = None
        for k, col in enumerate(cols):
            if not field.is_zero(col.get(j, field.zero)):
                pick = k
                break
        if pick is None:
            continue
        pivot = cols.pop(pick)
        r += 1
        pinv = field.inv(pivot[j])
        for col in cols:
            factor = col.get(j)
            if factor is None or field.is_zero(factor):
                continue
            scale = field.mul(factor, pinv)
            for c, v in pivot.items():
                x = field.sub(col.get(c, field.zero), field.mul(scale, v))
                if field.is_zero(x):
                    col.pop(c, None)
                else:
                    col[c] = x
    return r


def random_linmap(rng, field, dom, cod, density=0.7) -> LinMap:
    cols = {}
    for i in range(dom.dim):
        col = {}
        for j in range(cod.dim):
            if rng.random() < density:
                col[j] = field.of(rng.randrange(-4, 5), rng.randrange(1, 4))
        cols[i] = col
    return LinMap(field, dom, cod, cols)


def with_column(m: LinMap, index: int, col: dict) -> LinMap:
    """m with the column at ``index`` replaced by ``col``."""
    cols = {k: m.col(k) for k in range(m.domain.dim)}
    cols[index] = col
    return LinMap(m.field, m.domain, m.codomain, cols)


def one_entry_corruptions(m: LinMap):
    """m with one column set to a basis vector, raised by 1 at one entry, or
    zeroed."""
    f = m.field
    for k in range(m.domain.dim):
        for j in range(m.codomain.dim):
            yield with_column(m, k, {j: f.one})
            col = dict(m.col(k))
            col[j] = f.add(col.get(j, f.zero), f.one)
            yield with_column(m, k, col)
        yield with_column(m, k, {})


def s3_pair_with_bad_lact() -> hp.MatchedPair:
    """The S3 matched pair with (1 2) |> (0 1 2) sent to the unit."""
    mp = s3_matched_pair()
    return hp.MatchedPair(mp.a, mp.h, mp.ract, with_column(mp.lact, 1 * 3 + 1, {0: QQ.one}))


def a4_unified_with_bad_ract() -> hp.ExtendingDatum:
    """a4-unified with (1 2 3) <| (0 1)(2 3) sent to (0 2)(1 3) where it is
    (0 2 3): the right action is still an index table, the datum still
    validates, and six of the nine conditions fail."""
    d = a4_unified_datum()
    return dataclasses.replace(d, ract=with_column(d.ract, 1 * 2 + 1, {5: QQ.one}))


def with_coalgebra_column(c: FDCoalgebra, which: str, index: int, col: dict) -> FDCoalgebra:
    """c with column ``index`` of its coproduct (``which`` = "delta") or of
    its counit ("epsilon") replaced by ``col``."""
    maps = {"delta": c.delta, "epsilon": c.epsilon}
    maps[which] = with_column(maps[which], index, col)
    return FDCoalgebra(c.field, c.space, maps["delta"], maps["epsilon"])


def a4_unified_look_alikes() -> dict:
    """a4-unified with one point of a coproduct or of a counit changed, so
    that H or A is no longer group-like while every map stays an index
    table: Delta_H(x1) = x1 (x) x2, counit_H(x2) = 2, and Delta_A(s) =
    s (x) 1 for the generator s of A.  Each names its `hopfprod verify`
    document; none of them validates."""
    d = a4_unified_datum()
    h, a = d.ext.coalg, d.base.coalgebra
    base = d.base
    bad_a = with_coalgebra_column(a, "delta", 1, {1 * a.dim + 0: QQ.one})
    return {
        "a4-unified-delta-h-x1-x2": dataclasses.replace(d, ext=UnitalCoalgebra(
            with_coalgebra_column(h, "delta", 1, {1 * h.dim + 2: QQ.one}), d.ext.unit)),
        "a4-unified-counit-h-x2-2": dataclasses.replace(d, ext=UnitalCoalgebra(
            with_coalgebra_column(h, "epsilon", 2, {0: QQ.of(2)}), d.ext.unit)),
        "a4-unified-delta-a-off-diagonal": dataclasses.replace(
            d, base=FDHopf(bad_a, base.algebra, base.antipode)),
    }


def h4_trivial_datum(field=PrimeField(5)) -> hp.ExtendingDatum:
    """The trivial datum of Sweedler's H4 acting on itself: multi-term
    coproducts on both sides and a counit that kills x and gx."""
    h4 = sweedler_bialgebra(field)
    return trivial_datum(h4, h4)


def h4_datum_with_bad_lact(field=PrimeField(5)) -> hp.ExtendingDatum:
    """The trivial H4 datum with g |> x = x changed to 2x."""
    d = h4_trivial_datum(field)
    lact = with_column(d.lact, 1 * 4 + 2, {2: field.of(2)})
    return hp.ExtendingDatum(d.base, d.ext, d.dot, d.ract, lact, d.cocycle)


def scaled_h4_trivial_datum() -> hp.ExtendingDatum:
    """The trivial datum of :func:`scaled_sweedler` acting on itself."""
    h4 = scaled_sweedler()
    return trivial_datum(h4, h4)


def scaled_h4_datum_with_bad_lact() -> hp.ExtendingDatum:
    """The scaled H4 datum with g/2 |> x/2 = (1/2) x/2 changed to (1/3) x/2."""
    d = scaled_h4_trivial_datum()
    lact = with_column(d.lact, 1 * 4 + 2, {2: QQ.of(1, 3)})
    return hp.ExtendingDatum(d.base, d.ext, d.dot, d.ract, lact, d.cocycle)


def h4_datum_with_c2_cocycle(field=QQ) -> hp.ExtendingDatum:
    """H = Sweedler's H4 over A = k[C2], both actions trivial and the dot the
    multiplication of H4, with the cocycle f(g, g) = s (the generator of C2)
    and f trivial elsewhere.  The datum is normalized and its maps are
    coalgebra maps, but it fails cocycle-symmetry, so it cannot be built."""
    h4 = sweedler_bialgebra(field)
    a = hp.group_algebra(hp.builtin_group("c2"), field)
    cocycle = with_column(trivial_cocycle(field, h4.coalgebra, a.unit, a.space),
                          1 * 4 + 1, {1: field.one})
    return hp.ExtendingDatum(base=a, ext=h4.unit_coalgebra(), dot=h4.mult,
                             ract=trivial_action_right(field, h4.space, a.coalgebra),
                             lact=trivial_action_left(field, h4.coalgebra, a.space),
                             cocycle=cocycle)


def z4_crossed_with_bad_cocycle() -> hp.CrossedDatum:
    """The Z4 crossed datum with f(1, 0) moved off the unit."""
    cd = z4_crossed_datum()
    return hp.CrossedDatum(cd.a, cd.h, cd.lact, with_column(cd.cocycle, 1 * 2 + 0, {1: QQ.one}))


# ---------------------------------------------------------------------------
# the classical product formulas, written without the twisted-product engine


def bicrossed_mult_direct(mp: hp.MatchedPair) -> LinMap:
    """The classical two-action multiplication, built without the engine:
    (a >< h)(c >< g) = a (h1 |> c1) >< (h2 <| c2) g."""
    a, h = mp.a, mp.h
    field = mp.field
    hc, ac = h.coalgebra, a.coalgebra
    bv = lambda i: basis_vec(field, i)
    adim, hdim = a.dim, h.dim
    space = tensor_space(a.space, h.space)
    cols = {}
    for ai in range(adim):
        for hi in range(hdim):
            for ci in range(adim):
                for gi in range(hdim):
                    out: dict = {}
                    for (h1, h2), ch in hc.expand(hi, 2):
                        for (c1, c2), cc in ac.expand(ci, 2):
                            left = a.mul(bv(ai), mp.lact.bilin(bv(h1), bv(c1), adim))
                            right = h.mul(mp.ract.bilin(bv(h2), bv(c2), adim), bv(gi))
                            vec_add_into(field, out,
                                         tensor_vec(field, left, right, hdim),
                                         field.mul(ch, cc))
                    if out:
                        cols[(ai * hdim + hi) * (adim * hdim) + ci * hdim + gi] = out
    return LinMap(field, tensor_space(space, space), space, cols)


def bicrossed_antipode_direct(mp: hp.MatchedPair, carrier: FDBialgebra) -> LinMap:
    """S(a >< h) = (1_A >< S_H(h)) (S_A(a) >< 1_H), evaluated in the carrier."""
    a, h = mp.a, mp.h
    if not isinstance(a, FDHopf) or not isinstance(h, FDHopf):
        raise ValueError("both factors must be Hopf algebras")
    field = mp.field
    bv = lambda i: basis_vec(field, i)
    hdim = h.dim
    cols = {}
    for ai in range(a.dim):
        for hi in range(hdim):
            left = tensor_vec(field, a.unit, h.antipode.apply(bv(hi)), hdim)
            right = tensor_vec(field, a.antipode.apply(bv(ai)), h.unit, hdim)
            col = carrier.mul(left, right)
            if col:
                cols[ai * hdim + hi] = col
    return LinMap(field, carrier.space, carrier.space, cols)


def crossed_mult_direct(cd: hp.CrossedDatum) -> LinMap:
    """The classical cocycle-twisted multiplication:
    (a # h)(c # g) = a (h1 |> c) f(h2, g1) # h3 g2."""
    a, h = cd.a, cd.h
    field = cd.field
    hc = h.coalgebra
    bv = lambda i: basis_vec(field, i)
    adim, hdim = a.dim, h.dim
    space = tensor_space(a.space, h.space)
    cols = {}
    for ai in range(adim):
        for hi in range(hdim):
            for ci in range(adim):
                for gi in range(hdim):
                    out: dict = {}
                    for (h1, h2, h3), ch in hc.expand(hi, 3):
                        for (g1, g2), cg in hc.expand(gi, 2):
                            left = a.mul(a.mul(bv(ai),
                                               cd.lact.bilin(bv(h1), bv(ci), adim)),
                                         cd.cocycle.bilin(bv(h2), bv(g1), hdim))
                            right = h.mul(bv(h3), bv(g2))
                            vec_add_into(field, out,
                                         tensor_vec(field, left, right, hdim),
                                         field.mul(ch, cg))
                    if out:
                        cols[(ai * hdim + hi) * (adim * hdim) + ci * hdim + gi] = out
    return LinMap(field, tensor_space(space, space), space, cols)


def product_projections(p: UnifiedProduct):
    """The projections a (x) h -> counit(h) a and a (x) h -> counit(a) h of
    the product space and its right H-coaction a (x) h -> a (x) h1 (x) h2, as
    composed maps."""
    d = p.datum
    a, h = d.base, d.ext
    ident_a, ident_h = LinMap.identity(d.field, a.space), LinMap.identity(d.field, h.space)
    return (tensor_map(ident_a, h.epsilon), tensor_map(a.epsilon, ident_h),
            tensor_map(ident_a, h.delta))


# ---------------------------------------------------------------------------
# the recovered datum and the antipode through composed maps and two systems


@dataclass
class RoundtripResult:
    ok: bool
    mismatch: str | None = None

    def __bool__(self):
        return self.ok


def roundtrip_check(d: ExtendingDatum) -> RoundtripResult:
    """Build the product of d, refactor it through its own inclusions, and
    compare the recovered datum with d component for component."""
    p = hp.build_unified_product(d)
    fi = hp.FactorizationInput.build(p.carrier, p.incl_base, p.incl_ext)
    mismatch = hp.recover_datum(fi).components_equal(d)
    return RoundtripResult(mismatch is None, mismatch)


def recover_datum_composed(fi) -> ExtendingDatum:
    """``factorization.recover_datum`` through the maps mu and nu and the
    composites ``(id (x) eps_H) . mu`` and so on, as its oracle."""
    u = hopfprod.factorization.mult_map(fi)
    try:
        u_inv = invert(u)
    except NotInvertibleError as exc:
        raise hp.NotAFactorizationError(exc.rank, exc.dim) from exc
    field = fi.ambient.field
    a, h = fi.base, fi.ext
    na, nh = a.dim, h.dim

    mu_cols = {}
    for i in range(nh):
        for j in range(na):
            col = u_inv.apply(fi.ambient.mul(fi.incl_h.col(i), fi.incl_a.col(j)))
            if col:
                mu_cols[i * na + j] = col
    mu = LinMap(field, tensor_space(h.space, a.space),
                tensor_space(a.space, h.space), mu_cols)

    nu_cols = {}
    for i in range(nh):
        for j in range(nh):
            col = u_inv.apply(fi.ambient.mul(fi.incl_h.col(i), fi.incl_h.col(j)))
            if col:
                nu_cols[i * nh + j] = col
    nu = LinMap(field, tensor_space(h.space, h.space),
                tensor_space(a.space, h.space), nu_cols)

    ident_a = LinMap.identity(field, a.space)
    ident_h = LinMap.identity(field, h.space)
    lact = compose(tensor_map(ident_a, h.epsilon), mu)
    ract = compose(tensor_map(a.epsilon, ident_h), mu)
    cocycle = compose(tensor_map(ident_a, h.epsilon), nu)
    dot = compose(tensor_map(a.epsilon, ident_h), nu)
    return ExtendingDatum(base=a, ext=h, dot=dot, ract=ract, lact=lact,
                          cocycle=cocycle)


def product_antipode(p: UnifiedProduct, s_h: LinMap) -> LinMap:
    """The antipode of the product by its closed formula, from the base
    antipode and a dot-inverse s_h on H:

        S(a (x) g) = sum (S_A f(S_H(g2), g3) (x) S_H(g1)) (S_A(a) (x) 1)

    Preconditions: the base is a Hopf algebra; ``s_h`` is a coalgebra
    antimap of H and a two-sided convolution inverse of the identity for
    the dot (h1 . s_h(h2) = s_h(h1) . h2 = counit(h) 1_H).  These are checked
    and violations are rejected by name.
    """
    d = p.datum
    a, h = d.base, d.ext
    if not isinstance(a, FDHopf):
        raise ValueError("base bialgebra has no antipode")
    field = d.field
    if not is_coalgebra_antimap(s_h, h.coalg, h.coalg):
        raise ValueError("s_h is not a coalgebra antimorphism")
    dot = FDAlgebra(field, h.space, d.dot, h.unit)
    ident = LinMap.identity(field, h.space)
    want = convolution_unit(h.coalg, dot)
    left = convolution(ident, s_h, h.coalg, dot)
    right = convolution(s_h, ident, h.coalg, dot)
    for i in range(h.dim):
        if not left.col(i) == right.col(i) == want.col(i):
            raise ValueError(f"s_h is not a two-sided dot inverse at {h.space.labels[i]}")
    ops = DatumOps(d)
    e = p.carrier
    nh = h.dim
    sa = a.antipode
    cols = {}
    for ai in range(a.dim):
        for gi in range(nh):
            w: dict = {}
            for (g1, g2, g3), c in h.coalg.expand(gi, 3):
                left = sa.apply(ops.coc(s_h.col(g2), g3))
                vec_add_into(field, w, tensor_vec(field, left, s_h.col(g1), nh), c)
            col = e.mul(w, tensor_vec(field, sa.col(ai), h.unit, nh))
            if col:
                cols[ai * nh + gi] = col
    return LinMap(field, e.space, e.space, cols)


def antipode_solve_two_systems(b: FDBialgebra) -> LinMap:
    """The antipode from the left and the right convolution system solved
    together, as the oracle of ``structures.antipode_solve``.  Raises
    :class:`NoAntipodeError` naming the inconsistent side, "two-sided" when
    each side alone is consistent."""
    field = b.field
    n = b.dim
    target = convolution_unit(b.coalgebra, b.algebra)

    def build(side: str):
        rows, rhs = [], []
        for k in range(n):
            want = target.col(k)
            out_rows = {}
            for (i, j), c in b.expand(k, 2):
                if side == "left":
                    # sum_t S[t,i] * c * mult((t,j) -> r)
                    for t in range(n):
                        for r, m in b.mult.cols.get(t * n + j, ()):
                            key = t * n + i
                            row = out_rows.setdefault(r, {})
                            row[key] = field.add(row.get(key, field.zero), field.mul(c, m))
                else:
                    for t in range(n):
                        for r, m in b.mult.cols.get(i * n + t, ()):
                            key = t * n + j
                            row = out_rows.setdefault(r, {})
                            row[key] = field.add(row.get(key, field.zero), field.mul(c, m))
            for r in set(out_rows) | set(want):
                rows.append(out_rows.get(r, {}))
                rhs.append(want.get(r, field.zero))
        return rows, rhs

    left_rows, left_rhs = build("left")
    right_rows, right_rhs = build("right")
    sol, _ = solve_system(field, left_rows + right_rows, left_rhs + right_rhs, n * n)
    if sol is None:
        if solve_system(field, left_rows, left_rhs, n * n)[0] is None:
            raise NoAntipodeError("left")
        if solve_system(field, right_rows, right_rhs, n * n)[0] is None:
            raise NoAntipodeError("right")
        raise NoAntipodeError("two-sided")
    cols: dict[int, dict] = {}
    for key, v in sol.items():
        t, i = divmod(key, n)
        cols.setdefault(i, {})[t] = v
    s = LinMap(field, b.space, b.space, cols)
    ident = LinMap.identity(field, b.space)
    if convolution(s, ident, b.coalgebra, b.algebra) != target:
        raise NoAntipodeError("left")
    if convolution(ident, s, b.coalgebra, b.algebra) != target:
        raise NoAntipodeError("right")
    return s


# ---------------------------------------------------------------------------
# the rows of the nine conditions that read memoized values, summed term by
# term over the full coproduct expansion of every tuple


LEG_ROWS = ("right-module", "twisted-associativity", "lact-multiplicative", "ract-dot-compat",
            "twisted-module", "cocycle-condition", "action-symmetry", "cocycle-symmetry")


def leg_rows_direct(d: ExtendingDatum) -> dict:
    """name -> holds(*tuple) for the rows of :data:`LEG_ROWS`, expanding
    Delta(g) (x) Delta^2(i) (x) Delta^2(j) afresh for every tuple and
    evaluating every map and product afresh; the engine memoizes the maps on
    basis pairs, collapses the sums that do not depend on g and shares
    them, and the products, between rows."""
    field = d.field
    a, h = d.base, d.ext
    ops = DatumOps(d)
    hc, ac = h.coalg, a.coalgebra
    mul2 = field.mul

    def right_module(g, i, j):
        return ops.ract(ops.ract(g, i), j) == ops.ract(g, ops.amul(i, j))

    def lact_multiplicative(g, i, j):
        """g |> i j = sum (g1 |> i1) ((g2 <| i2) |> j)"""
        lhs = ops.lact(g, ops.amul(i, j))
        rhs: dict = {}
        for (g1, g2), cg in hc.expand(g, 2):
            for (i1, i2), ci in ac.expand(i, 2):
                term = ops.amul(ops.lact(g1, i1), ops.lact(ops.ract(g2, i2), j))
                vec_add_into(field, rhs, term, mul2(cg, ci))
        return lhs == rhs

    def h_leg(act, twist, jc):
        """twist(g . i, j) = sum (g <| act(i1, j1)) . twist(i2, j2)"""
        def holds(g, i, j):
            lhs = twist(ops.dot(g, i), j)
            rhs: dict = {}
            for (i1, i2), ci in hc.expand(i, 2):
                for (j1, j2), cj in jc.expand(j, 2):
                    term = ops.dot(ops.ract(g, act(i1, j1)), twist(i2, j2))
                    vec_add_into(field, rhs, term, mul2(ci, cj))
            return lhs == rhs
        return holds

    def flip(left, right, jc):
        """sum left(g1, j1) (x) right(g2, j2) = sum left(g2, j2) (x) right(g1, j1)"""
        def holds(g, j):
            lhs: dict = {}
            rhs: dict = {}
            for (g1, g2), cg in hc.expand(g, 2):
                for (j1, j2), cj in jc.expand(j, 2):
                    c = mul2(cg, cj)
                    vec_add_into(field, lhs, tensor_vec(field, left(g1, j1), right(g2, j2),
                                                        a.dim), c)
                    vec_add_into(field, rhs, tensor_vec(field, left(g2, j2), right(g1, j1),
                                                        a.dim), c)
            return lhs == rhs
        return holds

    def a_leg(act, twist, jc):
        """sum (g1 |> act(i1, j1)) f(g2 <| act(i2, j2), twist(i3, j3))
        = sum f(g1, i1) act(g2 . i2, j)"""
        def holds(g, i, j):
            lhs: dict = {}
            for (g1, g2), cg in hc.expand(g, 2):
                for (i1, i2, i3), ci in hc.expand(i, 3):
                    for (j1, j2, j3), cj in jc.expand(j, 3):
                        term = ops.amul(
                            ops.lact(g1, act(i1, j1)),
                            ops.coc(ops.ract(g2, act(i2, j2)), twist(i3, j3)),
                        )
                        vec_add_into(field, lhs, term, mul2(cg, mul2(ci, cj)))
            rhs: dict = {}
            for (g1, g2), cg in hc.expand(g, 2):
                for (i1, i2), ci in hc.expand(i, 2):
                    term = ops.amul(ops.coc(g1, i1), act(ops.dot(g2, i2), j))
                    vec_add_into(field, rhs, term, mul2(cg, ci))
            return lhs == rhs
        return holds

    return {
        "right-module": right_module,
        "twisted-associativity": h_leg(ops.coc, ops.dot, hc),
        "lact-multiplicative": lact_multiplicative,
        "ract-dot-compat": h_leg(ops.lact, ops.ract, ac),
        "twisted-module": a_leg(ops.lact, ops.ract, ac),
        "cocycle-condition": a_leg(ops.coc, ops.dot, hc),
        "action-symmetry": flip(ops.ract, ops.lact, ac),
        "cocycle-symmetry": flip(ops.dot, ops.coc, hc),
    }


def assemble_product_direct(d: ExtendingDatum) -> FDBialgebra:
    """The product carrier with the legs h1 |> c1, f(h2 <| c2, g1) and
    (h3 <| c3) . g2 evaluated afresh for every term of
    Delta^2(h) (x) Delta^2(c) (x) Delta(g), and each column the sum of
    (e_a L) C (x) R over them: the oracle of ``unified.assemble_product``,
    which collapses the sum once per (h, c)."""
    field = d.field
    a, h = d.base, d.ext
    ops = DatumOps(d)
    hc, ac = h.coalg, a.coalgebra
    na, nh = a.dim, h.dim
    space = tensor_space(a.space, h.space)
    mul = field.mul
    cols = {}
    for hi, ci, gi in iproduct(range(nh), range(na), range(nh)):
        terms = []
        for (h1, h2, h3), ch in hc.expand(hi, 3):
            for (c1, c2, c3), cc in ac.expand(ci, 3):
                for (g1, g2), cg in hc.expand(gi, 2):
                    terms.append((ops.lact(h1, c1),
                                  ops.coc(ops.ract(h2, c2), g1),
                                  ops.dot(ops.ract(h3, c3), g2),
                                  mul(ch, mul(cc, cg))))
        for ai in range(na):
            col: dict = {}
            for left, coc, right, c in terms:
                vec_add_into(field, col,
                             tensor_vec(field, ops.amul(ops.amul(ai, left), coc), right, nh), c)
            if col:
                cols[(ai * nh + hi) * (na * nh) + (ci * nh + gi)] = col
    mult = LinMap(field, tensor_space(space, space), space, cols)
    unit = tensor_vec(field, a.unit, h.unit, nh)
    coalg = FDCoalgebra(field, space, oracle_tensor_coalgebra_delta(ac, hc),
                        tensor_map(ac.epsilon, hc.epsilon))
    return FDBialgebra(coalg, FDAlgebra(field, space, mult, unit, associative="yes"))


# ---------------------------------------------------------------------------
# the mixed-product identities of the twisted product, re-derived on the
# assembled carrier


def mixed_relations(d: ExtendingDatum, e: FDBialgebra) -> Report:
    """Products against unit components collapse to short forms; verify them."""
    field = d.field
    a, h = d.base, d.ext
    ops = DatumOps(d)
    hc, ac = h.coalg, a.coalgebra
    bv = lambda i: basis_vec(field, i)
    one_h, one_a = h.unit, a.unit
    nh = h.dim
    rep = Report("mixed products")
    hl, al = h.space.labels, a.space.labels
    hr, ar = range(h.dim), range(a.dim)

    def left_base(ai, ci, gi):
        got = e.mul(tensor_vec(field, bv(ai), one_h, nh),
                    tensor_vec(field, bv(ci), bv(gi), nh))
        return got == tensor_vec(field, a.mul(bv(ai), bv(ci)), bv(gi), nh)

    _scan(rep, "mixed-left-base", iproduct(ar, ar, hr), left_base, _tuple_label(al, al, hl))

    def against_ext(ai, gi, hi):
        got = e.mul(tensor_vec(field, bv(ai), bv(gi), nh),
                    tensor_vec(field, one_a, bv(hi), nh))
        want: dict = {}
        for (g1, g2), cg in hc.expand(gi, 2):
            for (h1, h2), ch in hc.expand(hi, 2):
                term = tensor_vec(field,
                                  a.mul(bv(ai), ops.coc(bv(g1), bv(h1))),
                                  ops.dot(bv(g2), bv(h2)), nh)
                vec_add_into(field, want, term, field.mul(cg, ch))
        return got == want

    _scan(rep, "mixed-cocycle", iproduct(ar, hr, hr), against_ext, _tuple_label(al, hl, hl))

    def against_base(ai, gi, bi):
        got = e.mul(tensor_vec(field, bv(ai), bv(gi), nh),
                    tensor_vec(field, bv(bi), one_h, nh))
        want: dict = {}
        for (g1, g2), cg in hc.expand(gi, 2):
            for (b1, b2), cb in ac.expand(bi, 2):
                term = tensor_vec(field,
                                  a.mul(bv(ai), ops.lact(bv(g1), bv(b1))),
                                  ops.ract(bv(g2), bv(b2)), nh)
                vec_add_into(field, want, term, field.mul(cg, cb))
        return got == want

    _scan(rep, "mixed-actions", iproduct(ar, hr, ar), against_base,
          _tuple_label(al, hl, al))

    def generator(ai, gi):
        got = e.mul(tensor_vec(field, bv(ai), one_h, nh),
                    tensor_vec(field, one_a, bv(gi), nh))
        return got == tensor_vec(field, bv(ai), bv(gi), nh)

    _scan(rep, "generator-identity", iproduct(ar, hr), generator, _tuple_label(al, hl))
    return rep


def assert_mixed_relations(d: ExtendingDatum, e: FDBialgebra) -> None:
    rep = mixed_relations(d, e)
    assert rep.ok, f"mixed-product identities failed: {rep.first_failure()}"


def check_mixed_relations_on_every_build(monkeypatch) -> None:
    """Hold every product that ``unified_product_of_checked`` builds from
    now on against :func:`mixed_relations`."""
    build = hopfprod.unified.unified_product_of_checked

    def checked(d):
        p = build(d)
        assert_mixed_relations(d, p.carrier)
        return p

    monkeypatch.setattr(hopfprod.unified, "unified_product_of_checked", checked)


# ---------------------------------------------------------------------------
# the checks the library does not repeat at run time, held on every call


def certificate_rows_composed(d: ExtendingDatum, d2: ExtendingDatum, u, prod: FDBialgebra,
                              prod2: FDBialgebra):
    """The rows ``classification._certify`` adds, with ``phi`` and ``psi``
    composed from a (x) h -> a u(h1) (x) h2 and a (x) h -> a S(u(h1)) (x) h2
    and the module, comodule and bijectivity identities checked on composed
    maps.  Returns the rows, phi and psi."""
    field = d.field
    a, h = d.base, d.ext
    ident_a, ident_h = LinMap.identity(field, a.space), LinMap.identity(field, h.space)
    split = tensor_map(ident_a, h.delta)

    def twisted_by(v: LinMap) -> LinMap:
        return compose(tensor_map(a.mult, ident_h),
                       compose(tensor_map(tensor_map(ident_a, v), ident_h), split))

    phi = twisted_by(u.linmap)
    psi = twisted_by(compose(a.antipode, u.linmap))
    ident_e2 = LinMap.identity(field, prod2.space)
    lhs = compose(phi, compose(prod2.mult,
                               tensor_map(_base_inclusion(d2, prod2.space), ident_e2)))
    rhs = compose(prod.mult, tensor_map(_base_inclusion(d, prod.space), phi))
    ident_full = LinMap.identity(field, prod.space)
    rows = [
        ("phi-algebra-map", oracle_is_algebra_map(phi, prod2.algebra, prod.algebra), None),
        ("phi-coalgebra-map", oracle_is_coalgebra_map(phi, prod2.coalgebra, prod.coalgebra),
         None),
        ("phi-left-module", lhs == rhs, None),
        ("phi-right-comodule",
         compose(split, phi) == compose(tensor_map(phi, ident_h), split), None),
        ("phi-bijective",
         compose(phi, psi) == ident_full and compose(psi, phi) == ident_full, None),
    ]
    return rows, phi, psi


def deform_datum_direct(d: ExtendingDatum, u) -> ExtendingDatum:
    """The deformation of d by the lazy cocycle u from the hand-expanded
    formulas, evaluated at basis elements h, g of H and c of A, with S the
    antipode of A and products in A taken from the left:

        h |>' c  = u(h1) (h2 |> c1) S(u(h3 <| c2))
        h .' g   = (h <| u(g1)) . g2
        f'(h, g) = u(h1) (h2 |> u(g1)) f(h3 <| u(g2), g3) S(u(h4 .' g4))

    Each term expands delta^3(h) (x) delta^2(c), or delta^4(h) (x)
    delta^4(g), in full; the factors of f' are computed once per tuple of
    legs they read.  This is the oracle of ``classification.deform_datum``,
    which convolves maps over tensor-product coalgebras instead."""
    a, h, field = d.base, d.ext, d.field
    ops, hc, ac = DatumOps(d), h.coalg, a.coalgebra
    uc = u.linmap.col
    su = lambda v: a.antipode.apply(u.linmap.apply(v))

    def lact(hi, ci):
        out: dict = {}
        for (h1, h2, h3), ch in hc.expand(hi, 3):
            for (c1, c2), cc in ac.expand(ci, 2):
                term = ops.amul(ops.amul(uc(h1), ops.lact(h2, c1)), su(ops.ract(h3, c2)))
                vec_add_into(field, out, term, field.mul(ch, cc))
        return out

    def dot(hi, gi):
        out: dict = {}
        for (g1, g2), cg in hc.expand(gi, 2):
            vec_add_into(field, out, ops.dot(ops.ract(hi, uc(g1)), g2), cg)
        return out

    hr, ar = range(h.dim), range(a.dim)
    new_dot = LinMap(field, d.dot.domain, h.space,
                     {hi * h.dim + gi: dot(hi, gi) for hi in hr for gi in hr})

    @functools.cache
    def head(h1, h2, g1):
        return ops.amul(uc(h1), ops.lact(h2, uc(g1)))

    @functools.cache
    def middle(h3, g2, g3):
        return ops.coc(ops.ract(h3, uc(g2)), g3)

    @functools.cache
    def last(h4, g4):
        return su(bilin_direct(new_dot, h4, g4, h.dim))

    def cocycle(hi, gi):
        out: dict = {}
        for (h1, h2, h3, h4), ch in hc.expand(hi, 4):
            for (g1, g2, g3, g4), cg in hc.expand(gi, 4):
                term = ops.amul(ops.amul(head(h1, h2, g1), middle(h3, g2, g3)), last(h4, g4))
                vec_add_into(field, out, term, field.mul(ch, cg))
        return out

    return ExtendingDatum(
        base=a, ext=h, dot=new_dot, ract=d.ract,
        lact=LinMap(field, d.lact.domain, a.space,
                    {hi * a.dim + ci: lact(hi, ci) for hi in hr for ci in ar}),
        cocycle=LinMap(field, d.cocycle.domain, a.space,
                       {hi * h.dim + gi: cocycle(hi, gi) for hi in hr for gi in hr}))


def quotient_classes_pairwise(data: list[ExtendingDatum], assemble,
                              certify) -> list[list[int]]:
    """The partition of ``classification.quotient_classes`` from the relation
    itself: i ~ j when, for some enumerated cocycle u, the rows and the
    certificate of ``check_equivalence(data[i], data[j], u)`` pass, on
    products built by ``assemble`` and certified by ``certify``.  Every
    ordered pair meets every cocycle, reflexivity, symmetry and transitivity
    are asserted on the whole relation, and each class is the row of its
    least member."""
    if not data:
        return []
    cocycles = hopfprod.classification.enumerate_cocycles(data[0].ext, data[0].base)
    products = [assemble(d) for d in data]
    n = len(data)

    def equivalent(i, j, u):
        rep = hopfprod.classification._deformation_report(data[i], data[j], u)
        return rep.ok and certify(rep, data[i], data[j], u, products[i], products[j]).ok

    related = [[any(equivalent(i, j, u) for u in cocycles) for j in range(n)]
               for i in range(n)]
    for i, j, k in iproduct(range(n), repeat=3):
        assert related[i][i], f"equivalence relation is not reflexive at {i}"
        assert related[i][j] == related[j][i], f"not symmetric at {(i, j)}"
        assert not (related[i][j] and related[j][k]) or related[i][k], \
            f"not transitive at {(i, j, k)}"
    classes, seen = [], set()
    for i in range(n):
        if i not in seen:
            classes.append([j for j in range(n) if related[i][j]])
            seen.update(classes[-1])
    return classes


def cocycle_triviality_direct(mp: hp.MatchedPair, u):
    """The "cocycle-triviality" row of ``check_bicrossed_equivalence`` from
    the hand-written formula u(h1) (h2 |> u(g1)) S(u(h3 g2)) = eps(h) eps(g) 1_A.
    It is the deformed cocycle of the matched pair's datum collapsed by
    h <| u(g) = eps(g) h, so it agrees with the library whenever the right
    action kills u.  Returns (passed, witness)."""
    a, h, field = mp.a, mp.h, mp.field
    hc, sa, um = h.coalgebra, a.antipode, u.linmap
    eps = [hc.counit({i: field.one}) for i in range(h.dim)]

    def holds(hi, gi):
        got: dict = {}
        for (h1, h2, h3), ch in hc.expand(hi, 3):
            for (g1, g2), cg in hc.expand(gi, 2):
                term = a.mul(a.mul(um.col(h1), mp.lact.bilin(h2, um.col(g1), a.dim)),
                             sa.apply(um.apply(h.mul(h3, g2))))
                vec_add_into(field, got, term, field.mul(ch, cg))
        return got == vec_scale(field, field.mul(eps[hi], eps[gi]), a.unit)

    rep = Report()
    _scan(rep, "cocycle-triviality", iproduct(range(h.dim), repeat=2), holds,
          _tuple_label(h.space.labels, h.space.labels))
    return rep.items[0].passed, rep.items[0].witness


def assert_bicrossed_report_agrees(mp: hp.MatchedPair, u, rep: Report):
    """Hold a ``check_bicrossed_equivalence`` report against
    :func:`cocycle_triviality_direct`: the same verdict always, and the same
    "cocycle-triviality" row whenever "ract-kills-cocycle" passes.  Returns
    (ract-kills-cocycle passed, direct verdict), or None for a report that
    stopped at unequal right actions."""
    rows = {it.condition: (it.passed, it.witness) for it in rep.items}
    if "cocycle-triviality" not in rows:
        return None
    want = cocycle_triviality_direct(mp, u)
    others = [it.passed for it in rep.items if it.condition != "cocycle-triviality"]
    assert rep.ok == (all(others) and want[0]), "verdict differs from the direct formula"
    kills = rows["ract-kills-cocycle"][0]
    if kills:
        assert rows["cocycle-triviality"] == want, \
            f"cocycle-triviality differs from the direct formula ({want!r})"
    return kills, want[0]


def crossed_rows_direct(cd: hp.CrossedDatum) -> list:
    """The rows "lact-multiplicative", "twisted-module", "cocycle-condition"
    and "lact-symmetry" of ``check_crossed`` from the hand-written crossed
    formulas, as (condition, passed, witness):

        g |> (i j)                     = (g1 |> i) (g2 |> j)
        (g1 |> (i1 |> j)) f(g2, i2)    = f(g1, i1) ((g2 i2) |> j)
        (g1 |> f(i1, j1)) f(g2, i2 j2) = f(g1, i1) f(g2 i2, j)
        g1 (x) (g2 |> j)               = g2 (x) (g1 |> j)

    They are the engine's conditions on the induced datum collapsed by its
    trivial right action and the counit laws, so they agree with the library
    whenever both factors are coalgebras and the left action and the cocycle
    preserve counits."""
    a, h, field = cd.a, cd.h, cd.field
    hc, adim = h.coalgebra, a.dim
    lact = lambda x, y: cd.lact.bilin(x, y, adim)
    coc = lambda x, y: cd.cocycle.bilin(x, y, h.dim)

    def lact_multiplicative(g, i, j):
        rhs: dict = {}
        for (g1, g2), cg in hc.expand(g, 2):
            vec_add_into(field, rhs, a.mul(lact(g1, i), lact(g2, j)), cg)
        return lact(g, a.mul(i, j)) == rhs

    def twisted_module(g, i, j):
        lhs: dict = {}
        rhs: dict = {}
        for (g1, g2), cg in hc.expand(g, 2):
            for (i1, i2), ci in hc.expand(i, 2):
                c = field.mul(cg, ci)
                vec_add_into(field, lhs, a.mul(lact(g1, lact(i1, j)), coc(g2, i2)), c)
                vec_add_into(field, rhs, a.mul(coc(g1, i1), lact(h.mul(g2, i2), j)), c)
        return lhs == rhs

    def cocycle_condition(g, i, j):
        lhs: dict = {}
        rhs: dict = {}
        for (g1, g2), cg in hc.expand(g, 2):
            for (i1, i2), ci in hc.expand(i, 2):
                for (j1, j2), cj in hc.expand(j, 2):
                    vec_add_into(field, lhs, a.mul(lact(g1, coc(i1, j1)),
                                                   coc(g2, h.mul(i2, j2))),
                                 field.mul(cg, field.mul(ci, cj)))
                vec_add_into(field, rhs, a.mul(coc(g1, i1), coc(h.mul(g2, i2), j)),
                             field.mul(cg, ci))
        return lhs == rhs

    def lact_symmetry(g, j):
        lhs: dict = {}
        rhs: dict = {}
        for (g1, g2), cg in hc.expand(g, 2):
            vec_add_into(field, lhs, tensor_vec(field, basis_vec(field, g1), lact(g2, j), adim), cg)
            vec_add_into(field, rhs, tensor_vec(field, basis_vec(field, g2), lact(g1, j), adim), cg)
        return lhs == rhs

    hl, al = h.space.labels, a.space.labels
    hr, ar = range(h.dim), range(adim)
    rep = Report()
    _scan(rep, "lact-multiplicative", iproduct(hr, ar, ar), lact_multiplicative,
          _tuple_label(hl, al, al))
    _scan(rep, "twisted-module", iproduct(hr, hr, ar), twisted_module, _tuple_label(hl, hl, al))
    _scan(rep, "cocycle-condition", iproduct(hr, hr, hr), cocycle_condition,
          _tuple_label(hl, hl, hl))
    _scan(rep, "lact-symmetry", iproduct(hr, ar), lact_symmetry, _tuple_label(hl, al))
    return [(it.condition, it.passed, it.witness) for it in rep.items]


def left_module_law_direct(mp: hp.MatchedPair) -> list:
    """The "left-module-law" row of ``check_matched_pair`` from the
    hand-written law (g i) |> j = g |> (i |> j), as a one-row list of
    (condition, passed, witness).  It is the engine's twisted-module
    condition collapsed by the trivial cocycle, the counit laws and the unit
    law of A, so it agrees with the library whenever both factors are
    coalgebras, A is unital and both actions preserve counits."""
    a, h = mp.a, mp.h
    lact = lambda x, y: mp.lact.bilin(x, y, a.dim)
    rep = Report()
    _scan(rep, "left-module-law", iproduct(range(h.dim), range(h.dim), range(a.dim)),
          lambda g, i, j: lact(h.mul(g, i), j) == lact(g, lact(i, j)),
          _tuple_label(h.space.labels, h.space.labels, a.space.labels))
    return [(it.condition, it.passed, it.witness) for it in rep.items]


def assert_classical_report_agrees(a: FDBialgebra, h: FDBialgebra, rep: Report,
                                   direct: list) -> bool:
    """Hold a ``check_crossed`` or ``check_matched_pair`` report against the
    hand-written rows ``direct`` it evaluates through the engine.  The two
    agree when both factors pass ``check_coalgebra``, A passes
    ``check_algebra`` and every "*-coalgebra-map" row passes, since the
    engine's rows collapse to the hand-written ones by the counit laws, the
    unit law of A and the counits the maps preserve.  With the factors
    sound, the verdict is then also the one the hand-written rows give.
    Returns whether the rows are identical."""
    rows = [(it.condition, it.passed, it.witness) for it in rep.items]
    names = {row[0] for row in direct}
    same = [row for row in rows if row[0] in names] == direct
    if not (check_coalgebra(a.coalgebra).ok and check_coalgebra(h.coalgebra).ok
            and check_algebra(a.algebra).ok):
        return same
    others = [row[1] for row in rows if row[0] not in names]
    assert rep.ok == all(others + [row[1] for row in direct]), \
        "verdict differs from the hand-written formulas"
    if all(row[1] for row in rows if row[0].endswith("-coalgebra-map")):
        assert same, f"rows differ from the hand-written formulas ({direct!r})"
    return same


def rebind_everywhere(monkeypatch, original, replacement) -> None:
    """Put ``replacement`` under every loaded module name bound to
    ``original``, so that calls through any import of it reach the wrapper."""
    name = original.__name__
    for module in list(sys.modules.values()):
        if getattr(module, "__dict__", {}).get(name) is original:
            monkeypatch.setattr(module, name, replacement)


def check_library_claims_on_every_call(monkeypatch) -> None:
    """From now on hold every cocycle product and inverse against
    ``is_lazy_cocycle``, every cocycle a matched pair is deformed by against
    it too, every coset split against ``check_group_structure`` and the same
    rows of :func:`check_group_structure_direct`, the rows
    of every equivalence certificate against :func:`certificate_rows_composed`,
    every partition into classes against :func:`quotient_classes_pairwise`,
    every matched-pair equivalence against :func:`assert_bicrossed_report_agrees`,
    every crossed-datum and matched-pair check against the hand-written rows
    of :func:`crossed_rows_direct` and :func:`left_module_law_direct`,
    every deformed datum against :func:`deform_datum_direct`,
    every recovered datum against :func:`recover_datum_composed`, every
    solved antipode, or the side a failure names, against
    :func:`antipode_solve_two_systems`, every product antipode solved on
    1 (x) H against ``antipode_solve`` of the carrier (the same map, or the
    same side of :class:`NoAntipodeError`), every assembled product
    carrier against :func:`assemble_product_direct`, every convolution
    against :func:`convolution_direct`, every composite against
    :func:`dense_compose_direct`, every map built by the unchecked
    ``LinMap._of`` against the same columns through the checking
    ``LinMap(...)``: equal ``cols``, and equal ``points`` where given, and
    every index table built by ``LinMap._from_points`` against its points
    through ``LinMap(...)``: equal ``cols`` and ``points``, or the same
    :class:`DimensionError`."""
    cls = hopfprod.classification
    convolve, inverse, certify = cls.cocycle_convolve, cls.cocycle_inverse, cls._certify
    quotient = cls.quotient_classes
    deform, deform_pair = cls.deform_datum, hopfprod.special.deform_matched_pair
    split = hopfprod.groups.coset_extending_structure
    bicrossed = hopfprod.special.check_bicrossed_equivalence
    crossed, matched = hopfprod.special.check_crossed, hopfprod.special.check_matched_pair
    recover = hopfprod.factorization.recover_datum
    antipode = hopfprod.structures.antipode_solve
    solve_product = hopfprod.unified.solve_product_antipode
    assemble = hopfprod.unified.assemble_product
    convolve_maps, compose_maps = hopfprod.structures.convolution, hopfprod.linalg.compose
    unchecked, unread = LinMap._of.__func__, hopfprod.linalg._UNREAD
    # read as LinMap.points was when the check began, should a test patch it
    from_points, points_of = LinMap._from_points.__func__, LinMap.points.fget

    def assert_lazy(u):
        assert cls.is_lazy_cocycle(u.linmap, u.ext, u.base), "not a lazy cocycle"

    def returns_lazy(op):
        def checked(*args):
            w = op(*args)
            assert_lazy(w)
            return w
        return checked

    def checked_deform_pair(mp, u):
        d = deform_pair(mp, u)
        assert_lazy(u)
        return d

    @functools.wraps(deform)
    def checked_deform(d, u):
        e = deform(d, u)
        mismatch = e.components_equal(deform_datum_direct(d, u))
        assert mismatch is None, f"deformed {mismatch} differs from the hand-expanded formulas"
        return e

    def checked_split(*args, **kwargs):
        ges = split(*args, **kwargs)
        report = hopfprod.groups.check_group_structure(ges)
        assert report.ok, f"coset split fails {report.first_failure()}"
        assert report.items == check_group_structure_direct(ges).items
        return ges

    @functools.wraps(certify)
    def checked_certify(rep, d, d2, u, prod, prod2):
        start = len(rep.items)
        result = certify(rep, d, d2, u, prod, prod2)
        rows, phi, psi = certificate_rows_composed(d, d2, u, prod, prod2)
        assert [(it.condition, it.passed, it.witness) for it in rep.items[start:]] == rows
        if result.certificate is not None:
            assert (result.certificate.phi, result.certificate.psi) == (phi, psi)
        return result

    @functools.wraps(quotient)
    def checked_quotient(data):
        classes = quotient(data)
        want = quotient_classes_pairwise(data, assemble, certify)
        assert classes == want, f"classes differ from the pairwise relation ({want!r})"
        return classes

    def checked_bicrossed(mp, mp2, u):
        rep = bicrossed(mp, mp2, u)
        assert_bicrossed_report_agrees(mp, u, rep)
        return rep

    def checked_crossed(cd):
        rep = crossed(cd)
        assert_classical_report_agrees(cd.a, cd.h, rep, crossed_rows_direct(cd))
        return rep

    def checked_matched(mp):
        rep = matched(mp)
        assert_classical_report_agrees(mp.a, mp.h, rep, left_module_law_direct(mp))
        return rep

    def checked_recover(fi):
        d = recover(fi)
        mismatch = d.components_equal(recover_datum_composed(fi))
        assert mismatch is None, f"recovered {mismatch} differs from the composed oracle"
        return d

    def checked_antipode(b):
        try:
            want = antipode_solve_two_systems(b)
        except NoAntipodeError as exc:
            want = exc.side
        try:
            s = antipode(b)
        except NoAntipodeError as exc:
            assert exc.side == want, f"no {exc.side} inverse, the oracle gives {want!r}"
            raise
        assert s == want, f"antipode differs from the two-system oracle ({want!r})"
        return s

    @functools.wraps(solve_product)
    def checked_solve_product(p):
        try:
            want = antipode(p.carrier)
        except NoAntipodeError as exc:
            want = exc.side
        try:
            s = solve_product(p)
        except NoAntipodeError as exc:
            assert exc.side == want, f"no {exc.side} inverse, the full solve gives {want!r}"
            raise
        assert s == want, f"product antipode differs from the full solve ({want!r})"
        return s

    @functools.wraps(assemble)
    def checked_assemble(d):
        carrier = assemble(d)
        want = assemble_product_direct(d)
        assert carrier.mult == want.mult, "product differs from the direct loop"
        assert carrier.unit == want.unit and carrier.coalgebra == want.coalgebra
        return carrier

    @functools.wraps(convolve_maps)
    def checked_convolution(f, g, src, dst):
        w = convolve_maps(f, g, src, dst)
        want = convolution_direct(f, g, src, dst)
        assert w == want, f"convolution differs from the composed maps ({want!r})"
        return w

    @functools.wraps(compose_maps)
    def checked_compose(f, g):
        fg = compose_maps(f, g)
        assert dense_from_linmap(fg) == dense_compose_direct(f, g), \
            "composite differs from the dense product"
        assert (fg.domain, fg.codomain) == (g.domain, f.codomain)
        return fg

    def checked_of(owner, field, domain, codomain, cols, points=unread):
        m = unchecked(owner, field, domain, codomain, cols, points)
        try:
            want = LinMap(field, domain, codomain, cols)
        except ValueError as exc:  # DimensionError included
            raise AssertionError(f"LinMap(...) refuses the unchecked columns: {exc}") from exc
        assert m.cols == want.cols, "unchecked columns are not in stored form"
        if points is not unread:
            assert points == points_of(want), \
                f"points {points!r} differ from {points_of(want)!r}"
        return m

    def checked_from_points(owner, field, domain, codomain, points):
        points = tuple(points)
        try:
            want = LinMap(field, domain, codomain,
                          {i: {j: field.one} for i, j in enumerate(points)})
        except DimensionError as exc:
            want = exc
        try:
            m = from_points(owner, field, domain, codomain, points)
        except DimensionError as exc:
            # a wrong count raises, whatever LinMap(...) makes of the points
            assert len(points) != domain.dim or str(exc) == str(want), \
                f"{exc} where LinMap(...) gives {want!r}"
            raise
        assert len(points) == domain.dim, "a wrong count of points was accepted"
        assert not isinstance(want, DimensionError), f"accepted where LinMap(...) gives {want!r}"
        assert m.cols == want.cols, "the table's columns differ from LinMap(...)"
        assert m._points == points == points_of(want)
        return m

    monkeypatch.setattr(LinMap, "_of", classmethod(checked_of))
    monkeypatch.setattr(LinMap, "_from_points", classmethod(checked_from_points))
    for original, replacement in ((convolve, returns_lazy(convolve)),
                                  (inverse, returns_lazy(inverse)),
                                  (deform_pair, checked_deform_pair), (deform, checked_deform),
                                  (split, checked_split),
                                  (certify, checked_certify), (quotient, checked_quotient),
                                  (bicrossed, checked_bicrossed),
                                  (crossed, checked_crossed), (matched, checked_matched),
                                  (recover, checked_recover),
                                  (antipode, checked_antipode),
                                  (solve_product, checked_solve_product),
                                  (assemble, checked_assemble),
                                  (convolve_maps, checked_convolution),
                                  (compose_maps, checked_compose)):
        rebind_everywhere(monkeypatch, original, replacement)
