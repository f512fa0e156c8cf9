"""Bicrossed and crossed products as special cases of the twisted product.

A matched pair of bialgebras (mutual coalgebra actions satisfying the four
compatibility laws) embeds as an extending datum with trivial cocycle; a
crossed datum (left action plus cocycle) embeds with trivial right action.
Both products are built through the one twisted-product engine, while the
classical direct multiplication formulas are kept alive as independent
cross-check paths and compared entry for entry on every build.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .classification import LazyCocycle, _scan_ract_kills, deform_datum, is_lazy_cocycle
from .fields import same_field
from .linalg import LinMap, basis_vec, tensor_space, tensor_vec, vec_add_into, vec_scale
from .reports import Report
from .structures import (
    FDBialgebra,
    FDHopf,
    _scan,
    _tuple_label,
    antipode_solve,
    is_coalgebra_map,
    tensor_coalgebra,
    trivial_action_left,
    trivial_action_right,
    trivial_cocycle,
)
from .unified import (
    DatumConditionError,
    ExtendingDatum,
    UnifiedProduct,
    build_unified_product,
)


@dataclass
class MatchedPair:
    """Two bialgebras with mutual coalgebra actions ract, lact."""

    a: FDBialgebra
    h: FDBialgebra
    ract: LinMap
    lact: LinMap

    def __post_init__(self):
        same_field(self.a, self.h, self.ract, self.lact)

    @property
    def field(self):
        return self.a.field


def check_matched_pair(mp: MatchedPair) -> Report:
    """Module-coalgebra axioms and the four mutual-action compatibilities."""
    a, h = mp.a, mp.h
    field = mp.field
    hc, ac = h.coalgebra, a.coalgebra
    bv = lambda i: basis_vec(field, i)
    adim, hdim = a.dim, h.dim
    hl, al = h.space.labels, a.space.labels
    hr, ar = range(hdim), range(adim)
    rep = Report("matched pair")

    ha = tensor_coalgebra(hc, ac)
    rep.add("ract-coalgebra-map", is_coalgebra_map(mp.ract, ha, hc))
    rep.add("lact-coalgebra-map", is_coalgebra_map(mp.lact, ha, ac))

    ract = lambda hv, av: mp.ract.bilin(hv, av, adim)
    lact = lambda hv, av: mp.lact.bilin(hv, av, adim)

    _scan(rep, "left-module-unit", iproduct(ar),
          lambda j: lact(h.unit, bv(j)) == bv(j), _tuple_label(al))
    _scan(rep, "left-module-law", iproduct(hr, hr, ar),
          lambda g, i, j: lact(h.mul(bv(g), bv(i)), bv(j))
          == lact(bv(g), lact(bv(i), bv(j))), _tuple_label(hl, hl, al))
    _scan(rep, "right-module-unit", iproduct(hr),
          lambda g: ract(bv(g), a.unit) == bv(g), _tuple_label(hl))
    _scan(rep, "right-module-law", iproduct(hr, ar, ar),
          lambda g, i, j: ract(ract(bv(g), bv(i)), bv(j))
          == ract(bv(g), a.mul(bv(i), bv(j))), _tuple_label(hl, al, al))

    def unit_normalization(g, j):
        eps_a = a.counit(bv(j))
        eps_h = hc.counit(bv(g))
        return (ract(h.unit, bv(j)) == vec_scale(field, eps_a, h.unit)
                and lact(bv(g), a.unit) == vec_scale(field, eps_h, a.unit))

    _scan(rep, "unit-normalization", iproduct(hr, ar), unit_normalization,
          _tuple_label(hl, al))

    def lact_multiplicative(g, i, j):
        lhs = lact(bv(g), a.mul(bv(i), bv(j)))
        rhs: dict = {}
        for (g1, g2), cg in hc.expand(g, 2):
            for (i1, i2), ci in ac.expand(i, 2):
                term = a.mul(lact(bv(g1), bv(i1)),
                             lact(ract(bv(g2), bv(i2)), bv(j)))
                vec_add_into(field, rhs, term, field.mul(cg, ci))
        return lhs == rhs

    _scan(rep, "lact-multiplicative", iproduct(hr, ar, ar), lact_multiplicative,
          _tuple_label(hl, al, al))

    def ract_multiplicative(g, i, j):
        lhs = ract(h.mul(bv(g), bv(i)), bv(j))
        rhs: dict = {}
        for (i1, i2), ci in hc.expand(i, 2):
            for (j1, j2), cj in ac.expand(j, 2):
                term = h.mul(ract(bv(g), lact(bv(i1), bv(j1))),
                             ract(bv(i2), bv(j2)))
                vec_add_into(field, rhs, term, field.mul(ci, cj))
        return lhs == rhs

    _scan(rep, "ract-multiplicative", iproduct(hr, hr, ar), ract_multiplicative,
          _tuple_label(hl, hl, al))

    def action_symmetry(g, j):
        lhs: dict = {}
        rhs: dict = {}
        for (g1, g2), cg in hc.expand(g, 2):
            for (j1, j2), cj in ac.expand(j, 2):
                c = field.mul(cg, cj)
                vec_add_into(field, lhs, tensor_vec(
                    field, ract(bv(g1), bv(j1)), lact(bv(g2), bv(j2)), adim), c)
                vec_add_into(field, rhs, tensor_vec(
                    field, ract(bv(g2), bv(j2)), lact(bv(g1), bv(j1)), adim), c)
        return lhs == rhs

    _scan(rep, "action-symmetry", iproduct(hr, ar), action_symmetry, _tuple_label(hl, al))
    return rep


def matched_pair_datum(mp: MatchedPair) -> ExtendingDatum:
    """The induced extending datum: trivial cocycle, dot = multiplication of H."""
    return ExtendingDatum(
        base=mp.a,
        ext=mp.h.unit_coalgebra(),
        dot=mp.h.mult,
        ract=mp.ract,
        lact=mp.lact,
        cocycle=trivial_cocycle(mp.field, mp.h.coalgebra, mp.a.unit, mp.a.space),
    )


def bicrossed_mult_direct(mp: MatchedPair) -> LinMap:
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


def bicrossed_antipode_direct(mp: MatchedPair, carrier: FDBialgebra) -> LinMap:
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


def build_bicrossed(mp: MatchedPair) -> UnifiedProduct:
    """Build the two-action product through the twisted-product engine.

    The direct multiplication formula is recomputed independently and must
    agree entry for entry.  When both factors are Hopf algebras the closed
    antipode formula is attached after cross-checking it against the linear
    solver.
    """
    rep = check_matched_pair(mp)
    if not rep.ok:
        raise DatumConditionError(rep)
    product = build_unified_product(matched_pair_datum(mp))
    direct = bicrossed_mult_direct(mp)
    if direct != product.carrier.mult:
        raise AssertionError("two-action product disagrees with the engine")
    if isinstance(mp.a, FDHopf) and isinstance(mp.h, FDHopf):
        s = bicrossed_antipode_direct(mp, product.carrier)
        solved = antipode_solve(product.carrier)
        if s != solved:
            raise AssertionError("closed antipode formula disagrees with the solver")
        product.carrier = FDHopf(product.carrier.coalgebra, product.carrier.algebra, s)
    return product


def trivial_matched_pair(a: FDBialgebra, h: FDBialgebra) -> MatchedPair:
    """Both actions trivial; the product is the tensor-product bialgebra."""
    field = same_field(a, h)
    return MatchedPair(
        a=a,
        h=h,
        ract=trivial_action_right(field, h.space, a.coalgebra),
        lact=trivial_action_left(field, h.coalgebra, a.space),
    )


# ---------------------------------------------------------------------------
# crossed products


@dataclass
class CrossedDatum:
    """A bialgebra acting on another, twisted by a cocycle; no right action."""

    a: FDBialgebra
    h: FDBialgebra
    lact: LinMap
    cocycle: LinMap

    def __post_init__(self):
        same_field(self.a, self.h, self.lact, self.cocycle)

    @property
    def field(self):
        return self.a.field


def check_crossed(cd: CrossedDatum) -> Report:
    """Normalizations, the twisted-module and cocycle laws, and the two
    symmetry conditions that make the crossed product a bialgebra."""
    a, h = cd.a, cd.h
    field = cd.field
    hc, ac = h.coalgebra, a.coalgebra
    bv = lambda i: basis_vec(field, i)
    adim, hdim = a.dim, h.dim
    hl, al = h.space.labels, a.space.labels
    hr, ar = range(hdim), range(adim)
    rep = Report("crossed datum")

    rep.add("lact-coalgebra-map",
            is_coalgebra_map(cd.lact, tensor_coalgebra(hc, ac), ac))
    rep.add("cocycle-coalgebra-map",
            is_coalgebra_map(cd.cocycle, tensor_coalgebra(hc, hc), ac))

    lact = lambda hv, av: cd.lact.bilin(hv, av, adim)
    coc = lambda hv, gv: cd.cocycle.bilin(hv, gv, hdim)

    def normal_lact(g, j):
        eps_h = hc.counit(bv(g))
        return (lact(bv(g), a.unit) == vec_scale(field, eps_h, a.unit)
                and lact(h.unit, bv(j)) == bv(j))

    _scan(rep, "lact-normalization", iproduct(hr, ar), normal_lact, _tuple_label(hl, al))

    def normal_coc(g):
        eps_h = hc.counit(bv(g))
        want = vec_scale(field, eps_h, a.unit)
        return coc(bv(g), h.unit) == want and coc(h.unit, bv(g)) == want

    _scan(rep, "cocycle-normalization", iproduct(hr), normal_coc, _tuple_label(hl))

    def lact_multiplicative(g, i, j):
        lhs = lact(bv(g), a.mul(bv(i), bv(j)))
        rhs: dict = {}
        for (g1, g2), cg in hc.expand(g, 2):
            term = a.mul(lact(bv(g1), bv(i)), lact(bv(g2), bv(j)))
            vec_add_into(field, rhs, term, cg)
        return lhs == rhs

    _scan(rep, "lact-multiplicative", iproduct(hr, ar, ar), lact_multiplicative,
          _tuple_label(hl, al, al))

    def twisted_module(g, i, j):
        lhs: dict = {}
        rhs: dict = {}
        for (g1, g2), cg in hc.expand(g, 2):
            for (i1, i2), ci in hc.expand(i, 2):
                c = field.mul(cg, ci)
                vec_add_into(field, lhs,
                             a.mul(lact(bv(g1), lact(bv(i1), bv(j))),
                                   coc(bv(g2), bv(i2))), c)
                vec_add_into(field, rhs,
                             a.mul(coc(bv(g1), bv(i1)),
                                   lact(h.mul(bv(g2), bv(i2)), bv(j))), c)
        return lhs == rhs

    _scan(rep, "twisted-module", iproduct(hr, hr, ar), twisted_module,
          _tuple_label(hl, hl, al))

    def cocycle_condition(g, i, j):
        lhs: dict = {}
        rhs: dict = {}
        for (g1, g2), cg in hc.expand(g, 2):
            for (i1, i2), ci in hc.expand(i, 2):
                for (j1, j2), cj in hc.expand(j, 2):
                    c = field.mul(cg, field.mul(ci, cj))
                    vec_add_into(field, lhs,
                                 a.mul(lact(bv(g1), coc(bv(i1), bv(j1))),
                                       coc(bv(g2), h.mul(bv(i2), bv(j2)))), c)
            for (i1, i2), ci in hc.expand(i, 2):
                vec_add_into(field, rhs,
                             a.mul(coc(bv(g1), bv(i1)),
                                   coc(h.mul(bv(g2), bv(i2)), bv(j))),
                             field.mul(cg, ci))
        return lhs == rhs

    _scan(rep, "cocycle-condition", iproduct(hr, hr, hr), cocycle_condition,
          _tuple_label(hl, hl, hl))

    def lact_symmetry(g, j):
        lhs: dict = {}
        rhs: dict = {}
        for (g1, g2), cg in hc.expand(g, 2):
            vec_add_into(field, lhs,
                         tensor_vec(field, bv(g1), lact(bv(g2), bv(j)), adim), cg)
            vec_add_into(field, rhs,
                         tensor_vec(field, bv(g2), lact(bv(g1), bv(j)), adim), cg)
        return lhs == rhs

    _scan(rep, "lact-symmetry", iproduct(hr, ar), lact_symmetry, _tuple_label(hl, al))

    def cocycle_symmetry(g, i):
        lhs: dict = {}
        rhs: dict = {}
        for (g1, g2), cg in hc.expand(g, 2):
            for (i1, i2), ci in hc.expand(i, 2):
                c = field.mul(cg, ci)
                vec_add_into(field, lhs, tensor_vec(
                    field, h.mul(bv(g1), bv(i1)), coc(bv(g2), bv(i2)), adim), c)
                vec_add_into(field, rhs, tensor_vec(
                    field, h.mul(bv(g2), bv(i2)), coc(bv(g1), bv(i1)), adim), c)
        return lhs == rhs

    _scan(rep, "cocycle-symmetry", iproduct(hr, hr), cocycle_symmetry, _tuple_label(hl, hl))
    return rep


def crossed_datum(cd: CrossedDatum) -> ExtendingDatum:
    """The induced extending datum: trivial right action, dot = mult of H."""
    return ExtendingDatum(
        base=cd.a,
        ext=cd.h.unit_coalgebra(),
        dot=cd.h.mult,
        ract=trivial_action_right(cd.field, cd.h.space, cd.a.coalgebra),
        lact=cd.lact,
        cocycle=cd.cocycle,
    )


def crossed_mult_direct(cd: CrossedDatum) -> LinMap:
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


def build_crossed(cd: CrossedDatum) -> UnifiedProduct:
    """Build the cocycle-twisted product through the engine and cross-check
    against the direct formula."""
    rep = check_crossed(cd)
    if not rep.ok:
        raise DatumConditionError(rep)
    product = build_unified_product(crossed_datum(cd))
    direct = crossed_mult_direct(cd)
    if direct != product.carrier.mult:
        raise AssertionError("cocycle-twisted product disagrees with the engine")
    return product


# ---------------------------------------------------------------------------
# deformation of a matched pair by a lazy cocycle


def deform_matched_pair(mp: MatchedPair, u: LazyCocycle) -> ExtendingDatum:
    """Deform the left action and grow a cocycle out of a lazy cocycle u.

    Requires the base to be Hopf and the right action to kill u
    (h <| u(g) = counit(g) h); violations are rejected with the witness pair.
    The right action and the dot survive unchanged: the deformed dot
    (h <| u(g1)) . g2 collapses to the original multiplication exactly
    because the right action kills u.
    """
    a, h = mp.a, mp.h
    if not isinstance(a, FDHopf):
        raise ValueError("deformation needs an antipode on the base")
    if u.base != a or u.ext != h.unit_coalgebra():
        raise ValueError("cocycle context does not match the matched pair")
    if not is_lazy_cocycle(u.linmap, u.ext, a):
        raise ValueError("map is not a lazy cocycle")
    d = matched_pair_datum(mp)
    kills = Report()
    if not _scan_ract_kills(kills, d, u):
        raise ValueError(
            f"right action does not kill the cocycle at {kills.first_failure().witness}")
    return deform_datum(d, u)
