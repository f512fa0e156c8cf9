"""Bicrossed and crossed products as special cases of the twisted product.

A matched pair of bialgebras (mutual coalgebra actions satisfying the four
compatibility laws) embeds as an extending datum with trivial cocycle; a
crossed datum (left action plus cocycle) embeds with trivial right action.
This module only checks the classical data and embeds them: the product is
built by the one twisted-product engine, and the identities a classical
datum shares with the engine are evaluated by the engine's own evaluators.
The classical direct multiplication and antipode formulas live on as
independent oracles in the test suite.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .classification import LazyCocycle, _scan_ract_kills, deform_datum, is_lazy_cocycle
from .fields import same_field
from .linalg import LinMap, basis_vec, tensor_vec, vec_add_into, vec_scale
from .reports import Report
from .structures import (
    FDBialgebra,
    FDHopf,
    _scan,
    _tuple_label,
    attach_antipode,
    trivial_action_left,
    trivial_action_right,
    trivial_cocycle,
)
from .unified import (
    DatumConditionError,
    ExtendingDatum,
    UnifiedProduct,
    _coalgebra_map_rows,
    _condition_evaluators,
    _scan_condition,
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
    """Module-coalgebra axioms and the four mutual-action compatibilities.

    The right module law, both multiplicativity laws and the action symmetry
    are the engine's right-module, lact-multiplicative, ract-dot-compat and
    action-symmetry conditions on the induced datum, whose dot is the
    multiplication of H.
    """
    a, h = mp.a, mp.h
    field = mp.field
    hc = h.coalgebra
    bv = lambda i: basis_vec(field, i)
    adim, hdim = a.dim, h.dim
    hl, al = h.space.labels, a.space.labels
    hr, ar = range(hdim), range(adim)
    rep = Report("matched pair")

    _coalgebra_map_rows(rep, hc, a.coalgebra, ract=mp.ract, lact=mp.lact)
    shared = _condition_evaluators(matched_pair_datum(mp))

    ract = lambda hv, av: mp.ract.bilin(hv, av, adim)
    lact = lambda hv, av: mp.lact.bilin(hv, av, adim)

    _scan(rep, "left-module-unit", iproduct(ar),
          lambda j: lact(h.unit, bv(j)) == bv(j), _tuple_label(al))
    _scan(rep, "left-module-law", iproduct(hr, hr, ar),
          lambda g, i, j: lact(h.mul(bv(g), bv(i)), bv(j))
          == lact(bv(g), lact(bv(i), bv(j))), _tuple_label(hl, hl, al))
    _scan(rep, "right-module-unit", iproduct(hr),
          lambda g: ract(bv(g), a.unit) == bv(g), _tuple_label(hl))
    _scan_condition(rep, shared, "right-module", "right-module-law")

    def unit_normalization(g, j):
        eps_a = a.counit(bv(j))
        eps_h = hc.counit(bv(g))
        return (ract(h.unit, bv(j)) == vec_scale(field, eps_a, h.unit)
                and lact(bv(g), a.unit) == vec_scale(field, eps_h, a.unit))

    _scan(rep, "unit-normalization", iproduct(hr, ar), unit_normalization,
          _tuple_label(hl, al))
    _scan_condition(rep, shared, "lact-multiplicative")
    _scan_condition(rep, shared, "ract-dot-compat", "ract-multiplicative")
    _scan_condition(rep, shared, "action-symmetry")
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


def build_bicrossed(mp: MatchedPair) -> UnifiedProduct:
    """Build the two-action product through the twisted-product engine.

    When both factors are Hopf algebras the product is too, and its antipode
    is solved for and attached.
    """
    rep = check_matched_pair(mp)
    if not rep.ok:
        raise DatumConditionError(rep)
    product = build_unified_product(matched_pair_datum(mp))
    if isinstance(mp.a, FDHopf) and isinstance(mp.h, FDHopf):
        product.carrier = attach_antipode(product.carrier)
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
    symmetry conditions that make the crossed product a bialgebra.  The
    cocycle symmetry is the engine's condition on the induced datum."""
    a, h = cd.a, cd.h
    field = cd.field
    hc = h.coalgebra
    bv = lambda i: basis_vec(field, i)
    adim, hdim = a.dim, h.dim
    hl, al = h.space.labels, a.space.labels
    hr, ar = range(hdim), range(adim)
    rep = Report("crossed datum")

    _coalgebra_map_rows(rep, hc, a.coalgebra, lact=cd.lact, cocycle=cd.cocycle)

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

    _scan_condition(rep, _condition_evaluators(crossed_datum(cd)), "cocycle-symmetry")
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


def build_crossed(cd: CrossedDatum) -> UnifiedProduct:
    """Build the cocycle-twisted product through the twisted-product engine."""
    rep = check_crossed(cd)
    if not rep.ok:
        raise DatumConditionError(rep)
    return build_unified_product(crossed_datum(cd))


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
