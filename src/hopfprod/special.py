"""Bicrossed and crossed products as special cases of the twisted product.

A matched pair of bialgebras (mutual coalgebra actions satisfying the four
compatibility laws) embeds as an extending datum with trivial cocycle; a
crossed datum (left action plus cocycle) embeds with trivial right action.
This module only checks the classical data and embeds them: the product is
built by the one twisted-product engine.  Every identity of a classical
datum is a row of the engine's evaluator tables on the induced datum under
its classical name, or the conjunction of two such rows: the left module
law of a matched pair is the twisted-module condition with trivial
cocycle, and the normalization of a crossed left action joins two unit
normalizations of :func:`~hopfprod.unified.validate_datum`.  Matched pairs
are deformed and compared through :mod:`hopfprod.classification`; the only
structure map this module evaluates itself is the right action, on a lazy
cocycle.  The classical direct formulas are oracles in the test suite.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .classification import LazyCocycle, _deformation_evaluators, deform_datum
from .fields import same_field
from .linalg import LinMap, vec_scale
from .reports import Report
from .structures import (
    FDBialgebra,
    FDHopf,
    _counits,
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
    _Ops,
    _coalgebra_map_rows,
    _condition_evaluators,
    _normalization_evaluators,
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

    Both module laws, both multiplicativity laws and the action symmetry
    are the engine's twisted-module, right-module, lact-multiplicative,
    ract-dot-compat and action-symmetry conditions on the induced datum,
    whose dot is the multiplication of H and whose cocycle is trivial; the
    unit laws are rows of its unit normalizations.
    """
    a, h = mp.a, mp.h
    hl, al = h.space.labels, a.space.labels
    rep = Report("matched pair")

    _coalgebra_map_rows(rep, h.coalgebra, a.coalgebra, ract=mp.ract, lact=mp.lact)
    d = matched_pair_datum(mp)
    shared, normal = _condition_evaluators(d), _normalization_evaluators(d)

    _scan_condition(rep, normal, "lact-normal-unit-left", "left-module-unit")
    _scan_condition(rep, shared, "twisted-module", "left-module-law")
    _scan_condition(rep, normal, "ract-normal-unit-right", "right-module-unit")
    _scan_condition(rep, shared, "right-module", "right-module-law")
    ract_unit, lact_unit = (normal[name][1] for name in
                            ("ract-normal-unit-left", "lact-normal-unit-right"))
    _scan(rep, "unit-normalization", iproduct(range(h.dim), range(a.dim)),
          lambda g, j: ract_unit(j) and lact_unit(g), _tuple_label(hl, al))
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
    """Normalizations, the multiplicativity, twisted-module and cocycle laws,
    and the two symmetry conditions that make the crossed product a
    bialgebra, as the engine's rows on the induced datum, whose right action
    is trivial: each normalization joins two unit normalizations, and the
    symmetry of the left action is its action-symmetry."""
    a, h = cd.a, cd.h
    hl, al = h.space.labels, a.space.labels
    rep = Report("crossed datum")

    _coalgebra_map_rows(rep, h.coalgebra, a.coalgebra, lact=cd.lact, cocycle=cd.cocycle)
    d = crossed_datum(cd)
    normal = _normalization_evaluators(d)
    unit_right, unit_left, coc_right, coc_left = (normal[name][1] for name in (
        "lact-normal-unit-right", "lact-normal-unit-left",
        "cocycle-normal-right", "cocycle-normal-left"))
    _scan(rep, "lact-normalization", iproduct(range(h.dim), range(a.dim)),
          lambda g, j: unit_right(g) and unit_left(j), _tuple_label(hl, al))
    _scan(rep, "cocycle-normalization", iproduct(range(h.dim)),
          lambda g: coc_right(g) and coc_left(g), _tuple_label(hl))

    shared = _condition_evaluators(d)
    for name in ("lact-multiplicative", "twisted-module", "cocycle-condition"):
        _scan_condition(rep, shared, name)
    _scan_condition(rep, shared, "action-symmetry", "lact-symmetry")
    _scan_condition(rep, shared, "cocycle-symmetry")
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
    d = matched_pair_datum(mp)
    kills = Report()
    if not _scan_ract_kills(kills, d, u):
        raise ValueError(
            f"right action does not kill the cocycle at {kills.first_failure().witness}")
    return deform_datum(d, u)


# ---------------------------------------------------------------------------
# equivalence of matched pairs


def _scan_ract_kills(rep: Report, d: ExtendingDatum, u: LazyCocycle) -> bool:
    """Record whether the right action of d kills u: h <| u(g) = counit(g) h."""
    field, h = d.field, d.ext
    ops = _Ops(d)
    eps = _counits(h.coalg)
    return _scan(rep, "ract-kills-cocycle", iproduct(range(h.dim), repeat=2),
                 lambda hi, gi: ops.ract(hi, u.linmap.col(gi))
                 == vec_scale(field, eps[gi], {hi: field.one}),
                 _tuple_label(h.space.labels, h.space.labels))


def check_bicrossed_equivalence(mp: MatchedPair, mp2: MatchedPair,
                                u: LazyCocycle) -> Report:
    """Equivalence of two matched pairs over the same Hopf algebras.

    This is :func:`~hopfprod.classification.check_equivalence` on the induced
    data, whose cocycles are trivial: the right actions agree, the left
    action deforms by u, the deformed cocycle is the trivial one, and the
    right action kills u, so that the deformed dot is the multiplication of
    H again.  Both deformations are evaluated by the shared formulas.
    """
    a, h = mp.a, mp.h
    if mp2.a != a or mp2.h != h:
        raise ValueError("matched pairs must share both Hopf algebras")
    if not isinstance(a, FDHopf) or not isinstance(h, FDHopf):
        raise ValueError("bicrossed equivalence needs Hopf algebras on both sides")
    if u.base != a or u.ext != h.unit_coalgebra():
        raise ValueError("cocycle context does not match the matched pairs")
    rep = Report("bicrossed equivalence")

    if mp2.ract != mp.ract:
        rep.add("ract-equal", False, "right actions differ")
        return rep
    rep.add("ract-equal", True)

    d = matched_pair_datum(mp)
    deformed = _deformation_evaluators(d, matched_pair_datum(mp2), u)
    _scan_condition(rep, deformed, "deformed-lact")
    _scan_condition(rep, deformed, "deformed-cocycle", "cocycle-triviality")
    _scan_ract_kills(rep, d, u)
    return rep
