"""Recovering an extending datum from a factorized bialgebra.

A bialgebra E factorizes through a subbialgebra A and a subcoalgebra H
containing the unit when the multiplication map ``A (x) H -> E`` is
bijective.  In that case transporting products of the shapes ``h a`` and
``h g`` back through the inverse and projecting onto the two tensor legs
recovers the two actions, the cocycle and the dot of an extending datum
whose product is isomorphic to E.  Subobjects enter as explicit inclusion
maps, so subbialgebras need not be spanned by basis vectors of E.
"""
from __future__ import annotations

from dataclasses import dataclass

from .fields import same_field
from .linalg import (
    LinMap,
    NotInvertibleError,
    PreimageSolver,
    compose,
    invert,
    tensor_space,
)
from .structures import (
    FDAlgebra,
    FDBialgebra,
    FDCoalgebra,
    FDHopf,
    UnitalCoalgebra,
    _add_term,
    _counits,
    is_coalgebra_map,
)
from .unified import ExtendingDatum, build_unified_product


def _pull_back(family, back):
    """``{key: back(v)}`` over the ``(key, v)`` pairs of ``family``, empty
    results dropped, or None as soon as ``back`` returns None."""
    cols = {}
    for key, v in family:
        pre = back(v)
        if pre is None:
            return None
        if pre:
            cols[key] = pre
    return cols


def _products(mul, left: LinMap, right: LinMap):
    """``(i * dim(right) + j, mul(left(e_i), right(e_j)))`` over all pairs."""
    nr = right.domain.dim
    return ((i * nr + j, mul(left.col(i), right.col(j)))
            for i in range(left.domain.dim) for j in range(nr))


class FactorizationInputError(ValueError):
    """The inclusions do not present a subbialgebra and a unital subcoalgebra."""


class NotAFactorizationError(ValueError):
    """The multiplication map A (x) H -> E is singular."""

    def __init__(self, rank: int, dim: int):
        self.rank = rank
        self.dim = dim
        self.deficit = dim - rank
        super().__init__(
            f"multiplication map is not bijective: rank {rank}, deficit {self.deficit}"
        )


@dataclass
class FactorizationInput:
    """A bialgebra with inclusion maps of a subbialgebra and a subcoalgebra.

    Built via :meth:`build`, which checks injectivity and closure of the
    images and induces the structures on the abstract domains of the
    inclusions.
    """

    ambient: FDBialgebra
    incl_a: LinMap
    incl_h: LinMap
    base: FDBialgebra
    ext: UnitalCoalgebra

    @classmethod
    def build(cls, ambient: FDBialgebra, incl_a: LinMap, incl_h: LinMap) -> "FactorizationInput":
        field = same_field(ambient, incl_a, incl_h)
        if incl_a.codomain.dim != ambient.dim or incl_h.codomain.dim != ambient.dim:
            raise FactorizationInputError("inclusions must land in the ambient space")

        solver_a = PreimageSolver(incl_a)
        if len(solver_a.pivots) != incl_a.domain.dim:
            raise FactorizationInputError("the subbialgebra inclusion is not injective")
        solver_h = PreimageSolver(incl_h)
        if len(solver_h.pivots) != incl_h.domain.dim:
            raise FactorizationInputError("the subcoalgebra inclusion is not injective")

        base = cls._induce_bialgebra(ambient, incl_a, solver_a)
        ext_coalg = cls._induce_coalgebra(ambient, incl_h, solver_h,
                                          "the subcoalgebra")
        unit_h = solver_h.preimage(ambient.unit)
        if unit_h is None:
            raise FactorizationInputError(
                "the unit of the ambient bialgebra is not in the subcoalgebra")
        return cls(ambient, incl_a, incl_h, base, UnitalCoalgebra(ext_coalg, unit_h))

    @staticmethod
    def _induce_coalgebra(ambient, incl, solver, what) -> FDCoalgebra:
        field = ambient.field
        cols = _pull_back(((i, ambient.delta.apply(incl.col(i)))
                           for i in range(incl.domain.dim)), solver.pair_preimage)
        if cols is None:
            raise FactorizationInputError(
                f"{what} image is not closed under comultiplication")
        delta = LinMap(field, incl.domain,
                       tensor_space(incl.domain, incl.domain), cols)
        epsilon = compose(ambient.epsilon, incl)
        return FDCoalgebra(field, incl.domain, delta, epsilon)

    @staticmethod
    def _induce_bialgebra(ambient, incl, solver) -> FDBialgebra:
        field = ambient.field
        coalg = FactorizationInput._induce_coalgebra(ambient, incl, solver,
                                                     "the subbialgebra")
        n = incl.domain.dim
        cols = _pull_back(_products(ambient.mul, incl, incl), solver.preimage)
        if cols is None:
            raise FactorizationInputError(
                "the subbialgebra image is not closed under multiplication")
        mult = LinMap(field, tensor_space(incl.domain, incl.domain), incl.domain, cols)
        unit = solver.preimage(ambient.unit)
        if unit is None:
            raise FactorizationInputError(
                "the unit of the ambient bialgebra is not in the subbialgebra")
        alg = FDAlgebra(field, incl.domain, mult, unit, associative="yes")
        bialg = FDBialgebra(coalg, alg)
        if isinstance(ambient, FDHopf):
            s_cols = _pull_back(((i, ambient.antipode.apply(incl.col(i))) for i in range(n)),
                                solver.preimage)
            if s_cols is not None:
                return FDHopf(coalg, alg, LinMap(field, incl.domain, incl.domain, s_cols))
        return bialg


def mult_map(fi: FactorizationInput) -> LinMap:
    """The map a (x) h -> incl_a(a) incl_h(h) into the ambient bialgebra."""
    cols = _pull_back(_products(fi.ambient.mul, fi.incl_a, fi.incl_h), lambda v: v)
    return LinMap(fi.ambient.field, tensor_space(fi.incl_a.domain, fi.incl_h.domain),
                  fi.ambient.space, cols)


def recover_datum(fi: FactorizationInput) -> ExtendingDatum:
    """Pull the two actions, the cocycle and the dot out of a factorization.

    Writes each ``h a`` and ``h g`` through the inverse of the multiplication
    map and projects that column of ``A (x) H`` onto its legs with the
    counits:

        lact = (id (x) eps_H)(u^-1(h a))      ract = (eps_A (x) id)(u^-1(h a))
        cocycle = (id (x) eps_H)(u^-1(h g))   dot  = (eps_A (x) id)(u^-1(h g))

    Raises :class:`NotAFactorizationError` with the rank deficit when the
    multiplication map is singular.
    """
    u = mult_map(fi)
    try:
        u_inv = invert(u)
    except NotInvertibleError as exc:
        raise NotAFactorizationError(exc.rank, exc.dim) from exc
    field = fi.ambient.field
    a, h = fi.base, fi.ext
    nh = h.dim
    eps_a, eps_h = _counits(a.coalgebra), _counits(h.coalg)

    def legs(right: LinMap):
        """The two counit projections of u^-1(h right(e_j)), column by column."""
        to_a, to_h = {}, {}
        for key, v in _pull_back(_products(fi.ambient.mul, fi.incl_h, right),
                                 u_inv.apply).items():
            va, vh = {}, {}
            for p, c in v.items():
                ai, hi = divmod(p, nh)
                if not field.is_zero(eps_h[hi]):
                    _add_term(field, va, ai, field.mul(c, eps_h[hi]))
                if not field.is_zero(eps_a[ai]):
                    _add_term(field, vh, hi, field.mul(c, eps_a[ai]))
            to_a[key], to_h[key] = va, vh
        dom = tensor_space(h.space, right.domain)
        return LinMap(field, dom, a.space, to_a), LinMap(field, dom, h.space, to_h)

    lact, ract = legs(fi.incl_a)
    cocycle, dot = legs(fi.incl_h)
    return ExtendingDatum(base=a, ext=h, dot=dot, ract=ract, lact=lact,
                          cocycle=cocycle)


def transfer_structure(e: FDBialgebra, l: FDCoalgebra, u: LinMap) -> FDBialgebra:
    """Pull the algebra structure of e back along a coalgebra isomorphism u.

    The unique multiplication making u an isomorphism of bialgebras is
    ``l . l' = u^-1(u(l) u(l'))``; when e carries an antipode the transferred
    antipode is ``u^-1 . S . u``.
    """
    if not is_coalgebra_map(u, l, e.coalgebra):
        raise ValueError("u is not a coalgebra map")
    u_inv = invert(u)
    field = e.field
    cols = _pull_back(_products(e.mul, u, u), u_inv.apply)
    mult = LinMap(field, tensor_space(l.space, l.space), l.space, cols)
    unit = u_inv.apply(e.unit)
    alg = FDAlgebra(field, l.space, mult, unit, associative="yes")
    if isinstance(e, FDHopf):
        antipode = compose(u_inv, compose(e.antipode, u))
        return FDHopf(l, alg, antipode)
    return FDBialgebra(l, alg)


@dataclass
class RoundtripResult:
    ok: bool
    mismatch: str | None = None

    def __bool__(self):
        return self.ok


def roundtrip_check(d: ExtendingDatum) -> RoundtripResult:
    """Build the product of d, refactor it through its own inclusions, and
    compare the recovered datum with d component for component."""
    p = build_unified_product(d)
    fi = FactorizationInput.build(p.carrier, p.incl_base, p.incl_ext)
    recovered = recover_datum(fi)
    mismatch = recovered.components_equal(d)
    return RoundtripResult(mismatch is None, mismatch)
