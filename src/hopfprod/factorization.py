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
    tensor_map,
    tensor_space,
)
from .structures import (
    FDAlgebra,
    FDBialgebra,
    FDCoalgebra,
    FDHopf,
    UnitalCoalgebra,
    is_coalgebra_map,
)
from .unified import ExtendingDatum, build_unified_product


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
        cols = {}
        for i in range(incl.domain.dim):
            pre = solver.pair_preimage(ambient.delta.apply(incl.col(i)))
            if pre is None:
                raise FactorizationInputError(
                    f"{what} image is not closed under comultiplication")
            cols[i] = pre
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
        cols = {}
        for i in range(n):
            for j in range(n):
                img = ambient.mul(incl.col(i), incl.col(j))
                pre = solver.preimage(img)
                if pre is None:
                    raise FactorizationInputError(
                        "the subbialgebra image is not closed under multiplication")
                if pre:
                    cols[i * n + j] = pre
        mult = LinMap(field, tensor_space(incl.domain, incl.domain), incl.domain, cols)
        unit = solver.preimage(ambient.unit)
        if unit is None:
            raise FactorizationInputError(
                "the unit of the ambient bialgebra is not in the subbialgebra")
        alg = FDAlgebra(field, incl.domain, mult, unit, associative="yes")
        bialg = FDBialgebra(coalg, alg)
        if isinstance(ambient, FDHopf):
            s_cols = {}
            closed = True
            for i in range(n):
                pre = solver.preimage(ambient.antipode.apply(incl.col(i)))
                if pre is None:
                    closed = False
                    break
                if pre:
                    s_cols[i] = pre
            if closed:
                return FDHopf(coalg, alg, LinMap(field, incl.domain, incl.domain, s_cols))
        return bialg


def mult_map(fi: FactorizationInput) -> LinMap:
    """The map a (x) h -> incl_a(a) incl_h(h) into the ambient bialgebra."""
    field = fi.ambient.field
    na, nh = fi.incl_a.domain.dim, fi.incl_h.domain.dim
    cols = {}
    for i in range(na):
        for j in range(nh):
            col = fi.ambient.mul(fi.incl_a.col(i), fi.incl_h.col(j))
            if col:
                cols[i * nh + j] = col
    return LinMap(field, tensor_space(fi.incl_a.domain, fi.incl_h.domain),
                  fi.ambient.space, cols)


def recover_datum(fi: FactorizationInput) -> ExtendingDatum:
    """Pull the two actions, the cocycle and the dot out of a factorization.

    Writes ``h a`` and ``h g`` through the inverse of the multiplication map
    and projects with the counits:

        lact = (id (x) eps_H) . mu      ract = (eps_A (x) id) . mu
        cocycle = (id (x) eps_H) . nu   dot  = (eps_A (x) id) . nu

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
    n = l.dim
    cols = {}
    for i in range(n):
        for j in range(n):
            col = u_inv.apply(e.mul(u.col(i), u.col(j)))
            if col:
                cols[i * n + j] = col
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
