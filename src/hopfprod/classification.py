"""Lazy cocycles and the equivalence classification of twisted products.

A lazy cocycle is a unitary coalgebra map ``u: H -> A`` whose comultiplication
components commute past it: ``h1 (x) u(h2) = h2 (x) u(h1)``.  Under
convolution these form a group, which acts from the left on the extending
data with a given right action, by conjugation in the convolution algebras
over H (x) A and H (x) H: deforming by u and then by v is deforming by
``v * u``.  Two data are equivalent exactly when a cocycle deforms one into
the other, so a class is an orbit.  The equivalence is realized by
``phi(a (x) h) = a u(h1) (x) h2`` from the deformed product to the original
one, a bijective bialgebra map that is also a left A-module and right
H-comodule map; :func:`check_equivalence` verifies all of that and hands back
the certificate, and :func:`quotient_classes` certifies every datum it joins
to an orbit.

phi, its inverse psi and the map ``T(h (x) g) = sum (h <| u(g1)) (x) g2``,
through which the deformation composes the dot and the cocycle, are one
twist, :func:`_twist`; every T is built by :func:`_deformation_twist`.
Deformation and certification read structure constants as stored columns.
Where delta_H and the maps a result reads are index tables
(``LinMap.points``), as on group-like data, each column is a stored column
of the datum, shared, or the one entry the tables give; otherwise it is
summed term by term.  The tensor coalgebras the
convolutions run over are built once per pair.

Enumeration of cocycles is only available at group-like desk scale, where
cocycles are exactly the pointed maps from the basis of H to the group-like
basis of A; everywhere else callers must supply the cocycle themselves.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product as iproduct

from .fields import same_field
from .linalg import (
    DimensionError,
    LinMap,
    basis_vec,
    compose,
    tensor_apply,
    tensor_vec,
    vec_add_into,
    vec_scale,
)
from .reports import Report
from .structures import (
    FDBialgebra,
    FDCoalgebra,
    FDHopf,
    UnitalCoalgebra,
    _add_term,
    _counits,
    _grouplike,
    _unit_index,
    convolution,
    convolution_unit,
    is_coalgebra_map,
    is_algebra_map,
    tensor_coalgebra,
)
from .unified import ExtendingDatum, _base_inclusion, _scan_condition, assemble_product

DEFAULT_COCYCLE_CAP = 10_000


class CapExceededError(RuntimeError):
    """An enumeration would exceed the configured candidate cap."""


class NotGroupLikeError(ValueError):
    """Enumeration requested outside the group-like desk-scale regime."""


class ContextError(ValueError):
    """The objects handed in do not share the context the operation needs:
    the same base and coalgebra, or a base with an antipode."""


def is_lazy_cocycle(u: LinMap, h: UnitalCoalgebra, a: FDBialgebra) -> bool:
    """Unitary coalgebra map with h1 (x) u(h2) = h2 (x) u(h1)."""
    if u.domain.dim != h.dim or u.codomain.dim != a.dim:
        raise DimensionError("cocycle shape does not match H -> A")
    if not is_coalgebra_map(u, h.coalg, a.coalgebra):
        return False
    if u.apply(h.unit) != a.unit:
        return False
    field = same_field(h, a)
    for i in range(h.dim):
        straight, crossed = {}, {}
        for (left, right), x in h.coalg.expand(i, 2):
            for r, y in u.cols.get(right, ()):
                _add_term(field, straight, (left, r), field.mul(x, y))
            for r, y in u.cols.get(left, ()):
                _add_term(field, crossed, (right, r), field.mul(x, y))
        if straight != crossed:
            return False
    return True


class NotALazyCocycleError(ValueError):
    """A map handed in as a lazy cocycle is not one."""


@dataclass(slots=True)
class LazyCocycle:
    """A lazy cocycle with its H and A context attached.

    The constructor validates the map with :func:`is_lazy_cocycle`.  The
    operations of this module build their results through
    :meth:`_unchecked` instead: :func:`trivial_lazy_cocycle` and
    :func:`enumerate_cocycles` produce lazy cocycles by construction, and
    :func:`cocycle_convolve` and :func:`cocycle_inverse` rely on the group
    law, by which lazy cocycles into a bialgebra are closed under
    convolution and those into a Hopf algebra under the inverse ``S_A . u``.
    """

    linmap: LinMap
    ext: UnitalCoalgebra
    base: FDBialgebra

    def __post_init__(self):
        if not is_lazy_cocycle(self.linmap, self.ext, self.base):
            raise NotALazyCocycleError("map is not a lazy cocycle")

    @classmethod
    def _unchecked(cls, linmap: LinMap, ext: UnitalCoalgebra,
                   base: FDBialgebra) -> "LazyCocycle":
        """A cocycle known to be lazy, built without validation."""
        u = object.__new__(cls)
        u.linmap, u.ext, u.base = linmap, ext, base
        return u


def trivial_lazy_cocycle(h: UnitalCoalgebra, a: FDBialgebra) -> LazyCocycle:
    """unit_A . counit_H, the unit of the convolution group."""
    return LazyCocycle._unchecked(convolution_unit(h.coalg, a.algebra), h, a)


def cocycle_convolve(u: LazyCocycle, v: LazyCocycle) -> LazyCocycle:
    """Convolution u * v.  Not validated again: the product of two lazy
    cocycles into a bialgebra is a lazy cocycle."""
    if u.ext != v.ext or u.base != v.base:
        raise ContextError("cocycles live over different (H, A) pairs")
    w = convolution(u.linmap, v.linmap, u.ext.coalg, u.base.algebra)
    return LazyCocycle._unchecked(w, u.ext, u.base)


def cocycle_inverse(u: LazyCocycle) -> LazyCocycle:
    """Convolution inverse S_A . u; requires the base to be Hopf.  Not
    validated again: the inverse of a lazy cocycle is a lazy cocycle."""
    if not isinstance(u.base, FDHopf):
        raise ContextError("convolution inverse needs an antipode on the base")
    return LazyCocycle._unchecked(compose(u.base.antipode, u.linmap), u.ext, u.base)


def enumerate_cocycles(h: UnitalCoalgebra, a: FDBialgebra,
                       cap: int = DEFAULT_COCYCLE_CAP) -> list[LazyCocycle]:
    """All lazy cocycles in the group-like regime: pointed basis maps.

    H must be group-like (:func:`~hopfprod.structures._grouplike`) with the
    unit a basis vector, and A group-like; the candidates are then the maps
    sending the basepoint to 1_A and every other basis element anywhere in
    A's basis.
    Their columns are the shared ``((t, 1),)`` of t < dim A, stored form.
    """
    field = same_field(h, a)
    if not _grouplike(h.coalg):
        raise NotGroupLikeError("H is not group-like on its basis")
    if not _grouplike(a.coalgebra):
        raise NotGroupLikeError("A is not group-like on its basis")
    basepoint = _unit_index(h.unit, h.dim, field.one)
    if basepoint is None:
        raise NotGroupLikeError("the unit of H is not a basis vector")
    unit = _unit_index(a.unit, a.dim, field.one)
    if unit is None:
        raise NotGroupLikeError("the unit of A is not a basis vector")
    count = a.dim ** (h.dim - 1)
    if count > cap:
        raise CapExceededError(f"{count} candidate cocycles exceed the cap {cap}")
    others = [i for i in range(h.dim) if i != basepoint]
    # every candidate shares these |A| one-entry columns
    points = [((t, field.one),) for t in range(a.dim)]
    out = []
    for targets in iproduct(points, repeat=len(others)):
        cols = {basepoint: points[unit]}
        cols.update(zip(others, targets))
        u = LinMap._of(field, h.space, a.space, cols)
        out.append(LazyCocycle._unchecked(u, h, a))
    return out


def _twist(op: LinMap, w: LinMap, hc: FDCoalgebra, src, dst) -> LinMap:
    """x (x) h -> sum op(x, w(h1)) (x) h2 for op: X (x) A -> X and w: H -> A,
    from the space ``src`` of X (x) H to ``dst``.  With op the product of A
    it is the certificate phi for w = u and its inverse psi for w = S u; with
    op the right action <| and w = u it is the map T through which the
    deformation reads .' = dot T and f'' = f T.  Where delta_H, w and op are
    index tables, so is the result, built with its points: each entry is read
    from validated tables, so it is in range, and its value is one."""
    field, hdim, adim, xdim = op.field, hc.dim, w.codomain.dim, op.codomain.dim
    dp, wp, opp = hc.delta.points, w.points, op.points
    if dp is not None and wp is not None and opp is not None:
        points = tuple(opp[x * adim + wp[k // hdim]] * hdim + k % hdim
                       for x in range(xdim) for k in dp)
        one = field.one
        return LinMap._of(field, src, dst, {i: ((j, one),) for i, j in enumerate(points)},
                          points)
    cols = {}
    for x, hi in iproduct(range(xdim), range(hdim)):
        col: dict = {}
        for (h1, h2), ch in hc.expand(hi, 2):
            vec_add_into(field, col, tensor_vec(
                field, op.bilin(x, w.col(h1), adim), basis_vec(field, h2), hdim), ch)
        cols[x * hdim + hi] = col
    return LinMap(field, src, dst, cols)


def _deformation_twist(d: ExtendingDatum, u: LazyCocycle) -> LinMap:
    """T(h (x) g) = sum (h <| u(g1)) (x) g2 of d and u (:func:`_twist`),
    through which the deformation reads .' = dot T and f'' = f T."""
    return _twist(d.ract, u.linmap, d.ext.coalg, d.dot.domain, d.dot.domain)


def _deformed_maps(d: ExtendingDatum, u: LazyCocycle,
                   dot: LinMap | None = None) -> tuple[LinMap, LinMap, LinMap]:
    """The deformed (dot, lact, cocycle) of d by u, with S the antipode of A:

        .'  = dot T
        |>' = (u (x) counit_A) * |> * (S u <|)                 over H (x) A
        f'  = (u (x) counit_H) * |>(id (x) u) * f T * (S u .')  over H (x) H

    where T(h (x) g) = sum (h <| u(g1)) (x) g2 (:func:`_deformation_twist`)
    and each * is the convolution over the tensor-product coalgebra named,
    nested to the left so that A multiplies in the order written.  The last
    factor of f' reads ``dot``, by default the deformed dot.  The right
    action never moves."""
    a, h, field, ucols = d.base, d.ext, d.field, u.linmap.cols
    one, hdim, adim = field.one, h.dim, a.dim
    su = compose(a.antipode, u.linmap)

    def convolve(c: FDCoalgebra, *maps: LinMap) -> LinMap:
        """(u (x) counit_c) * maps[0] * maps[1] * ..., over H (x) c; where
        the counit is one, the first factor shares u's stored column, and
        where it is one everywhere, every column is one of the validated u."""
        src, cdim, counits = tensor_coalgebra(h.coalg, c), c.dim, _counits(c)
        if all(e == one for e in counits):
            first = LinMap._of(field, src.space, a.space,
                               {hi * cdim + xi: col for hi, col in ucols.items()
                                for xi in range(cdim)})
        else:
            first = LinMap(field, src.space, a.space,
                           {hi * cdim + xi: ucols.get(hi, ()) if e == one
                            else vec_scale(field, e, u.linmap.col(hi))
                            for hi in range(hdim) for xi, e in enumerate(counits)})
        return functools.reduce(lambda f, g: convolution(f, g, src, a.algebra), maps, first)

    t = _deformation_twist(d, u)
    deformed_dot = compose(d.dot, t)
    # h |> u(g): where u is an index table, the stored column of the
    # validated |>, so it needs no check again
    up, lcols = u.linmap.points, d.lact.cols
    if up is not None:
        lact_u = LinMap._of(field, d.dot.domain, a.space,
                            {hi * hdim + gi: col
                             for hi, gi in iproduct(range(hdim), repeat=2)
                             if (col := lcols.get(hi * adim + up[gi]))})
    else:
        lact_u = LinMap(field, d.dot.domain, a.space,
                        {hi * hdim + gi: d.lact.bilin(hi, u.linmap.col(gi), adim)
                         for hi, gi in iproduct(range(hdim), repeat=2)})
    return (deformed_dot, convolve(a.coalgebra, d.lact, compose(su, d.ract)),
            convolve(h.coalg, lact_u, compose(d.cocycle, t),
                     compose(su, deformed_dot if dot is None else dot)))


def deform_datum(d: ExtendingDatum, u: LazyCocycle) -> ExtendingDatum:
    """Deform an arbitrary datum by a lazy cocycle (:func:`_deformed_maps`);
    the result is equivalent to d via u by construction."""
    if u.ext != d.ext or u.base != d.base:
        raise ContextError("cocycle context does not match the datum")
    if not isinstance(d.base, FDHopf):
        raise ContextError("deformation needs a Hopf base")
    dot, lact, cocycle = _deformed_maps(d, u)
    return ExtendingDatum(base=d.base, ext=d.ext, dot=dot, ract=d.ract,
                          lact=lact, cocycle=cocycle)


@dataclass
class EquivalenceCertificate:
    """The isomorphism realizing an equivalence of extending data.

    ``phi`` maps the product of ``source`` onto the product of ``target`` by
    a (x) h -> a u(h1) (x) h2, and ``psi`` is its inverse via the antipode.
    """

    source: ExtendingDatum
    target: ExtendingDatum
    cocycle: LazyCocycle
    phi: LinMap
    psi: LinMap


@dataclass
class EquivalenceResult:
    report: Report
    certificate: EquivalenceCertificate | None

    @property
    def ok(self) -> bool:
        return self.report.ok


def _deformation_evaluators(d: ExtendingDatum, d2: ExtendingDatum, u: LazyCocycle) -> dict:
    """The three deformation formulas as rows, in the shape of
    :func:`~hopfprod.unified._condition_evaluators`: each fails at the pairs
    where the map of d2 differs from the deformation of the map of d by u.
    The cocycle formula reads the deformed dot from d2."""
    hl, al = d.ext.space.labels, d.base.space.labels
    dot, lact, cocycle = _deformed_maps(d, u, d2.dot)

    def row(mine: LinMap, theirs: LinMap, left, right):
        n, mine, theirs = len(right), mine.cols, theirs.cols

        def failing():
            for k in range(len(left) * n):
                if mine.get(k) != theirs.get(k):
                    yield divmod(k, n)
        return failing, (left, right)

    return {"deformed-lact": row(lact, d2.lact, hl, al), "deformed-dot": row(dot, d2.dot, hl, hl),
            "deformed-cocycle": row(cocycle, d2.cocycle, hl, hl)}


def _require_shared_context(d: ExtendingDatum, d2: ExtendingDatum) -> None:
    """Raise :class:`ContextError` unless d and d2 share the base and the
    coalgebra, and the base is Hopf."""
    if d.base != d2.base or d.ext != d2.ext:
        raise ContextError("the two data must share the base and the coalgebra")
    if not isinstance(d.base, FDHopf):
        raise ContextError("equivalence checking needs a Hopf base")


def _deformation_report(d: ExtendingDatum, d2: ExtendingDatum, u: LazyCocycle) -> Report:
    """The rows of :func:`check_equivalence` up to its certificate: the
    equality of right actions, then the three deformation formulas."""
    _require_shared_context(d, d2)
    if u.ext != d.ext or u.base != d.base:
        raise ContextError("cocycle context does not match the data")
    rep = Report("extending-structure equivalence")

    if d2.ract != d.ract:
        rep.add("ract-equal", False, "right actions differ")
        return rep
    rep.add("ract-equal", True)

    evaluators = _deformation_evaluators(d, d2, u)
    for name in evaluators:
        _scan_condition(rep, evaluators, name)
    return rep


def _certify(rep: Report, d: ExtendingDatum, d2: ExtendingDatum, u: LazyCocycle,
             prod: FDBialgebra, prod2: FDBialgebra) -> EquivalenceResult:
    """Build phi: A (x)' H -> A (x) H between the products ``prod2`` of d2
    and ``prod`` of d (:func:`_twist`), and add the rows that verify it to
    ``rep``.  Each row is evaluated one basis column at a time, never
    through a composite map."""
    field = d.field
    a, h = d.base, d.ext

    # S_A . u composed, not cocycle_inverse: u need not be lazy here
    phi = _twist(a.mult, u.linmap, h.coalg, prod2.space, prod.space)
    psi = _twist(a.mult, compose(a.antipode, u.linmap), h.coalg, prod.space, prod2.space)

    rep.add("phi-algebra-map", is_algebra_map(phi, prod2.algebra, prod.algebra))
    rep.add("phi-coalgebra-map", is_coalgebra_map(phi, prod2.coalgebra, prod.coalgebra))

    # phi(a x) = a phi(x), with a in A included as a (x) 1_H
    basis, bv = range(phi.domain.dim), lambda i: basis_vec(field, i)
    incl = _base_inclusion(d, prod.space)
    rep.add("phi-left-module", all(phi.apply(prod2.mul(c, x)) == prod.mul(c, phi.col(x))
                                   for c in map(incl.col, range(a.dim)) for x in basis))

    # (id_A (x) delta_H) phi = (phi (x) id_H) (id_A (x) delta_H)
    ident_a, ident_h = LinMap.identity(field, a.space), LinMap.identity(field, h.space)
    rho = lambda v: tensor_apply(ident_a, h.delta, v)
    rep.add("phi-right-comodule", all(rho(phi.col(x)) == tensor_apply(phi, ident_h, rho(bv(x)))
                                      for x in basis))

    rep.add("phi-bijective", all(phi.apply(psi.col(x)) == bv(x) == psi.apply(phi.col(x))
                                 for x in basis))
    cert = EquivalenceCertificate(d2, d, u, phi, psi) if rep.ok else None
    return EquivalenceResult(rep, cert)


def check_equivalence(d: ExtendingDatum, d2: ExtendingDatum,
                      u: LazyCocycle) -> EquivalenceResult:
    """Is d2 the deformation of d by the lazy cocycle u?

    Verifies the forced equality of right actions, then the three deformation
    formulas for the left action, the cocycle and the dot.  On success the
    certificate map ``phi: A (x)' H -> A (x) H`` is built and verified to be a
    bijective bialgebra, left A-module and right H-comodule map.
    """
    rep = _deformation_report(d, d2, u)
    if not rep.ok:
        return EquivalenceResult(rep, None)
    return _certify(rep, d, d2, u, assemble_product(d), assemble_product(d2))


def _dot_hits(d: ExtendingDatum, d2: ExtendingDatum, cocycles: list[LazyCocycle]):
    """Each (k, u) of ``enumerate(cocycles)`` whose u deforms the dot of d
    into the dot of d2: the only u ``check_equivalence(d, d2, u)`` can pass.
    The shared context is checked first, as that check does it."""
    _require_shared_context(d, d2)
    for k, u in enumerate(cocycles):
        if compose(d.dot, _deformation_twist(d, u)) == d2.dot:
            yield k, u


def quotient_classes(data: list[ExtendingDatum]) -> list[list[int]]:
    """Partition data sharing (A, H, ract) into deformation-equivalence classes.

    A class is an orbit of the lazy-cocycle group, which acts by
    ``deform_datum`` from the left: deforming by u, then by v, is deforming
    by ``cocycle_convolve(v, u)``.  The dot of the first datum not yet
    classified is deformed by each enumerated cocycle u until every datum
    has a class; a datum whose dot it hits joins only when the rows and
    certificate of ``check_equivalence`` pass for u, so every join is
    certified.  Each product is assembled once; the cost is at most (classes
    x cocycles) deformed dots and one report and certificate per hit, not
    (data^2 x cocycles) reports.  Enumeration gates this to group-like data.
    """
    if not data:
        return []
    first = data[0]
    for d in data[1:]:
        if d.base != first.base or d.ext != first.ext or d.ract != first.ract:
            raise ContextError("all data must share the base, coalgebra and right action")
    cocycles = enumerate_cocycles(first.ext, first.base)
    if not isinstance(first.base, FDHopf):
        raise ContextError("equivalence checking needs a Hopf base")
    products = [assemble_product(d) for d in data]
    by_dot: dict = {}
    for j, d in enumerate(data):
        by_dot.setdefault(d.dot, []).append(j)
    left, classes = set(range(len(data))), []
    while left:
        i = min(left)
        left.discard(i)
        d, cls = data[i], [i]
        for u in cocycles:
            if not left:
                break
            for j in by_dot.get(compose(d.dot, _deformation_twist(d, u)), ()):
                if j in left:
                    rep = _deformation_report(d, data[j], u)
                    if rep.ok and _certify(rep, d, data[j], u, products[i], products[j]).ok:
                        left.discard(j)
                        cls.append(j)
        classes.append(sorted(cls))
    return classes
