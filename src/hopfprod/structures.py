"""Finite-dimensional coalgebras, algebras, bialgebras and Hopf algebras.

All structures are stored as sparse structure-constant maps over an exact
field.  Comultiplication components follow the usual implicit-summation
convention: ``delta(c) = sum c_(1) (x) c_(2)``; :meth:`FDCoalgebra.expand`
produces the joint n-fold expansion used by the compatibility checkers.

Axiom checkers return :class:`~hopfprod.reports.Report` objects that name
each failing axiom together with a witness basis element, never bare booleans.
Checkers and the morphism predicates evaluate every identity pointwise
over basis tuples, straight from the structure constants, and stop an axiom
at its first failing tuple.  Tuples are scanned in row-major order, so the
witness is the label of the first differing tensor-space index.  Where both
sides of an identity are one term, or zero, or rows of stored columns, they
are compared as stored, without summing either.  None of them builds a
tensor-product coalgebra or a map out of ``E (x) E (x) E (x) E``.
"m: X (x) Y -> Z is a coalgebra map" has one evaluator,
:func:`_coalgebra_map_halves`, for the multiplication of a bialgebra, the
maps of a datum and, with Y = k, a linear map.
"""
from __future__ import annotations

import functools
from itertools import product as iproduct

from .fields import same_field
from .linalg import (
    SCALAR_SPACE,
    BasedSpace,
    DimensionError,
    LinMap,
    compose,
    solve_system,
    tensor_space,
    vec_scale,
)
from .reports import Report


class NoAntipodeError(ValueError):
    """The identity has no convolution inverse on the named side."""

    def __init__(self, side: str):
        self.side = side
        super().__init__(f"no antipode: the identity has no {side} convolution inverse")


class FDCoalgebra:
    """A coalgebra given by comultiplication and counit structure constants."""

    def __init__(self, field, space: BasedSpace, delta: LinMap, epsilon: LinMap):
        self.field = field
        self.space = space
        self.delta = delta
        self.epsilon = epsilon
        if delta.domain.dim != space.dim or delta.codomain.dim != space.dim**2:
            raise ValueError("comultiplication has the wrong shape")
        if epsilon.domain.dim != space.dim or epsilon.codomain.dim != 1:
            raise ValueError("counit has the wrong shape")
        self._expand_cache: dict[tuple[int, int], list] = {}
        self._counit_table: tuple | None = None

    @property
    def dim(self) -> int:
        return self.space.dim

    def counit(self, v: dict):
        return self.epsilon.apply(v).get(0, self.field.zero)

    def expand(self, i: int, n: int) -> list[tuple[tuple[int, ...], object]]:
        """Joint n-fold comultiplication of basis element i.

        Returns ``[(indices, coeff), ...]`` where ``indices`` has length n.
        Only valid on coassociative comultiplications (checked elsewhere);
        the expansion always splits the leftmost factor.  Results are cached
        per coalgebra, so ``expand(i, 2)`` is the one table of delta(e_i)
        that the checkers, the predicates and :func:`convolution` read.
        """
        if n == 1:
            return [((i,), self.field.one)]
        key = (i, n)
        cached = self._expand_cache.get(key)
        if cached is not None:
            return cached
        field = self.field
        dim = self.dim
        if n == 2:
            # the stored column, already sorted and free of zeros
            out = [(divmod(flat, dim), c) for flat, c in self.delta.cols.get(i, ())]
            self._expand_cache[key] = out
            return out
        acc: dict[tuple[int, ...], object] = {}
        for rest, c in self.expand(i, n - 1):
            for flat, c2 in self.delta.cols.get(rest[0], ()):
                idx = (flat // dim, flat % dim) + rest[1:]
                x = field.add(acc.get(idx, field.zero), field.mul(c, c2))
                if field.is_zero(x):
                    acc.pop(idx, None)
                else:
                    acc[idx] = x
        out = sorted(acc.items())
        self._expand_cache[key] = out
        return out

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FDCoalgebra)
            and self.field == other.field
            and self.delta == other.delta
            and self.epsilon == other.epsilon
        )

    def __hash__(self):
        return hash((self.delta, self.epsilon))

    def __repr__(self):
        return f"FDCoalgebra(dim={self.dim})"


class UnitalCoalgebra:
    """A coalgebra with a distinguished group-like unit vector."""

    def __init__(self, coalg: FDCoalgebra, unit: dict):
        self.coalg = coalg
        self.unit = dict(unit)

    @property
    def field(self):
        return self.coalg.field

    @property
    def space(self):
        return self.coalg.space

    @property
    def dim(self):
        return self.coalg.dim

    @property
    def delta(self):
        return self.coalg.delta

    @property
    def epsilon(self):
        return self.coalg.epsilon

    def __eq__(self, other):
        return self is other or (
            isinstance(other, UnitalCoalgebra)
            and self.coalg == other.coalg
            and self.unit == other.unit
        )

    def __hash__(self):
        return hash((self.coalg, tuple(sorted(self.unit.items()))))

    def __repr__(self):
        return f"UnitalCoalgebra(dim={self.dim})"


class FDAlgebra:
    """An algebra given by multiplication structure constants and a unit vector.

    ``associative`` is a tri-state claim ("yes" / "no" / "unknown"); checkers
    always test the actual multiplication regardless of the flag.
    """

    def __init__(self, field, space: BasedSpace, mult: LinMap, unit: dict,
                 associative: str = "unknown"):
        self.field = field
        self.space = space
        self.mult = mult
        self.unit = dict(unit)
        if associative not in ("yes", "no", "unknown"):
            raise ValueError("associative flag must be yes, no or unknown")
        self.associative = associative
        if mult.domain.dim != space.dim**2 or mult.codomain.dim != space.dim:
            raise ValueError("multiplication has the wrong shape")

    @property
    def dim(self) -> int:
        return self.space.dim

    def mul(self, v: dict, w: dict) -> dict:
        return self.mult.bilin(v, w, self.dim)

    def unit_map(self) -> LinMap:
        return LinMap(self.field, SCALAR_SPACE, self.space, {0: self.unit})

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FDAlgebra)
            and self.field == other.field
            and self.mult == other.mult
            and self.unit == other.unit
        )

    def __hash__(self):
        return hash((self.mult, tuple(sorted(self.unit.items()))))

    def __repr__(self):
        return f"FDAlgebra(dim={self.dim}, associative={self.associative})"


class FDBialgebra:
    """A coalgebra and an algebra on the same based space."""

    def __init__(self, coalgebra: FDCoalgebra, algebra: FDAlgebra):
        if coalgebra.space.dim != algebra.space.dim:
            raise ValueError("coalgebra and algebra live on different spaces")
        same_field(coalgebra, algebra)
        self.coalgebra = coalgebra
        self.algebra = algebra

    @property
    def field(self):
        return self.coalgebra.field

    @property
    def space(self):
        return self.coalgebra.space

    @property
    def dim(self):
        return self.coalgebra.dim

    @property
    def delta(self):
        return self.coalgebra.delta

    @property
    def epsilon(self):
        return self.coalgebra.epsilon

    @property
    def mult(self):
        return self.algebra.mult

    @property
    def unit(self):
        return self.algebra.unit

    def mul(self, v: dict, w: dict) -> dict:
        return self.algebra.mul(v, w)

    def counit(self, v: dict):
        return self.coalgebra.counit(v)

    def expand(self, i: int, n: int):
        return self.coalgebra.expand(i, n)

    def unit_coalgebra(self) -> UnitalCoalgebra:
        return UnitalCoalgebra(self.coalgebra, self.unit)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FDBialgebra)
            and self.coalgebra == other.coalgebra
            and self.algebra == other.algebra
        )

    def __hash__(self):
        return hash((self.coalgebra, self.algebra))

    def __repr__(self):
        return f"FDBialgebra(dim={self.dim})"


class FDHopf(FDBialgebra):
    """A bialgebra with an antipode."""

    def __init__(self, coalgebra: FDCoalgebra, algebra: FDAlgebra, antipode: LinMap):
        super().__init__(coalgebra, algebra)
        self.antipode = antipode
        if antipode.domain.dim != self.dim or antipode.codomain.dim != self.dim:
            raise ValueError("antipode has the wrong shape")

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FDHopf)
            and FDBialgebra.__eq__(self, other)
            and self.antipode == other.antipode
        )

    def __hash__(self):
        return hash((self.coalgebra, self.algebra, self.antipode))

    def __repr__(self):
        return f"FDHopf(dim={self.dim})"


# ---------------------------------------------------------------------------
# the tensor-product coalgebra


def tensor_coalgebra(c: FDCoalgebra, d: FDCoalgebra) -> FDCoalgebra:
    """The tensor-product coalgebra: (c (x) d)_(1..2) pairs componentwise,
    delta(x (x) y) = (x1 (x) y1) (x) (x2 (x) y2), and the counit is
    counit(x) counit(y).  Where delta(x) and delta(y) are one term each,
    the column is handed to :class:`LinMap` as a one-entry tuple."""
    field = same_field(c, d)
    space = tensor_space(c.space, d.space)
    n, mul = d.dim, field.mul
    cols = {}
    for i in range(c.dim):
        ci = c.expand(i, 2)
        for j in range(n):
            dj = d.expand(j, 2)
            if len(ci) == len(dj) == 1:
                ((a1, a2), x), ((b1, b2), y) = ci[0], dj[0]
                cols[i * n + j] = (((a1 * n + b1) * space.dim + a2 * n + b2, mul(x, y)),)
                continue
            cols[i * n + j] = {(a1 * n + b1) * space.dim + a2 * n + b2: mul(x, y)
                               for (a1, a2), x in ci for (b1, b2), y in dj}
    delta = LinMap(field, space, tensor_space(space, space), cols)
    epsilon = LinMap(field, space, SCALAR_SPACE,
                     {i * n + j: {0: field.mul(x, y)}
                      for i, x in enumerate(_counits(c)) for j, y in enumerate(_counits(d))})
    return FDCoalgebra(field, space, delta, epsilon)


# ---------------------------------------------------------------------------
# predicates and checkers


def _add_term(field, acc: dict, key, x):
    """acc[key] += x in place, dropping the entry when it cancels."""
    y = field.add(acc.get(key, field.zero), x)
    if field.is_zero(y):
        acc.pop(key, None)
    else:
        acc[key] = y


def _counits(c: FDCoalgebra) -> tuple:
    """counit(e_i) for every i, computed once per coalgebra."""
    if c._counit_table is None:
        zero = c.field.zero
        c._counit_table = tuple(dict(c.epsilon.cols.get(i, ())).get(0, zero)
                                for i in range(c.dim))
    return c._counit_table


def _scan(rep: Report, name: str, tuples, holds, label) -> bool:
    """Record whether ``holds`` is true on every tuple, in the given order;
    a failure is witnessed by ``label`` of the first tuple where it is not.
    Returns the verdict."""
    for tup in tuples:
        if not holds(*tup):
            rep.add(name, False, label(*tup))
            return False
    rep.add(name, True)
    return True


def _tuple_label(*labels):
    """The witness label "(a,b,c)" of a basis tuple, from one label list per
    position."""
    return lambda *tup: "(" + ",".join(lab[k] for lab, k in zip(labels, tup)) + ")"


def check_coalgebra(c: FDCoalgebra) -> Report:
    """Verify coassociativity and both counit laws, with witnesses."""
    field = c.field
    mul = field.mul
    cop, eps = [c.expand(i, 2) for i in range(c.dim)], _counits(c)
    basis = [(i,) for i in range(c.dim)]
    rep = Report("coalgebra axioms")

    def coassociative(i):
        lhs, rhs = {}, {}
        for (a, b), x in cop[i]:
            for (a1, a2), y in cop[a]:
                _add_term(field, lhs, (a1, a2, b), mul(x, y))
            for (b1, b2), y in cop[b]:
                _add_term(field, rhs, (a, b1, b2), mul(x, y))
        return lhs == rhs

    def counit_law(left):
        def holds(i):
            acc = {}
            for (a, b), x in cop[i]:
                _add_term(field, acc, b if left else a, mul(eps[a if left else b], x))
            return acc == {i: field.one}
        return holds

    label = c.space.labels.__getitem__
    _scan(rep, "coassociativity", basis, coassociative, label)
    _scan(rep, "counit-left", basis, counit_law(True), label)
    _scan(rep, "counit-right", basis, counit_law(False), label)
    return rep


def check_algebra(a: FDAlgebra) -> Report:
    """Verify associativity and both unit laws, with witnesses.

    Associativity is compared a row at a time where it can be.  For a pair
    (i, j) where e_i e_j and every e_j e_k is 1 e_r or 0, the row
    ((e_i e_j) e_k)_k is a tuple of stored columns, and so is
    (e_i (e_j e_k))_k; the row holds exactly when the two tuples are equal.
    Rows of any other form, and rows that differ, are scanned triple by
    triple, so the witness is the first failing triple in row-major order
    either way."""
    field = a.field
    mul, one = field.mul, field.one
    n, m = a.dim, a.mult.cols
    labels = a.space.labels
    rep = Report("algebra axioms")
    # table[r][k] is the stored column of e_r e_k; index n stands for 0
    zero_row = ((),) * (n + 1)
    table = [tuple(m.get(r * n + k, ()) for k in range(n)) + ((),) for r in range(n)]
    table.append(zero_row)

    def point(col):
        """r where the column is 1 e_r, n where it is zero, None otherwise"""
        if not col:
            return n
        if len(col) == 1 and col[0][1] == one:
            return col[0][0]
        return None

    points = [[point(col) for col in table[j][:n]] + [n] for j in range(n)]
    right = [None if None in pts else pts for pts in points]

    def row_holds(i, j):
        r, s = points[i][j], right[j]
        return r is not None and s is not None and table[r] == tuple(map(table[i].__getitem__, s))

    def associative(i, j, k):
        lhs, rhs = {}, {}
        for r, x in m.get(i * n + j, ()):
            for s, y in m.get(r * n + k, ()):
                _add_term(field, lhs, s, mul(x, y))
        for r, x in m.get(j * n + k, ()):
            for s, y in m.get(i * n + r, ()):
                _add_term(field, rhs, s, mul(x, y))
        return lhs == rhs

    def unit_law(left):
        def holds(i):
            acc = {}
            for u, x in a.unit.items():
                for s, y in m.get(u * n + i if left else i * n + u, ()):
                    _add_term(field, acc, s, mul(x, y))
            return acc == {i: field.one}
        return holds

    triples = ((i, j, k) for i, j in iproduct(range(n), repeat=2) if not row_holds(i, j)
               for k in range(n))
    _scan(rep, "associativity", triples, associative,
          lambda i, j, k: f"(({labels[i]},{labels[j]}),{labels[k]})")
    basis = [(i,) for i in range(n)]
    _scan(rep, "unit-left", basis, unit_law(True), labels.__getitem__)
    _scan(rep, "unit-right", basis, unit_law(False), labels.__getitem__)
    return rep


def check_bialgebra(b: FDBialgebra) -> Report:
    """Coalgebra axioms, algebra axioms, and the four compatibility laws."""
    labels = b.space.labels
    pairs = list(iproduct(range(b.dim), repeat=2))
    pair_label = _tuple_label(labels, labels)  # as tensor_space names it
    rep = Report("bialgebra axioms")
    rep.extend(check_coalgebra(b.coalgebra))
    rep.extend(check_algebra(b.algebra))

    # multiplication and unit are coalgebra maps E (x) E -> E and k -> E
    comult, counit = _coalgebra_map_halves(b.mult, b.coalgebra, b.coalgebra, b.coalgebra)
    k = _ground_coalgebra(b.field)
    unit_comult, unit_counit = _coalgebra_map_halves(b.algebra.unit_map(), k, k, b.coalgebra)
    _scan(rep, "comult-multiplicative", pairs, comult, pair_label)
    rep.add("comult-unit", unit_comult(0, 0), "unit")
    _scan(rep, "counit-multiplicative", pairs, counit, pair_label)
    rep.add("counit-unit", unit_counit(0, 0), "unit")
    return rep


def _check_shape(f: LinMap, src_dim: int, dst_dim: int, what: str):
    if f.domain.dim != src_dim or f.codomain.dim != dst_dim:
        raise ValueError(f"map shape does not match the given {what}")


def _coalgebra_map_halves(m: LinMap, x: FDCoalgebra, y: FDCoalgebra, z: FDCoalgebra):
    """The two halves of "m: X (x) Y -> Z is a coalgebra map" as pointwise
    evaluators ``(comult, counit)`` at basis elements (a, b):

        delta_Z m(a, b)  = sum m(a1, b1) (x) m(a2, b2)
        counit_Z m(a, b) = counit(a) counit(b)

    A linear map X -> Z is the case Y = k.  Where delta(a) and delta(b) are
    one term each, the right side is s t m(a1, b1) (x) m(a2, b2), which is
    zero exactly when a factor is and has one term exactly when both do;
    when the left side is zero or one term too, the two are compared by
    index and coefficient, without summing either.  Otherwise a pair of
    terms whose m(a1, b1) or m(a2, b2) is zero adds nothing and is skipped.
    Raises ``ValueError`` unless m maps X (x) Y to Z."""
    _check_shape(m, x.dim * y.dim, z.dim, "coalgebras")
    field = same_field(m, x, y, z)
    mul, one = field.mul, field.one
    ny, mc = y.dim, m.cols
    cop_x, cop_y, cop_z = ([c.expand(i, 2) for i in range(c.dim)] for c in (x, y, z))
    eps_x, eps_y, eps_z = _counits(x), _counits(y), _counits(z)

    def comult(a, b):
        col, ca, cb = mc.get(a * ny + b, ()), cop_x[a], cop_y[b]
        if len(ca) == len(cb) == 1:
            ((a1, a2), s), ((b1, b2), t) = ca[0], cb[0]
            u, v = mc.get(a1 * ny + b1, ()), mc.get(a2 * ny + b2, ())
            if not col:
                return not (u and v)
            if len(col) == 1 and len(cop_z[col[0][0]]) == 1:
                if len(u) != 1 or len(v) != 1:
                    return False
                (_, c), (rr, e), (r1, uc), (r2, vc) = col[0], cop_z[col[0][0]][0], u[0], v[0]
                return rr == (r1, r2) and (c == e == s == t == uc == vc == one
                                           or mul(c, e) == mul(mul(s, t), mul(uc, vc)))
        lhs, rhs = {}, {}
        for r, c in col:
            for (r1, r2), e in cop_z[r]:
                _add_term(field, lhs, (r1, r2), mul(c, e))
        for (a1, a2), s in cop_x[a]:
            for (b1, b2), t in cop_y[b]:
                left = mc.get(a1 * ny + b1)
                right = left and mc.get(a2 * ny + b2)
                if not right:
                    continue
                st = mul(s, t)
                for r1, u in left:
                    for r2, v in right:
                        _add_term(field, rhs, (r1, r2), mul(st, mul(u, v)))
        return lhs == rhs

    def counit(a, b):
        col = mc.get(a * ny + b, ())
        if len(col) == 1:
            (r, c), = col
            return mul(eps_z[r], c) == mul(eps_x[a], eps_y[b])
        acc = field.zero
        for r, c in col:
            acc = field.add(acc, mul(eps_z[r], c))
        return acc == mul(eps_x[a], eps_y[b])

    return comult, counit


def _is_coalgebra_map(m: LinMap, x: FDCoalgebra, y: FDCoalgebra, z: FDCoalgebra) -> bool:
    """Both halves of :func:`_coalgebra_map_halves` at every (a, b)."""
    comult, counit = _coalgebra_map_halves(m, x, y, z)
    return all(comult(a, b) and counit(a, b)
               for a, b in iproduct(range(x.dim), range(y.dim)))


@functools.cache
def _ground_coalgebra(field) -> FDCoalgebra:
    """k as a coalgebra, delta(1) = 1 (x) 1 and counit(1) = 1, built once per field."""
    return FDCoalgebra(field, SCALAR_SPACE, grouplike_delta(field, SCALAR_SPACE),
                       counit_all_ones(field, SCALAR_SPACE))


def is_coalgebra_map(f: LinMap, src: FDCoalgebra, dst: FDCoalgebra) -> bool:
    """True iff delta_dst . f = (f (x) f) . delta_src and counits agree."""
    return _is_coalgebra_map(f, src, _ground_coalgebra(src.field), dst)


def is_algebra_map(f: LinMap, src: FDAlgebra, dst: FDAlgebra) -> bool:
    """f . m_src = m_dst . (f (x) f) and f(1_src) = 1_dst.

    Where m_src(e_i e_j) has at most one entry and f(e_i), f(e_j) one each,
    the two sides at (i, j) are x f(e_r) and u v m_dst(e_r1 e_r2); when each
    of those columns is one term or zero, they are compared by index and
    coefficient, without summing either."""
    _check_shape(f, src.dim, dst.dim, "algebras")
    field = same_field(f, src, dst)
    mul = field.mul
    n, nd = src.dim, dst.dim
    m_src, m_dst, fc = src.mult.cols, dst.mult.cols, f.cols
    for i, j in iproduct(range(n), repeat=2):
        col, fi, fj = m_src.get(i * n + j, ()), fc.get(i, ()), fc.get(j, ())
        if len(col) <= 1 and len(fi) == len(fj) == 1:
            (r1, u), (r2, v) = fi[0], fj[0]
            left = fc.get(col[0][0], ()) if col else ()
            right = m_dst.get(r1 * nd + r2, ())
            if len(left) <= 1 and len(right) <= 1:
                if len(left) != len(right) or left and (
                        left[0][0] != right[0][0]
                        or mul(col[0][1], left[0][1]) != mul(mul(u, v), right[0][1])):
                    return False
                continue
        lhs, rhs = {}, {}
        for r, x in col:
            for s, y in fc.get(r, ()):
                _add_term(field, lhs, s, mul(x, y))
        for r1, u in fi:
            for r2, v in fj:
                uv = mul(u, v)
                for s, y in m_dst.get(r1 * nd + r2, ()):
                    _add_term(field, rhs, s, mul(uv, y))
        if lhs != rhs:
            return False
    return f.apply(src.unit) == dst.unit


def grouplike_indices(c: FDCoalgebra) -> list[int]:
    """Basis indices i with delta(e_i) = e_i (x) e_i and counit 1."""
    one = c.field.one
    eps = _counits(c)
    return [i for i in range(c.dim)
            if c.delta.col(i) == {i * c.dim + i: one} and eps[i] == one]


# ---------------------------------------------------------------------------
# convolution and antipodes


def convolution(f: LinMap, g: LinMap, src: FDCoalgebra, dst: FDAlgebra) -> LinMap:
    """The convolution product m_dst . (f (x) g) . delta_src, evaluated
    pointwise: (f * g)(e_i) = sum f(e_i1) g(e_i2) over the cached
    comultiplication of e_i, with no map out of a tensor square.  The
    operand and product columns are read as stored; where Δ(e_i) is one
    term c e_i1 (x) e_i2 and c, f(e_i1) and g(e_i2) are each one entry with
    coefficient one, the result column is the stored product column, shared
    when it is one entry.  Raises :class:`DimensionError` unless both
    factors map src to dst."""
    field = same_field(f, g, src, dst)
    sdim, n = src.dim, dst.dim
    for h in (f, g):
        if h.domain.dim != sdim or h.codomain.dim != n:
            raise DimensionError(
                f"convolution factor {h.domain.dim} -> {h.codomain.dim} does not "
                f"map the coalgebra ({sdim}) to the algebra ({n})")
    fcols, gcols, mcols = f.cols, g.cols, dst.mult.cols
    one, zero, add, mul, is_zero = field.one, field.zero, field.add, field.mul, field.is_zero
    cols = {}
    for i in range(sdim):
        terms = src.expand(i, 2)
        if len(terms) == 1:
            (i1, i2), c = terms[0]
            x, y = fcols.get(i1, ()), gcols.get(i2, ())
            if len(x) == 1 and len(y) == 1 and c == one == x[0][1] == y[0][1]:
                col = mcols.get(x[0][0] * n + y[0][0], ())
                if len(col) == 1:
                    cols[i] = col
                    continue
        acc: dict = {}
        for (i1, i2), c in terms:
            for j1, a in fcols.get(i1, ()):
                ca, base = mul(c, a), j1 * n
                for j2, b in gcols.get(i2, ()):
                    cab = mul(ca, b)
                    for k, m in mcols.get(base + j2, ()):
                        z = add(acc.get(k, zero), mul(cab, m))
                        if is_zero(z):
                            acc.pop(k, None)
                        else:
                            acc[k] = z
        if acc:
            cols[i] = acc
    return LinMap(field, src.delta.domain, dst.mult.codomain, cols)


def convolution_unit(src: FDCoalgebra, dst: FDAlgebra) -> LinMap:
    """unit_dst . counit_src, the unit of the convolution algebra."""
    return compose(dst.unit_map(), src.epsilon)


def left_convolution_inverse(j: LinMap, src: FDCoalgebra, dst: FDAlgebra) -> LinMap | None:
    """Solve X * j = unit . counit exactly for X: src -> dst, with the
    matrix entries of X as unknowns, where j: src -> dst is a coalgebra map.
    Free unknowns are set to zero; None when the system is inconsistent.

    Row (k, r) reads sum X[t, i] c j[s, l] mult((t, s) -> r) over the terms
    c e_i (x) e_l of delta(e_k); no solution is checked here."""
    field = same_field(j, src, dst)
    n, nc = dst.dim, src.dim
    mult = dst.mult.cols
    target = convolution_unit(src, dst)
    rows, rhs = [], []
    for k in range(nc):
        want = target.col(k)
        out_rows = {}
        for (i, l), c in src.expand(k, 2):
            for s, y in j.cols.get(l, ()):
                cy = field.mul(c, y)
                for t in range(n):
                    key = t * nc + i
                    for r, m in mult.get(t * n + s, ()):
                        row = out_rows.setdefault(r, {})
                        row[key] = field.add(row.get(key, field.zero), field.mul(cy, m))
        for r in set(out_rows) | set(want):
            rows.append(out_rows.get(r, {}))
            rhs.append(want.get(r, field.zero))
    sol, _ = solve_system(field, rows, rhs, n * nc)
    if sol is None:
        return None
    cols: dict[int, dict] = {}
    for key, v in sol.items():
        t, i = divmod(key, nc)
        cols.setdefault(i, {})[t] = v
    return LinMap(field, src.space, dst.space, cols)


def antipode_solve(b: FDBialgebra) -> LinMap:
    """Solve the convolution system S * id = unit . counit for the antipode
    exactly, with the matrix entries of S as unknowns: the
    :func:`left_convolution_inverse` of the identity.

    One system suffices: in a bialgebra a left convolution inverse L of the
    identity equals the antipode S whenever S exists, since
    L = L * (id * S) = (L * id) * S = S.  The solution is then checked to be
    an inverse on both sides.  Raises :class:`NoAntipodeError` naming the
    side: "left" when the system is inconsistent, "right" when its solution
    is no right inverse.
    """
    s = left_convolution_inverse(LinMap.identity(b.field, b.space), b.coalgebra, b.algebra)
    if s is None:
        raise NoAntipodeError("left")
    # verify rather than trust the elimination
    side = _antipode_failure(s, b)
    if side is not None:
        raise NoAntipodeError(side)
    return s


def _antipode_failure(s: LinMap, b: FDBialgebra) -> str | None:
    """The first side, "left" then "right", on which s is no convolution
    inverse of the identity of b; None when s is its antipode."""
    ident = LinMap.identity(b.field, b.space)
    target = convolution_unit(b.coalgebra, b.algebra)
    if convolution(s, ident, b.coalgebra, b.algebra) != target:
        return "left"
    if convolution(ident, s, b.coalgebra, b.algebra) != target:
        return "right"
    return None


def attach_antipode(b: FDBialgebra) -> FDHopf:
    """Solve for the antipode and promote the bialgebra to a Hopf algebra."""
    return FDHopf(b.coalgebra, b.algebra, antipode_solve(b))


# ---------------------------------------------------------------------------
# small construction helpers used across modules


def counit_all_ones(field, space: BasedSpace) -> LinMap:
    return LinMap(field, space, SCALAR_SPACE, {i: {0: field.one} for i in range(space.dim)})


def grouplike_delta(field, space: BasedSpace) -> LinMap:
    n = space.dim
    return LinMap(field, space, tensor_space(space, space),
                  {i: {i * n + i: field.one} for i in range(n)})


def trivial_action_right(field, h_space, a_coalg: FDCoalgebra) -> LinMap:
    """h <| a = counit(a) h as a map H (x) A -> H."""
    adim = a_coalg.dim
    eps = _counits(a_coalg)
    cols = {}
    for i in range(h_space.dim):
        for j in range(adim):
            if not field.is_zero(eps[j]):
                cols[i * adim + j] = {i: eps[j]}
    return LinMap(field, tensor_space(h_space, a_coalg.space), h_space, cols)


def trivial_action_left(field, h_coalg: FDCoalgebra, a_space) -> LinMap:
    """h |> a = counit(h) a as a map H (x) A -> A."""
    adim = a_space.dim
    cols = {}
    for i, e in enumerate(_counits(h_coalg)):
        if field.is_zero(e):
            continue
        for j in range(adim):
            cols[i * adim + j] = {j: e}
    return LinMap(field, tensor_space(h_coalg.space, a_space), a_space, cols)


def trivial_cocycle(field, h_coalg: FDCoalgebra, unit_a: dict, a_space) -> LinMap:
    """f(h, g) = counit(h) counit(g) 1_A as a map H (x) H -> A."""
    hdim = h_coalg.dim
    eps = _counits(h_coalg)
    cols = {}
    for i, ei in enumerate(eps):
        if field.is_zero(ei):
            continue
        for j, ej in enumerate(eps):
            c = field.mul(ei, ej)
            if not field.is_zero(c):
                cols[i * hdim + j] = vec_scale(field, c, unit_a)
    return LinMap(field, tensor_space(h_coalg.space, h_coalg.space), a_space, cols)
