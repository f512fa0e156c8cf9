"""Finite-dimensional coalgebras, algebras, bialgebras and Hopf algebras.

All structures are stored as sparse structure-constant maps over an exact
field.  Comultiplication components follow the usual implicit-summation
convention: ``delta(c) = sum c_(1) (x) c_(2)``; :meth:`FDCoalgebra.expand`
produces the joint n-fold expansion used by the compatibility checkers.

Axiom checkers return :class:`~hopfprod.reports.Report` objects that name
each failing axiom together with a witness basis element, never bare booleans.
Checkers and the morphism predicates evaluate every identity pointwise
over basis tuples, straight from the structure constants, and stop an axiom
at its first failing tuple.  :func:`_scan` is the one scanner: a row is an
iterator of its failing tuples in row-major order, so the witness is the
label of the first differing tensor-space index, formatted for that tuple
alone.  A row read tuple by tuple is :func:`_failing` of its tuples and
evaluator; a row on index tables is a loop that yields its failing tuples
itself.  Where
every map an identity reads is an index table
(:attr:`~hopfprod.linalg.LinMap.points`), the checkers and the morphism
predicates compare the indices of its two sides: :func:`check_algebra`
reads rows sliced from the points of the product (elsewhere a row of
stored columns at a time where it can).  None of them builds a
tensor-product coalgebra or a map out of ``E (x) E (x) E (x) E``.
"m: X (x) Y -> Z is a coalgebra map" has one evaluator,
:func:`_coalgebra_map_halves`, for the multiplication of a bialgebra, the
maps of a datum and, with Y = k, a linear map.

Between group-like coalgebras (:func:`_grouplike`), the set level of
Agore and Militaru's "Extending structures I", an index table is a
coalgebra map: delta m(x) = m(x) (x) m(x) = (m (x) m) delta(x), and the
counit is one on both sides.  :func:`_undecided_halves` (a map) and
:func:`_unit_verdicts` (a unit k -> C) hold this rule for every check.
The rows they decide, and the coalgebra axioms there, are added as passed
once per check, with nothing built for them and nothing scanned.

Maps are read as stored columns.  Where the coproduct and both operands
are index tables (:attr:`~hopfprod.linalg.LinMap.points`), each column of
:func:`convolution` is a stored product column, shared; otherwise every
column is summed term by term.  :func:`left_convolution_inverse` reads its
solution off the tables where every right multiplication it needs
permutes the basis, and eliminates otherwise.  :func:`tensor_coalgebra` is
built once per pair of factor objects; a tensor product of group-like
coalgebras is group-like (the set level again), and is built as such.
"""
from __future__ import annotations

import functools
from itertools import product as iproduct
from operator import getitem

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
        # tensor_coalgebra(self, d) for each d it was built for, by id(d)
        self._tensors: dict[int, tuple] = {}

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
        return self.coalg.space.dim

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
        return self.mult.bilin(v, w, self.space.dim)

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
        return self.coalgebra.space.dim

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
    counit(x) counit(y).  A tensor product of group-like coalgebras
    (:func:`_grouplike`) is group-like, and is built as such.

    Built once per pair of factor objects: ``c`` keeps the coalgebra it
    built for ``d`` under ``id(d)``, together with ``d`` itself, so that
    the id is not reused while the entry lives; where ``d`` is ``c`` the
    entry leaves it out, since the id of ``c`` is not reused while ``c``
    lives and holding it would make ``c`` refer to itself.  The key is the
    object, not its structure, because equal coalgebras may carry other
    labels."""
    hit = c._tensors.get(id(d))
    if hit is not None:
        return hit[1]
    field = same_field(c, d)
    space = tensor_space(c.space, d.space)
    if _grouplike(c) and _grouplike(d):
        delta, epsilon = grouplike_delta(field, space), counit_all_ones(field, space)
    else:
        n, nn, mul = d.dim, space.dim, field.mul
        cols = {}
        for i in range(c.dim):
            ci = c.expand(i, 2)
            for j in range(n):
                dj = d.expand(j, 2)
                cols[i * n + j] = {(a1 * n + b1) * nn + a2 * n + b2: mul(x, y)
                                   for (a1, a2), x in ci for (b1, b2), y in dj}
        delta = LinMap(field, space, tensor_space(space, space), cols)
        epsilon = LinMap(field, space, SCALAR_SPACE,
                         {i * n + j: {0: mul(x, y)}
                          for i, x in enumerate(_counits(c)) for j, y in enumerate(_counits(d))})
    out = FDCoalgebra(field, space, delta, epsilon)
    c._tensors[id(d)] = (None if d is c else d, out)
    return out


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


@functools.cache
def _grouplike_points(n: int) -> tuple:
    """The points of delta and counit of the group-like coalgebra on n points."""
    return tuple(i * n + i for i in range(n)), (0,) * n


def _grouplike(c: FDCoalgebra) -> bool:
    """Whether c is group-like: delta is the diagonal index table and the
    counit is one at every basis index.  The points of both are read on
    every call (:attr:`~hopfprod.linalg.LinMap.points`)."""
    return (c.delta.points, c.epsilon.points) == _grouplike_points(c.dim)


def _unit_index(unit: dict, n: int, one):
    """u where the vector ``unit`` is ``1 e_u`` for a basis index 0 <= u < n,
    so that the map k -> E, 1 -> unit, is an index table; else None."""
    if len(unit) == 1:
        ((u, c),) = unit.items()
        if c == one and 0 <= u < n:
            return u
    return None


def _failing(tuples, holds):
    """The tuples at which ``holds`` is false, in the given order: a row
    evaluated tuple by tuple, as :func:`_scan` reads it."""
    for tup in tuples:
        if not holds(*tup):
            yield tup


def _scan(rep: Report, name: str, failing, label) -> bool:
    """Record whether the row ``name`` holds, given ``failing``, an iterator
    of its failing tuples in row-major order: it holds when there is none,
    and a failure is witnessed by the first.  ``label`` names that tuple
    alone: a function of its indices, or one label list per position, which
    gives "(a,b,c)".  Returns the verdict."""
    for tup in failing:
        rep.add(name, False, label(*tup) if callable(label)
                else "(" + ",".join(map(getitem, label, tup)) + ")")
        return False
    rep.add(name, True)
    return True


_COALGEBRA_AXIOMS = ("coassociativity", "counit-left", "counit-right")


def check_coalgebra(c: FDCoalgebra) -> Report:
    """Verify coassociativity and both counit laws, with witnesses.

    On a group-like c (:func:`_grouplike`) all three hold and are added
    unscanned: with delta(x) = x (x) x and counit(x) = 1, both sides of
    coassociativity are x (x) x (x) x, and of each counit law x."""
    return _check_coalgebra(c, _grouplike(c))


def _check_coalgebra(c: FDCoalgebra, grouplike: bool) -> Report:
    """:func:`check_coalgebra`, told whether c is group-like."""
    rep = Report("coalgebra axioms")
    if grouplike:
        for name in _COALGEBRA_AXIOMS:
            rep.add(name, True)
        return rep
    field, eps = c.field, _counits(c)
    mul, one = field.mul, field.one
    cop = [c.expand(i, 2) for i in range(c.dim)]

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
            return acc == {i: one}
        return holds

    basis = [(i,) for i in range(c.dim)]
    label = c.space.labels.__getitem__
    for name, holds in zip(_COALGEBRA_AXIOMS,
                           (coassociative, counit_law(True), counit_law(False))):
        _scan(rep, name, _failing(basis, holds), label)
    return rep


def check_algebra(a: FDAlgebra) -> Report:
    """Verify associativity and both unit laws, with witnesses.

    Associativity is compared a row at a time where it can be.  For a pair
    (i, j) where e_i e_j and every e_j e_k is 1 e_r or 0, the row
    ((e_i e_j) e_k)_k is a tuple of stored columns, and so is
    (e_i (e_j e_k))_k; the row holds exactly when the two tuples are equal.
    Rows of any other form, and rows that differ, are scanned triple by
    triple, so the witness is the first failing triple in row-major order
    either way.  Where the product is an index table
    (:attr:`~hopfprod.linalg.LinMap.points`), the rows are slices of its
    points and every row is of that form, and a unit 1 e_u is checked in
    one loop over the row of u, or its column."""
    field = a.field
    mul, one = field.mul, field.one
    n, m = a.dim, a.mult.cols
    labels = a.space.labels
    rep = Report("algebra axioms")
    mp = a.mult.points
    if mp is not None:
        # rows[r][k] is the point of e_r e_k
        rows = [mp[r * n:r * n + n] for r in range(n)]

        def failing_rows():
            """The pairs (i, j) whose rows differ, in row-major order."""
            for i, row in enumerate(rows):
                for j, r in enumerate(row):
                    if rows[r] != tuple(map(row.__getitem__, rows[j])):
                        yield i, j
    else:
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

        def failing_rows():
            """The pairs (i, j) whose rows differ or are of another form."""
            for i, j in iproduct(range(n), repeat=2):
                r, s = points[i][j], right[j]
                if r is None or s is None or table[r] != tuple(map(table[i].__getitem__, s)):
                    yield i, j

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
        """The failing indices of the left or right unit law."""
        u = _unit_index(a.unit, n, one)
        if mp is not None and u is not None:
            # the unit is 1 e_u: e_u e_i and e_i e_u are e_i, read off the
            # row and the column of u
            return ((i,) for i, p in enumerate(rows[u] if left else mp[u::n]) if p != i)

        def holds(i):
            acc = {}
            for u, x in a.unit.items():
                for s, y in m.get(u * n + i if left else i * n + u, ()):
                    _add_term(field, acc, s, mul(x, y))
            return acc == {i: field.one}
        return _failing(((i,) for i in range(n)), holds)

    triples = ((i, j, k) for i, j in failing_rows() for k in range(n))
    _scan(rep, "associativity", _failing(triples, associative),
          lambda i, j, k: f"(({labels[i]},{labels[j]}),{labels[k]})")
    _scan(rep, "unit-left", unit_law(True), labels.__getitem__)
    _scan(rep, "unit-right", unit_law(False), labels.__getitem__)
    return rep


def check_bialgebra(b: FDBialgebra) -> Report:
    """Coalgebra axioms, algebra axioms, and the four compatibility laws.

    The group-like rule decides comult- and counit-multiplicative where E
    is group-like (:func:`_grouplike`) and its product an index table
    (:func:`_undecided_halves`), and comult- and counit-unit where its unit
    is 1 e_u (:func:`_unit_verdicts`); the other rows are evaluated."""
    c = b.coalgebra
    rep = Report("bialgebra axioms")
    grouplike = _grouplike(c)
    rep.extend(_check_coalgebra(c, grouplike))
    rep.extend(check_algebra(b.algebra))

    # multiplication and unit are coalgebra maps E (x) E -> E and k -> E
    mult = _undecided_halves(b.mult, c, c, c, grouplike)
    unit = _unit_verdicts(b.unit, c, grouplike)
    labels = b.space.labels
    for side, (name, unit_name) in enumerate((("comult-multiplicative", "comult-unit"),
                                              ("counit-multiplicative", "counit-unit"))):
        if mult is None:
            rep.add(name, True)
        else:
            # the pair labelled as tensor_space labels it
            _scan(rep, name, _failing(iproduct(range(b.dim), repeat=2), mult[side]),
                  (labels, labels))
        rep.add(unit_name, unit[side], "unit")
    return rep


def _check_shape(f: LinMap, src_dim: int, dst_dim: int, what: str):
    if f.domain.dim != src_dim or f.codomain.dim != dst_dim:
        raise ValueError(f"map shape does not match the given {what}")


def _coalgebra_map_halves(m: LinMap, x: FDCoalgebra, y: FDCoalgebra, z: FDCoalgebra):
    """The two halves of "m: X (x) Y -> Z is a coalgebra map" as pointwise
    evaluators ``(comult, counit)`` at basis elements (a, b):

        delta_Z m(a, b)  = sum m(a1, b1) (x) m(a2, b2)
        counit_Z m(a, b) = counit(a) counit(b)

    A linear map X -> Z is the case Y = k.  A pair of terms whose
    m(a1, b1) or m(a2, b2) is zero adds nothing and is skipped.  Raises
    ``ValueError`` unless m maps X (x) Y to Z."""
    _check_shape(m, x.dim * y.dim, z.dim, "coalgebras")
    field = same_field(m, x, y, z)
    mul = field.mul
    ny, mc = y.dim, m.cols
    eps_x, eps_y, eps_z = _counits(x), _counits(y), _counits(z)
    # Z is read only at values of m, so its coproduct is expanded on demand
    cop_x, cop_y = ([c.expand(i, 2) for i in range(c.dim)] for c in (x, y))

    def comult(a, b):
        lhs, rhs = {}, {}
        for r, c in mc.get(a * ny + b, ()):
            for (r1, r2), e in z.expand(r, 2):
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
        acc = field.zero
        for r, c in mc.get(a * ny + b, ()):
            acc = field.add(acc, mul(eps_z[r], c))
        return acc == mul(eps_x[a], eps_y[b])

    return comult, counit


def _undecided_halves(m: LinMap, x: FDCoalgebra, y: FDCoalgebra, z: FDCoalgebra,
                      grouplike: bool):
    """None where the group-like rule decides "m: X (x) Y -> Z is a
    coalgebra map": m is an index table and X, Y, Z are group-like
    (``grouplike``), so delta_Z m(a, b) = m(a, b) (x) m(a, b) and both
    counits are one.  Else the evaluators of :func:`_coalgebra_map_halves`.
    Raises ``ValueError`` unless m maps X (x) Y to Z; the field is
    compared on the evaluated path only."""
    if grouplike and m.points is not None:
        _check_shape(m, x.dim * y.dim, z.dim, "coalgebras")
        return None
    return _coalgebra_map_halves(m, x, y, z)


def _unit_verdicts(unit: dict, c: FDCoalgebra, grouplike: bool) -> tuple[bool, bool]:
    """The (comult, counit) verdicts of "k -> C, 1 -> unit is a coalgebra
    map", ``grouplike`` saying whether C is group-like: both hold unbuilt
    where it is and the unit is 1 e_u (:func:`_unit_index`), an index table
    between group-like coalgebras; else both halves are evaluated at 1."""
    if grouplike and _unit_index(unit, c.dim, c.field.one) is not None:
        return True, True
    k = _ground_coalgebra(c.field)
    comult, counit = _coalgebra_map_halves(
        LinMap(c.field, SCALAR_SPACE, c.space, {0: unit}), k, k, c)
    return comult(0, 0), counit(0, 0)


def _is_coalgebra_map(m: LinMap, x: FDCoalgebra, y: FDCoalgebra, z: FDCoalgebra,
                      grouplike: bool) -> bool:
    """Both halves of "m: X (x) Y -> Z is a coalgebra map" at every (a, b),
    unless the group-like rule decides it (:func:`_undecided_halves`)."""
    halves = _undecided_halves(m, x, y, z, grouplike)
    if halves is None:
        return True
    comult, counit = halves
    return all(comult(a, b) and counit(a, b)
               for a, b in iproduct(range(x.dim), range(y.dim)))


@functools.cache
def _ground_coalgebra(field) -> FDCoalgebra:
    """k as a coalgebra, delta(1) = 1 (x) 1 and counit(1) = 1, built once per field."""
    return FDCoalgebra(field, SCALAR_SPACE, grouplike_delta(field, SCALAR_SPACE),
                       counit_all_ones(field, SCALAR_SPACE))


def is_coalgebra_map(f: LinMap, src: FDCoalgebra, dst: FDCoalgebra) -> bool:
    """True iff delta_dst . f = (f (x) f) . delta_src and counits agree."""
    k = _ground_coalgebra(same_field(f, src, dst))
    return _is_coalgebra_map(f, src, k, dst, _grouplike(src) and _grouplike(dst))


def is_algebra_map(f: LinMap, src: FDAlgebra, dst: FDAlgebra) -> bool:
    """f . m_src = m_dst . (f (x) f) and f(1_src) = 1_dst.

    Where f and both products are index tables
    (:attr:`~hopfprod.linalg.LinMap.points`), the two sides at each pair are
    one basis vector each, and their indices are compared."""
    _check_shape(f, src.dim, dst.dim, "algebras")
    field = same_field(f, src, dst)
    n, nd = src.dim, dst.dim
    fp, sp, dp = f.points, src.mult.points, dst.mult.points
    if fp is not None and sp is not None and dp is not None:
        if any(fp[sk] != dp[fp[k // n] * nd + fp[k % n]] for k, sk in enumerate(sp)):
            return False
    else:
        mul, m_src, m_dst, fc = field.mul, src.mult.cols, dst.mult.cols, f.cols
        for i, j in iproduct(range(n), repeat=2):
            lhs, rhs = {}, {}
            for r, x in m_src.get(i * n + j, ()):
                for s, y in fc.get(r, ()):
                    _add_term(field, lhs, s, mul(x, y))
            for r1, u in fc.get(i, ()):
                for r2, v in fc.get(j, ()):
                    uv = mul(u, v)
                    for s, y in m_dst.get(r1 * nd + r2, ()):
                        _add_term(field, rhs, s, mul(uv, y))
            if lhs != rhs:
                return False
    return f.apply(src.unit) == dst.unit


# ---------------------------------------------------------------------------
# convolution and antipodes


def convolution(f: LinMap, g: LinMap, src: FDCoalgebra, dst: FDAlgebra) -> LinMap:
    """The convolution product m_dst . (f (x) g) . delta_src, evaluated
    pointwise: (f * g)(e_i) = sum f(e_i1) g(e_i2) over the cached
    comultiplication of e_i, with no map out of a tensor square.  The
    operand and product columns are read as stored; where delta_src, f and
    g are index tables (:attr:`~hopfprod.linalg.LinMap.points`), column i
    is the stored product column at (f(e_i1), g(e_i2)), shared as it is; a
    stored column of the validated product needs no check again.
    Raises :class:`DimensionError` unless both factors map src to dst."""
    field = same_field(f, g, src, dst)
    sdim, n = src.dim, dst.dim
    for h in (f, g):
        if h.domain.dim != sdim or h.codomain.dim != n:
            raise DimensionError(
                f"convolution factor {h.domain.dim} -> {h.codomain.dim} does not "
                f"map the coalgebra ({sdim}) to the algebra ({n})")
    fcols, gcols, mcols = f.cols, g.cols, dst.mult.cols
    dp, fp, gp = src.delta.points, f.points, g.points
    if dp is not None and fp is not None and gp is not None:
        return LinMap._of(field, src.delta.domain, dst.mult.codomain,
                          {i: col for i, k in enumerate(dp)
                           if (col := mcols.get(fp[k // sdim] * n + gp[k % sdim]))})
    zero, add, mul, is_zero = field.zero, field.add, field.mul, field.is_zero
    cols = {}
    for i in range(sdim):
        acc: dict = {}
        for (i1, i2), c in src.expand(i, 2):
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
    c e_i (x) e_l of delta(e_k); no solution is checked here.

    Where delta_src, j and the product are index tables
    (:attr:`~hopfprod.linalg.LinMap.points`) and right multiplication by
    each s = j(e_l) a row reads permutes the basis, the rows of k read
    X(e_i) = sum_r counit(e_k) 1_r e_t over the t with e_t e_s = e_r: column
    i is read off the inverse permutation, rows that give one column two
    values are inconsistent, and a column no row reads stays zero, as the
    elimination leaves it.  Otherwise the system is eliminated."""
    field = same_field(j, src, dst)
    n, nc = dst.dim, src.dim
    mult = dst.mult.cols
    target = convolution_unit(src, dst)
    dp, jp, mp = src.delta.points, j.points, dst.mult.points
    if dp is not None and jp is not None and mp is not None:
        legs = [divmod(p, nc) for p in dp]
        # t s -> t, for each s = j(e_l) that a row reads
        right = {s: {mp[t * n + s]: t for t in range(n)} for s in {jp[l] for _, l in legs}}
        if all(len(inverse) == n for inverse in right.values()):
            cols = {}
            for k, (i, l) in enumerate(legs):
                inverse = right[jp[l]]
                col = {inverse[r]: w for r, w in target.cols.get(k, ())}
                if cols.setdefault(i, col) != col:
                    return None
            return LinMap(field, src.space, dst.space, {i: col for i, col in cols.items() if col})
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
    return LinMap._from_points(field, space, SCALAR_SPACE, (0,) * space.dim)


def grouplike_delta(field, space: BasedSpace) -> LinMap:
    n = space.dim
    return LinMap._from_points(field, space, tensor_space(space, space),
                               [i * n + i for i in range(n)])


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
