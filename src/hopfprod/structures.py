"""Finite-dimensional coalgebras, algebras, bialgebras and Hopf algebras.

All structures are stored as sparse structure-constant maps over an exact
field.  Comultiplication components follow the usual implicit-summation
convention: ``delta(c) = sum c_(1) (x) c_(2)``; :meth:`FDCoalgebra.expand`
produces the joint n-fold expansion used by the compatibility checkers.

Axiom checkers return :class:`~hopfprod.reports.Report` objects that name
each failing axiom together with a witness basis element, never bare booleans.
Checkers and the (anti)morphism predicates evaluate every identity pointwise
over basis tuples, straight from the structure constants, and stop an axiom
at its first failing tuple.  Tuples are scanned in row-major order, so the
witness is the label of the first differing tensor-space index.  None of
them builds a tensor-product coalgebra, a map out of ``E (x) E (x) E (x) E``
or the dim**4-column ``tensor_algebra(E, E)``.  "m: X (x) Y -> Z is a
coalgebra map" has one evaluator, :func:`_coalgebra_map_halves`, for the
multiplication of a bialgebra, the maps of a datum and, with Y = k, a
linear map.
"""
from __future__ import annotations

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
    tensor_vec,
    vec_add_into,
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
        return (
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
        return (
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
        return (
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
        return (
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
        return (
            isinstance(other, FDHopf)
            and FDBialgebra.__eq__(self, other)
            and self.antipode == other.antipode
        )

    def __hash__(self):
        return hash((self.coalgebra, self.algebra, self.antipode))

    def __repr__(self):
        return f"FDHopf(dim={self.dim})"


# ---------------------------------------------------------------------------
# tensor constructions


def tensor_coalgebra(c: FDCoalgebra, d: FDCoalgebra) -> FDCoalgebra:
    """The tensor-product coalgebra: (c (x) d)_(1..2) pairs componentwise,
    delta(x (x) y) = (x1 (x) y1) (x) (x2 (x) y2), and the counit is
    counit(x) counit(y)."""
    field = same_field(c, d)
    space = tensor_space(c.space, d.space)
    n = d.dim
    cols = {}
    for i in range(c.dim):
        for j in range(n):
            cols[i * n + j] = {(a1 * n + b1) * space.dim + a2 * n + b2: field.mul(x, y)
                               for (a1, a2), x in c.expand(i, 2)
                               for (b1, b2), y in d.expand(j, 2)}
    delta = LinMap(field, space, tensor_space(space, space), cols)
    epsilon = LinMap(field, space, SCALAR_SPACE,
                     {i * n + j: {0: field.mul(x, y)}
                      for i, x in enumerate(_counits(c)) for j, y in enumerate(_counits(d))})
    return FDCoalgebra(field, space, delta, epsilon)


def tensor_algebra(a: FDAlgebra, b: FDAlgebra) -> FDAlgebra:
    """Componentwise multiplication on the tensor product space,
    (x (x) y)(x' (x) y') = x x' (x) y y'."""
    field = same_field(a, b)
    space = tensor_space(a.space, b.space)
    na, nb = a.dim, b.dim
    cols = {}
    for ik, xcol in a.mult.cols.items():
        i, k = divmod(ik, na)
        for jl, ycol in b.mult.cols.items():
            j, l = divmod(jl, nb)
            cols[(i * nb + j) * space.dim + k * nb + l] = {
                p * nb + q: field.mul(x, y) for p, x in xcol for q, y in ycol}
    mult = LinMap(field, tensor_space(space, space), space, cols)
    unit = tensor_vec(field, a.unit, b.unit, b.dim)
    flag = "yes" if a.associative == b.associative == "yes" else "unknown"
    return FDAlgebra(field, space, mult, unit, associative=flag)


def tensor_bialgebra(x: FDBialgebra, y: FDBialgebra) -> FDBialgebra:
    return FDBialgebra(
        tensor_coalgebra(x.coalgebra, y.coalgebra),
        tensor_algebra(x.algebra, y.algebra),
    )


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
    field = a.field
    mul = field.mul
    n, m = a.dim, a.mult.cols
    labels = a.space.labels
    rep = Report("algebra axioms")

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

    _scan(rep, "associativity", iproduct(range(n), repeat=3), associative,
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


def _coalgebra_map_halves(m: LinMap, x: FDCoalgebra, y: FDCoalgebra, z: FDCoalgebra,
                          anti: bool = False):
    """The two halves of "m: X (x) Y -> Z is a coalgebra map" as pointwise
    evaluators ``(comult, counit)`` at basis elements (a, b):

        delta_Z m(a, b)  = sum m(a1, b1) (x) m(a2, b2)
        counit_Z m(a, b) = counit(a) counit(b)

    With ``anti`` the first takes delta_Z m(a, b) with its legs swapped, as
    for an antimap.  A linear map X -> Z is the case Y = k.  Raises
    ``ValueError`` unless m maps X (x) Y to Z."""
    _check_shape(m, x.dim * y.dim, z.dim, "coalgebras")
    field = same_field(m, x, y, z)
    mul = field.mul
    ny, mc = y.dim, m.cols
    cop_x, cop_y, cop_z = ([c.expand(i, 2) for i in range(c.dim)] for c in (x, y, z))
    eps_x, eps_y, eps_z = _counits(x), _counits(y), _counits(z)

    def comult(a, b):
        lhs, rhs = {}, {}
        for r, c in mc.get(a * ny + b, ()):
            for (r1, r2), e in cop_z[r]:
                _add_term(field, lhs, (r2, r1) if anti else (r1, r2), mul(c, e))
        for (a1, a2), s in cop_x[a]:
            for (b1, b2), t in cop_y[b]:
                st = mul(s, t)
                for r1, u in mc.get(a1 * ny + b1, ()):
                    for r2, v in mc.get(a2 * ny + b2, ()):
                        _add_term(field, rhs, (r1, r2), mul(st, mul(u, v)))
        return lhs == rhs

    def counit(a, b):
        acc = field.zero
        for r, c in mc.get(a * ny + b, ()):
            acc = field.add(acc, mul(eps_z[r], c))
        return acc == mul(eps_x[a], eps_y[b])

    return comult, counit


def _is_coalgebra_map(m: LinMap, x: FDCoalgebra, y: FDCoalgebra, z: FDCoalgebra,
                      anti: bool = False) -> bool:
    """Both halves of :func:`_coalgebra_map_halves` at every (a, b)."""
    comult, counit = _coalgebra_map_halves(m, x, y, z, anti)
    return all(comult(a, b) and counit(a, b)
               for a, b in iproduct(range(x.dim), range(y.dim)))


def _ground_coalgebra(field) -> FDCoalgebra:
    """The ground field k as a coalgebra: delta(1) = 1 (x) 1, counit(1) = 1."""
    return FDCoalgebra(field, SCALAR_SPACE, grouplike_delta(field, SCALAR_SPACE),
                       counit_all_ones(field, SCALAR_SPACE))


def is_coalgebra_map(f: LinMap, src: FDCoalgebra, dst: FDCoalgebra) -> bool:
    """True iff delta_dst . f = (f (x) f) . delta_src and counits agree."""
    return _is_coalgebra_map(f, src, _ground_coalgebra(src.field), dst)


def is_coalgebra_antimap(f: LinMap, src: FDCoalgebra, dst: FDCoalgebra) -> bool:
    """Like :func:`is_coalgebra_map` but with the tensor factors swapped."""
    return _is_coalgebra_map(f, src, _ground_coalgebra(src.field), dst, anti=True)


def _algebra_morphism(f: LinMap, src: FDAlgebra, dst: FDAlgebra, flip: bool) -> bool:
    """f . m_src = m_dst . (f (x) f), with the factors swapped before f (x) f
    when ``flip``, and f(1_src) = 1_dst."""
    _check_shape(f, src.dim, dst.dim, "algebras")
    field = same_field(f, src, dst)
    mul = field.mul
    n, nd = src.dim, dst.dim
    m_src, m_dst = src.mult.cols, dst.mult.cols
    for i, j in iproduct(range(n), repeat=2):
        lhs, rhs = {}, {}
        for r, x in m_src.get(i * n + j, ()):
            for s, y in f.cols.get(r, ()):
                _add_term(field, lhs, s, mul(x, y))
        left, right = (j, i) if flip else (i, j)
        for r1, u in f.cols.get(left, ()):
            for r2, v in f.cols.get(right, ()):
                uv = mul(u, v)
                for s, y in m_dst.get(r1 * nd + r2, ()):
                    _add_term(field, rhs, s, mul(uv, y))
        if lhs != rhs:
            return False
    return f.apply(src.unit) == dst.unit


def is_algebra_map(f: LinMap, src: FDAlgebra, dst: FDAlgebra) -> bool:
    return _algebra_morphism(f, src, dst, flip=False)


def is_algebra_antimap(f: LinMap, src: FDAlgebra, dst: FDAlgebra) -> bool:
    return _algebra_morphism(f, src, dst, flip=True)


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
    comultiplication of e_i, with no map out of a tensor square.  Raises
    :class:`DimensionError` unless both factors map src to dst."""
    field = same_field(f, g, src, dst)
    for h in (f, g):
        if h.domain.dim != src.dim or h.codomain.dim != dst.dim:
            raise DimensionError(
                f"convolution factor {h.domain.dim} -> {h.codomain.dim} does not "
                f"map the coalgebra ({src.dim}) to the algebra ({dst.dim})")
    cols = {}
    for i in range(src.dim):
        acc: dict = {}
        for (i1, i2), c in src.expand(i, 2):
            vec_add_into(field, acc, dst.mul(f.col(i1), g.col(i2)), c)
        cols[i] = acc
    return LinMap(field, src.delta.domain, dst.mult.codomain, cols)


def convolution_unit(src: FDCoalgebra, dst: FDAlgebra) -> LinMap:
    """unit_dst . counit_src, the unit of the convolution algebra."""
    return compose(dst.unit_map(), src.epsilon)


def antipode_solve(b: FDBialgebra) -> LinMap:
    """Solve the convolution system S * id = unit . counit for the antipode
    exactly, with the matrix entries of S as unknowns.

    One system suffices: in a bialgebra a left convolution inverse L of the
    identity equals the antipode S whenever S exists, since
    L = L * (id * S) = (L * id) * S = S.  The solution is then checked to be
    an inverse on both sides.  Raises :class:`NoAntipodeError` naming the
    side: "left" when the system is inconsistent, "right" when its solution
    is no right inverse.
    """
    field = b.field
    n = b.dim
    target = convolution_unit(b.coalgebra, b.algebra)
    rows, rhs = [], []
    for k in range(n):
        want = target.col(k)
        out_rows = {}
        for (i, j), c in b.expand(k, 2):
            # sum_t S[t,i] * c * mult((t,j) -> r)
            for t in range(n):
                for r, m in b.mult.cols.get(t * n + j, ()):
                    key = t * n + i
                    row = out_rows.setdefault(r, {})
                    row[key] = field.add(row.get(key, field.zero), field.mul(c, m))
        for r in set(out_rows) | set(want):
            rows.append(out_rows.get(r, {}))
            rhs.append(want.get(r, field.zero))
    sol, _ = solve_system(field, rows, rhs, n * n)
    if sol is None:
        raise NoAntipodeError("left")
    cols: dict[int, dict] = {}
    for key, v in sol.items():
        t, i = divmod(key, n)
        cols.setdefault(i, {})[t] = v
    s = LinMap(field, b.space, b.space, cols)
    # verify rather than trust the elimination
    ident = LinMap.identity(field, b.space)
    if convolution(s, ident, b.coalgebra, b.algebra) != target:
        raise NoAntipodeError("left")
    if convolution(ident, s, b.coalgebra, b.algebra) != target:
        raise NoAntipodeError("right")
    return s


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
