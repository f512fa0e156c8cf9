"""Based vector spaces and exact sparse linear maps.

A :class:`LinMap` stores, for each domain basis index, the sparse image vector
as a sorted tuple of ``(codomain index, value)`` pairs with no zeros.  Sparse
vectors elsewhere in the package are plain dicts ``{index: value}`` with no
stored zeros.  Tensor products use the row-major convention throughout: the
pair ``(i, j)`` over ``A (x) B`` sits at flat index ``i * dim(B) + j``.  That
convention is normative for file I/O as well.  :func:`tensor_space` builds
each product space once per pair of factor spaces, and reuses it after.

A map sending each basis vector to a basis vector is an index table, and
:attr:`LinMap.points` is the one test for it.  Where every operand is one,
a result is built from the tables over shared stored columns (:func:`compose`
takes f's column at ``points(g)[i]`` as column i); otherwise it is summed
term by term.  Stored columns are never mutated, so sharing them is safe,
and :class:`LinMap` accepts one, a tuple of ``(index, value)`` pairs.

One constructor validates: ``LinMap(...)`` reads every column it is handed,
drops zeros, sorts, and refuses a repeated or out-of-range index; the
parser and every summing loop build through it.  The private
``LinMap._of`` stores columns as they are and takes ``points`` where the
caller has them.  Only the index-table branches call it, whose columns are
stored columns of validated maps or one-entry tuples read from validated
tables: :func:`compose`, ``structures.convolution``,
``classification._twist`` and ``enumerate_cocycles``, the u (x) counit
and |>(id (x) u) factors of the deformation where every column is stored,
and L and K of the :class:`PreimageSolver` of an injective index table,
which reads them off the table with no elimination.  An index table built
from its points goes through the private ``LinMap._from_points``, which
checks each point as ``LinMap(...)`` checks a column and shares one
``((j, 1),)`` column per codomain index: the group algebra, the group-like
coproduct and counit, the lift of a set-level structure, the assembly on
index tables and the coproduct of ``structures.tensor_coalgebra`` where
both factors' are tables.

Bilinear maps are linear maps out of a tensor-product domain.  A pair of
basis indices is read as the stored column at ``i * dim(right) + j``, and
:meth:`LinMap.bilin` takes vectors: a one-term vector counts as its index
with a coefficient, so a pair of them reads one stored column, scaled only
when the product of the coefficients is not one; any other pair is expanded
bilinearly in one loop.  :func:`tensor_apply` likewise applies ``f (x) g``
to one vector without building the map ``f (x) g``.  Stored columns are
canonical, so maps compare, and hash, by their ``cols`` as stored.
"""
from __future__ import annotations

from .fields import same_field


class DimensionError(ValueError):
    """Shapes of two maps or spaces do not line up."""


class NotInvertibleError(ValueError):
    """A square map has no inverse; carries the rank found."""

    def __init__(self, rank: int, dim: int):
        self.rank = rank
        self.dim = dim
        super().__init__(f"map is not bijective: rank {rank} < dimension {dim}")


class BasedSpace:
    """A finite-dimensional space with a distinguished ordered basis."""

    __slots__ = ("labels", "dim", "_hash", "_products")

    def __init__(self, labels):
        self.labels = tuple(labels)
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("basis labels must be distinct")
        # the labels are an immutable tuple, so their count is stored once
        self.dim = len(self.labels)
        self._hash = hash(self.labels)
        # tensor_space(self, b) for each b it was built for
        self._products: dict = {}

    def __eq__(self, other):
        return isinstance(other, BasedSpace) and self.labels == other.labels

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"BasedSpace(dim={self.dim})"


SCALAR_SPACE = BasedSpace(("1",))


def tensor_space(a: BasedSpace, b: BasedSpace) -> BasedSpace:
    """Tensor product space, row-major: label (i, j) at index i*dim(b)+j;
    ``a`` keeps the space it built for ``b``, or any space with b's labels."""
    space = a._products.get(b)
    if space is None:
        space = a._products[b] = BasedSpace(
            tuple(f"({la},{lb})" for la in a.labels for lb in b.labels))
    return space


# ---------------------------------------------------------------------------
# sparse vectors as plain dicts


def vec_add_into(field, acc: dict, v: dict, scale=None) -> dict:
    """acc += scale*v in place (scale defaults to one); drops zeros."""
    for i, c in v.items():
        x = field.add(acc.get(i, field.zero), c if scale is None else field.mul(scale, c))
        if field.is_zero(x):
            acc.pop(i, None)
        else:
            acc[i] = x
    return acc


def vec_scale(field, c, v: dict) -> dict:
    if field.is_zero(c):
        return {}
    return {i: field.mul(c, x) for i, x in v.items()}


def tensor_vec(field, u: dict, v: dict, right_dim: int) -> dict:
    """The vector u (x) v inside the flattened tensor space."""
    out = {}
    for i, cu in u.items():
        for j, cv in v.items():
            out[i * right_dim + j] = field.mul(cu, cv)
    return out


def basis_vec(field, i: int) -> dict:
    return {i: field.one}


_UNREAD = object()  # LinMap.points not yet read


class LinMap:
    """An exact linear map between based spaces, stored column-sparse."""

    __slots__ = ("field", "domain", "codomain", "cols", "_hash", "_points")

    def __init__(self, field, domain: BasedSpace, codomain: BasedSpace, cols):
        """``cols`` maps domain index -> column; zeros dropped.

        A column is a dict {codomain index: value}, or a tuple of
        ``(j, v)`` pairs such as a stored column of some map.  A one-entry
        tuple is kept as the same tuple; any other tuple is read as its
        dict, and a codomain index it repeats raises :class:`ValueError`.
        Either way a zero value leaves the column out, as does an empty
        column, and an index out of range raises :class:`DimensionError`."""
        self.field = field
        self.domain = domain
        self.codomain = codomain
        norm = {}
        ndom, ncod = domain.dim, codomain.dim
        is_zero = field.is_zero
        for i, col in cols.items():
            if not 0 <= i < ndom:
                raise DimensionError(f"domain index {i} out of range")
            if len(col) == 1:
                entries = col if type(col) is tuple else tuple(col.items())
                (lo, v), = entries
                if is_zero(v):
                    continue
                hi = lo
            else:
                if type(col) is tuple:
                    pairs, col = col, dict(col)
                    if len(col) != len(pairs):
                        raise ValueError(f"column {i} repeats a codomain index")
                entries = sorted(col.items())
                if any(map(is_zero, col.values())):
                    entries = [(j, v) for j, v in entries if not is_zero(v)]
                if not entries:
                    continue
                entries = tuple(entries)
                lo, hi = entries[0][0], entries[-1][0]
            # sorted, so only the ends can lie outside the codomain
            if lo < 0 or hi >= ncod:
                j = next(j for j, _ in entries if not 0 <= j < ncod)
                raise DimensionError(f"codomain index {j} out of range")
            norm[i] = entries
        self.cols = norm
        self._hash = None
        self._points = _UNREAD

    @classmethod
    def _of(cls, field, domain: BasedSpace, codomain: BasedSpace, cols: dict,
            points=_UNREAD) -> LinMap:
        """A map over ``cols`` as they are, without the checks of
        :class:`LinMap`: each column must already be stored form, a nonempty
        sorted tuple of in-range ``(j, v)`` pairs with no zero v, as the
        stored columns of a validated map are.  ``points``, where given, must
        be what :attr:`points` would read.  Only the index-table branches
        call it (the sites the module docstring lists, and
        :meth:`_from_points` once its points are checked); everything else
        goes through :class:`LinMap`."""
        self = object.__new__(cls)
        self.field = field
        self.domain = domain
        self.codomain = codomain
        self.cols = cols
        self._hash = None
        self._points = points
        return self

    @classmethod
    def _from_points(cls, field, domain: BasedSpace, codomain: BasedSpace,
                     points) -> LinMap:
        """The index table sending e_i to e_{points[i]}, one point per domain
        index.  Each point is checked as :class:`LinMap` checks a column, with
        its :class:`DimensionError` at the first one out of range; a wrong
        count raises too.  One ``((j, 1),)`` column is shared per codomain
        index, and the points are stored (``LinMap._of``)."""
        points = tuple(points)
        ndom, ncod = domain.dim, codomain.dim
        if len(points) != ndom:
            raise DimensionError(f"{len(points)} points for a domain of dimension {ndom}")
        if points and (min(points) < 0 or max(points) >= ncod):
            j = next(j for j in points if not 0 <= j < ncod)
            raise DimensionError(f"codomain index {j} out of range")
        one = field.one
        stored = {j: ((j, one),) for j in set(points)}
        return cls._of(field, domain, codomain, dict(enumerate(map(stored.__getitem__, points))),
                       points)

    @classmethod
    def identity(cls, field, space: BasedSpace) -> LinMap:
        return cls(field, space, space, {i: {i: field.one} for i in range(space.dim)})

    @classmethod
    def zero(cls, field, domain: BasedSpace, codomain: BasedSpace) -> LinMap:
        return cls(field, domain, codomain, {})

    @property
    def points(self) -> tuple | None:
        """The j of each domain index whose stored column is ``((j, 1),)``,
        where every column is; else None, a missing column included.  An
        empty domain gives ``()``, so test ``is not None``.  Read once."""
        if self._points is _UNREAD:
            cols, one = self.cols, self.field.one
            table = len(cols) == self.domain.dim and all(
                len(c) == 1 and c[0][1] == one for c in cols.values())
            self._points = tuple(cols[i][0][0] for i in range(len(cols))) if table else None
        return self._points

    def col(self, i: int) -> dict:
        return dict(self.cols.get(i, ()))

    def apply(self, v: dict) -> dict:
        out = {}
        f = self.field
        for i, c in v.items():
            for j, m in self.cols.get(i, ()):
                x = f.add(out.get(j, f.zero), f.mul(c, m))
                if f.is_zero(x):
                    out.pop(j, None)
                else:
                    out[j] = x
        return out

    def bilin(self, v, w, right_dim: int) -> dict:
        """Apply to v (x) w, where the domain splits as left (x) right.

        Each argument is a basis index or a sparse vector.  A one-term
        vector {k: c} counts as the index k with coefficient c, so two such
        arguments give one stored column, scaled by the product of their
        coefficients unless it is one; a scaled entry is zero only when a
        coefficient is.  Otherwise every pair of terms adds its scaled column
        to the result, a basis index counting with coefficient one.
        """
        c = None
        if not isinstance(v, int):
            if len(v) != 1:
                return self._bilin_terms(v, w, right_dim)
            (v, c), = v.items()
        if not isinstance(w, int):
            if len(w) != 1:
                return self._bilin_terms(v if c is None else {v: c}, w, right_dim)
            (w, y), = w.items()
            c = y if c is None else self.field.mul(c, y)
        col = self.cols.get(v * right_dim + w, ())
        if c is None or c == self.field.one:
            return dict(col)
        # a field product is reduced, so it is falsy exactly when it is zero
        mul = self.field.mul
        return {k: z for k, m in col if (z := mul(c, m))}

    def _bilin_terms(self, v, w, right_dim: int) -> dict:
        """:meth:`bilin` summed pair of terms by pair of terms."""
        cols = self.cols
        f = self.field
        left = ((v, None),) if isinstance(v, int) else v.items()
        right = ((w, None),) if isinstance(w, int) else tuple(w.items())
        out = {}
        for i, x in left:
            base = i * right_dim
            for j, y in right:
                c = y if x is None else x if y is None else f.mul(x, y)
                for k, m in cols.get(base + j, ()):
                    z = f.add(out.get(k, f.zero), m if c is None else f.mul(c, m))
                    if f.is_zero(z):
                        out.pop(k, None)
                    else:
                        out[k] = z
        return out

    def __eq__(self, other):
        """Exact equality of the stored columns; spaces compared by dimension only."""
        return self is other or (
            isinstance(other, LinMap) and self.field == other.field
            and self.domain.dim == other.domain.dim
            and self.codomain.dim == other.codomain.dim and self.cols == other.cols)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.domain.dim, self.codomain.dim, frozenset(self.cols.items())))
        return self._hash

    def __repr__(self):
        return f"LinMap({self.domain.dim}->{self.codomain.dim}, {len(self.cols)} cols)"


def compose(f: LinMap, g: LinMap) -> LinMap:
    """The composite f after g.  Requires dim(codomain g) == dim(domain f).

    Where g is an index table (:attr:`LinMap.points`), column i of the
    composite is f's stored column at ``points(g)[i]``, shared as it is.
    Stored columns of the validated f need no check again (``LinMap._of``)."""
    field = same_field(f, g)
    if g.codomain.dim != f.domain.dim:
        raise DimensionError(
            f"cannot compose: {g.codomain.dim} -> {f.domain.dim} mismatch"
        )
    fcols, gp = f.cols, g.points
    if gp is not None:
        return LinMap._of(field, g.domain, f.codomain,
                          {i: col for i, j in enumerate(gp) if (col := fcols.get(j))})
    zero, add, mul, is_zero = field.zero, field.add, field.mul, field.is_zero
    cols = {}
    for i, gcol in g.cols.items():
        acc = {}
        for j, c in gcol:
            for k, m in fcols.get(j, ()):
                z = add(acc.get(k, zero), mul(c, m))
                if is_zero(z):
                    acc.pop(k, None)
                else:
                    acc[k] = z
        if acc:
            cols[i] = acc
    return LinMap(field, g.domain, f.codomain, cols)


def tensor_apply(f: LinMap, g: LinMap, v: dict) -> dict:
    """(f (x) g)(v), evaluated on the support of v without building f (x) g."""
    field = same_field(f, g)
    gdim, cdim = g.domain.dim, g.codomain.dim
    out = {}
    for p, c in v.items():
        i, j = divmod(p, gdim)
        for a, x in f.cols.get(i, ()):
            cx = field.mul(c, x)
            for b, y in g.cols.get(j, ()):
                k = a * cdim + b
                z = field.add(out.get(k, field.zero), field.mul(cx, y))
                if field.is_zero(z):
                    out.pop(k, None)
                else:
                    out[k] = z
    return out


# ---------------------------------------------------------------------------
# exact elimination


def _rows_of(f: LinMap) -> list[dict]:
    rows = [dict() for _ in range(f.codomain.dim)]
    for i, col in f.cols.items():
        for j, v in col:
            rows[j][i] = v
    return rows


def _subtract_scaled(field, row: dict, factor, prow: dict):
    for c, v in prow.items():
        x = field.sub(row.get(c, field.zero), field.mul(factor, v))
        if field.is_zero(x):
            row.pop(c, None)
        else:
            row[c] = x


def _echelon(field, rows: list[dict], width: int):
    """Forward-reduce sparse rows in place; pivots are the row minima.

    Rows may carry augmentation columns >= width; pivots are chosen below
    ``width`` only.  Returns the sorted list of (pivot column, row index).
    Rows that never acquire a pivot end up with no coefficient columns.
    """
    pivots: dict[int, int] = {}
    for r in sorted(range(len(rows)), key=lambda k: len(rows[k])):
        row = rows[r]
        while True:
            cols = [c for c in row if c < width]
            if not cols:
                break
            c0 = min(cols)
            holder = pivots.get(c0)
            if holder is None:
                pinv = field.inv(row[c0])
                for c in list(row):
                    row[c] = field.mul(pinv, row[c])
                pivots[c0] = r
                break
            _subtract_scaled(field, row, row[c0], rows[holder])
    return sorted((c, r) for c, r in pivots.items())


def _rref(field, rows: list[dict], width: int):
    """Full reduced echelon form; returns sorted pivot pairs."""
    pivots = _echelon(field, rows, width)
    for col, r in reversed(pivots):
        prow = rows[r]
        for col2, r2 in pivots:
            if col2 >= col:
                break
            row2 = rows[r2]
            factor = row2.get(col)
            if factor is not None and not field.is_zero(factor):
                _subtract_scaled(field, row2, factor, prow)
    return pivots


def _bijection_solver(f: LinMap) -> PreimageSolver:
    """The :class:`PreimageSolver` of a bijective map.  Raises
    :class:`DimensionError` unless f is square and
    :class:`NotInvertibleError`, with the rank, unless it is bijective."""
    n = f.domain.dim
    if f.codomain.dim != n:
        raise DimensionError("only square maps can be inverted")
    solver = PreimageSolver(f)
    if len(solver.pivots) < n:
        raise NotInvertibleError(len(solver.pivots), n)
    return solver


def invert(f: LinMap) -> LinMap:
    """Exact inverse of a square map, raising as :func:`_bijection_solver`
    does: the left inverse of its solver, as a bijective map is injective."""
    return _bijection_solver(f).left_inverse


def solve_system(field, rows: list[dict], rhs: list, n_unknowns: int):
    """Solve a sparse linear system exactly.

    Returns ``(solution dict, unique)`` with free unknowns set to zero, or
    ``(None, False)`` when inconsistent.
    """
    work = []
    for row, b in zip(rows, rhs):
        row = {c: v for c, v in row.items() if not field.is_zero(v)}
        if not field.is_zero(b):
            row[n_unknowns] = b
        work.append(row)
    pivots = _echelon(field, work, n_unknowns)
    pivot_rows = {r for _, r in pivots}
    for r, row in enumerate(work):
        if r in pivot_rows:
            continue
        if not field.is_zero(row.get(n_unknowns, field.zero)):
            return None, False
    sol = {}
    for col, r in reversed(pivots):
        row = work[r]
        acc = row.get(n_unknowns, field.zero)
        for c, v in row.items():
            if c != col and c < n_unknowns and c in sol:
                acc = field.sub(acc, field.mul(v, sol[c]))
        if not field.is_zero(acc):
            sol[col] = acc
    return sol, len(pivots) == n_unknowns


class PreimageSolver:
    """Solve f(x) = v repeatedly for a fixed injective-or-not map f.

    One reduction of ``[f | id]`` to reduced echelon form yields two sparse
    maps out of the codomain of f: a left inverse ``L`` that sends each v in
    the image of f to its preimage with every free unknown zero (``L f = id``
    when f is injective), and a cokernel ``K`` whose kernel is exactly the
    image of f.  A preimage is then one apply of each.

    An injective index table (:attr:`LinMap.points`) needs no reduction: its
    pivots are (i, f(i)), L sends e_{f(i)} to e_i, and K sends each row
    outside the image to its own free index, in increasing order, as the
    reduction leaves them.  A preimage is then read through the inverse
    table, term by term.
    """

    def __init__(self, f: LinMap):
        self.f = f
        field = self.field = f.field
        n = f.domain.dim
        fp = f.points
        # the inverse table of an injective index table, else None
        self._inverse = None
        if fp is not None and len(set(fp)) == n:
            self._read_table(fp)
            return
        rows = _rows_of(f)
        for r, row in enumerate(rows):
            row[n + r] = field.one
        self.pivots = _rref(field, rows, n)
        pivot_rows = {r for _, r in self.pivots}
        # the augmented part of the pivot row of column `col` is row `col`
        # of L; rows without a pivot keep only augmented columns, and those
        # are the rows of K
        free = [r for r in range(len(rows)) if r not in pivot_rows]
        left: dict[int, dict] = {}
        for col, r in self.pivots:
            for c, x in rows[r].items():
                if c >= n:
                    left.setdefault(c - n, {})[col] = x
        coker: dict[int, dict] = {}
        for k, r in enumerate(free):
            for c, x in rows[r].items():
                coker.setdefault(c - n, {})[k] = x
        self.left_inverse = LinMap(field, f.codomain, f.domain, left)
        self.cokernel = LinMap(field, f.codomain,
                               BasedSpace(str(r) for r in free), coker)
        self._ident = LinMap.identity(field, f.codomain)

    def _read_table(self, fp: tuple):
        """Pivots, L and K of the injective index table with points ``fp``,
        read off the table: each stored column is a shared one-entry tuple."""
        f, field = self.f, self.field
        one, ncod = field.one, f.codomain.dim
        self._inverse = inverse = {j: i for i, j in enumerate(fp)}
        self.pivots = list(enumerate(fp))
        free = [r for r in range(ncod) if r not in inverse]
        left = {j: ((i, one),) for i, j in enumerate(fp)}
        self.left_inverse = LinMap._of(field, f.codomain, f.domain, left,
                                       tuple(map(inverse.__getitem__, range(ncod)))
                                       if not free else None)
        self.cokernel = LinMap._of(field, f.codomain, BasedSpace(str(r) for r in free),
                                   {r: ((k, one),) for k, r in enumerate(free)})

    def preimage(self, v: dict):
        """A preimage of v under f, or None if v is outside the image."""
        inverse = self._inverse
        if inverse is not None:
            field, ncod, out = self.field, self.f.codomain.dim, {}
            for j, c in v.items():
                if field.is_zero(c):
                    continue
                i = inverse.get(j)
                if i is not None:
                    out[i] = c
                elif 0 <= j < ncod:
                    return None
            return out
        if self.cokernel.apply(v):
            return None
        return self.left_inverse.apply(v)

    def pair_preimage(self, v: dict):
        """A preimage of v under f (x) f, or None if v is outside its image.

        v lies in im f (x) im f iff ``(K (x) id) v`` and ``(id (x) K) v``
        vanish, and its preimage is then ``(L (x) L) v``; all three are
        evaluated on the support of v, or read through the inverse table.
        """
        inverse = self._inverse
        if inverse is not None:
            field, ncod, ndom, out = self.field, self.f.codomain.dim, self.f.domain.dim, {}
            for p, c in v.items():
                if field.is_zero(c):
                    continue
                i, j = divmod(p, ncod)
                a, b = inverse.get(i), inverse.get(j)
                if a is not None and b is not None:
                    out[a * ndom + b] = c
                elif 0 <= i < ncod and 0 <= j < ncod:
                    return None
            return out
        ident, k, l = self._ident, self.cokernel, self.left_inverse
        if tensor_apply(k, ident, v) or tensor_apply(ident, k, v):
            return None
        return tensor_apply(l, l, v)
