"""Extending data and the twisted product A (x) H they generate.

An :class:`ExtendingDatum` couples a bialgebra A with a coalgebra H that
carries a unit and a possibly non-associative multiplication, through three
coalgebra maps: a right action ``ract: H (x) A -> H``, a left action
``lact: H (x) A -> A`` and a cocycle ``cocycle: H (x) H -> A``.  The product
space A (x) H multiplies by

    (a (x) h)(c (x) g) = a (h1 |> c1) f(h2 <| c2, g1)  (x)  (h3 <| c3) . g2

with the tensor-product coalgebra structure.  :func:`check_product_conditions`
evaluates the nine compatibility identities that are jointly equivalent to
this product being a bialgebra, each over basis tuples so that a failure
carries a witness.  Each identity is written once: comult-multiplicative is
the coalgebra-map evaluator of :mod:`hopfprod.structures` on the dot, and
the other eight come from five formulas.  The unit normalizations of
:func:`validate_datum` are one table, which the classical checkers share;
on index tables with units ``1 e_u`` each row is one loop that compares
points with indices.  A table of rows maps each name to the generator
function of its failing tuples, in row-major order, with its labels, as
``structures._scan`` reads it; a row evaluated tuple by tuple is wrapped
as one (:func:`_loop_row`).

On group-like H and A (``structures._grouplike``) each coproduct leg of x
is x, so index tables are coalgebra maps and both symmetry conditions
compare a tensor with itself: those rows are decided once per check, and
added as passed with nothing built for them.  The coalgebra-map and unit
rows are decided in ``structures`` (``_undecided_halves``,
``_unit_verdicts``), only the symmetry rows here.  Where the four maps of
the datum and the product of A are index tables (``LinMap.points``) too,
:func:`_tables` reads their points once; the six other conditions are then
loops over those tables that compare two indices per tuple and yield the
tuples that differ (:func:`_table_rows`), and each column of the product
is one entry read from the tables (:func:`_table_product`).
Otherwise assembly and the conditions read structure maps at basis pairs as
stored columns, memoized (:func:`_pair_columns`), and collapse each sum
that does not depend on every index once (:func:`_collapse`); only a vector
argument goes through ``LinMap.bilin``.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .fields import same_field
from .linalg import (
    LinMap,
    basis_vec,
    tensor_vec,
    vec_add_into,
    vec_scale,
)
from .reports import Report
from .structures import (
    FDAlgebra,
    FDBialgebra,
    FDHopf,
    UnitalCoalgebra,
    antipode_solve,
    left_convolution_inverse,
    tensor_coalgebra,
    _add_term,
    _antipode_failure,
    _counits,
    _failing,
    _grouplike,
    _is_coalgebra_map,
    _scan,
    _undecided_halves,
    _unit_index,
    _unit_verdicts,
)

CONDITION_NAMES = (
    "comult-multiplicative",
    "right-module",
    "twisted-associativity",
    "lact-multiplicative",
    "ract-dot-compat",
    "twisted-module",
    "cocycle-condition",
    "action-symmetry",
    "cocycle-symmetry",
)

# The basis each tuple position of a condition ranges over, "h" for H and
# "a" for A, aligned with CONDITION_NAMES; the evaluator table and the
# set-level check read it.
CONDITION_SHAPES = ("hh", "haa", "hhh", "haa", "hha", "hha", "hhh", "ha", "hh")


# The shape of each structure map of a datum, as (left factor, right factor,
# codomain) with "h" for the coalgebra H and "a" for the base A.  The datum
# constructor, the coalgebra-map rows, the lift of a set-level structure and
# the document parser all read it.
MAP_SHAPES = {
    "dot": ("h", "h", "h"),
    "ract": ("h", "a", "h"),
    "lact": ("h", "a", "a"),
    "cocycle": ("h", "h", "a"),
}


class DatumConditionError(ValueError):
    """A construction was refused because datum conditions fail."""

    def __init__(self, report: Report):
        self.report = report
        fails = ", ".join(it.condition for it in report.failures())
        super().__init__(f"datum conditions fail: {fails}")


@dataclass
class ExtendingDatum:
    """The system (H, <|, |>, f) over a base bialgebra, plus the dot on H."""

    base: FDBialgebra
    ext: UnitalCoalgebra
    dot: LinMap
    ract: LinMap
    lact: LinMap
    cocycle: LinMap

    def __post_init__(self):
        same_field(self.base, self.ext, self.dot, self.ract, self.lact, self.cocycle)
        dims = {"a": self.base.dim, "h": self.ext.dim}
        for name, (left, right, target) in MAP_SHAPES.items():
            m = getattr(self, name)
            dom, cod = dims[left] * dims[right], dims[target]
            if m.domain.dim != dom or m.codomain.dim != cod:
                raise ValueError(f"{name} has shape {m.domain.dim}->{m.codomain.dim}, "
                                 f"want {dom}->{cod}")

    @property
    def field(self):
        return self.base.field

    def components_equal(self, other: "ExtendingDatum") -> str | None:
        """None when equal, else the name of the first differing component.

        Bases are compared as bialgebras (an antipode carried by only one
        side does not count as a difference).
        """
        if (self.base.coalgebra != other.base.coalgebra
                or self.base.algebra != other.base.algebra):
            return "base"
        for name in ("ext", "dot", "ract", "lact", "cocycle"):
            if getattr(self, name) != getattr(other, name):
                return name
        return None


def _coalgebra_map_rows(rep: Report, hc, ac, grouplike, **maps) -> None:
    """Add a "<name>-coalgebra-map" row for each structure map given, in the
    order given, with its shape read from :data:`MAP_SHAPES`; ``grouplike``
    says whether H and A are group-like (``structures._grouplike``), and
    the rule of ``structures._undecided_halves`` decides the rows it can.
    The maps are checked as they are, so one of the wrong shape raises
    here, before a datum is formed from it."""
    coalgs = {"h": (hc, grouplike[0]), "a": (ac, grouplike[1])}
    for name, m in maps.items():
        (left, gl), (right, gr), (target, gt) = map(coalgs.__getitem__, MAP_SHAPES[name])
        rep.add(f"{name}-coalgebra-map",
                _is_coalgebra_map(m, left, right, target, gl and gr and gt))


def _loop_row(holds, *ranges):
    """The generator function of the failing tuples of a row evaluated
    tuple by tuple, by ``holds``, over the product of ``ranges``."""
    return lambda: _failing(iproduct(*ranges), holds)


def _points_off(got, want):
    """The generator function of the failing indices (i,) of a unit
    normalization on index tables: where the point ``got[i]`` is not
    ``want[i]``."""
    return lambda: ((i,) for i, p in enumerate(got) if p != want[i])


def _normalization_evaluators(d: ExtendingDatum) -> dict:
    """The eight unit normalizations of d, in report order, shaped like
    :func:`_condition_evaluators`.

    Where the four maps are index tables (``LinMap.points``) and both units
    are ``1 e_u``, each side is one basis vector, or the counit times one:
    a row is one loop over a row or a column of the points of its map
    (:func:`_points_off`), which compares each point with an index.  Where
    the other side is scaled by a counit, it is that index only where the
    counit times one is one, and no point elsewhere.  Otherwise each row is
    evaluated index by index."""
    field = d.field
    a, h = d.base, d.ext
    adim, hdim, one, one_a, one_h = a.dim, h.dim, field.one, a.unit, h.unit
    eps_h, eps_a = _counits(h.coalg), _counits(a.coalgebra)
    hr, ar = range(hdim), range(adim)
    hl, al = (h.space.labels,), (a.space.labels,)
    points = [m.points for m in (d.lact, d.ract, d.cocycle, d.dot)]
    ua, uh = _unit_index(one_a, adim, one), _unit_index(one_h, hdim, one)
    if None not in points and ua is not None and uh is not None:
        lp, rp, cp, dp = points
        # counit(x) 1 (x) e_u is e_u where counit(x) 1 = 1, as vec_scale and
        # the comparison read it, and no basis vector elsewhere
        ua_h, uh_a = ([u if field.mul(e, one) == one else None for e in eps]
                      for u, eps in ((ua, eps_h), (uh, eps_a)))
        # the points at (x, 1) are a column of a table, at (1, x) its row
        ha, hh = uh * adim, uh * hdim
        return {
            "lact-normal-unit-right": (_points_off(lp[ua::adim], ua_h), hl),
            "lact-normal-unit-left": (_points_off(lp[ha:ha + adim], ar), al),
            "ract-normal-unit-left": (_points_off(rp[ha:ha + adim], uh_a), al),
            "ract-normal-unit-right": (_points_off(rp[ua::adim], hr), hl),
            "cocycle-normal-right": (_points_off(cp[uh::hdim], ua_h), hl),
            "cocycle-normal-left": (_points_off(cp[hh:hh + hdim], ua_h), hl),
            "dot-unit-left": (_points_off(dp[hh:hh + hdim], hr), hl),
            "dot-unit-right": (_points_off(dp[uh::hdim], hr), hl),
        }
    lact, ract, coc, dot = d.lact.bilin, d.ract.bilin, d.cocycle.bilin, d.dot.bilin
    rows = {
        "lact-normal-unit-right": (
            hr, lambda i: lact(i, one_a, adim) == vec_scale(field, eps_h[i], one_a), hl),
        "lact-normal-unit-left": (ar, lambda j: lact(one_h, j, adim) == {j: one}, al),
        "ract-normal-unit-left": (
            ar, lambda j: ract(one_h, j, adim) == vec_scale(field, eps_a[j], one_h), al),
        "ract-normal-unit-right": (hr, lambda i: ract(i, one_a, adim) == {i: one}, hl),
        "cocycle-normal-right": (
            hr, lambda i: coc(i, one_h, hdim) == vec_scale(field, eps_h[i], one_a), hl),
        "cocycle-normal-left": (
            hr, lambda i: coc(one_h, i, hdim) == vec_scale(field, eps_h[i], one_a), hl),
        "dot-unit-left": (hr, lambda i: dot(one_h, i, hdim) == {i: one}, hl),
        "dot-unit-right": (hr, lambda i: dot(i, one_h, hdim) == {i: one}, hl),
    }
    return {name: (_loop_row(holds, r), labels) for name, (r, holds, labels) in rows.items()}


def validate_datum(d: ExtendingDatum) -> Report:
    """Unit/counit normalization and coalgebra-map property of all four maps.

    1_H is group-like exactly when k -> H, 1 -> 1_H is a coalgebra map
    (``structures._unit_verdicts``)."""
    h = d.ext
    rep = Report("extending datum")
    grouplike = _grouplike(h.coalg), _grouplike(d.base.coalgebra)
    rep.add("unit-h-grouplike", all(_unit_verdicts(h.unit, h.coalg, grouplike[0])), "1_H")
    _coalgebra_map_rows(rep, h.coalg, d.base.coalgebra, grouplike, ract=d.ract, lact=d.lact,
                        cocycle=d.cocycle, dot=d.dot)
    normalizations = _normalization_evaluators(d)
    for name in normalizations:
        _scan_condition(rep, normalizations, name)
    return rep


class _Memo(dict):
    """A dict that fills a missing key k with ``fn(*k)`` on its first lookup.

    The evaluators of one check keep their memos in these, keyed by basis
    indices, so each distinct value is computed once per check; callers
    read the stored vectors and never change them."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(*key)
        return value


def _pair_columns(d: ExtendingDatum) -> tuple:
    """|>, <|, f and . of d and the product of A, each as a :class:`_Memo`
    (i, j) -> its stored column at e_i (x) e_j, as a dict."""
    def columns(m: LinMap, n: int) -> _Memo:
        cols = m.cols
        return _Memo(lambda i, j: dict(cols.get(i * n + j, ())))
    na, nh = d.base.dim, d.ext.dim
    return (columns(d.lact, na), columns(d.ract, na), columns(d.cocycle, nh),
            columns(d.dot, nh), columns(d.base.mult, na))


def _prefix_tree(expansion) -> dict:
    """An n-fold coproduct expansion [((i_1, ..., i_n), c), ...] as nested
    dicts keyed by i_1, then i_2, ..., with the coefficient c at the leaf."""
    root: dict = {}
    for idx, c in expansion:
        node = root
        for k in idx[:-1]:
            node = node.setdefault(k, {})
        node[idx[-1]] = c
    return root


def _prefix_trees(c) -> _Memo:
    """(i, n) -> the :func:`_prefix_tree` of the n-fold expansion of e_i in
    the coalgebra c, each built on first use."""
    return _Memo(lambda i, n: _prefix_tree(c.expand(i, n)))


def _collapse(field, ops, left, right) -> list:
    """sum c d op_1(l_1, r_1) (x) ... (x) op_n(l_n, r_n) over the terms
    ((l_1, ..., l_n), c) of the expansion whose :func:`_prefix_tree` is
    ``left`` and ((r_1, ..., r_n), d) of the one whose tree is ``right``, as
    a list of ((x_1, ..., x_n), coeff) over basis indices with zeros
    dropped.  Each op_k is a :class:`_Memo` of a map on basis pairs.  Terms
    are grouped by their leading indices, so each op_k is read once per
    distinct prefix pair and a zero leg prunes every term below it."""
    acc: dict = {}
    _collapse_into(field, ops, 0, acc, left, right, (), field.one)
    return list(acc.items())


def _collapse_into(field, ops, k, acc, lnode, rnode, key, c) -> None:
    """Add to ``acc`` the terms of :func:`_collapse` below one pair of
    prefix-tree nodes at depth k, whose legs above have basis indices
    ``key`` and coefficient c.  A plain recursive function, so a collapse
    leaves no reference cycle behind."""
    mul = field.mul
    op, last = ops[k], k == len(ops) - 1
    for li, lsub in lnode.items():
        for ri, rsub in rnode.items():
            for x, cx in op[li, ri].items():
                if last:
                    _add_term(field, acc, key + (x,), mul(mul(c, cx), mul(lsub, rsub)))
                else:
                    _collapse_into(field, ops, k + 1, acc, lsub, rsub, key + (x,), mul(c, cx))


def _gather(field, terms, memo, k) -> dict:
    """sum c memo[t, k] over the terms (t, c): a :func:`_collapse` list, or
    the items of a sparse vector, so that a map memoized on basis pairs is
    applied to the vector in its first slot."""
    out: dict = {}
    for t, c in terms:
        vec_add_into(field, out, memo[t, k], c)
    return out


def _tables(d: ExtendingDatum, grouplike):
    """The points of d where H and A are group-like (``grouplike``, the
    pair of their ``structures._grouplike``) and every map the product reads
    is an index table (:attr:`~hopfprod.linalg.LinMap.points`); else None.

    Returns [|>, <|, f, ., m_A], each a list of rows, ``m[x][y]`` the point
    of m at (x, y); no coproduct leg is kept, since each is x itself."""
    a, h = d.base, d.ext
    if not all(grouplike):
        return None
    na, nh = a.dim, h.dim
    points = [m.points for m in (d.lact, d.ract, d.cocycle, d.dot, a.mult)]
    if None in points:
        return None
    # every map is read with its left factor first: H for the four of d, A for m_A
    return [[p[x * n:x * n + n] for x in range(left)]
            for p, left, n in zip(points, (nh, nh, nh, nh, na), (na, na, nh, nh, na))]


def _condition_evaluators(d: ExtendingDatum, grouplike) -> dict:
    """The nine compatibility identities of d, in report order: name ->
    (failing, labels), where ``failing()`` iterates the tuples at which the
    row fails, in row-major order, and ``labels`` holds one label list per
    tuple position; or None for a row that holds, which is added unscanned
    (:func:`_scan_condition`).  ``grouplike`` is the pair of
    ``structures._grouplike`` of H and A.

    comult-multiplicative is the coalgebra-map evaluator of the dot, or
    None where ``structures._undecided_halves`` decides it.  The
    others are :func:`_table_rows` where :func:`_tables` gives the points of
    d, and :func:`_vector_rows` otherwise, with the same verdicts.  On
    group-like H, delta(g) = g (x) g: cocycle-symmetry compares
    (g . j) (x) f(g, j) with itself; on group-like A too, action-symmetry
    compares (g <| j) (x) (g |> j) with itself.  Those rows are None."""
    a, h = d.base, d.ext
    hc = h.coalg
    gh, ga = grouplike
    tables = _tables(d, grouplike)
    rows = _table_rows(tables) if tables is not None else _vector_rows(d)
    if gh:
        rows["cocycle-symmetry"] = None
        if ga:
            rows["action-symmetry"] = None
    halves = _undecided_halves(d.dot, hc, hc, hc, gh)
    if halves is None:
        rows["comult-multiplicative"] = None
    else:
        comult, counit = halves
        hr = range(h.dim)
        rows["comult-multiplicative"] = _loop_row(
            lambda g, i: comult(g, i) and counit(g, i), hr, hr)
    # each tuple position is labelled by the basis of H ("h") or of A ("a")
    labels = {"h": h.space.labels, "a": a.space.labels}
    out = {}
    for name, shape in zip(CONDITION_NAMES, CONDITION_SHAPES):
        row = rows[name]
        out[name] = None if row is None else (row, tuple(map(labels.__getitem__, shape)))
    return out


def _table_rows(t) -> dict:
    """The six rows of :func:`_condition_evaluators` that group-like data do
    not decide, read from the points ``t`` of :func:`_tables`, each the
    generator function of its failing tuples in row-major order.  Every leg
    of a coproduct is x itself, so each side of a row is one basis vector
    and the row compares the two indices; each formula is its counterpart
    in :func:`_vector_rows` with every leg read as x.  What does not depend
    on the inner index is read once outside its loop."""
    lact, ract, coc, dot, amul = t
    hs, as_ = range(len(lact)), range(len(amul))

    def right_module():
        """(g <| i) <| j = g <| i j"""
        for g in hs:
            rg = ract[g]
            for i in as_:
                left, ai = ract[rg[i]], amul[i]
                for j in as_:
                    if left[j] != rg[ai[j]]:
                        yield g, i, j

    def lact_multiplicative():
        """g |> i j = (g |> i) ((g <| i) |> j)"""
        for g in hs:
            lg, rg = lact[g], ract[g]
            for i in as_:
                ai, right, acted = amul[i], amul[lg[i]], lact[rg[i]]
                for j in as_:
                    if lg[ai[j]] != right[acted[j]]:
                        yield g, i, j

    def h_leg(act, twist, js):
        """twist(g . i, j) = (g <| act(i, j)) . twist(i, j), j in ``js``"""
        def failing():
            for g in hs:
                dg, rg = dot[g], ract[g]
                for i in hs:
                    left, ai, ti = twist[dg[i]], act[i], twist[i]
                    for j in js:
                        if left[j] != dot[rg[ai[j]]][ti[j]]:
                            yield g, i, j
        return failing

    def a_leg(act, twist, js):
        """(g |> act(i, j)) f(g <| act(i, j), twist(i, j)) = f(g, i) act(g . i, j),
        j in ``js``"""
        def failing():
            for g in hs:
                lg, rg, cg, dg = lact[g], ract[g], coc[g], dot[g]
                for i in hs:
                    ai, ti, right, acted = act[i], twist[i], amul[cg[i]], act[dg[i]]
                    for j in js:
                        x = ai[j]
                        if amul[lg[x]][coc[rg[x]][ti[j]]] != right[acted[j]]:
                            yield g, i, j
        return failing

    return {
        "right-module": right_module,
        "twisted-associativity": h_leg(coc, dot, hs),
        "lact-multiplicative": lact_multiplicative,
        "ract-dot-compat": h_leg(lact, ract, as_),
        "twisted-module": a_leg(lact, ract, as_),
        "cocycle-condition": a_leg(coc, dot, hs),
    }


def _vector_rows(d: ExtendingDatum) -> dict:
    """The eight rows of :func:`_condition_evaluators` after
    comult-multiplicative, each side a sparse vector, each evaluated tuple
    by tuple (:func:`_loop_row`).

    Associativity of the product, read on its H leg and on its A leg, gives
    ``h_leg`` and ``a_leg``, each used twice: with ``(act, twist)`` = (f, .)
    and j in H, and with (|>, <|) and j in A.  ``flip`` gives the symmetry
    conditions with (left, right) = (., f) and (<|, |>).

    Values that recur across tuples and rows are memoized on basis keys for
    the life of the table.  Each structure map, and the product of A, is
    read as its stored column once per basis pair (:func:`_pair_columns`),
    and applied to a vector as the sum of those columns (:func:`_gather`).
    Each sum over coproducts is collapsed once into basis terms
    (:func:`_collapse`):

    * sum f(g1, i1) (x) g2 . i2 is the twist sum of twisted-associativity
      and the right sum of both ``a_leg`` rows;
    * sum (g1 |> i1) (x) (g2 <| i2) is the twist sum of ract-dot-compat and
      the right sum of lact-multiplicative;
    * the products x (w |> j) are read by twisted-module and
      lact-multiplicative, and the products i j in A by right-module and
      lact-multiplicative;
    * both uses of ``h_leg`` share (g <| x) . z, and both uses of ``a_leg``
      the left summand sum (g1 |> x) f(g2 <| y, z).
    """
    field = d.field
    a, h = d.base, d.ext
    hc, ac = h.coalg, a.coalgebra
    htree, atree = _prefix_trees(hc), _prefix_trees(ac)
    # the product of A where a factor is a vector, bound once
    mul2, amul_v, na = field.mul, a.mult.bilin, a.dim

    lact, ract, coc, dot, amul = _pair_columns(d)
    # keyed (a, h), so that g <| v and g |> v gather a vector v over A
    ract_a = _Memo(lambda x, g: ract[g, x])
    lact_a = _Memo(lambda x, g: lact[g, x])

    def a_left_summand(xyz, g):
        """sum (g1 |> x) f(g2 <| y, z)"""
        x, y, z = xyz
        out: dict = {}
        for (g1, g2), cg in hc.expand(g, 2):
            right = _gather(field, ract[g2, y].items(), coc, z)
            vec_add_into(field, out, amul_v(lact[g1, x], right, na), cg)
        return out

    def products(act):
        """(x, w), j -> x act(w, j)"""
        return _Memo(lambda xw, j: amul_v(xw[0], act[xw[1], j], na))

    h_right = _Memo(lambda xz, g: _gather(field, ract[g, xz[0]].items(), dot, xz[1]))
    a_left = _Memo(a_left_summand)
    coc_dot = _Memo(lambda g, i: _collapse(field, (coc, dot), htree[g, 2], htree[i, 2]))
    lact_ract = _Memo(lambda g, i: _collapse(field, (lact, ract), htree[g, 2], atree[i, 2]))
    lact_products = products(lact)

    def right_module(g, i, j):
        return (_gather(field, ract[g, i].items(), ract, j)
                == _gather(field, amul[i, j].items(), ract_a, g))

    def lact_multiplicative(g, i, j):
        """g |> i j = sum (g1 |> i1) ((g2 <| i2) |> j)"""
        return (_gather(field, amul[i, j].items(), lact_a, g)
                == _gather(field, lact_ract[g, i], lact_products, j))

    def h_leg(twist, legs):
        """twist(g . i, j) = sum (g <| act(i1, j1)) . twist(i2, j2), where
        ``legs[i, j]`` is the sum of act(i1, j1) (x) twist(i2, j2) collapsed
        into basis terms c (x, z), read for every g as (g <| x) . z."""
        def holds(g, i, j):
            return (_gather(field, dot[g, i].items(), twist, j)
                    == _gather(field, legs[i, j], h_right, g))
        return holds

    def a_leg(act, twist, jtree, right):
        """sum (g1 |> act(i1, j1)) f(g2 <| act(i2, j2), twist(i3, j3))
        = sum f(g1, i1) act(g2 . i2, j)

        The left sum over the coproducts of i and j is collapsed once per
        (i, j) into basis terms c (x, y, z), read for every g as
        (g1 |> x) f(g2 <| y, z).  The right sum is read from the terms
        c (x, w) of f(g1, i1) (x) g2 . i2 as ``right[(x, w), j]`` =
        x act(w, j)."""
        legs = _Memo(lambda i, j: _collapse(field, (act, act, twist), htree[i, 3],
                                            jtree[j, 3]))

        def holds(g, i, j):
            return (_gather(field, legs[i, j], a_left, g)
                    == _gather(field, coc_dot[g, i], right, j))
        return holds

    def flip(left, right, jc):
        """sum left(g1, j1) (x) right(g2, j2) = sum left(g2, j2) (x) right(g1, j1),
        where right lands in A"""
        def holds(g, j):
            lhs, rhs = {}, {}
            for (g1, g2), cg in hc.expand(g, 2):
                for (j1, j2), cj in jc.expand(j, 2):
                    c = mul2(cg, cj)
                    vec_add_into(field, lhs, tensor_vec(
                        field, left[g1, j1], right[g2, j2], a.dim), c)
                    vec_add_into(field, rhs, tensor_vec(
                        field, left[g2, j2], right[g1, j1], a.dim), c)
            return lhs == rhs
        return holds

    holds = {
        "right-module": right_module,
        "twisted-associativity": h_leg(dot, coc_dot),
        "lact-multiplicative": lact_multiplicative,
        "ract-dot-compat": h_leg(ract, lact_ract),
        "twisted-module": a_leg(lact, ract, atree, lact_products),
        "cocycle-condition": a_leg(coc, dot, htree, products(coc)),
        "action-symmetry": flip(ract, lact, ac),
        "cocycle-symmetry": flip(dot, coc, hc),
    }
    ranges = {"h": range(h.dim), "a": range(a.dim)}
    return {name: _loop_row(holds[name], *map(ranges.__getitem__, shape))
            for name, shape in zip(CONDITION_NAMES[1:], CONDITION_SHAPES[1:])}


def _scan_condition(rep: Report, evaluators: dict, name: str, row: str | None = None) -> None:
    """Scan one row of a table shaped like :func:`_condition_evaluators`
    into ``rep``, as the row ``row`` (default: its own name); a row the
    table holds as None is added as passed."""
    entry = evaluators[name]
    if entry is None:
        rep.add(row or name, True)
    else:
        _scan(rep, row or name, entry[0](), entry[1])


def check_product_conditions(d: ExtendingDatum) -> Report:
    """The nine compatibility identities, each over all basis tuples."""
    rep = Report("product compatibility")
    evaluators = _condition_evaluators(d, (_grouplike(d.ext.coalg), _grouplike(d.base.coalgebra)))
    for name in evaluators:
        _scan_condition(rep, evaluators, name)
    return rep


def assemble_product(d: ExtendingDatum) -> FDBialgebra:
    """Build the product carrier from the raw formulas, without any checks.

    The multiplication is the twisted formula, the coalgebra is the tensor
    product of coalgebras, the unit is 1_A (x) 1_H, and the E (x) E space is
    built once, for the codomain of the comultiplication and the domain of
    the multiplication.  Column (a, h, c, g) of the multiplication is
    ((e_a l) p) (x) w summed over l (x) p (x) w = sum (h1 |> c1) (x)
    f(h2 <| c2, g1) (x) (h3 <| c3) . g2; the products are taken in that
    order, so that a non-associative A is multiplied as the formula says.
    It is read from the points of d where :func:`_tables` gives them
    (:func:`_table_product`), and summed otherwise (:func:`_summed_product`).
    Used by the checked builder and, directly, by the independent
    axiom-verification tests.
    """
    field = d.field
    a, h = d.base, d.ext
    coalg = tensor_coalgebra(a.coalgebra, h.coalg)
    tables = _tables(d, (_grouplike(h.coalg), _grouplike(a.coalgebra)))
    if tables is not None:
        mult = _table_product(field, coalg, tables, a.dim, h.dim)
    else:
        mult = _summed_product(d, coalg)
    unit = tensor_vec(field, a.unit, h.unit, h.dim)
    alg = FDAlgebra(field, coalg.space, mult, unit)
    return FDBialgebra(coalg, alg)


def _table_product(field, coalg, t, na: int, nh: int) -> LinMap:
    """The multiplication of :func:`assemble_product` on the points ``t`` of
    :func:`_tables`, where every leg of h, c and g is itself: column
    (a, h, c, g) is the single entry ((a l) p) dim H + w, with l = h |> c,
    p = f(h <| c, g) and w = (h <| c) . g, and the points make the table
    (``LinMap._from_points``)."""
    lact, ract, coc, dot, amul = t
    # (l, p, w) for each (h, c, g), in that order
    legs = [(lact[h][c], coc[ract[h][c]][g], dot[ract[h][c]][g])
            for h in range(nh) for c in range(na) for g in range(nh)]
    return LinMap._from_points(field, coalg.delta.codomain, coalg.space,
                               [amul[amul[x][l]][p] * nh + w for x in range(na)
                                for l, p, w in legs])


def _summed_product(d: ExtendingDatum, coalg) -> LinMap:
    """The multiplication of :func:`assemble_product` summed term by term.

    Each structure map, and the product of A, is read as its stored column
    once per basis pair (:func:`_pair_columns`).  For each (h, c) the sum of
    (h1 |> c1) (x) (h2 <| c2) (x) (h3 <| c3) is collapsed once into basis
    terms k (l, y, z), and sum f(y, g1) (x) z . g2 once per (y, z, g) into
    terms c (p, w); (e_a e_l) e_p is formed once per basis triple.  Column
    (a, h, c, g) is the sum of k c ((e_a e_l) e_p) (x) e_w; where both sums
    and (e_a e_l) e_p are one term with coefficient one, the column goes to
    :class:`LinMap` as a one-entry tuple."""
    field = d.field
    a, h = d.base, d.ext
    na, nh = a.dim, h.dim
    one, mul = field.one, field.mul
    htree, atree = _prefix_trees(h.coalg), _prefix_trees(a.coalgebra)
    lact, ract, coc, dot, amul = _pair_columns(d)
    triple = _Memo(lambda ai, l, p: _gather(field, amul[ai, l].items(), amul, p))
    # sum f(y, g1) (x) z . g2 as basis terms, once per (y, z, g)
    right = _Memo(lambda y, z, g: _collapse(field, (coc, dot), {y: {z: one}}, htree[g, 2]))

    def column(ai, sums):
        col: dict = {}
        for l, k, pairs in sums:
            for (p, w), c in pairs:
                kc = mul(k, c)
                for x, v in triple[ai, l, p].items():
                    _add_term(field, col, x * nh + w, mul(kc, v))
        return col

    cols = {}
    for hi in range(nh):
        for ci in range(na):
            terms = _collapse(field, (lact, ract, ract), htree[hi, 3], atree[ci, 3])
            for gi in range(nh):
                sums = [(l, k, pairs) for (l, y, z), k in terms if (pairs := right[y, z, gi])]
                if not sums:
                    continue
                shared = None
                if len(sums) == 1:
                    (l, k, pairs), = sums
                    if k == one and len(pairs) == 1 and pairs[0][1] == one:
                        shared = l, pairs[0][0]
                for ai in range(na):
                    flat = (ai * nh + hi) * (na * nh) + (ci * nh + gi)
                    if shared:
                        l, (p, w) = shared
                        prod = triple[ai, l, p]
                        if len(prod) == 1:
                            (x, v), = prod.items()
                            cols[flat] = ((x * nh + w, v),)
                            continue
                    col = column(ai, sums)
                    if col:
                        cols[flat] = col
    return LinMap(field, coalg.delta.codomain, coalg.space, cols)


@dataclass
class UnifiedProduct:
    """The product bialgebra together with the inclusions of A and H."""

    carrier: FDBialgebra
    datum: ExtendingDatum
    incl_base: LinMap
    incl_ext: LinMap

    @property
    def field(self):
        return self.carrier.field


def build_unified_product(d: ExtendingDatum) -> UnifiedProduct:
    """Validate the datum, check all conditions, and assemble the product.

    Refuses with :class:`DatumConditionError` naming the failing conditions.
    """
    rep = validate_datum(d)
    if not rep.ok:
        raise DatumConditionError(rep)
    rep = check_product_conditions(d)
    if not rep.ok:
        raise DatumConditionError(rep)
    return unified_product_of_checked(d)


def _base_inclusion(d: ExtendingDatum, space) -> LinMap:
    """a -> a (x) 1_H, from A into the product space A (x) H."""
    field = d.field
    return LinMap(field, d.base.space, space,
                  {i: tensor_vec(field, basis_vec(field, i), d.ext.unit, d.ext.dim)
                   for i in range(d.base.dim)})


def unified_product_of_checked(d: ExtendingDatum) -> UnifiedProduct:
    """The product of a datum that already passed :func:`validate_datum` and
    :func:`check_product_conditions`; the datum is not checked again.

    Assembles the carrier and attaches the two inclusions.  The carrier is
    not re-multiplied here: the mixed-product identities are an oracle of the
    test suite.
    """
    carrier = assemble_product(d)
    field = d.field
    a, h = d.base, d.ext
    nh = h.dim
    incl_base = _base_inclusion(d, carrier.space)
    incl_ext = LinMap(field, h.space, carrier.space,
                      {i: tensor_vec(field, a.unit, basis_vec(field, i), nh)
                       for i in range(h.dim)})
    return UnifiedProduct(carrier, d, incl_base, incl_ext)


def solve_product_antipode(p: UnifiedProduct) -> LinMap:
    """The antipode of the product of a checked datum, solved on 1 (x) H.

    The map a (x) h -> (a (x) 1)(1 (x) h) is bijective, A (x) 1 is a
    sub-bialgebra and an antipode reverses products, so
    S(a (x) h) = S(1 (x) h) (S_A(a) (x) 1): only X = S j, for the coalgebra
    map j: h -> 1 (x) h, is unknown.  X is solved as the left convolution
    inverse of j, with dim E dim H unknowns instead of dim E ** 2; it is
    unique when S exists, since X = X * (j * S j) = (X * j) * S j = S j.
    The assembled S is then checked on both sides.  When the base carries
    no antipode, the restricted system is inconsistent or a check fails,
    :func:`antipode_solve` of the carrier decides, so the map returned and
    the side a :class:`NoAntipodeError` names are those of the full system.
    """
    d, e = p.datum, p.carrier
    if isinstance(d.base, FDHopf):
        x = left_convolution_inverse(p.incl_ext, d.ext.coalg, e.algebra)
        if x is not None:
            nh, sa = d.ext.dim, d.base.antipode
            cols = {}
            for ai in range(d.base.dim):
                right = p.incl_base.apply(sa.col(ai))
                for hi in range(nh):
                    col = e.mul(x.col(hi), right)
                    if col:
                        cols[ai * nh + hi] = col
            s = LinMap(d.field, e.space, e.space, cols)
            if _antipode_failure(s, e) is None:
                return s
    return antipode_solve(e)
