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
:func:`validate_datum` are one table, which the classical checkers share.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .fields import same_field
from .linalg import (
    SCALAR_SPACE,
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
    is_coalgebra_map,
    left_convolution_inverse,
    tensor_coalgebra,
    _add_term,
    _antipode_failure,
    _coalgebra_map_halves,
    _counits,
    _ground_coalgebra,
    _is_coalgebra_map,
    _scan,
    _tuple_label,
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


class _Ops:
    """Pointwise evaluators for the structure maps of a datum.  Each argument
    is a basis index or a sparse vector, as :meth:`LinMap.bilin` takes it.
    The ``bilin`` of each map, and of the multiplication of A, is bound once
    per datum, so each evaluation is one call into it."""

    def __init__(self, d: ExtendingDatum):
        adim, hdim = self.adim, self.hdim = d.base.dim, d.ext.dim
        ract, lact, coc, dot = d.ract.bilin, d.lact.bilin, d.cocycle.bilin, d.dot.bilin
        mul = d.base.mult.bilin
        self.ract = lambda hv, av: ract(hv, av, adim)
        self.lact = lambda hv, av: lact(hv, av, adim)
        self.coc = lambda hv, gv: coc(hv, gv, hdim)
        self.dot = lambda hv, gv: dot(hv, gv, hdim)

        def amul(*vs):
            out = vs[0]
            for v in vs[1:]:
                out = mul(out, v, adim)
            return out
        self.amul = amul


def _coalgebra_map_rows(rep: Report, hc, ac, **maps) -> None:
    """Add a "<name>-coalgebra-map" row for each structure map given, in the
    order given, with its shape read from :data:`MAP_SHAPES`.  The maps are
    checked as they are, so one of the wrong shape raises here, before a
    datum is formed from it."""
    coalgs = {"h": hc, "a": ac}
    for name, m in maps.items():
        left, right, target = (coalgs[k] for k in MAP_SHAPES[name])
        rep.add(f"{name}-coalgebra-map", _is_coalgebra_map(m, left, right, target))


def _normalization_evaluators(d: ExtendingDatum) -> dict:
    """The eight unit normalizations of d as pointwise evaluators, in report
    order, shaped like :func:`_condition_evaluators`."""
    field = d.field
    a, h = d.base, d.ext
    ops = _Ops(d)
    one, one_a, one_h = field.one, a.unit, h.unit
    eps_h, eps_a = _counits(h.coalg), _counits(a.coalgebra)
    hr, ar = (range(h.dim),), (range(a.dim),)
    hl, al = _tuple_label(h.space.labels), _tuple_label(a.space.labels)
    return {
        "lact-normal-unit-right": (
            hr, lambda i: ops.lact(i, one_a) == vec_scale(field, eps_h[i], one_a), hl),
        "lact-normal-unit-left": (ar, lambda j: ops.lact(one_h, j) == {j: one}, al),
        "ract-normal-unit-left": (
            ar, lambda j: ops.ract(one_h, j) == vec_scale(field, eps_a[j], one_h), al),
        "ract-normal-unit-right": (hr, lambda i: ops.ract(i, one_a) == {i: one}, hl),
        "cocycle-normal-right": (
            hr, lambda i: ops.coc(i, one_h) == vec_scale(field, eps_h[i], one_a), hl),
        "cocycle-normal-left": (
            hr, lambda i: ops.coc(one_h, i) == vec_scale(field, eps_h[i], one_a), hl),
        "dot-unit-left": (hr, lambda i: ops.dot(one_h, i) == {i: one}, hl),
        "dot-unit-right": (hr, lambda i: ops.dot(i, one_h) == {i: one}, hl),
    }


def validate_datum(d: ExtendingDatum) -> Report:
    """Unit/counit normalization and coalgebra-map property of all four maps."""
    h = d.ext
    rep = Report("extending datum")
    # 1_H is group-like exactly when k -> H, 1 -> 1_H is a coalgebra map
    unit = LinMap(d.field, SCALAR_SPACE, h.space, {0: h.unit})
    rep.add("unit-h-grouplike", is_coalgebra_map(unit, _ground_coalgebra(d.field), h.coalg),
            "1_H")
    _coalgebra_map_rows(rep, h.coalg, d.base.coalgebra, ract=d.ract, lact=d.lact,
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
    applied to the vector in its first slot.  A single term with coefficient
    one is its memo entry itself, which the caller only reads."""
    if len(terms) == 1:
        (t, c), = terms
        if c == field.one:
            return memo[t, k]
    out: dict = {}
    for t, c in terms:
        vec_add_into(field, out, memo[t, k], c)
    return out


def _condition_evaluators(d: ExtendingDatum) -> dict:
    """The nine compatibility identities of d as pointwise evaluators, in
    report order: name -> (index ranges, holds(*indices), witness label).

    Associativity of the product, read on its H leg and on its A leg, gives
    ``h_leg`` and ``a_leg``, each used twice: with ``(act, twist)`` = (f, .)
    and j in H, and with (|>, <|) and j in A.  ``flip`` gives the symmetry
    conditions with (left, right) = (., f) and (<|, |>).

    Values that recur across tuples and rows are memoized on basis keys for
    the life of the table.  Each structure map, and the product of A, is
    evaluated once per basis pair; a map applied to a vector is the sum of
    its memoized basis values (:func:`_gather`).  Each sum over coproducts
    is collapsed once into basis terms (:func:`_collapse`):

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
    ops = _Ops(d)
    hc, ac = h.coalg, a.coalgebra
    hl, al = h.space.labels, a.space.labels
    hr, ar = range(h.dim), range(a.dim)
    htree, atree = _prefix_trees(hc), _prefix_trees(ac)
    mul2 = field.mul
    comult, counit = _coalgebra_map_halves(d.dot, hc, hc, hc)

    ract, lact, coc, dot, amul = (_Memo(op) for op in (ops.ract, ops.lact, ops.coc, ops.dot,
                                                        ops.amul))
    # keyed (a, h), so that g <| v and g |> v gather a vector v over A
    ract_a = _Memo(lambda x, g: ract[g, x])
    lact_a = _Memo(lambda x, g: lact[g, x])

    def a_left_summand(xyz, g):
        """sum (g1 |> x) f(g2 <| y, z)"""
        x, y, z = xyz
        out: dict = {}
        for (g1, g2), cg in hc.expand(g, 2):
            right = _gather(field, ract[g2, y].items(), coc, z)
            vec_add_into(field, out, ops.amul(lact[g1, x], right), cg)
        return out

    def products(act):
        """(x, w), j -> x act(w, j)"""
        return _Memo(lambda xw, j: ops.amul(xw[0], act[xw[1], j]))

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

    def h_leg(twist, legs, jr, jl):
        """twist(g . i, j) = sum (g <| act(i1, j1)) . twist(i2, j2), where
        ``legs[i, j]`` is the sum of act(i1, j1) (x) twist(i2, j2) collapsed
        into basis terms c (x, z), read for every g as (g <| x) . z."""
        def holds(g, i, j):
            return (_gather(field, dot[g, i].items(), twist, j)
                    == _gather(field, legs[i, j], h_right, g))
        return (hr, hr, jr), holds, _tuple_label(hl, hl, jl)

    def a_leg(act, twist, jtree, jr, jl, right):
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
        return (hr, hr, jr), holds, _tuple_label(hl, hl, jl)

    def flip(left, right, jc, jr, jl):
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
        return (hr, jr), holds, _tuple_label(hl, jl)

    return {
        "comult-multiplicative": ((hr, hr), lambda g, i: comult(g, i) and counit(g, i),
                                  _tuple_label(hl, hl)),
        "right-module": ((hr, ar, ar), right_module, _tuple_label(hl, al, al)),
        "twisted-associativity": h_leg(dot, coc_dot, hr, hl),
        "lact-multiplicative": ((hr, ar, ar), lact_multiplicative, _tuple_label(hl, al, al)),
        "ract-dot-compat": h_leg(ract, lact_ract, ar, al),
        "twisted-module": a_leg(lact, ract, atree, ar, al, lact_products),
        "cocycle-condition": a_leg(coc, dot, htree, hr, hl, products(coc)),
        "action-symmetry": flip(ract, lact, ac, ar, al),
        "cocycle-symmetry": flip(dot, coc, hc, hr, hl),
    }


def _scan_condition(rep: Report, evaluators: dict, name: str, row: str | None = None) -> None:
    """Scan one evaluator of a table shaped like :func:`_condition_evaluators`
    into ``rep``, as the row ``row`` (default: its own name)."""
    ranges, holds, label = evaluators[name]
    _scan(rep, row or name, iproduct(*ranges), holds, label)


def check_product_conditions(d: ExtendingDatum) -> Report:
    """The nine compatibility identities, each over all basis tuples."""
    rep = Report("product compatibility")
    evaluators = _condition_evaluators(d)
    for name in evaluators:
        _scan_condition(rep, evaluators, name)
    return rep


def assemble_product(d: ExtendingDatum) -> FDBialgebra:
    """Build the product carrier from the raw formulas, without any checks.

    The multiplication is the twisted formula, the coalgebra is the tensor
    product of coalgebras, the unit is 1_A (x) 1_H, and the E (x) E space is
    built once, for the codomain of the comultiplication and the domain of
    the multiplication.  Each structure map, and the product of A, is
    evaluated once per basis pair (:class:`_Memo`).  For each (h, c) the sum
    of (h1 |> c1) (x) (h2 <| c2) (x) (h3 <| c3) is collapsed once into basis
    terms k (l, y, z), and sum f(y, g1) (x) z . g2 once per (y, z, g) into
    terms c (p, w); (e_a e_l) e_p is formed once per basis triple, in that
    order, so that a non-associative A is multiplied as the formula says.
    Column (a, h, c, g) is the sum of k c ((e_a e_l) e_p) (x) e_w.  Where
    both sums are one term with coefficient one and (e_a e_l) e_p is one
    term, the column is handed to :class:`LinMap` as a one-entry tuple.
    Used by the checked builder and, directly, by the independent
    axiom-verification tests.
    """
    field = d.field
    a, h = d.base, d.ext
    ops = _Ops(d)
    na, nh = a.dim, h.dim
    one, mul = field.one, field.mul
    coalg = tensor_coalgebra(a.coalgebra, h.coalg)
    htree, atree = _prefix_trees(h.coalg), _prefix_trees(a.coalgebra)
    lact, ract, coc, dot, amul = (_Memo(op) for op in (ops.lact, ops.ract, ops.coc, ops.dot,
                                                        ops.amul))
    triple = _Memo(lambda ai, l, p: _gather(field, amul[ai, l].items(), amul, p))
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
    mult = LinMap(field, coalg.delta.codomain, coalg.space, cols)
    unit = tensor_vec(field, a.unit, h.unit, nh)
    alg = FDAlgebra(field, coalg.space, mult, unit, associative="yes")
    return FDBialgebra(coalg, alg)


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
