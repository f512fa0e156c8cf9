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
    tensor_space,
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
    is_coalgebra_antimap,
    is_coalgebra_map,
    tensor_coalgebra,
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
    is a basis index or a sparse vector, as :meth:`LinMap.bilin` takes it."""

    def __init__(self, d: ExtendingDatum):
        self.d = d
        self.field = d.field
        self.adim = d.base.dim
        self.hdim = d.ext.dim

    def ract(self, hv, av):
        return self.d.ract.bilin(hv, av, self.adim)

    def lact(self, hv, av):
        return self.d.lact.bilin(hv, av, self.adim)

    def coc(self, hv, gv):
        return self.d.cocycle.bilin(hv, gv, self.hdim)

    def dot(self, hv, gv):
        return self.d.dot.bilin(hv, gv, self.hdim)

    def amul(self, *vs):
        out = vs[0]
        for v in vs[1:]:
            out = self.d.base.mul(out, v)
        return out


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


def _condition_evaluators(d: ExtendingDatum) -> dict:
    """The nine compatibility identities of d as pointwise evaluators, in
    report order: name -> (index ranges, holds(*indices), witness label).

    Associativity of the product, read on its H leg and on its A leg, gives
    ``h_leg`` and ``a_leg``, each used twice: with ``(act, twist)`` = (f, .)
    and j in H, and with (|>, <|) and j in A.  ``flip`` gives the symmetry
    conditions with (left, right) = (., f) and (<|, |>)."""
    field = d.field
    a, h = d.base, d.ext
    ops = _Ops(d)
    hc, ac = h.coalg, a.coalgebra
    hl, al = h.space.labels, a.space.labels
    hr, ar = range(h.dim), range(a.dim)
    on_h, on_a = (hc, hr, hl), (ac, ar, al)  # the coalgebra, range and labels of j
    mul2 = field.mul
    comult, counit = _coalgebra_map_halves(d.dot, hc, hc, hc)

    def right_module(g, i, j):
        return ops.ract(ops.ract(g, i), j) == ops.ract(g, a.mul(i, j))

    def lact_multiplicative(g, i, j):
        lhs = ops.lact(g, a.mul(i, j))
        rhs: dict = {}
        for (g1, g2), cg in hc.expand(g, 2):
            for (i1, i2), ci in ac.expand(i, 2):
                term = ops.amul(ops.lact(g1, i1), ops.lact(ops.ract(g2, i2), j))
                vec_add_into(field, rhs, term, mul2(cg, ci))
        return lhs == rhs

    def h_leg(act, twist, jc, jr, jl):
        """twist(g . i, j) = sum (g <| act(i1, j1)) . twist(i2, j2)"""
        def holds(g, i, j):
            lhs = twist(ops.dot(g, i), j)
            rhs: dict = {}
            for (i1, i2), ci in hc.expand(i, 2):
                for (j1, j2), cj in jc.expand(j, 2):
                    term = ops.dot(ops.ract(g, act(i1, j1)), twist(i2, j2))
                    vec_add_into(field, rhs, term, mul2(ci, cj))
            return lhs == rhs
        return (hr, hr, jr), holds, _tuple_label(hl, hl, jl)

    def a_leg(act, twist, jc, jr, jl):
        """sum (g1 |> act(i1, j1)) f(g2 <| act(i2, j2), twist(i3, j3))
        = sum f(g1, i1) act(g2 . i2, j)"""
        def holds(g, i, j):
            lhs: dict = {}
            for (g1, g2), cg in hc.expand(g, 2):
                for (i1, i2, i3), ci in hc.expand(i, 3):
                    for (j1, j2, j3), cj in jc.expand(j, 3):
                        term = ops.amul(
                            ops.lact(g1, act(i1, j1)),
                            ops.coc(ops.ract(g2, act(i2, j2)), twist(i3, j3)),
                        )
                        vec_add_into(field, lhs, term, mul2(cg, mul2(ci, cj)))
            rhs: dict = {}
            for (g1, g2), cg in hc.expand(g, 2):
                for (i1, i2), ci in hc.expand(i, 2):
                    term = ops.amul(ops.coc(g1, i1), act(ops.dot(g2, i2), j))
                    vec_add_into(field, rhs, term, mul2(cg, ci))
            return lhs == rhs
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
                        field, left(g1, j1), right(g2, j2), a.dim), c)
                    vec_add_into(field, rhs, tensor_vec(
                        field, left(g2, j2), right(g1, j1), a.dim), c)
            return lhs == rhs
        return (hr, jr), holds, _tuple_label(hl, jl)

    return {
        "comult-multiplicative": ((hr, hr), lambda g, i: comult(g, i) and counit(g, i),
                                  _tuple_label(hl, hl)),
        "right-module": ((hr, ar, ar), right_module, _tuple_label(hl, al, al)),
        "twisted-associativity": h_leg(ops.coc, ops.dot, *on_h),
        "lact-multiplicative": ((hr, ar, ar), lact_multiplicative, _tuple_label(hl, al, al)),
        "ract-dot-compat": h_leg(ops.lact, ops.ract, *on_a),
        "twisted-module": a_leg(ops.lact, ops.ract, *on_a),
        "cocycle-condition": a_leg(ops.coc, ops.dot, *on_h),
        "action-symmetry": flip(ops.ract, ops.lact, *on_a),
        "cocycle-symmetry": flip(ops.dot, ops.coc, *on_h),
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
    product of coalgebras, the unit is 1_A (x) 1_H.  The A-free factors
    L = h1 |> c1, C = f(h2 <| c2, g1) and R = (h3 <| c3) . g2 are evaluated
    once per (h, c, g); each column is then the sum of (a L) C (x) R, in that
    order, so that a non-associative A is multiplied as the formula says.
    Used by the checked builder and, directly, by the independent
    axiom-verification tests.
    """
    field = d.field
    a, h = d.base, d.ext
    ops = _Ops(d)
    hc, ac = h.coalg, a.coalgebra
    na, nh = a.dim, h.dim
    space = tensor_space(a.space, h.space)
    mul = field.mul
    cols = {}
    for hi, ci, gi in iproduct(range(nh), range(na), range(nh)):
        terms = []
        for (h1, h2, h3), ch in hc.expand(hi, 3):
            for (c1, c2, c3), cc in ac.expand(ci, 3):
                for (g1, g2), cg in hc.expand(gi, 2):
                    terms.append((ops.lact(h1, c1),
                                  ops.coc(ops.ract(h2, c2), g1),
                                  ops.dot(ops.ract(h3, c3), g2),
                                  mul(ch, mul(cc, cg))))
        for ai in range(na):
            col: dict = {}
            for left, coc, right, c in terms:
                vec_add_into(field, col,
                             tensor_vec(field, ops.amul(ai, left, coc), right, nh), c)
            if col:
                cols[(ai * nh + hi) * (na * nh) + (ci * nh + gi)] = col
    mult = LinMap(field, tensor_space(space, space), space, cols)
    unit = tensor_vec(field, a.unit, h.unit, nh)
    coalg = tensor_coalgebra(a.coalgebra, h.coalg)
    alg = FDAlgebra(field, space, mult, unit, associative="yes")
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


def product_antipode(p: UnifiedProduct, s_h: LinMap) -> LinMap:
    """Antipode of the product from the base antipode and a dot-inverse on H.

    Preconditions: the base is a Hopf algebra; ``s_h`` is a coalgebra
    antimorphism of H and a two-sided convolution inverse of the identity for
    the dot (h1 . s_h(h2) = s_h(h1) . h2 = counit(h) 1_H).  These are checked
    and violations are rejected by name.
    """
    d = p.datum
    a, h = d.base, d.ext
    if not isinstance(a, FDHopf):
        raise ValueError("base bialgebra has no antipode")
    field = d.field
    if not is_coalgebra_antimap(s_h, h.coalg, h.coalg):
        raise ValueError("s_h is not a coalgebra antimorphism")
    ops = _Ops(d)
    eps_h = _counits(h.coalg)
    for i in range(h.dim):
        want = vec_scale(field, eps_h[i], h.unit)
        left: dict = {}
        right: dict = {}
        for (i1, i2), c in h.coalg.expand(i, 2):
            vec_add_into(field, left, ops.dot(i1, s_h.col(i2)), c)
            vec_add_into(field, right, ops.dot(s_h.col(i1), i2), c)
        if left != want or right != want:
            raise ValueError(
                f"s_h is not a two-sided dot inverse at {h.space.labels[i]}"
            )
    e = p.carrier
    nh = h.dim
    sa = a.antipode
    cols = {}
    for ai in range(a.dim):
        for gi in range(nh):
            w: dict = {}
            for (g1, g2, g3), c in h.coalg.expand(gi, 3):
                left = sa.apply(ops.coc(s_h.col(g2), g3))
                vec_add_into(field, w, tensor_vec(field, left, s_h.col(g1), nh), c)
            col = e.mul(w, tensor_vec(field, sa.col(ai), h.unit, nh))
            if col:
                cols[ai * nh + gi] = col
    return LinMap(field, e.space, e.space, cols)
