"""Finite groups, group algebras, and coset-derived extending structures.

Groups are multiplication tables over indices ``0..n-1``; permutation groups
are ordered by lexicographic comparison of the permutation tuples, which puts
the identity at index 0.  That index order is the canonical total order used
everywhere a deterministic choice is needed (coset representatives, subgroup
listings, serialized fixtures).

A :class:`GroupExtendingStructure` is the set-level shadow of an extending
datum: a base group G, a pointed set X, two actions, a cocycle and a star
multiplication on X.  Lifting it linearly over group-like bases produces an
:class:`~hopfprod.unified.ExtendingDatum`, whose product matches the
set-level product on ``G x X`` entry for entry (an oracle of the tests).
Lifts over one :class:`GroupTable` object share the two factors k[G] and
H, which the object keeps for as long as it lives (:func:`lift_to_hopf`).
:func:`check_group_structure` needs no lift: it scans the engine's
index-table rows (:func:`~hopfprod.unified._table_rows`), each a loop that
yields its failing tuples, over the structure's own tables; only its unit
normalization, one more such loop, is written here.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .fields import QQ
from .linalg import BasedSpace, LinMap, tensor_space
from .reports import Report
from .structures import (
    FDAlgebra,
    FDCoalgebra,
    FDHopf,
    UnitalCoalgebra,
    _scan,
    counit_all_ones,
    grouplike_delta,
)
from .unified import (
    CONDITION_NAMES,
    CONDITION_SHAPES,
    MAP_SHAPES,
    ExtendingDatum,
    _table_rows,
)


class NotAGroupError(ValueError):
    pass


class NotASubgroupError(ValueError):
    pass


def compose_perms(a: tuple, b: tuple) -> tuple:
    """(a . b)(x) = a(b(x)): apply b first."""
    return tuple(a[b[x]] for x in range(len(a)))


def cycle_label(perm: tuple) -> str:
    """Deterministic cycle-notation label; identity is 'e'."""
    n = len(perm)
    seen = [False] * n
    parts = []
    for start in range(n):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        x = perm[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = perm[x]
        parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) if parts else "e"


class GroupTable:
    """A finite group as an index table; all group axioms verified on build."""

    def __init__(self, table, labels):
        self.table = tuple(tuple(row) for row in table)
        self.labels = tuple(labels)
        n = len(self.table)
        self.order = n
        if len(self.labels) != n or any(len(row) != n for row in self.table):
            raise NotAGroupError("table is not square or labels are missing")
        bad = [x for row in self.table for x in row if type(x) is not int or not 0 <= x < n]
        if bad:
            raise NotAGroupError(f"table entry {bad[0]!r} is not an element index")
        ident = None
        for e in range(n):
            if all(self.table[e][x] == x == self.table[x][e] for x in range(n)):
                ident = e
                break
        if ident is None:
            raise NotAGroupError("no identity element")
        self.identity = ident
        inverse = [None] * n
        for x in range(n):
            for y in range(n):
                if self.table[x][y] == ident and self.table[y][x] == ident:
                    inverse[x] = y
                    break
            if inverse[x] is None:
                raise NotAGroupError(f"element {self.labels[x]} has no inverse")
        self.inverse = tuple(inverse)
        self._check_associativity()
        self._hash = None
        # the factors lift_to_hopf shares over this object: k[G] by field,
        # H by (field, X labels), the oldest H dropped past _SHARED_EXTENSIONS
        self._algebras: dict = {}
        self._extensions: dict = {}

    def _check_associativity(self):
        # Light's test: associativity on all triples follows from associativity
        # of (a, g, c) with g running over a generating set
        gens = []
        closed = {self.identity}
        for x in range(self.order):
            if x not in closed:
                gens.append(x)
                closed = self.closure_of(gens)
        t = self.table
        for g in gens:
            for a in range(self.order):
                ag = t[a][g]
                row_a = t[a]
                row_ag = t[ag]
                row_g = t[g]
                for c in range(self.order):
                    if row_ag[c] != row_a[row_g[c]]:
                        raise NotAGroupError(
                            f"not associative at ({self.labels[a]}, "
                            f"{self.labels[g]}, {self.labels[c]})"
                        )

    def closure_of(self, gens) -> set[int]:
        """The subgroup generated by ``gens``: the closure of the identity
        and ``gens`` under right multiplication by each generator (a finite
        sub-semigroup of a group is a subgroup)."""
        gens = list(gens)
        seen = {self.identity, *gens}
        frontier = list(seen)
        while frontier:
            new = []
            for x in frontier:
                row = self.table[x]
                for g in gens:
                    z = row[g]
                    if z not in seen:
                        seen.add(z)
                        new.append(z)
            frontier = new
        return seen

    def is_subgroup(self, indices) -> bool:
        s = set(indices)
        if self.identity not in s:
            return False
        return all(self.table[x][y] in s and self.inverse[x] in s for x in s for y in s)

    def subgroup_table(self, indices) -> tuple["GroupTable", tuple[int, ...]]:
        """The subgroup on the given indices, relabelled 0.. in index order."""
        idx = tuple(sorted(set(indices)))
        if not self.is_subgroup(idx):
            raise NotASubgroupError(f"{idx} is not closed under product and inverse")
        pos = {g: k for k, g in enumerate(idx)}
        table = [[pos[self.table[x][y]] for y in idx] for x in idx]
        return GroupTable(table, [self.labels[g] for g in idx]), idx

    def all_subgroups(self) -> list[tuple[int, ...]]:
        """Every subgroup, found by closing single-element extensions."""
        seed = frozenset({self.identity})
        found = {seed}
        frontier = [seed]
        while frontier:
            new = []
            for sub in frontier:
                for g in range(self.order):
                    if g in sub:
                        continue
                    ext = frozenset(self.closure_of(sub | {g}))
                    if ext not in found:
                        found.add(ext)
                        new.append(ext)
            frontier = new
        return sorted(tuple(sorted(s)) for s in found)

    def __eq__(self, other):
        return isinstance(other, GroupTable) and self.table == other.table

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.table)
        return self._hash

    def __repr__(self):
        return f"GroupTable(order={self.order})"


def from_permutations(perms) -> GroupTable:
    """Group table of a closed set of permutations, sorted lexicographically."""
    elems = sorted(set(perms))
    pos = {p: i for i, p in enumerate(elems)}
    table = []
    for a in elems:
        row = []
        for b in elems:
            c = compose_perms(a, b)
            if c not in pos:
                raise NotAGroupError("permutation set is not closed")
            row.append(pos[c])
        table.append(row)
    return GroupTable(table, [cycle_label(p) for p in elems])


def cyclic_group(n: int) -> GroupTable:
    return GroupTable(
        [[(i + j) % n for j in range(n)] for i in range(n)],
        [str(i) for i in range(n)],
    )


def _quaternion_group() -> GroupTable:
    # elements as (sign, unit) with units 1, i, j, k
    units = ["1", "i", "j", "k"]
    rules = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
        ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
        ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
        ("k", "i"): (1, "j"), ("i", "k"): (-1, "j"),
    }
    elems = [(1, "1"), (-1, "1"), (1, "i"), (-1, "i"),
             (1, "j"), (-1, "j"), (1, "k"), (-1, "k")]
    pos = {e: n for n, e in enumerate(elems)}
    table = []
    for sa, ua in elems:
        row = []
        for sb, ub in elems:
            s, u = rules[(ua, ub)]
            row.append(pos[(sa * sb * s, u)])
        table.append(row)
    labels = [("" if s > 0 else "-") + u for s, u in elems]
    return GroupTable(table, labels)


_PERM_GENS = {
    "c2xc2": [(1, 0, 2, 3), (0, 1, 3, 2)],
    "s3": [(1, 0, 2), (1, 2, 0)],
    "d4": [(1, 2, 3, 0), (0, 3, 2, 1)],
    "a4": [(1, 2, 0, 3), (1, 0, 3, 2)],
    "s4": [(1, 0, 2, 3), (1, 2, 3, 0)],
    "a6": [(1, 2, 0, 3, 4, 5), (0, 2, 3, 4, 5, 1)],
}

BUILTIN_NAMES = tuple(f"c{n}" for n in range(1, 13)) + (
    "c2xc2", "s3", "d4", "q8", "a4", "s4", "a6",
)


@lru_cache(maxsize=None)
def builtin_permutations(name: str) -> tuple[tuple, ...]:
    """The sorted permutation elements of a permutation-based builtin group."""
    if name not in _PERM_GENS:
        raise KeyError(f"{name!r} is not a permutation-based builtin")
    gens = [tuple(g) for g in _PERM_GENS[name]]
    ident = tuple(range(len(gens[0])))
    seen = {ident, *gens}
    frontier = list(seen)
    while frontier:
        new = []
        for a in frontier:
            for b in list(seen):
                for c in (compose_perms(a, b), compose_perms(b, a)):
                    if c not in seen:
                        seen.add(c)
                        new.append(c)
        frontier = new
    return tuple(sorted(seen))


@lru_cache(maxsize=None)
def builtin_group(name: str) -> GroupTable:
    if name.startswith("c") and name[1:].isdigit():
        n = int(name[1:])
        if 1 <= n <= 12:
            return cyclic_group(n)
    if name == "q8":
        return _quaternion_group()
    if name in _PERM_GENS:
        return from_permutations(builtin_permutations(name))
    raise KeyError(f"unknown builtin group {name!r}")


def small_corpus_names() -> tuple[str, ...]:
    """Builtin groups of order at most 24 (everything except a6)."""
    return tuple(n for n in BUILTIN_NAMES if n != "a6")


# ---------------------------------------------------------------------------
# group-like linear structures


def group_algebra(g: GroupTable, field=QQ) -> FDHopf:
    """The group algebra: group-like basis, table multiplication, inverse antipode."""
    space = BasedSpace(g.labels)
    mult = LinMap._from_points(field, tensor_space(space, space), space,
                               [z for row in g.table for z in row])
    unit = {g.identity: field.one}
    antipode = LinMap._from_points(field, space, space, g.inverse)
    coalg = FDCoalgebra(field, space, grouplike_delta(field, space),
                        counit_all_ones(field, space))
    alg = FDAlgebra(field, space, mult, unit, associative="yes")
    return FDHopf(coalg, alg, antipode)


def grouplike_coalgebra(labels, field=QQ) -> UnitalCoalgebra:
    """The coalgebra with delta(x) = x (x) x on the given label set, pointed
    at its first label."""
    space = BasedSpace(labels)
    coalg = FDCoalgebra(field, space, grouplike_delta(field, space),
                        counit_all_ones(field, space))
    return UnitalCoalgebra(coalg, {0: field.one})


# ---------------------------------------------------------------------------
# extending structures at the level of sets


@dataclass
class GroupExtendingStructure:
    """Set-level extending structure (G, X, ract, lact, cocyc, star).

    ``x_labels[0]`` is the basepoint.  ``ract[x][a]`` and ``lact[x][a]`` give
    the two actions X x G -> X and X x G -> G; ``cocyc[x][y]`` in G and
    ``star[x][y]`` in X split products of representatives.  When built from a
    coset decomposition, ``ambient``/``sub_indices``/``rep_indices`` record
    the provenance so the canonical bijection (a, x) -> a*x is available.
    """

    group: GroupTable
    x_labels: tuple[str, ...]
    ract: tuple[tuple[int, ...], ...]
    lact: tuple[tuple[int, ...], ...]
    cocyc: tuple[tuple[int, ...], ...]
    star: tuple[tuple[int, ...], ...]
    ambient: GroupTable | None = None
    sub_indices: tuple[int, ...] | None = None
    rep_indices: tuple[int, ...] | None = None

    @property
    def x_size(self) -> int:
        return len(self.x_labels)


def check_group_structure(ges: GroupExtendingStructure) -> Report:
    """Set-level specialization of the datum and product conditions.

    On group-like bases the two tensor-symmetry conditions hold identically,
    so the battery is the unit normalization plus the six rows group-like
    data do not decide: the engine's :func:`~hopfprod.unified._table_rows`,
    read on the structure's own tables, with no lift, and labelled by
    :data:`~hopfprod.unified.CONDITION_SHAPES`.  The unit normalization
    fails at (x, a) where x or a breaks it, so it is one pass over X that
    yields the failing a of each x.
    """
    g = ges.group
    e, base = g.identity, 0
    lact, ract, cocyc, star = ges.lact, ges.ract, ges.cocyc, ges.star
    rep = Report("set-level extending structure")
    xl, gl = ges.x_labels, g.labels

    def unit_normalization():
        """x |> e = e, x <| e = x, 0 |> a = a, 0 <| a = 0, f(x, 0) = f(0, x) = e
        and x . 0 = 0 . x = x"""
        l0, r0, c0, s0 = lact[base], ract[base], cocyc[base], star[base]
        every, bad = range(g.order), [a for a in range(g.order) if l0[a] != a or r0[a] != base]
        for x in range(ges.x_size):
            ok = (lact[x][e] == e and ract[x][e] == x and cocyc[x][base] == e
                  and c0[x] == e and star[x][base] == x and s0[x] == x)
            for a in bad if ok else every:
                yield x, a

    _scan(rep, "unit-normalization", unit_normalization(), (xl, gl))
    # each table a list of row tuples, as _tables gives them: the row code is
    # shared with the engine, and tuple tables here as well make the
    # interpreter re-specialize its indexing (`oracle` ran about 6% slower)
    rows = _table_rows([list(lact), list(ract), list(cocyc), list(star), list(g.table)])
    labels = {"h": xl, "a": gl}
    for name, shape in zip(CONDITION_NAMES[1:7], CONDITION_SHAPES[1:7]):
        _scan(rep, name, rows[name](), tuple(map(labels.__getitem__, shape)))
    rep.add("action-symmetry", True)  # identical tensor legs on group-like bases
    rep.add("cocycle-symmetry", True)
    return rep


def coset_extending_structure(ambient: GroupTable, a_indices,
                              reps=None) -> GroupExtendingStructure:
    """Split an ambient group along a subgroup into an extending structure.

    X is a set of right-coset representatives with the identity representing
    the subgroup itself (the basepoint).  By default each representative is
    the least element of its coset in basis-index order; an explicit ``reps``
    choice (one index per coset, identity included) overrides that.  Writing
    x*g = a.y and x*y' = a'.y'' uniquely defines the four structure maps.
    They satisfy the unit normalization and the product conditions because
    the ambient group is associative; the split is not checked again here.
    """
    sub, sub_idx = ambient.subgroup_table(a_indices)
    sub_pos = {g: k for k, g in enumerate(sub_idx)}
    n = ambient.order
    if reps is None:
        reps = [ambient.identity] + [min(ambient.table[a][g] for a in sub_idx)
                                     for g in range(n) if g not in sub_pos]
    found = sorted(set(reps))
    if ambient.identity not in found:
        raise ValueError("the representative set must contain the identity")
    coset_rep = [None] * n
    for rep in found:
        for a in sub_idx:
            z = ambient.table[a][rep]
            if coset_rep[z] is not None:
                raise ValueError("two representatives share a right coset")
            coset_rep[z] = rep
    if any(r is None for r in coset_rep):
        raise ValueError("the representatives do not cover every right coset")
    reps = [ambient.identity] + sorted(r for r in found if r != ambient.identity)
    rep_pos = {r: k for k, r in enumerate(reps)}

    def split(z: int) -> tuple[int, int]:
        # z = a * y with a in the subgroup, y the representative of its coset
        y = coset_rep[z]
        a = ambient.table[z][ambient.inverse[y]]
        return sub_pos[a], rep_pos[y]

    nx = len(reps)
    ract = [[0] * sub.order for _ in range(nx)]
    lact = [[0] * sub.order for _ in range(nx)]
    for xi, x in enumerate(reps):
        for ai, a in enumerate(sub_idx):
            ga, gx = split(ambient.table[x][a])
            lact[xi][ai] = ga
            ract[xi][ai] = gx
    cocyc = [[0] * nx for _ in range(nx)]
    star = [[0] * nx for _ in range(nx)]
    for xi, x in enumerate(reps):
        for yi, y in enumerate(reps):
            ga, gx = split(ambient.table[x][y])
            cocyc[xi][yi] = ga
            star[xi][yi] = gx
    return GroupExtendingStructure(
        group=sub,
        x_labels=tuple(ambient.labels[r] for r in reps),
        ract=tuple(map(tuple, ract)),
        lact=tuple(map(tuple, lact)),
        cocyc=tuple(map(tuple, cocyc)),
        star=tuple(map(tuple, star)),
        ambient=ambient,
        sub_indices=sub_idx,
        rep_indices=tuple(reps),
    )


# how many group-like H one group object keeps for lift_to_hopf
_SHARED_EXTENSIONS = 4


def lift_to_hopf(ges: GroupExtendingStructure, field=QQ) -> ExtendingDatum:
    """Linearize a set-level structure over group-like bases.

    Lifts over one group object share their two factors: ``ges.group``
    keeps k[G] (:func:`group_algebra`) per field and H
    (:func:`grouplike_coalgebra`) per field and X labels, at most
    :data:`_SHARED_EXTENSIONS` of those, dropping the oldest first.  So the
    caches on the factors (the tensor coalgebra A (x) H, the spaces and
    labels of A (x) A, H (x) A and E (x) E, counits, expansions and points)
    are built once per group object too.  They live as long as the group
    object, or until their H is dropped; a builtin group lives as long as
    the process.  Only the four maps are built for each datum, and every
    check reads the datum in full.  Nothing changes a factor once built."""
    g = ges.group
    a_hopf = g._algebras.get(field)
    if a_hopf is None:
        a_hopf = g._algebras[field] = group_algebra(g, field)
    key = field, tuple(ges.x_labels)
    extensions = g._extensions
    h = extensions.get(key)
    if h is None:
        h = grouplike_coalgebra(ges.x_labels, field)
        if len(extensions) == _SHARED_EXTENSIONS:
            # the oldest H goes, with the tensor coalgebra and space k[G] keeps for it
            oldest = next(iter(extensions))
            old, base = extensions.pop(oldest), g._algebras[oldest[0]]
            base.coalgebra._tensors.pop(id(old.coalg), None)
            base.space._products.pop(old.space, None)
        extensions[key] = h
    spaces = {"a": a_hopf.space, "h": h.space}
    tables = {"dot": ges.star, "ract": ges.ract, "lact": ges.lact, "cocycle": ges.cocyc}
    maps = {}
    for name, (left, right, target) in MAP_SHAPES.items():
        # the structure is not validated, so its rows are read over both ranges
        table, n = tables[name], spaces[right].dim
        maps[name] = LinMap._from_points(
            field, tensor_space(spaces[left], spaces[right]), spaces[target],
            [table[x][y] for x in range(spaces[left].dim) for y in range(n)])
    return ExtendingDatum(base=a_hopf, ext=h, **maps)
