"""Independent checks for the benchmark's outputs.

Nothing here imports hopfprod.  Every expected value is computed from plain
group tables, dense structure-constant dicts mod p, or documents read with
the ``json`` module, so a fault in the library cannot hide behind a second
call into the same code.  Each check returns a list of error strings; an
empty list means the output is correct.
"""
from __future__ import annotations

import json
from itertools import product as iproduct


# ---------------------------------------------------------------------------
# finite groups as index tables


def identity_of(table) -> int:
    return next(e for e in range(len(table))
                if all(table[e][x] == x for x in range(len(table))))


def inverse_of(table, x) -> int:
    e = identity_of(table)
    return next(y for y in range(len(table)) if table[x][y] == e)


def split_order(table, sub, reps) -> tuple[list[int], list[int]]:
    """Basis orders of A and X in the documents: the subgroup in ascending
    index order, the representatives with the identity first."""
    e = identity_of(table)
    return sorted(sub), [e] + sorted(r for r in reps if r != e)


def default_reps(table, sub) -> list[int]:
    """The least element of each right coset, the identity for the subgroup."""
    e = identity_of(table)
    seen, reps = set(), []
    for z in range(len(table)):
        if z in seen:
            continue
        coset = {table[a][z] for a in sub}
        seen |= coset
        reps.append(e if e in coset else min(coset))
    return reps


def subgroup_generated(table, gens) -> list[int]:
    out = {identity_of(table), *gens}
    while True:
        more = {table[x][y] for x in out for y in out} - out
        if not more:
            return sorted(out)
        out |= more


def split_elements(table, sub, reps) -> list[int]:
    """Ambient element a*x at basis index (a, x) = ia * |X| + ix."""
    sub_o, reps_o = split_order(table, sub, reps)
    return [table[a][x] for a in sub_o for x in reps_o]


# ---------------------------------------------------------------------------
# documents read without the library


def doc_maps(data: bytes) -> tuple[dict, dict]:
    """(document, payload maps) with every entry list as {(i, j): (num, den)}."""
    doc = json.loads(data)
    pay = doc["payload"]
    maps = {}
    for key in ("mult", "delta", "epsilon", "antipode"):
        if key in pay:
            maps[key] = {(i, j): (num, den) for i, j, num, den in pay[key]}
    maps["unit"] = {i: (num, den) for i, num, den in pay.get("unit", [])}
    return doc, maps


def group_product_errors(data: bytes, table, sub, reps, field_obj) -> list[str]:
    """The built product must be k[G] carried through (a, x) -> a*x."""
    doc, maps = doc_maps(data)
    errs = []
    if doc.get("kind") != "hopf" or doc.get("field") != field_obj:
        errs.append(f"product is a {doc.get('kind')} over {doc.get('field')}")
    elems = split_elements(table, sub, reps)
    n = len(elems)
    if sorted(elems) != list(range(len(table))):
        return errs + ["(a, x) -> a*x is not a bijection onto G"]
    pos = {g: p for p, g in enumerate(elems)}
    one = (1, 1)
    want = {
        "mult": {(p * n + q, pos[table[elems[p]][elems[q]]]): one
                 for p in range(n) for q in range(n)},
        "delta": {(p, p * n + p): one for p in range(n)},
        "epsilon": {(p, 0): one for p in range(n)},
        "antipode": {(p, pos[inverse_of(table, elems[p])]): one for p in range(n)},
        "unit": {pos[identity_of(table)]: one},
    }
    for key, expected in want.items():
        if maps.get(key) != expected:
            errs.append(f"product {key} differs from the ambient group")
    return errs


# ---------------------------------------------------------------------------
# dense Hopf algebras mod p


class DenseHopf:
    """Structure constants mod p: mult[(i, j)] = {k: c}, delta[i] =
    {(j, k): c}, eps[i], unit = {k: c}, antipode[i] = {k: c}."""

    def __init__(self, p, labels, mult, delta, eps, unit, antipode):
        self.p = p
        self.labels = tuple(labels)
        self.n = len(self.labels)
        clean = lambda d: {k: v % p for k, v in d.items() if v % p}
        self.mult = {ij: clean(col) for ij, col in mult.items()}
        self.delta = [clean(col) for col in delta]
        self.eps = [v % p for v in eps]
        self.unit = clean(unit)
        self.antipode = [clean(col) for col in antipode]


def sweedler(p) -> DenseHopf:
    """Sweedler's H4: basis 1, g, x, gx; g^2 = 1, x^2 = 0, xg = -gx,
    delta(x) = x (x) 1 + g (x) x, S(x) = -gx."""
    mult = {(0, j): {j: 1} for j in range(4)}
    mult.update({(1, 0): {1: 1}, (1, 1): {0: 1}, (1, 2): {3: 1}, (1, 3): {2: 1},
                 (2, 0): {2: 1}, (2, 1): {3: -1}, (2, 2): {}, (2, 3): {},
                 (3, 0): {3: 1}, (3, 1): {2: -1}, (3, 2): {}, (3, 3): {}})
    delta = [{(0, 0): 1}, {(1, 1): 1}, {(2, 0): 1, (1, 2): 1},
             {(3, 1): 1, (0, 3): 1}]
    return DenseHopf(p, ("1", "g", "x", "gx"), mult, delta, [1, 1, 0, 0],
                     {0: 1}, [{0: 1}, {1: 1}, {3: -1}, {2: 1}])


def dense_group_algebra(p, table, labels) -> DenseHopf:
    n = len(table)
    return DenseHopf(
        p, labels,
        {(i, j): {table[i][j]: 1} for i in range(n) for j in range(n)},
        [{(i, i): 1} for i in range(n)], [1] * n, {identity_of(table): 1},
        [{inverse_of(table, i): 1} for i in range(n)])


def dense_tensor(a: DenseHopf, b: DenseHopf) -> DenseHopf:
    """The tensor-product Hopf algebra, row-major: (i, j) at i * dim(b) + j."""
    p, nb = a.p, b.n
    idx = lambda i, j: i * nb + j
    pairs = list(iproduct(range(a.n), range(b.n)))
    mult = {}
    for (i, j), (k, l) in iproduct(pairs, pairs):
        col = {}
        for r, x in a.mult[(i, k)].items():
            for s, y in b.mult[(j, l)].items():
                col[idx(r, s)] = (col.get(idx(r, s), 0) + x * y) % p
        mult[(idx(i, j), idx(k, l))] = col
    delta, antipode = [], []
    for i, j in pairs:
        col = {}
        for (i1, i2), x in a.delta[i].items():
            for (j1, j2), y in b.delta[j].items():
                key = (idx(i1, j1), idx(i2, j2))
                col[key] = (col.get(key, 0) + x * y) % p
        delta.append(col)
        antipode.append({idx(r, s): x * y for r, x in a.antipode[i].items()
                         for s, y in b.antipode[j].items()})
    unit = {idx(r, s): x * y for r, x in a.unit.items() for s, y in b.unit.items()}
    labels = [f"({la},{lb})" for la in a.labels for lb in b.labels]
    return DenseHopf(p, labels, mult, delta, [a.eps[i] * b.eps[j] for i, j in pairs],
                     unit, antipode)


def _entries(p, table: dict) -> dict:
    return {key: (v % p, 1) for key, v in table.items() if v % p}


def tensor_product_errors(data: bytes, want: DenseHopf) -> list[str]:
    """The built product must equal the dense tensor-product Hopf algebra in
    its algebra and coalgebra, and its antipode must solve both
    convolution identities m(S (x) id)delta = m(id (x) S)delta = unit.counit."""
    doc, maps = doc_maps(data)
    p, n = want.p, want.n
    errs = []
    if doc.get("kind") != "hopf" or doc.get("field") != {"kind": "mod-p", "p": p}:
        errs.append(f"product is a {doc.get('kind')} over {doc.get('field')}")
    expected = {
        "mult": _entries(p, {(i * n + j, k): v for (i, j), col in want.mult.items()
                             for k, v in col.items()}),
        "delta": _entries(p, {(i, j * n + k): v for i, col in enumerate(want.delta)
                              for (j, k), v in col.items()}),
        "epsilon": _entries(p, {(i, 0): v for i, v in enumerate(want.eps)}),
    }
    for key, table in expected.items():
        if maps.get(key) != table:
            errs.append(f"product {key} differs from the tensor product")
    if maps["unit"] != _entries(p, want.unit):
        errs.append("product unit differs from the tensor product")
    errs += antipode_errors(p, n, maps)
    return errs


def antipode_errors(p, n, maps) -> list[str]:
    """Both convolution identities for the antipode, from the document's own
    structure constants."""
    value = lambda nd: nd[0] * pow(nd[1], -1, p) % p
    mult, delta, anti, eps = ({}, {}, {}, {})
    for (ij, k), v in maps["mult"].items():
        mult.setdefault(ij, {})[k] = value(v)
    for (i, jk), v in maps["delta"].items():
        delta.setdefault(i, {})[jk] = value(v)
    for (i, j), v in maps.get("antipode", {}).items():
        anti.setdefault(i, {})[j] = value(v)
    for (i, _), v in maps["epsilon"].items():
        eps[i] = value(v)
    unit = {k: value(v) for k, v in maps["unit"].items()}
    for k in range(n):
        want = {r: c * eps.get(k, 0) % p for r, c in unit.items() if c * eps.get(k, 0) % p}
        for side in ("left", "right"):
            got: dict = {}
            for jk, c in delta.get(k, {}).items():
                i, j = divmod(jk, n)
                if side == "left":
                    terms = [((t, j), s) for t, s in anti.get(i, {}).items()]
                else:
                    terms = [((i, t), s) for t, s in anti.get(j, {}).items()]
                for (x, y), s in terms:
                    for r, m in mult.get(x * n + y, {}).items():
                        got[r] = (got.get(r, 0) + c * s * m) % p
            got = {r: v for r, v in got.items() if v}
            if got != want:
                return [f"antipode fails the {side} convolution identity at basis {k}"]
    return []


# ---------------------------------------------------------------------------
# set-level extending structures


class SetStructure:
    """(G, X, ract, lact, cocyc, star) as plain tables; ``group`` is the
    multiplication table of G and X's basepoint is index 0."""

    def __init__(self, group, ract, lact, cocyc, star):
        self.group = group
        self.ract, self.lact, self.cocyc, self.star = ract, lact, cocyc, star

    @property
    def nx(self):
        return len(self.star)

    def product_table(self) -> list[list[int]]:
        """(a, x)(b, y) = (a (x |> b) f(x <| b, y), (x <| b) * y) on G x X,
        indexed (a, x) -> a * |X| + x."""
        g, nx = self.group, self.nx
        n = len(g) * nx
        table = [[0] * n for _ in range(n)]
        for a, x, b, y in iproduct(range(len(g)), range(nx), range(len(g)), range(nx)):
            xb = self.ract[x][b]
            out_a = g[g[a][self.lact[x][b]]][self.cocyc[xb][y]]
            table[a * nx + x][b * nx + y] = out_a * nx + self.star[xb][y]
        return table


def is_associative(table) -> bool:
    n = len(table)
    return all(table[table[p][q]][r] == table[p][table[q][r]]
               for p, q, r in iproduct(range(n), repeat=3))


def coset_structure(table, sub, reps) -> SetStructure:
    """Split G along a subgroup: x*a = (x |> a)(x <| a), x*y = f(x, y)(x * y)."""
    sub_o, reps_o = split_order(table, sub, reps)
    spos = {g: k for k, g in enumerate(sub_o)}
    coset_of = {}
    for k, r in enumerate(reps_o):
        for a in sub_o:
            coset_of[table[a][r]] = (spos[a], k)
    g = [[spos[table[a][b]] for b in sub_o] for a in sub_o]
    ract = [[coset_of[table[x][a]][1] for a in sub_o] for x in reps_o]
    lact = [[coset_of[table[x][a]][0] for a in sub_o] for x in reps_o]
    cocyc = [[coset_of[table[x][y]][0] for y in reps_o] for x in reps_o]
    star = [[coset_of[table[x][y]][1] for y in reps_o] for x in reps_o]
    return SetStructure(g, ract, lact, cocyc, star)


def deform(s: SetStructure, u) -> SetStructure:
    """The deformation of a group-like structure by a pointed map u: X -> G:
    x *' y = (x <| u(y)) * y, x |>' c = u(x) (x |> c) u(x <| c)^-1,
    f'(x, y) = u(x) (x |> u(y)) f(x <| u(y), y) u(x *' y)^-1."""
    g = s.group
    inv = [inverse_of(g, a) for a in range(len(g))]
    nx = s.nx
    star = [[s.star[s.ract[x][u[y]]][y] for y in range(nx)] for x in range(nx)]
    lact = [[g[g[u[x]][s.lact[x][c]]][inv[u[s.ract[x][c]]]] for c in range(len(g))]
            for x in range(nx)]
    cocyc = [[g[g[g[u[x]][s.lact[x][u[y]]]][s.cocyc[s.ract[x][u[y]]][y]]][inv[u[star[x][y]]]]
              for y in range(nx)] for x in range(nx)]
    return SetStructure(g, s.ract, lact, cocyc, star)


def certificate_errors(source: SetStructure, target: SetStructure, u) -> list[str]:
    """(a, x) -> (a u(x), x) must be an isomorphism from the product of
    ``source`` (the deformed datum) onto the product of ``target``."""
    g, nx = target.group, target.nx
    phi = [g[a][u[x]] * nx + x for a in range(len(g)) for x in range(nx)]
    if sorted(phi) != list(range(len(phi))):
        return ["certificate map is not a bijection"]
    ps, pt = source.product_table(), target.product_table()
    n = len(phi)
    for p, q in iproduct(range(n), repeat=2):
        if phi[ps[p][q]] != pt[phi[p]][phi[q]]:
            return [f"certificate map is not multiplicative at {(p, q)}"]
    return []


def element_orders(table) -> list[int]:
    """Sorted element orders of a group table: an isomorphism invariant."""
    e = identity_of(table)
    out = []
    for x in range(len(table)):
        k, y = 1, x
        while y != e:
            y, k = table[y][x], k + 1
        out.append(k)
    return sorted(out)


def pointed_maps(na, nx) -> list[tuple[int, ...]]:
    """Every map X -> A sending the basepoint to the identity 0, in
    lexicographic order of the images of x = 1 .. |X|-1."""
    return [(0,) + rest for rest in iproduct(range(na), repeat=nx - 1)]
