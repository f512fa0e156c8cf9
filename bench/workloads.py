"""The four workloads: inputs drawn from a seed, a fixed op list, checks.

A workload's :func:`setup` draws every input from ``random.Random(seed)``
and writes the documents to a work directory.  :func:`ops` turns the inputs
into the fixed list of ops for one round; each op is a callable that returns
its raw output.  :func:`check` compares the outputs with the independent
oracles in :mod:`oracles` and returns a list of errors.

Every draw is stratified: the seed picks a subgroup among those of a fixed
order, a transversal, a cocycle among those of a fixed quartile, a prime
among primes of one size.  The shape, and so the cost, of each op does not
depend on the seed; only its data do.
"""
from __future__ import annotations

import contextlib
import io
import os
import random
import re

import hopfprod as hp
import hopfprod.cli
import hopfprod.corpus
from hopfprod.groups import GroupExtendingStructure
from hopfprod.linalg import SCALAR_SPACE, BasedSpace, LinMap, tensor_space

import oracles as orc

PRIMES = (101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157)

# Op costs are spread widely and densely around the median.  On a host whose
# CPU speed switches between a fast and a slow mode, a median over ops of
# alike cost jumps between the two modes; over ops whose costs are spread
# over more than the speed ratio it moves smoothly, like the mean.


def split_strata(max_dim, max_x):
    """Every (builtin group of order <= 24, subgroup order) with product dim
    <= max_dim and at most max_x coset representatives."""
    out = []
    for name in hp.groups.small_corpus_names():
        g = hp.builtin_group(name)
        if g.order > max_dim:
            continue
        for order in sorted({len(s) for s in g.all_subgroups()}):
            if g.order // order <= max_x:
                out.append((name, order))
    return out


# oracle slots: (mode, shape, count)
#   pool: a coset split of shape (|A|, |X|)
#   perturb: one entry of such a split changed
#   random: uniformly random maps, shape (groups to draw from, |X|)
ORACLE_SLOTS = (
    ("pool", (2, 2), 2), ("pool", (2, 3), 2), ("pool", (4, 2), 4),
    ("pool", (2, 4), 4), ("pool", (3, 3), 1), ("pool", (3, 4), 1),
    ("perturb", (2, 2), 2), ("perturb", (2, 3), 2), ("perturb", (4, 2), 3),
    ("perturb", (2, 4), 3), ("perturb", (3, 4), 1),
    ("random", (("c2",), 3), 2), ("random", (("c2",), 4), 4),
    ("random", (("c3",), 3), 4), ("random", (("c3",), 4), 1),
    ("random", (("c4", "c2xc2"), 2), 2), ("random", (("c4", "c2xc2"), 3), 1),
    ("random", (("c4", "c2xc2"), 4), 1),
)

# classify: (group, |X|, convolutions, inverses) per cocycle table; the cost
# of one convolution grows with |X| from about 0.5 to 2.5 ms
COCYCLE_TABLES = (
    ("c12", 2, 800, 12), ("a4", 2, 800, 12), ("c4", 3, 700, 16),
    ("a4", 3, 700, 64), ("c3", 4, 600, 27), ("c2xc2", 4, 600, 64),
    ("c3", 5, 500, 81), ("c2", 6, 400, 32), ("c2", 7, 400, 64),
)


class Inputs:
    """Everything setup produced: documents on disk plus the facts the
    checks need."""

    def __init__(self, name, seed, workdir):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.files: dict[str, bytes] = {}
        self.items: list[dict] = []

    def write(self, fname, data: bytes) -> str:
        path = os.path.join(self.workdir, fname)
        with open(path, "wb") as fh:
            fh.write(data)
        self.files[fname] = data
        return path


def field_doc(field):
    return {"kind": "rational"} if field == hp.QQ else {"kind": "mod-p", "p": field.p}


def fill_group_cache():
    """The process-wide caches: builtin group tables, filled in setup."""
    hp.builtin_group.cache_clear()
    hp.groups.builtin_permutations.cache_clear()
    for name in hp.groups.BUILTIN_NAMES:
        if name != "a6":
            hp.builtin_group(name)


# ---------------------------------------------------------------------------
# group splits


def rows(name) -> list[list[int]]:
    return [list(row) for row in hp.builtin_group(name).table]


def random_transversal(rng, table, sub) -> list[int]:
    """One representative per right coset A g, drawn uniformly; the
    identity represents A itself."""
    e = orc.identity_of(table)
    seen, reps = set(sub), [e]
    for z in range(len(table)):
        if z not in seen:
            coset = sorted({table[a][z] for a in sub})
            seen.update(coset)
            reps.append(rng.choice(coset))
    return reps


def inclusion(field, labels, indices, ambient_space) -> LinMap:
    return LinMap(field, BasedSpace([labels[i] for i in indices]), ambient_space,
                  {k: {i: field.one} for k, i in enumerate(indices)})


def add_split(inp: Inputs, field, name, sub, reps, doc=None):
    """Documents for one split of a builtin group: the datum (or the given
    named document), the ambient k[G] and the two inclusions."""
    g, table = hp.builtin_group(name), rows(name)
    ges = hp.coset_extending_structure(g, sub, reps)
    datum = hp.serialize(hp.lift_to_hopf(ges, field))
    ambient = hp.group_algebra(g, field)
    sub_o, reps_o = orc.split_order(table, sub, reps)
    k = len(inp.items)
    item = {
        "kind": "split", "table": table, "sub": sub_o, "reps": reps_o,
        "field": field_doc(field), "datum": datum,
        "input": inp.write(f"in{k}.json", doc if doc is not None else datum),
        "ambient": inp.write(f"amb{k}.json", hp.serialize(ambient)),
        "sub_a": inp.write(f"ia{k}.json", hp.serialize(
            inclusion(field, g.labels, sub_o, ambient.space))),
        "sub_h": inp.write(f"ih{k}.json", hp.serialize(
            inclusion(field, g.labels, reps_o, ambient.space))),
    }
    inp.items.append(item)


def draw_splits(inp: Inputs, rng, field, strata):
    for name, order in strata:
        subs = [s for s in hp.builtin_group(name).all_subgroups() if len(s) == order]
        sub = list(rng.choice(subs))
        add_split(inp, field, name, sub, random_transversal(rng, rows(name), sub))


def corpus(field=hp.QQ) -> list:
    """The corpus examples ``s3-bicrossed``, ``z4-crossed`` and
    ``a4-unified`` as (ambient group, subgroup, object): each is the split of
    the ambient group along the subgroup with the default representatives."""
    s3, a4 = rows("s3"), rows("a4")
    return [
        ("s3", orc.subgroup_generated(s3, [x for x in range(6) if s3[x][x] != 0]),
         hp.corpus.s3_matched_pair(field)),
        ("c4", [0, 2], hp.corpus.z4_crossed_datum(field)),
        ("a4", [0, min(x for x in range(1, 12) if a4[x][x] == 0)],
         hp.corpus.a4_unified_datum(field)),
    ]


def named_splits(inp: Inputs, field):
    for name, sub, obj in corpus(field):
        add_split(inp, field, name, sub, orc.default_reps(rows(name), sub),
                  hp.serialize(obj))


# ---------------------------------------------------------------------------
# Sweedler's H4 and trivial matched pairs over GF(p)


def hopf_object(field, d: orc.DenseHopf) -> hp.FDHopf:
    space = BasedSpace(d.labels)
    n = d.n
    mult = LinMap(field, tensor_space(space, space), space,
                  {i * n + j: col for (i, j), col in d.mult.items()})
    delta = LinMap(field, space, tensor_space(space, space),
                   {i: {j * n + k: v for (j, k), v in col.items()}
                    for i, col in enumerate(d.delta)})
    eps = LinMap(field, space, SCALAR_SPACE, {i: {0: v} for i, v in enumerate(d.eps)})
    coalg = hp.FDCoalgebra(field, space, delta, eps)
    alg = hp.FDAlgebra(field, space, mult, d.unit, associative="yes")
    return hp.FDHopf(coalg, alg, LinMap(field, space, space, dict(enumerate(d.antipode))))


def trivial_datum(field, a: orc.DenseHopf, h: orc.DenseHopf) -> hp.ExtendingDatum:
    """h <| a = eps(a) h, h |> a = eps(h) a, f(h, g) = eps(h) eps(g) 1_A and
    the dot is the multiplication of H, written from the dense tables."""
    base, ext = hopf_object(field, a), hopf_object(field, h)
    na, nh = a.n, h.n
    ract = {i * na + j: {i: a.eps[j]} for i in range(nh) for j in range(na)}
    lact = {i * na + j: {j: h.eps[i]} for i in range(nh) for j in range(na)}
    coc = {i * nh + j: {k: h.eps[i] * h.eps[j] * v for k, v in a.unit.items()}
           for i in range(nh) for j in range(nh)}
    hh, ha = tensor_space(ext.space, ext.space), tensor_space(ext.space, base.space)
    return hp.ExtendingDatum(
        base=base, ext=ext.unit_coalgebra(), dot=ext.mult,
        ract=LinMap(field, ha, ext.space, ract),
        lact=LinMap(field, ha, base.space, lact),
        cocycle=LinMap(field, hh, base.space, coc))


def add_tensor_pair(inp: Inputs, field, a: orc.DenseHopf, h: orc.DenseHopf):
    want = orc.dense_tensor(a, h)
    ambient = hopf_object(field, want)
    datum = hp.serialize(trivial_datum(field, a, h))
    k = len(inp.items)
    na = a.n
    inp.items.append({
        "kind": "tensor", "want": want, "datum": datum,
        "input": inp.write(f"in{k}.json", datum),
        "ambient": inp.write(f"amb{k}.json", hp.serialize(ambient)),
        "sub_a": inp.write(f"ia{k}.json", hp.serialize(LinMap(
            field, BasedSpace(a.labels), ambient.space,
            {i: {i * h.n: field.one} for i in range(na)}))),
        "sub_h": inp.write(f"ih{k}.json", hp.serialize(LinMap(
            field, BasedSpace(h.labels), ambient.space,
            {j: {j: field.one} for j in range(h.n)}))),
    })


def dense_group(p, name) -> orc.DenseHopf:
    return orc.dense_group_algebra(p, rows(name), hp.builtin_group(name).labels)


# ---------------------------------------------------------------------------
# build and gfp


def setup_build(inp: Inputs, rng):
    draw_splits(inp, rng, hp.QQ, split_strata(24, 8))
    named_splits(inp, hp.QQ)
    rng.shuffle(inp.items)


def setup_gfp(inp: Inputs, rng):
    p = rng.choice(PRIMES)
    field = hp.PrimeField(p)
    h4 = orc.sweedler(p)
    four = lambda: dense_group(p, rng.choice(("c4", "c2xc2")))
    draw_splits(inp, rng, field, split_strata(12, 6))
    named_splits(inp, field)
    for a, h in ((h4, h4), (h4, four()), (four(), h4), (h4, dense_group(p, "c3"))):
        add_tensor_pair(inp, field, a, h)
    rng.shuffle(inp.items)


def build_op(inp: Inputs, r: int, k: int, item: dict, bialgebra: bool):
    out = os.path.join(inp.workdir, f"out{r}-{k}.json")
    rec = os.path.join(inp.workdir, f"rec{r}-{k}.json")

    def op():
        rc = hp.cli.main(["build", item["input"], "--out", out])
        rc2 = hp.cli.main(["factorize", item["ambient"], "--sub-a", item["sub_a"],
                        "--sub-h", item["sub_h"], "--out", rec])
        verdict = None
        if bialgebra:
            with open(out, "rb") as fh:
                verdict = hp.check_bialgebra(hp.parse(fh.read())).ok
        return {"rc": (rc, rc2), "product": out, "recovered": rec, "bialgebra": verdict}

    return op


def check_build(item: dict, out: dict) -> list[str]:
    if out["rc"] != (0, 0):
        return [f"exit codes {out['rc']}"]
    with open(out["product"], "rb") as fh:
        product = fh.read()
    with open(out["recovered"], "rb") as fh:
        recovered = fh.read()
    if item["kind"] == "split":
        errs = orc.group_product_errors(product, item["table"], item["sub"],
                                        item["reps"], item["field"])
    else:
        errs = orc.tensor_product_errors(product, item["want"])
    if recovered != item["datum"]:
        errs.append("factorize did not return the input datum byte for byte")
    if out["bialgebra"] is False:
        errs.append("check_bialgebra rejects the product")
    return errs


# ---------------------------------------------------------------------------
# oracle


def oracle_pool(rng) -> dict:
    """Coset splits with |A| <= 4 and |X| <= 4 of every builtin group of
    order <= 24, by shape; transversals drawn from the seed."""
    pool: dict = {}
    for name in hp.groups.small_corpus_names():
        g, table = hp.builtin_group(name), rows(name)
        for sub in g.all_subgroups():
            shape = (len(sub), g.order // len(sub))
            if shape[0] <= 4 and shape[1] <= 4:
                reps = random_transversal(rng, table, sub)
                pool.setdefault(shape, []).append(
                    hp.coset_extending_structure(g, sub, reps))
    return pool


def perturb(rng, ges: GroupExtendingStructure) -> GroupExtendingStructure:
    """Change one entry that the unit normalization does not pin."""
    ng, nx = ges.group.order, ges.x_size
    e = ges.group.identity
    slots = [(m, x, a, nx if m == "ract" else ng) for m in ("ract", "lact")
             for x in range(1, nx) for a in range(ng) if a != e]
    slots += [(m, x, y, nx if m == "star" else ng) for m in ("cocyc", "star")
              for x in range(1, nx) for y in range(1, nx)]
    m, i, j, size = rng.choice([s for s in slots if s[3] > 1])
    tables = {key: [list(r) for r in getattr(ges, key)]
              for key in ("ract", "lact", "cocyc", "star")}
    tables[m][i][j] = rng.choice([v for v in range(size) if v != tables[m][i][j]])
    return GroupExtendingStructure(group=ges.group, x_labels=ges.x_labels,
                                   **{key: tuple(map(tuple, t)) for key, t in tables.items()})


def random_structure(rng, group, nx) -> GroupExtendingStructure:
    """Uniformly random maps with the unit normalization pinned."""
    ng, e = group.order, group.identity
    pick = lambda size, n_rows, n_cols: [[rng.randrange(size) for _ in range(n_cols)]
                                         for _ in range(n_rows)]
    ract, lact = pick(nx, nx, ng), pick(ng, nx, ng)
    cocyc, star = pick(ng, nx, nx), pick(nx, nx, nx)
    for x in range(nx):
        ract[x][e], lact[x][e] = x, e
        cocyc[x][0] = cocyc[0][x] = e
        star[x][0] = star[0][x] = x
    for a in range(ng):
        ract[0][a], lact[0][a] = 0, a
    return GroupExtendingStructure(
        group=group, x_labels=tuple(f"x{k}" for k in range(nx)),
        ract=tuple(map(tuple, ract)), lact=tuple(map(tuple, lact)),
        cocyc=tuple(map(tuple, cocyc)), star=tuple(map(tuple, star)))


def setup_oracle(inp: Inputs, rng):
    pool = oracle_pool(rng)
    for mode, shape, count in ORACLE_SLOTS:
        for _ in range(count):
            if mode == "pool":
                ges = rng.choice(pool[shape])
            elif mode == "perturb":
                ges = perturb(rng, rng.choice(pool[shape]))
            else:
                names, nx = shape
                ges = random_structure(rng, hp.builtin_group(rng.choice(names)), nx)
            inp.items.append({"kind": mode, "ges": ges})
    rng.shuffle(inp.items)


def oracle_op(item: dict):
    ges = item["ges"]

    def op():
        datum = hp.lift_to_hopf(ges)
        return (hp.validate_datum(datum).ok,
                hp.check_product_conditions(datum).ok,
                hp.check_bialgebra(hp.assemble_product(datum)).ok,
                hp.check_group_structure(ges).ok)

    return op


def check_oracle(item: dict, out) -> list[str]:
    valid, conditions, bialgebra, setlevel = out
    ges = item["ges"]
    brute = orc.is_associative(orc.SetStructure(
        [list(r) for r in ges.group.table], ges.ract, ges.lact, ges.cocyc,
        ges.star).product_table())
    errs = []
    if not valid:
        errs.append("validate_datum rejects a normalized datum")
    if not conditions == bialgebra == setlevel == brute:
        errs.append(f"verdicts disagree: conditions={conditions} bialgebra={bialgebra} "
                    f"set-level={setlevel} associativity={brute}")
    if item["kind"] == "pool" and not brute:
        errs.append("a coset split is not valid")
    return errs


# ---------------------------------------------------------------------------
# classify


def capture_stdout(fn, *args):
    """Run fn with stdout (text and buffer) captured; (result, text)."""
    raw = io.BytesIO()
    text = io.TextIOWrapper(raw, encoding="utf-8")
    with contextlib.redirect_stdout(text):
        result = fn(*args)
        text.flush()
    return result, raw.getvalue().decode()


def linmap_points(m: LinMap, n_rows: int, n_cols: int):
    """A group-like map read back as a table; None if some column is not a
    single basis vector with coefficient one."""
    out = [[None] * n_cols for _ in range(n_rows)]
    for i in range(n_rows * n_cols):
        col = m.cols.get(i, ())
        if len(col) != 1 or col[0][1] != 1:
            return None
        out[i // n_cols][i % n_cols] = col[0][0]
    return out


def datum_structure(d: hp.ExtendingDatum, group) -> orc.SetStructure | None:
    na, nh = d.base.dim, d.ext.dim
    maps = [linmap_points(d.ract, nh, na), linmap_points(d.lact, nh, na),
            linmap_points(d.cocycle, nh, nh), linmap_points(d.dot, nh, nh)]
    return None if None in maps else orc.SetStructure(group, *maps)


def cocycle_points(u) -> tuple | None:
    rows = linmap_points(u.linmap, 1, u.linmap.domain.dim)
    return None if rows is None else tuple(rows[0])


def setup_classify(inp: Inputs, rng):
    for name, nx, nconv, ninv in COCYCLE_TABLES:
        g = hp.builtin_group(name)
        count = g.order ** (nx - 1)
        coalg = hp.grouplike_coalgebra([f"x{k}" for k in range(nx)])
        inp.items.append({
            "kind": "table", "group": [list(r) for r in g.table], "nx": nx,
            "h": inp.write(f"h-{name}-{nx}.json", hp.serialize(coalg)),
            "a": inp.write(f"a-{name}.json", hp.serialize(hp.group_algebra(g))),
            "pairs": [(rng.randrange(count), rng.randrange(count)) for _ in range(nconv)],
            "inverses": sorted(rng.sample(range(count), ninv)),
        })
    structures = {}
    for name, sub, obj in corpus():
        table = rows(name)
        if isinstance(obj, hp.MatchedPair):
            mp, obj = obj, hp.matched_pair_datum(obj)
        elif isinstance(obj, hp.CrossedDatum):
            obj = hp.crossed_datum(obj)
        s = structures[name] = orc.coset_structure(table, sub,
                                                   orc.default_reps(table, sub))
        maps = orc.pointed_maps(len(s.group), s.nx)
        # the search inputs: one cocycle from each quartile of the enumeration
        quarters = [maps[len(maps) * k // 4: len(maps) * (k + 1) // 4] for k in range(4)]
        targets = [rng.choice(qr) for qr in quarters if qr]
        d1 = inp.write(f"d-{name}.json", hp.serialize(obj))
        for u in targets:
            deformed = orc.deform(s, u)
            ges = set_to_ges(deformed, obj)
            inp.items.append({
                "kind": "search", "structure": s, "deformed": deformed,
                "d1": d1, "d2": inp.write(f"d-{name}-{'-'.join(map(str, u))}.json",
                                          hp.serialize(hp.lift_to_hopf(ges)))})
        inp.items.append({"kind": "deform", "structure": s, "doc": hp.serialize(obj),
                          "cocycles": rng.sample(range(len(maps)), len(maps))})
    inp.items.append({"kind": "matched-pair", "doc": hp.serialize(mp),
                      "structure": structures["s3"]})
    z4 = hp.serialize(hp.crossed_datum(hp.corpus.z4_crossed_datum()))
    klein = hp.serialize(hp.crossed_datum(hp.corpus.z2xz2_crossed_datum()))
    inp.items.append({"kind": "quotient", "docs": [z4, klein]})
    inp.items.append({"kind": "search-negative", "d1": inp.write("d-z4.json", z4),
                      "d2": inp.write("d-klein.json", klein)})


def set_to_ges(s: orc.SetStructure, like: hp.ExtendingDatum) -> GroupExtendingStructure:
    """A set-level structure over the base group and labels of ``like``."""
    labels = like.base.space.labels
    group = hp.groups.GroupTable(s.group, labels)
    return GroupExtendingStructure(
        group=group, x_labels=like.ext.space.labels,
        ract=tuple(map(tuple, s.ract)), lact=tuple(map(tuple, s.lact)),
        cocyc=tuple(map(tuple, s.cocyc)), star=tuple(map(tuple, s.star)))


def classify_ops(inp: Inputs, item: dict) -> list:
    """The ops for one classify item; later ops read what the first made."""
    kind = item["kind"]
    ctx: dict = {}
    if kind == "table":
        def enum():
            with open(item["h"], "rb") as fh:
                h = hp.parse(fh.read())
            with open(item["a"], "rb") as fh:
                a = hp.parse(fh.read())
            ctx["cs"] = hp.enumerate_cocycles(h, a)
            return ("enum", ctx["cs"])
        conv = lambda i, j: lambda: ("conv", (i, j), hp.cocycle_convolve(
            ctx["cs"][i], ctx["cs"][j]))
        inv = lambda i: lambda: ("inv", i, hp.cocycle_inverse(ctx["cs"][i]))
        return ([enum] + [conv(i, j) for i, j in item["pairs"]]
                + [inv(i) for i in item["inverses"]])
    if kind == "deform":
        def load():
            ctx["d"] = d = hp.parse(item["doc"])
            ctx["cs"] = hp.enumerate_cocycles(d.ext, d.base)
            return ("load", len(ctx["cs"]))

        def equiv(k):
            def op():
                u = ctx["cs"][k]
                d2 = hp.classification.deform_datum(ctx["d"], u)
                return ("equiv", u, d2, hp.check_equivalence(ctx["d"], d2, u))
            return op
        return [load] + [equiv(k) for k in item["cocycles"]]
    if kind == "matched-pair":
        def mp_op():
            mp = hp.parse(item["doc"])
            cs = hp.enumerate_cocycles(mp.h.unit_coalgebra(), mp.a)
            return ("deform-mp", [(u, hp.deform_matched_pair(mp, u)) for u in cs])
        return [mp_op]
    if kind == "quotient":
        def quot():
            z4, klein = (hp.parse(doc) for doc in item["docs"])
            cs = hp.enumerate_cocycles(z4.ext, z4.base)
            deform = hp.classification.deform_datum
            data = [z4, klein, deform(z4, cs[1]), deform(klein, cs[1])]
            return ("quotient", data, hp.quotient_classes(data))
        return [quot]
    argv = ["equiv", item["d1"], item["d2"], "--search"]
    return [lambda: ("search",) + capture_stdout(hp.cli.main, argv)]


def check_classify(item: dict, outs: list) -> list[str]:
    kind = item["kind"]
    errs = []
    if kind == "table":
        g, nx = item["group"], item["nx"]
        cs = outs[0][1]
        if len(cs) != len(g) ** (nx - 1):
            return [f"{len(cs)} cocycles, want {len(g) ** (nx - 1)}"]
        points = [cocycle_points(u) for u in cs]
        if sorted(points) != orc.pointed_maps(len(g), nx):
            return ["the cocycles are not exactly the pointed maps X -> A"]
        for out in outs[1:]:
            if out[0] == "conv":
                (i, j), w = out[1], out[2]
                want = tuple(g[a][b] for a, b in zip(points[i], points[j]))
            else:
                i, w = out[1], out[2]
                want = tuple(orc.inverse_of(g, a) for a in points[i])
            if cocycle_points(w) != want:
                errs.append(f"{out[0]} {out[1]} is not the pointwise "
                            f"{'product' if out[0] == 'conv' else 'inverse'}")
        return errs
    if kind == "deform":
        s = item["structure"]
        for _, u, d2, result in outs[1:]:
            errs += equivalence_errors(s, u, d2, result)
        return errs
    if kind == "matched-pair":
        s = item["structure"]
        for u, d2 in outs[0][1]:
            source = datum_structure(d2, s.group)
            points = cocycle_points(u)
            if source is None or points is None:
                errs.append("deformed matched pair is not group-like")
            else:
                errs += orc.certificate_errors(source, s, points)
        return errs
    if kind == "quotient":
        _, data, classes = outs[0]
        invariant = []
        for d in data:
            s = datum_structure(d, [[0, 1], [1, 0]])
            invariant.append(None if s is None else
                             tuple(orc.element_orders(s.product_table())))
        z4, klein = invariant[0], invariant[1]
        if z4 == klein or None in invariant:
            return ["the Z4 and C2xC2 products are not told apart"]
        want = [[0, 2], [1, 3]]
        if invariant[2] != z4 or invariant[3] != klein or classes != want:
            errs.append(f"classes {classes}, want {want}")
        return errs
    rc, text = outs[0][1], outs[0][2]
    if kind == "search-negative":
        return [] if rc == 1 and "not equivalent" in text else \
            [f"Z4 and C2xC2 data searched as equivalent (exit {rc})"]
    found = re.search(r"equivalent via cocycle (\d+) of (\d+)", text)
    s = item["structure"]
    maps = orc.pointed_maps(len(s.group), s.nx)
    if rc != 0 or not found or int(found.group(2)) != len(maps):
        return [f"search exit {rc}: {text[:80]!r}"]
    return orc.certificate_errors(item["deformed"], s, maps[int(found.group(1))])


def equivalence_errors(s, u, d2, result) -> list[str]:
    points = cocycle_points(u)
    source = datum_structure(d2, s.group)
    if points is None or source is None:
        return ["deformed datum or cocycle is not group-like"]
    if not result.ok or result.certificate is None:
        return ["a deformation is not certified equivalent"]
    nx = s.nx
    phi = {a * nx + x: ((s.group[a][points[x]] * nx + x, 1),)
           for a in range(len(s.group)) for x in range(nx)}
    if result.certificate.phi.cols != phi:
        return ["the certificate is not (a, x) -> (a u(x), x)"]
    return orc.certificate_errors(source, s, points)


# ---------------------------------------------------------------------------
# registry


SETUP = {"build": setup_build, "oracle": setup_oracle,
         "classify": setup_classify, "gfp": setup_gfp}


def ops(inp: Inputs, r: int) -> list:
    """Round r: a list of (item index, op) in a fixed order.

    Set-up shuffles the items, and the classify ops after each item's first
    op are shuffled with the seed, so that ops of every cost are spread over
    the whole run rather than bunched in one stretch of it."""
    if inp.name in ("build", "gfp"):
        return [(k, build_op(inp, r, k, item, inp.name == "gfp"))
                for k, item in enumerate(inp.items)]
    if inp.name == "oracle":
        return [(k, oracle_op(item)) for k, item in enumerate(inp.items)]
    first, rest = [], []
    for k, item in enumerate(inp.items):
        item_ops = classify_ops(inp, item)
        first.append((k, item_ops[0]))
        rest += [(k, op) for op in item_ops[1:]]
    random.Random(inp.seed).shuffle(rest)
    return first + rest


def check(inp: Inputs, outputs: list) -> list[str]:
    """outputs: (item index, output) in op order, for one round."""
    by_item: dict[int, list] = {}
    for k, out in outputs:
        by_item.setdefault(k, []).append(out)
    errs = []
    for k, outs in by_item.items():
        item = inp.items[k]
        if inp.name in ("build", "gfp"):
            found = check_build(item, outs[0])
        elif inp.name == "oracle":
            found = check_oracle(item, outs[0])
        else:
            found = check_classify(item, outs)
        errs += [f"item {k} ({item['kind']}): {e}" for e in found]
    return errs
