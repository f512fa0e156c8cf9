"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Everything is exact (zero tolerance); the only numeric bounds are wall-clock
budgets, asserted where stated.  Run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines.
"""
import dataclasses
import hashlib
import inspect
import random
import time

from helpers import (
    assemble_product_direct,
    bicrossed_antipode_direct,
    check_group_structure_direct,
    drinfeld_double_datum,
    group_unified_product,
    pair_bijection_is_isomorphism,
    perturb_group_structure,
    product_antipode,
    random_group_structure,
    rebind_everywhere,
    roundtrip_check,
    s4_over_s3_datum,
    strip_provenance,
)
import hopfprod as hp
import hopfprod.classification
import hopfprod.linalg
import hopfprod.structures
import hopfprod.unified
from hopfprod.structures import antipode_solve, attach_antipode
from hopfprod.classification import deform_datum
from hopfprod.cli import main as cli_main
from hopfprod.corpus import (
    a4_order2_ges,
    s3_c3_ges,
    s3_matched_pair,
    s3_transposed_matched_pair,
    z2xz2_crossed_datum,
    z4_c2_ges,
    z4_crossed_datum,
)
from hopfprod.fields import QQ, PrimeField
from hopfprod.groups import builtin_permutations, small_corpus_names
from hopfprod.serialize import parse, serialize
from hopfprod.special import (
    crossed_datum,
    deform_matched_pair,
    matched_pair_datum,
)


class Criterion:
    def __init__(self, number, description):
        self.number = number
        self.description = description
        self.failures = []
        self.start = time.monotonic()

    def check(self, condition, message):
        if not condition:
            self.failures.append(message)

    def finish(self, budget=None):
        elapsed = time.monotonic() - self.start
        if budget is not None and elapsed > budget:
            self.failures.append(f"runtime {elapsed:.1f}s exceeds {budget}s")
        status = "PASS" if not self.failures else "FAIL"
        print(f"ACCEPTANCE criterion-{self.number} {status} "
              f"({elapsed:.1f}s): {self.description}")
        assert not self.failures, self.failures[:5]


def test_criterion_1_condition_oracle_equivalence():
    crit = Criterion(1, "nine conditions <=> brute-force bialgebra axioms on "
                        ">=200 randomized group-level candidates")
    rng = random.Random(20260810)
    pool = []
    for name in small_corpus_names():
        g = hp.builtin_group(name)
        for indices in g.all_subgroups():
            if len(indices) <= 4 and g.order // len(indices) <= 4:
                pool.append(strip_provenance(hp.coset_extending_structure(g, indices)))
    crit.check(len(pool) >= 20, "valid sample pool is too small")
    random_groups = [hp.builtin_group(n) for n in ("c1", "c2", "c3", "c4", "c2xc2")]
    total, valid_count = 240, 0
    for k in range(total):
        mode = k % 3
        if mode == 0:
            ges = pool[rng.randrange(len(pool))]
        elif mode == 1:
            ges = perturb_group_structure(rng, pool[rng.randrange(len(pool))])
        else:
            ges = random_group_structure(rng, rng.choice(random_groups),
                                         rng.randrange(1, 5))
        datum = hp.lift_to_hopf(ges)
        crit.check(hp.validate_datum(datum).ok,
                   f"sample {k}: normalization must hold by construction")
        conditions_ok = hp.check_product_conditions(datum).ok
        bialgebra_ok = hp.check_bialgebra(hp.assemble_product(datum)).ok
        setlevel = hp.check_group_structure(ges)
        crit.check(setlevel.items == check_group_structure_direct(ges).items,
                   f"sample {k}: set-level rows differ from the hand-written oracle")
        crit.check(conditions_ok == bialgebra_ok,
                   f"sample {k}: conditions={conditions_ok} bialgebra={bialgebra_ok}")
        crit.check(setlevel.ok == conditions_ok,
                   f"sample {k}: set-level battery disagrees")
        valid_count += conditions_ok
    crit.check(0 < valid_count < total, "sample mix is degenerate")
    crit.finish(budget=60)


def test_criterion_2_bicrossed_witness():
    crit = Criterion(2, "two-action product of the S3 split is exactly k[S3]; "
                        "closed antipode formula matches the solver")
    ges = s3_c3_ges()
    mp = s3_matched_pair()
    product = hp.build_bicrossed(mp)
    expected = hp.group_algebra(group_unified_product(ges))
    crit.check(pair_bijection_is_isomorphism(ges),
               "(a, h) -> a h is not an isomorphism onto S3")
    crit.check(product.carrier.mult == expected.mult, "multiplication differs")
    crit.check(product.carrier.delta == expected.delta, "comultiplication differs")
    crit.check(product.carrier.epsilon == expected.epsilon, "counit differs")
    crit.check(product.carrier.unit == expected.unit, "unit differs")
    direct = bicrossed_antipode_direct(mp, product.carrier)
    crit.check(direct == hp.antipode_solve(product.carrier),
               "closed antipode formula disagrees with the linear solver")
    crit.check(direct == expected.antipode,
               "antipode is not the group-inverse permutation")
    crit.finish(budget=1)


def test_criterion_3_crossed_witness():
    crit = Criterion(3, "cocycle-twisted Z2-by-Z2 products give k[Z4] and "
                        "k[C2xC2]; exhaustive cocycle search separates them")
    ges = z4_c2_ges()
    twisted = hp.build_crossed(z4_crossed_datum())
    expected = hp.group_algebra(group_unified_product(ges))
    crit.check(pair_bijection_is_isomorphism(ges),
               "(a, h) -> a h is not an isomorphism onto Z4")
    crit.check(twisted.carrier.mult == expected.mult, "twisted product is not k[Z4]")
    plain = hp.build_crossed(z2xz2_crossed_datum())
    klein = hp.group_algebra(hp.builtin_group("c2xc2"))
    crit.check(plain.carrier.mult == klein.mult,
               "trivial-cocycle product is not k[C2xC2]")
    d_twisted = crossed_datum(z4_crossed_datum())
    d_plain = crossed_datum(z2xz2_crossed_datum())
    cocycles = hp.enumerate_cocycles(d_twisted.ext, d_twisted.base)
    crit.check(len(cocycles) == 2, f"expected 2 cocycles, got {len(cocycles)}")
    classes = hp.quotient_classes([d_twisted, d_plain])
    crit.check(classes == [[0], [1]],
               f"expected two singleton classes, got {classes}")
    crit.finish(budget=1)


def test_criterion_4_neither_crossed_nor_bicrossed_witness():
    crit = Criterion(4, "the A4 split has nontrivial cocycle and right action; "
                        "recovery rebuilds exactly k[A4] and round-trips")
    ges = a4_order2_ges()
    ambient = hp.group_algebra(hp.builtin_group("a4"))
    incl_a = hp.LinMap(QQ, hp.BasedSpace(tuple(
        ambient.space.labels[i] for i in ges.sub_indices)), ambient.space,
        {k: {i: QQ.one} for k, i in enumerate(ges.sub_indices)})
    incl_h = hp.LinMap(QQ, hp.BasedSpace(tuple(
        ambient.space.labels[i] for i in ges.rep_indices)), ambient.space,
        {k: {i: QQ.one} for k, i in enumerate(ges.rep_indices)})
    fi = hp.FactorizationInput.build(ambient, incl_a, incl_h)
    datum = hp.recover_datum(fi)
    from hopfprod.structures import trivial_action_right, trivial_cocycle

    crit.check(datum.cocycle != trivial_cocycle(QQ, datum.ext.coalg,
                                                datum.base.unit, datum.base.space),
               "recovered cocycle is trivial")
    crit.check(datum.ract != trivial_action_right(QQ, datum.ext.space,
                                                  datum.base.coalgebra),
               "recovered right action is trivial")
    product = hp.build_unified_product(datum)
    expected = hp.group_algebra(group_unified_product(ges))
    crit.check(pair_bijection_is_isomorphism(ges),
               "(a, h) -> a h is not an isomorphism onto A4")
    crit.check(product.carrier.mult == expected.mult, "rebuilt product is not k[A4]")
    u = hp.mult_map(fi)
    crit.check(hp.is_algebra_map(u, product.carrier.algebra, ambient.algebra),
               "multiplication map is not an algebra isomorphism")
    crit.check(hp.is_coalgebra_map(u, product.carrier.coalgebra, ambient.coalgebra),
               "multiplication map is not a coalgebra isomorphism")
    result = roundtrip_check(datum)
    crit.check(result.ok, f"roundtrip mismatch at {result.mismatch}")
    crit.finish(budget=5)


def test_criterion_5_group_functoriality():
    crit = Criterion(5, "group-level and linear twisted products agree entry "
                        "for entry over every subgroup split of the corpus, "
                        "including the set-level A6 = A4 x 30 stretch")
    pairs = 0
    for name in small_corpus_names():
        g = hp.builtin_group(name)
        for indices in g.all_subgroups():
            ges = hp.coset_extending_structure(g, indices)
            product = hp.build_unified_product(hp.lift_to_hopf(ges))
            expected = hp.group_algebra(group_unified_product(ges))
            tag = f"{name}/{indices}"
            crit.check(product.carrier.mult == expected.mult, f"{tag}: mult")
            crit.check(product.carrier.delta == expected.delta, f"{tag}: delta")
            crit.check(product.carrier.epsilon == expected.epsilon, f"{tag}: counit")
            crit.check(product.carrier.unit == expected.unit, f"{tag}: unit")
            crit.check(pair_bijection_is_isomorphism(ges), f"{tag}: bijection")
            pairs += 1
    crit.check(pairs >= 100, f"only {pairs} subgroup splits covered")
    # stretch: the alternating group on six points splits along the copy of
    # A4 fixing the last two points, with thirty representatives
    a6 = hp.builtin_group("a6")
    perms = builtin_permutations("a6")
    a4_idx = [i for i, p in enumerate(perms) if p[4] == 4 and p[5] == 5]
    crit.check(len(a4_idx) == 12, "embedded A4 has the wrong order")
    ges = hp.coset_extending_structure(a6, a4_idx)
    crit.check(ges.x_size == 30, f"expected 30 representatives, got {ges.x_size}")
    setlevel = hp.check_group_structure(ges)
    crit.check(setlevel.ok, "A6 split fails the conditions")
    crit.check(setlevel.items == check_group_structure_direct(ges).items,
               "A6 split: set-level rows differ from the hand-written oracle")
    crit.check(pair_bijection_is_isomorphism(ges),
               "A6 is not reproduced by the set-level product")
    crit.finish(budget=120)


def test_criterion_6_antipode_consistency():
    crit = Criterion(6, "closed antipode formula, linear solver and "
                        "transferred antipode agree on the corpus")
    formula_cases = 0
    for name in small_corpus_names():
        g = hp.builtin_group(name)
        ambient = hp.group_algebra(g)
        for indices in g.all_subgroups():
            ges = hp.coset_extending_structure(g, indices)
            tag = f"{name}/{indices}"
            datum = hp.lift_to_hopf(ges)
            product = hp.build_unified_product(datum)
            solved = hp.antipode_solve(product.carrier)
            # the star-inverse, when two-sided, provides the dot inverse
            inv = {}
            for x in range(ges.x_size):
                ys = [y for y in range(ges.x_size)
                      if ges.star[x][y] == 0 and ges.star[y][x] == 0]
                if len(ys) == 1:
                    inv[x] = ys[0]
            if len(inv) == ges.x_size:
                s_h = hp.LinMap(QQ, datum.ext.space, datum.ext.space,
                                {x: {inv[x]: QQ.one} for x in inv})
                formula = product_antipode(product, s_h)
                crit.check(formula == solved, f"{tag}: formula != solver")
                formula_cases += 1
            # transferred antipode along the multiplication map
            incl_a = hp.LinMap(QQ, datum.base.space, ambient.space,
                               {k: {i: QQ.one}
                                for k, i in enumerate(ges.sub_indices)})
            incl_h = hp.LinMap(QQ, datum.ext.space, ambient.space,
                               {k: {i: QQ.one}
                                for k, i in enumerate(ges.rep_indices)})
            fi = hp.FactorizationInput.build(ambient, incl_a, incl_h)
            u = hp.mult_map(fi)
            transferred = hp.compose(hp.invert(u), hp.compose(ambient.antipode, u))
            crit.check(transferred == solved, f"{tag}: transfer != solver")
    crit.check(formula_cases >= 50,
               f"only {formula_cases} splits admit a star inverse")
    crit.finish()


def test_criterion_7_classification_suite():
    crit = Criterion(7, "cocycle group axioms, verified certificates, the "
                        "equivalence relation, and the S3 matched-pair "
                        "rigidity")
    # convolution group axioms, exhaustively for |X| <= 3 and |G| <= 6
    for name in ("c1", "c2", "c3", "c4", "c2xc2", "c5", "c6", "s3"):
        a = hp.group_algebra(hp.builtin_group(name))
        for x_size in (1, 2, 3):
            h = hp.grouplike_coalgebra(tuple(f"x{k}" for k in range(x_size)))
            cocycles = hp.enumerate_cocycles(h, a)
            tag = f"{name}, |X|={x_size}"
            crit.check(len(cocycles) == a.dim ** (x_size - 1), f"{tag}: count")
            index = {u.linmap: k for k, u in enumerate(cocycles)}
            table = []
            for u in cocycles:
                row = []
                for v in cocycles:
                    w = hp.cocycle_convolve(u, v)
                    key = w.linmap
                    if key not in index:
                        crit.check(False, f"{tag}: convolution escapes the set")
                        return crit.finish()
                    row.append(index[key])
                table.append(row)
            n = len(cocycles)
            trivial_idx = index[hp.trivial_lazy_cocycle(h, a).linmap]
            crit.check(all(table[trivial_idx][k] == k == table[k][trivial_idx]
                           for k in range(n)), f"{tag}: unit law")
            assoc = all(table[table[i][j]][k] == table[i][table[j][k]]
                        for i in range(n) for j in range(n) for k in range(n))
            crit.check(assoc, f"{tag}: associativity")
            for k, u in enumerate(cocycles):
                v = hp.cocycle_inverse(u)
                kk = index[v.linmap]
                crit.check(table[k][kk] == trivial_idx == table[kk][k],
                           f"{tag}: inverse law")
    # every successful equivalence yields a fully verified certificate
    mp = s3_matched_pair()
    base = matched_pair_datum(mp)
    cands = hp.enumerate_cocycles(base.ext, base.base)
    for u in cands:
        deformed = deform_matched_pair(mp, u)
        result = hp.check_equivalence(base, deformed, u)
        crit.check(result.ok and result.certificate is not None,
                   "deformation is not certified equivalent")
        names = {item.condition for item in result.report.items}
        crit.check({"phi-algebra-map", "phi-coalgebra-map", "phi-left-module",
                    "phi-right-comodule", "phi-bijective"} <= names,
                   "certificate verification rows missing")
    # the relation is reflexive, symmetric and transitive on a mixed corpus
    u1, u2 = cands[1], cands[2]
    family = [base, deform_datum(base, u1), deform_datum(base, u2),
              deform_datum(base, hp.cocycle_convolve(u1, u2))]
    classes = hp.quotient_classes(family)
    crit.check(classes == [[0, 1, 2, 3]],
               f"deformation family should be one class, got {classes}")
    for i, d1 in enumerate(family):
        for j, d2 in enumerate(family):
            forward = any(hp.check_equivalence(d1, d2, u).ok for u in cands)
            backward = any(hp.check_equivalence(d2, d1, u).ok for u in cands)
            crit.check(forward and backward, f"symmetry breaks at {(i, j)}")
    dz = crossed_datum(z4_crossed_datum())
    dk = crossed_datum(z2xz2_crossed_datum())
    crit.check(hp.quotient_classes([dz, dk]) == [[0], [1]],
               "inequivalent data merged")
    # rigidity of the S3 matched pair: with the base k[C2] only the trivial
    # cocycle passes the two-action equivalence battery
    mpt = s3_transposed_matched_pair()
    cands_t = hp.enumerate_cocycles(mpt.h.unit_coalgebra(), mpt.a)
    crit.check(len(cands_t) == 4, f"expected 4 candidates, got {len(cands_t)}")
    trivial = hp.trivial_lazy_cocycle(mpt.h.unit_coalgebra(), mpt.a)
    passing = [u for u in cands_t
               if hp.check_bicrossed_equivalence(mpt, mpt, u).ok]
    crit.check(len(passing) == 1 and passing[0].linmap == trivial.linmap,
               "only the trivial cocycle should pass")
    crit.finish()


def test_criterion_8_io_determinism_and_exit_codes(tmp_path, capsys):
    crit = Criterion(8, "byte-exact round-trips on the golden corpus and the "
                        "documented exit codes on the fixture set")
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden"
    for path in sorted(golden.glob("*.json")):
        data = path.read_bytes()
        crit.check(serialize(parse(data)) == data, f"{path.name}: round trip")

    def run(*argv):
        code = cli_main(list(argv))
        capsys.readouterr()
        return code

    a4 = tmp_path / "a4.json"
    a4.write_bytes(serialize(hp.lift_to_hopf(a4_order2_ges())))
    crit.check(run("verify", str(a4)) == 0, "verify on a valid datum")

    ges = a4_order2_ges()
    cocyc = [list(row) for row in ges.cocyc]
    cocyc[2][3] = 1 - cocyc[2][3]
    broken = hp.GroupExtendingStructure(
        group=ges.group, x_labels=ges.x_labels, ract=ges.ract,
        lact=ges.lact, cocyc=tuple(map(tuple, cocyc)), star=ges.star)
    bad = tmp_path / "bad.json"
    bad.write_bytes(serialize(hp.lift_to_hopf(broken)))
    crit.check(run("verify", str(bad)) == 1, "verify on a corrupted datum")

    junk = tmp_path / "junk.json"
    junk.write_text("{nope")
    crit.check(run("verify", str(junk)) == 2, "verify on malformed input")

    h = tmp_path / "h.json"
    a = tmp_path / "a.json"
    h.write_bytes(serialize(hp.grouplike_coalgebra(("p", "q", "r"))))
    a.write_bytes(serialize(hp.group_algebra(hp.builtin_group("c2"))))
    crit.check(run("enum-cocycles", str(h), str(a), "--max-cocycles", "2") == 3,
               "cap exceeded must exit 3")
    crit.check(run("enum-cocycles", str(h), str(a)) == 0, "enumeration exits 0")

    for name in ("s3-bicrossed", "z4-crossed", "a4-unified"):
        one, two = tmp_path / "one.json", tmp_path / "two.json"
        crit.check(run("example", name, "--out", str(one)) == 0, f"example {name}")
        crit.check(run("example", name, "--out", str(two)) == 0, f"example {name}")
        crit.check(one.read_bytes() == two.read_bytes(),
                   f"example {name} is not deterministic")
    crit.finish()


def test_criterion_9_drinfeld_double_assembly():
    crit = Criterion(9, "D(k[S3]) over QQ and GF(5): the collapsed assembly equals "
                        "the direct loop, in under 0.4 s for both fields")
    # the engine itself, not the oracle check every call carries in the tests
    assemble = inspect.unwrap(hopfprod.unified.assemble_product)
    engine_s = 0.0
    for field in (QQ, PrimeField(5)):
        d = drinfeld_double_datum("s3", field)
        start = time.monotonic()
        got = assemble(d)
        engine_s += time.monotonic() - start
        want = assemble_product_direct(d)
        crit.check(got.mult == want.mult, f"{field!r}: multiplication differs")
        crit.check(got.unit == want.unit and got.coalgebra == want.coalgebra,
                   f"{field!r}: unit or coalgebra differs")
        crit.check(len(got.mult.cols) == 216, f"{field!r}: {len(got.mult.cols)} columns")
    crit.check(engine_s < 0.4, f"assembly took {engine_s:.2f}s")
    crit.finish(budget=15)


def test_criterion_10_drinfeld_double_antipode(monkeypatch):
    crit = Criterion(10, "D(k[S3]) over QQ and GF(5) with a Hopf base: the product antipode "
                         "solved on 1 (x) H equals the full solve, in under 0.1 s for both "
                         "fields")
    # the engine itself, not the oracle check every call carries in the
    # tests: the timed solve runs with the undecorated convolution and
    # compose, and a second solve checks every one of them
    solve = inspect.unwrap(hopfprod.unified.solve_product_antipode)
    checked_maps = (hopfprod.structures.convolution, hopfprod.linalg.compose)
    fallbacks = []
    monkeypatch.setattr(hopfprod.unified, "antipode_solve", fallbacks.append)
    engine_s = 0.0
    for field in (QQ, PrimeField(5)):
        d = drinfeld_double_datum("s3", field)
        d = dataclasses.replace(d, base=attach_antipode(d.base))
        p = hp.build_unified_product(d)
        with monkeypatch.context() as engine_only:
            for wrapped in checked_maps:
                rebind_everywhere(engine_only, wrapped, inspect.unwrap(wrapped))
            start = time.monotonic()
            got = solve(p)
            engine_s += time.monotonic() - start
        crit.check(got == solve(p) == antipode_solve(p.carrier),
                   f"{field!r}: antipode differs")
    crit.check(not fallbacks, "the restricted system fell back to the full solve")
    crit.check(engine_s < 0.1, f"antipode took {engine_s:.3f}s")
    crit.finish(budget=15)


# SHA-256 of the product document of D(k[S4]) over a base that carries its
# solved antipode: a byte changed by the assembly, the antipode or the
# emitter changes it
S4_DOUBLE_PRODUCT_SHA256 = "c12bdcfaed23922fd736fe0a35ad0351debb25adecba93e1e10da16fdb7a0aef"


def test_criterion_11_drinfeld_double_s4_build(monkeypatch, tmp_path):
    crit = Criterion(11, "hopfprod build of D(k[S4]) over QQ (dimension 576): the same "
                         "product document, in under 9 s of engine time")
    d = drinfeld_double_datum("s4")
    d = dataclasses.replace(d, base=attach_antipode(d.base))
    datum, product = tmp_path / "d-s4.json", tmp_path / "d-s4-product.json"
    datum.write_bytes(serialize(d))
    # the engine itself: at dimension 576 the per-call oracles are out of
    # reach (the direct assembly loop alone takes minutes)
    checked_maps = (hopfprod.unified.assemble_product, hopfprod.unified.solve_product_antipode,
                    hopfprod.structures.convolution, hopfprod.linalg.compose)
    with monkeypatch.context() as engine_only:
        for wrapped in checked_maps:
            rebind_everywhere(engine_only, wrapped, inspect.unwrap(wrapped))
        start = time.monotonic()
        code = cli_main(["build", str(datum), "--out", str(product)])
        engine_s = time.monotonic() - start
    crit.check(code == 0, f"build exits {code}")
    data = product.read_bytes()
    crit.check(hashlib.sha256(data).hexdigest() == S4_DOUBLE_PRODUCT_SHA256,
               f"product document differs ({len(data)} bytes)")
    crit.check(engine_s < 9, f"build took {engine_s:.1f}s")
    crit.finish(budget=30)


def test_criterion_12_quotient_classes_orbit(monkeypatch):
    crit = Criterion(12, "quotient_classes of 12 deformations of one datum of S4 over S3 "
                         "(216 cocycles): one class, in under 1 s of engine time")
    d = s4_over_s3_datum()
    cands = hp.enumerate_cocycles(d.ext, d.base)
    crit.check(len(cands) == 216, f"expected 216 cocycles, got {len(cands)}")
    data = [deform_datum(d, u) for u in cands[::18]]
    # the engine itself: the pairwise oracle the tests hold every call
    # against takes seconds here
    checked = (hp.quotient_classes, hopfprod.classification._certify,
               hopfprod.unified.assemble_product, hopfprod.linalg.compose)
    with monkeypatch.context() as engine_only:
        for wrapped in checked:
            rebind_everywhere(engine_only, wrapped, inspect.unwrap(wrapped))
        start = time.monotonic()
        classes = hp.quotient_classes(data)
        engine_s = time.monotonic() - start
    crit.check(classes == [list(range(12))], f"expected one class, got {classes}")
    crit.check(engine_s < 1, f"quotient_classes took {engine_s:.2f}s")
    crit.finish(budget=15)


def test_criterion_13_equiv_of_a_double_by_the_trivial_cocycle(monkeypatch, tmp_path, capsys):
    crit = Criterion(13, "hopfprod equiv D D --cocycle <trivial> on D(k[S3]) and D(k[D4]) over "
                         "QQ and GF(5): exit 0 with every row passing, in under 3 s of engine "
                         "time for the four runs")
    # the engine itself: the certificate's composed oracle and the dense
    # products behind the checked convolutions take seconds per run here
    checked = (hopfprod.classification._certify, hopfprod.unified.assemble_product,
               hopfprod.structures.convolution, hopfprod.linalg.compose)
    engine_s = 0.0
    for name, field in ((n, f) for n in ("s3", "d4") for f in (QQ, PrimeField(5))):
        d = drinfeld_double_datum(name, field)
        d = dataclasses.replace(d, base=attach_antipode(d.base))
        datum, cocycle = tmp_path / f"d-{name}.json", tmp_path / f"u-{name}.json"
        datum.write_bytes(serialize(d))
        cocycle.write_bytes(serialize(hp.trivial_lazy_cocycle(d.ext, d.base)))
        with monkeypatch.context() as engine_only:
            for wrapped in checked:
                rebind_everywhere(engine_only, wrapped, inspect.unwrap(wrapped))
            start = time.monotonic()
            code = cli_main(["equiv", str(datum), str(datum), "--cocycle", str(cocycle)])
            engine_s += time.monotonic() - start
        out = capsys.readouterr().out
        checks = parse(out.split("-- machine --\n", 1)[1].encode()).items
        crit.check(code == 0, f"{name} over {field!r}: equiv exits {code}")
        crit.check([it.condition for it in checks if it.passed] == [
            "ract-equal", "deformed-lact", "deformed-dot", "deformed-cocycle",
            "phi-algebra-map", "phi-coalgebra-map", "phi-left-module", "phi-right-comodule",
            "phi-bijective"], f"{name} over {field!r}: rows {checks}")
    crit.check(engine_s < 3, f"the four runs took {engine_s:.1f}s")
    crit.finish(budget=30)
