import copy
import json
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    a4_unified_look_alikes,
    a4_unified_with_bad_ract,
    h4_datum_with_bad_lact,
    h4_trivial_datum,
    idempotent_monoid_bialgebra,
    s3_pair_with_bad_lact,
    scaled_h4_datum_with_bad_lact,
    scaled_h4_trivial_datum,
    z4_crossed_with_bad_cocycle,
)
import hopfprod.cli
import hopfprod.unified
from hopfprod.classification import check_equivalence, deform_datum, enumerate_cocycles
from hopfprod.cli import main
from hopfprod.corpus import (
    a4_order2_ges,
    a4_unified_datum,
    builtin_example,
    s3_matched_pair,
    z4_crossed_datum,
)
from hopfprod.fields import QQ, PrimeField
from hopfprod.groups import GroupExtendingStructure, builtin_group, group_algebra, \
    grouplike_coalgebra, lift_to_hopf
from hopfprod.linalg import BasedSpace, LinMap
from hopfprod.reports import Report
from hopfprod.serialize import (
    CocycleMap,
    MalformedDocumentError,
    parse,
    serialize,
)
from hopfprod.special import crossed_datum, matched_pair_datum, trivial_matched_pair
from hopfprod.structures import FDHopf
from hopfprod.unified import (
    CONDITION_NAMES,
    ExtendingDatum,
    build_unified_product,
    solve_product_antipode,
    validate_datum,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def built_product(datum):
    """What ``hopfprod build`` emits for a datum: the checked product carrier
    with its solved antipode."""
    p = build_unified_product(datum)
    return FDHopf(p.carrier.coalgebra, p.carrier.algebra, solve_product_antipode(p))


def golden_objects():
    mp = s3_matched_pair()
    a4 = a4_unified_datum()
    a4_cocycle = enumerate_cocycles(a4.ext, a4.base)[1]
    a4_product = build_unified_product(a4)
    incl_h = a4_product.incl_ext
    bad_ract = a4_unified_with_bad_ract()
    a4_cocycle_map = CocycleMap(a4_cocycle.linmap.field, a4_cocycle.linmap.domain,
                                a4_cocycle.linmap.codomain,
                                {i: dict(col) for i, col in a4_cocycle.linmap.cols.items()})
    out = {
        "trivial-coalgebra.json": grouplike_coalgebra(("1",)),
        "s3-hopf.json": group_algebra(builtin_group("s3")),
        "a4-datum.json": a4_unified_datum(),
        "s3-matched-pair.json": mp,
        "z4-crossed.json": z4_crossed_datum(),
        "c4-group.json": builtin_group("c4"),
        "s3-cocycle.json": enumerate_cocycles(mp.h.unit_coalgebra(), mp.a)[1],
        "trivial-datum-report.json": validate_datum(matched_pair_datum(mp)),
        "build-a4-unified.json": built_product(a4_unified_datum()),
        "build-z4-crossed.json": built_product(crossed_datum(z4_crossed_datum())),
        "build-s3-bicrossed.json": built_product(matched_pair_datum(mp)),
        # the third line of `hopfprod enum-cocycles` on the a4-unified factors
        "a4-unified-cocycle-1.json": a4_cocycle_map,
        # the machine section of `hopfprod equiv a4-unified.json
        # a4-unified.json --cocycle a4-unified-cocycle-1.json`
        "equiv-a4-unified-cocycle-1.json": check_equivalence(a4, a4, a4_cocycle).report,
        # a4-unified deformed by that cocycle, which moves the dot: `hopfprod
        # equiv a4-unified.json a4-unified-deformed-1.json --cocycle
        # a4-unified-cocycle-1.json` passes every row
        "a4-unified-deformed-1.json": deform_datum(a4, a4_cocycle),
        # the machine section of that passing `hopfprod equiv`: all nine rows
        "equiv-a4-unified-deformed-1.json": check_equivalence(
            a4, deform_datum(a4, a4_cocycle), a4_cocycle).report,
        # a4-unified with one point of <| retargeted, and the machine section
        # of `hopfprod verify` on it: six conditions fail, each at a witness
        "a4-unified-bad-ract.json": bad_ract,
        "verify-a4-unified-bad-ract.json": hopfprod.cli._datum_report(bad_ract)[0],
        # the inclusions a -> a (x) 1 and h -> 1 (x) h of a4-unified's factors
        # into its product: `hopfprod factorize` of the built product through
        # them gives back a4-unified byte for byte
        "a4-unified-incl-a.json": a4_product.incl_base,
        "a4-unified-incl-h.json": a4_product.incl_ext,
        # h -> 1 (x) h with its last point sent where the one before goes:
        # `hopfprod factorize` refuses it as not injective, exit 2
        "a4-unified-incl-h-repeated.json": LinMap(
            QQ, incl_h.domain, incl_h.codomain,
            {i: incl_h.col(min(i, incl_h.domain.dim - 2)) for i in range(incl_h.domain.dim)}),
    }
    # a4-unified with H or A made not group-like by one point of a coproduct
    # or a counit, each map still an index table, and the machine section of
    # `hopfprod verify` on it: exit 1, and `hopfprod build` refuses it too
    for name, d in a4_unified_look_alikes().items():
        out[f"{name}.json"] = d
        out[f"verify-{name}.json"] = hopfprod.cli._datum_report(d)[0]
    return out


def test_golden_files_byte_match():
    for name, obj in golden_objects().items():
        assert serialize(obj) == (GOLDEN / name).read_bytes(), name


def test_serialize_parse_serialize_idempotent_on_golden_corpus():
    for path in sorted(GOLDEN.glob("*.json")):
        data = path.read_bytes()
        assert serialize(parse(data)) == data, path.name


def test_parse_serialize_roundtrip_object_equality():
    for name, obj in golden_objects().items():
        back = parse(serialize(obj))
        if isinstance(obj, Report):
            assert back.to_obj() == obj.to_obj()
        elif isinstance(obj, ExtendingDatum):
            assert back.components_equal(obj) is None
        elif name == "s3-matched-pair.json":
            assert (back.a, back.h, back.ract, back.lact) == \
                (obj.a, obj.h, obj.ract, obj.lact)
        elif name == "z4-crossed.json":
            assert (back.a, back.h, back.lact, back.cocycle) == \
                (obj.a, obj.h, obj.lact, obj.cocycle)
        elif name == "s3-cocycle.json":
            assert isinstance(back, CocycleMap)
            assert back == obj.linmap
        else:
            assert back == obj


@st.composite
def canonical_documents(draw):
    """Canonical bytes of a random linmap or unital coalgebra document over
    QQ (integral and non-integral entries mixed) or GF(p), written straight
    as JSON: reduced num/den records, sorted by index, no zero entries."""
    p = draw(st.sampled_from((None, 2, 5, 101, 2**61 - 1)))
    if p is None:
        field = {"kind": "rational"}
        value = st.builds(Fraction, st.integers(-50, 50) | st.integers(-10**20, 10**20),
                          st.sampled_from((1, 1, 2, 3, 7, 10**20 + 39)))
    else:
        field = {"kind": "mod-p", "p": p}
        value = st.builds(Fraction, st.integers(0, p - 1))

    def space(dim):
        labels = draw(st.lists(st.text(max_size=3), min_size=dim, max_size=dim, unique=True))
        return {"dim": dim, "labels": labels}

    def records(*shape):
        keys = st.tuples(*(st.integers(0, n - 1) for n in shape))
        cells = draw(st.dictionaries(keys, value, max_size=12))
        return [[*key, x.numerator, x.denominator]
                for key, x in sorted(cells.items()) if x]

    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        m = draw(st.integers(1, 4))
        kind, payload = "linmap", {"domain": space(n), "codomain": space(m),
                                   "entries": records(n, m)}
    else:
        kind, payload = "coalgebra", {"space": space(n), "delta": records(n, n * n),
                                      "epsilon": records(n, 1), "unit": records(n)}
    doc = {"format": "hopfprod/1", "field": field, "kind": kind, "payload": payload}
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(canonical_documents())
def test_serialize_parse_roundtrip_property(data):
    obj = parse(data)
    assert serialize(obj) == data
    maps = (obj,) if isinstance(obj, LinMap) else (obj.delta, obj.epsilon)
    values = [v for m in maps for col in m.cols.values() for _, v in col]
    values += [] if isinstance(obj, LinMap) else list(obj.unit.values())
    assert all(type(v) is int or type(v) is Fraction and v.denominator != 1
               for v in values)


def test_prime_field_document_roundtrip():
    f5 = PrimeField(5)
    h = group_algebra(builtin_group("q8"), f5)
    data = serialize(h)
    assert json.loads(data)["field"] == {"kind": "mod-p", "p": 5}
    assert parse(data) == h
    assert serialize(parse(data)) == data


def test_parsed_algebra_claims_no_associativity_nothing_checked():
    # k[C3] with e1 e2 moved from e0 to e1 is not associative; its parsed
    # document must not claim it is
    from hopfprod.structures import FDAlgebra, FDBialgebra, check_algebra

    c3 = group_algebra(builtin_group("c3"))
    cols = {k: c3.mult.col(k) for k in range(9)}
    cols[1 * 3 + 2] = {1: QQ.one}
    broken = FDAlgebra(QQ, c3.space, LinMap(QQ, c3.mult.domain, c3.space, cols), c3.unit)
    assert not check_algebra(broken).ok
    parsed = parse(serialize(FDBialgebra(c3.coalgebra, broken)))
    assert parsed.algebra == broken
    assert "associative=yes" not in repr(parsed.algebra)


def test_malformed_documents_rejected():
    bad = [
        b"not json at all",
        b"[1,2,3]",
        b'{"format":"other/9","kind":"coalgebra","field":{"kind":"rational"},"payload":{}}',
        b'{"format":"hopfprod/1","kind":"nonsense","field":{"kind":"rational"},"payload":{}}',
        b'{"format":"hopfprod/1","kind":"coalgebra","field":{"kind":"mod-p","p":6},"payload":{}}',
        b'{"format":"hopfprod/1","kind":"coalgebra","field":{"kind":"mod-p","p":1e400},"payload":{}}',
        b'{"format":"hopfprod/1","kind":"coalgebra","field":{"kind":"mod-p","p":null},"payload":{}}',
        b'{"format":"hopfprod/1","kind":"coalgebra","field":{"kind":"mod-p","p":7.9},"payload":{}}',
        b'{"format":"hopfprod/1","kind":"coalgebra","field":{"kind":"mod-p","p":"7"},"payload":{}}',
        b'{"format":"hopfprod/1","kind":"coalgebra","field":{"kind":"mod-p","p":7.0},"payload":{}}',
        b'{"format":"hopfprod/1","kind":"coalgebra","field":{"kind":"mod-p","p":true},"payload":{}}',
        *hostile_json_documents(),
    ]
    for data in bad:
        with pytest.raises(MalformedDocumentError):
            parse(data)
    # out-of-range index inside an otherwise valid document
    doc = json.loads(serialize(grouplike_coalgebra(("1", "x"))))
    doc["payload"]["delta"] = [[0, 99, 1, 1]]
    with pytest.raises(MalformedDocumentError):
        parse(json.dumps(doc).encode())
    # a non-group table
    doc = json.loads(serialize(builtin_group("c2")))
    doc["payload"]["table"] = [[0, 1], [1, 1]]
    with pytest.raises(MalformedDocumentError):
        parse(json.dumps(doc).encode())
    # a zero denominator in an entry record and in a vector record
    for data in zero_denominator_documents():
        with pytest.raises(MalformedDocumentError, match="zero denominator"):
            parse(data)
    # an index, numerator, denominator or dimension that is not a JSON integer
    for data in non_integer_record_documents() + non_integer_dim_documents():
        with pytest.raises(MalformedDocumentError, match="is not an integer"):
            parse(data)
    # two records for the same index of a vector or of a map
    for data in repeated_record_documents():
        with pytest.raises(MalformedDocumentError, match="repeated index"):
            parse(data)


def hostile_json_documents() -> list[bytes]:
    """Documents the JSON decoder itself refuses: one nested 200,000 levels
    deep, and a linmap with a numerator longer than the interpreter's limit
    on the digits of an integer."""
    numerator = b"1" * 5000
    return [b"[" * 200_000 + b"]" * 200_000,
            b'{"format":"hopfprod/1","kind":"linmap","field":{"kind":"rational"},'
            b'"payload":{"entries":[[0,0,' + numerator + b',1]]}}']


def z4_documents_with(edits) -> list[bytes]:
    """The Z4 crossed datum once per (path, value) edit, the value written
    at the path inside the payload."""
    out = []
    for path, value in edits:
        doc = json.loads(serialize(z4_crossed_datum()))
        node = doc["payload"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        out.append(json.dumps(doc).encode())
    return out


def zero_denominator_documents() -> list[bytes]:
    """The Z4 crossed datum with the denominator of its first cocycle entry,
    and then of the unit of A, set to zero."""
    return z4_documents_with([(("cocycle", 0, 3), 0), (("a", "value", "unit", 0, 2), 0)])


def non_integer_record_documents() -> list[bytes]:
    """The Z4 crossed datum with one index, numerator or denominator of an
    entry record or a vector record replaced by a float, a string or a
    boolean."""
    entry, unit = ("cocycle", 0), ("a", "value", "unit", 0)
    return z4_documents_with([
        (entry + (2,), 1.5), (entry + (3,), True), (entry + (3,), 1.0),
        (entry + (0,), "0"), (entry + (1,), 0.0), (entry + (0,), False),
        (unit + (0,), 0.0), (unit + (0,), "0"), (unit + (1,), 1.5), (unit + (2,), True),
    ])


def non_integer_dim_documents() -> list[bytes]:
    """The Z4 crossed datum with the dimension 2 of A written as a string,
    a non-integral float and an integral float."""
    return z4_documents_with([(("a", "value", "space", "dim"), v) for v in ("2", 2.9, 2.0)])


def repeated_record_documents() -> list[bytes]:
    """The a4-unified datum with the base unit written as two records for
    index 0, and with a record [0, 0, 5, 1] put before the cocycle record
    [0, 0, 1, 1]."""
    out = []
    for path, edit in ((("base", "value", "unit"), lambda recs: [[0, 2, 1]] + recs),
                       (("cocycle",), lambda recs: [[0, 0, 5, 1]] + recs)):
        doc = json.loads(serialize(a4_unified_datum()))
        node = doc["payload"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = edit(node[path[-1]])
        out.append(json.dumps(doc).encode())
    return out


# ---------------------------------------------------------------------------
# command-line contract


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def machine_section(stdout: str) -> dict:
    marker = "-- machine --\n"
    assert marker in stdout
    return json.loads(stdout.split(marker, 1)[1])


def test_cli_verify_valid_datum(tmp_path, capsys):
    path = tmp_path / "a4.json"
    path.write_bytes(serialize(a4_unified_datum()))
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    doc = machine_section(out)
    conditions = [c["condition"] for c in doc["payload"]["checks"]]
    for name in CONDITION_NAMES:
        assert name in conditions
    assert all(c["passed"] for c in doc["payload"]["checks"])


def test_cli_verify_corrupted_datum_names_condition(tmp_path, capsys):
    ges = a4_order2_ges()
    cocyc = [list(row) for row in ges.cocyc]
    cocyc[4][5] = 1 - cocyc[4][5]
    broken = GroupExtendingStructure(
        group=ges.group, x_labels=ges.x_labels, ract=ges.ract,
        lact=ges.lact, cocyc=tuple(map(tuple, cocyc)), star=ges.star)
    path = tmp_path / "bad.json"
    path.write_bytes(serialize(lift_to_hopf(broken)))
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1
    doc = machine_section(out)
    failed = [c["condition"] for c in doc["payload"]["checks"] if not c["passed"]]
    assert failed
    assert set(failed) & {"twisted-associativity", "twisted-module",
                          "cocycle-condition"}


def pinned_verify_inputs():
    """The named examples, the trivial H4 (x) H4 datum over GF(5) and over
    QQ in a basis with non-integral structure constants, and one-entry
    corruptions of them and of a4-unified."""
    return {"s3-bicrossed": (s3_matched_pair(), 0), "z4-crossed": (z4_crossed_datum(), 0),
            "s3-bicrossed-bad-lact": (s3_pair_with_bad_lact(), 1),
            "a4-unified-bad-ract": (a4_unified_with_bad_ract(), 1),
            "z4-crossed-bad-cocycle": (z4_crossed_with_bad_cocycle(), 1),
            "h4xh4-gf5": (h4_trivial_datum(), 0),
            "h4xh4-gf5-bad-lact": (h4_datum_with_bad_lact(), 1),
            "h4xh4-qq-scaled": (scaled_h4_trivial_datum(), 0),
            "h4xh4-qq-scaled-bad-lact": (scaled_h4_datum_with_bad_lact(), 1)}


def test_cli_verify_reports_are_pinned(tmp_path, capsys):
    for name, (obj, want_code) in pinned_verify_inputs().items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(serialize(obj))
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == want_code, name
        machine = out.split("-- machine --\n", 1)[1].encode()
        assert machine == (GOLDEN / f"verify-{name}.json").read_bytes(), name


def test_cli_build_output_is_pinned(tmp_path, capsys):
    """The product of the scaled H4 datum: multiplication, counit and the
    solved antipode all carry non-integral rationals."""
    path = tmp_path / "scaled.json"
    path.write_bytes(serialize(scaled_h4_trivial_datum()))
    code, out, _ = run_cli(capsys, "build", str(path))
    assert code == 0
    assert out.encode() == (GOLDEN / "build-h4xh4-qq-scaled.json").read_bytes()
    doc = json.loads(out)
    assert doc["kind"] == "hopf"
    for key in ("mult", "epsilon", "antipode"):
        assert any(den != 1 for *_, den in doc["payload"][key]), key


def test_cli_verify_malformed_input(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{broken")
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert "junk.json" in err


def test_cli_build_emits_parseable_hopf(tmp_path, capsys):
    """The products of the named examples match their golden documents byte
    for byte and parse as Hopf algebras."""
    for name, dim in (("s3-bicrossed", 6), ("z4-crossed", 4), ("a4-unified", 12)):
        src, out_path = tmp_path / f"{name}.json", tmp_path / f"{name}-product.json"
        assert run_cli(capsys, "example", name, "--out", str(src))[0] == 0
        code, _, _ = run_cli(capsys, "build", str(src), "--out", str(out_path))
        assert code == 0
        data = out_path.read_bytes()
        assert data == (GOLDEN / f"build-{name}.json").read_bytes(), name
        built = parse(data)
        assert isinstance(built, FDHopf) and built.dim == dim, name


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=repr)
def test_cli_build_of_a_product_without_antipode_emits_a_bialgebra(field, tmp_path, capsys):
    """k{e, z} with z z = z, over k: the product is that monoid bialgebra,
    which has no antipode, so the build writes a bialgebra and exits 0."""
    a = idempotent_monoid_bialgebra(field)
    d = matched_pair_datum(trivial_matched_pair(a, group_algebra(builtin_group("c1"), field)))
    src, out_path = tmp_path / "monoid.json", tmp_path / "monoid-product.json"
    src.write_bytes(serialize(d))
    code, out, err = run_cli(capsys, "build", str(src), "--out", str(out_path))
    assert (code, out, err) == (0, "", "")
    doc = json.loads(out_path.read_bytes())
    assert doc["kind"] == "bialgebra"
    assert parse(out_path.read_bytes()).algebra.mult == a.algebra.mult


def test_cli_factorize_z4(tmp_path, capsys):
    e = group_algebra(builtin_group("c4"))
    incl_a = LinMap(QQ, BasedSpace(("0", "2")), e.space,
                    {0: {0: QQ.one}, 1: {2: QQ.one}})
    incl_h = LinMap(QQ, BasedSpace(("0", "1")), e.space,
                    {0: {0: QQ.one}, 1: {1: QQ.one}})
    for name, obj in (("e.json", e), ("a.json", incl_a), ("h.json", incl_h)):
        (tmp_path / name).write_bytes(serialize(obj))
    out_path = tmp_path / "datum.json"
    code, _, _ = run_cli(capsys, "factorize", str(tmp_path / "e.json"),
                         "--sub-a", str(tmp_path / "a.json"),
                         "--sub-h", str(tmp_path / "h.json"),
                         "--out", str(out_path))
    assert code == 0
    d = parse(out_path.read_bytes())
    # coset oracle: the cocycle at (1, 1) is the subgroup element "2"
    assert d.cocycle.col(3) == {1: QQ.one}


def test_cli_factorize_a4_unified_product_through_its_golden_inclusions(tmp_path, capsys):
    """The built a4-unified product, factorized through the committed
    inclusions of its factors, is a4-unified byte for byte; an inclusion
    with a repeated point is refused as not injective, exit 2."""
    out_path = tmp_path / "datum.json"
    code, out, err = run_cli(capsys, "factorize", str(GOLDEN / "build-a4-unified.json"),
                             "--sub-a", str(GOLDEN / "a4-unified-incl-a.json"),
                             "--sub-h", str(GOLDEN / "a4-unified-incl-h.json"),
                             "--out", str(out_path))
    assert (code, out, err) == (0, "", "")
    assert out_path.read_bytes() == serialize(a4_unified_datum())
    code, out, err = run_cli(capsys, "factorize", str(GOLDEN / "build-a4-unified.json"),
                             "--sub-a", str(GOLDEN / "a4-unified-incl-a.json"),
                             "--sub-h", str(GOLDEN / "a4-unified-incl-h-repeated.json"))
    assert (code, out) == (2, "")
    assert err == "the subcoalgebra inclusion is not injective\n"


def test_cli_factorize_singular_exits_one(tmp_path, capsys):
    e = group_algebra(builtin_group("c4"))
    incl_a = LinMap(QQ, BasedSpace(("0", "2")), e.space,
                    {0: {0: QQ.one}, 1: {2: QQ.one}})
    for name, obj in (("e.json", e), ("a.json", incl_a)):
        (tmp_path / name).write_bytes(serialize(obj))
    code, out, _ = run_cli(capsys, "factorize", str(tmp_path / "e.json"),
                           "--sub-a", str(tmp_path / "a.json"),
                           "--sub-h", str(tmp_path / "a.json"))
    assert code == 1
    assert "rank deficit 2" in out


def test_cli_output_path_that_cannot_be_written_exits_two(tmp_path, capsys):
    # example, build and factorize write through one emitter: a missing
    # directory is an input the run cannot use, named on one stderr line
    e = group_algebra(builtin_group("c4"))
    incl_a = LinMap(QQ, BasedSpace(("0", "2")), e.space, {0: {0: QQ.one}, 1: {2: QQ.one}})
    incl_h = LinMap(QQ, BasedSpace(("0", "1")), e.space, {0: {0: QQ.one}, 1: {1: QQ.one}})
    for name, obj in (("e.json", e), ("a.json", incl_a), ("h.json", incl_h)):
        (tmp_path / name).write_bytes(serialize(obj))
    assert run_cli(capsys, "example", "a4-unified", "--out", str(tmp_path / "d.json"))[0] == 0
    missing = str(tmp_path / "missing" / "x.json")
    for argv in (("example", "a4-unified"), ("build", str(tmp_path / "d.json")),
                 ("factorize", str(tmp_path / "e.json"), "--sub-a", str(tmp_path / "a.json"),
                  "--sub-h", str(tmp_path / "h.json"))):
        code, out, err = run_cli(capsys, *argv, "--out", missing)
        assert (code, out) == (2, ""), argv
        assert err.count("\n") == 1 and err.startswith(f"{missing}: ") and "Traceback" not in err
    assert not (tmp_path / "missing").exists()


def test_cli_equiv_with_search_and_cocycle(tmp_path, capsys):
    mp = s3_matched_pair()
    d = matched_pair_datum(mp)
    from hopfprod.special import deform_matched_pair

    cocycles = enumerate_cocycles(mp.h.unit_coalgebra(), mp.a)
    d2 = deform_matched_pair(mp, cocycles[1])
    p1, p2, pc = tmp_path / "d1.json", tmp_path / "d2.json", tmp_path / "u.json"
    p1.write_bytes(serialize(d))
    p2.write_bytes(serialize(d2))
    pc.write_bytes(serialize(cocycles[1]))
    code, out, _ = run_cli(capsys, "equiv", str(p1), str(p2),
                           "--cocycle", str(pc))
    assert code == 0
    code, out, _ = run_cli(capsys, "equiv", str(p1), str(p2), "--search")
    assert code == 0
    assert "equivalent via cocycle" in out


def test_cli_equiv_refuses_cocycle_with_search(tmp_path, capsys):
    path, pc = tmp_path / "a4.json", tmp_path / "u.json"
    d = a4_unified_datum()
    path.write_bytes(serialize(d))
    pc.write_bytes(serialize(enumerate_cocycles(d.ext, d.base)[0]))
    code, out, err = run_cli(capsys, "equiv", str(path), str(path), "--cocycle", str(pc),
                             "--search")
    assert (code, out, err) == (2, "", "supply --cocycle FILE or --search, not both\n")
    code, out, err = run_cli(capsys, "equiv", str(path), str(path))
    assert (code, out, err) == (2, "", "supply --cocycle FILE or --search\n")


def test_cli_equiv_search_negative(tmp_path, capsys):
    from hopfprod.special import crossed_datum
    from hopfprod.corpus import z2xz2_crossed_datum

    d1 = crossed_datum(z4_crossed_datum())
    d2 = crossed_datum(z2xz2_crossed_datum())
    p1, p2 = tmp_path / "d1.json", tmp_path / "d2.json"
    p1.write_bytes(serialize(d1))
    p2.write_bytes(serialize(d2))
    code, out, _ = run_cli(capsys, "equiv", str(p1), str(p2), "--search")
    assert code == 1
    assert "not equivalent" in out


def test_cli_equiv_with_wrong_cocycle_prints_failing_report(tmp_path, capsys):
    from hopfprod.classification import deform_datum

    d = a4_unified_datum()
    cocycles = enumerate_cocycles(d.ext, d.base)
    p1, p2, pc = tmp_path / "d1.json", tmp_path / "d2.json", tmp_path / "u.json"
    p1.write_bytes(serialize(d))
    p2.write_bytes(serialize(deform_datum(d, cocycles[1])))
    pc.write_bytes(serialize(cocycles[2]))
    code, out, _ = run_cli(capsys, "equiv", str(p1), str(p2), "--cocycle", str(pc))
    assert code == 1
    assert machine_section(out) == {
        "field": {"kind": "rational"},
        "format": "hopfprod/1",
        "kind": "report",
        "payload": {
            "checks": [
                {"condition": "ract-equal", "passed": True, "witness": None},
                {"condition": "deformed-lact", "passed": False,
                 "witness": "((1 3 2),(0 1)(2 3))"},
                {"condition": "deformed-dot", "passed": False,
                 "witness": "((1 2 3),(0 2 3))"},
                {"condition": "deformed-cocycle", "passed": False,
                 "witness": "((1 2 3),(0 2 1))"},
            ],
            "ok": False,
            "title": "extending-structure equivalence",
        },
    }


def test_cli_enum_cocycles_and_cap(tmp_path, capsys):
    h = grouplike_coalgebra(("p", "q", "r"))
    a = group_algebra(builtin_group("c2"))
    ph, pa = tmp_path / "h.json", tmp_path / "a.json"
    ph.write_bytes(serialize(h))
    pa.write_bytes(serialize(a))
    code, out, _ = run_cli(capsys, "enum-cocycles", str(ph), str(pa))
    assert code == 0
    assert out.startswith("4 lazy cocycles")
    code, _, _ = run_cli(capsys, "enum-cocycles", str(ph), str(pa),
                         "--max-cocycles", "3")
    assert code == 3


def assert_cli_rejects_usage(capsys, *argv, message):
    """The parser refuses argv as malformed input: exit 2, nothing on stdout."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == "" and message in out.err


def test_cli_enum_cocycles_negative_cap_exits_two(tmp_path, capsys):
    ph, pa = tmp_path / "h.json", tmp_path / "a.json"
    ph.write_bytes(serialize(grouplike_coalgebra(("p", "q", "r"))))
    pa.write_bytes(serialize(group_algebra(builtin_group("c2"))))
    assert_cli_rejects_usage(capsys, "enum-cocycles", str(ph), str(pa), "--max-cocycles", "-1",
                             message="--max-cocycles: must be at least 0, got -1")
    code, out, _ = run_cli(capsys, "enum-cocycles", str(ph), str(pa), "--max-cocycles", "0")
    assert code == 3 and out == "4 candidate cocycles exceed the cap 0\n"


def test_cli_equiv_negative_cap_exits_two(tmp_path, capsys):
    path = tmp_path / "a4.json"
    path.write_bytes(serialize(a4_unified_datum()))
    assert_cli_rejects_usage(capsys, "equiv", str(path), str(path), "--search",
                             "--max-cocycles", "-1",
                             message="--max-cocycles: must be at least 0, got -1")
    assert_cli_rejects_usage(capsys, "equiv", str(path), str(path), "--max-cocycles", "x",
                             message="--max-cocycles: invalid cap value: 'x'")
    code, out, _ = run_cli(capsys, "equiv", str(path), str(path), "--search",
                           "--max-cocycles", "0")
    assert code == 3
    assert out == "undecided: 32 candidate cocycles exceed the cap 0\n"


def test_cli_enum_cocycles_outside_the_group_like_regime_exits_three(tmp_path, capsys):
    from helpers import sweedler_bialgebra

    h4 = sweedler_bialgebra()
    pg, pa, ph4, pu = (tmp_path / n for n in ("g.json", "a.json", "h4.json", "u.json"))
    pg.write_bytes(serialize(grouplike_coalgebra(("p", "q"))))
    pa.write_bytes(serialize(group_algebra(builtin_group("c2"))))
    ph4.write_bytes(serialize(h4))
    pu.write_bytes(serialize(h4.unit_coalgebra()))
    for ext, base, message in ((pg, ph4, "A is not group-like on its basis"),
                               (pu, pa, "H is not group-like on its basis")):
        code, out, err = run_cli(capsys, "enum-cocycles", str(ext), str(base))
        assert (code, out, err) == (3, message + "\n", "")


def test_cli_example_outputs_are_deterministic(tmp_path, capsys):
    for name in ("s3-bicrossed", "z4-crossed", "a4-unified", "c4"):
        out1 = tmp_path / "one.json"
        out2 = tmp_path / "two.json"
        assert run_cli(capsys, "example", name, "--out", str(out1))[0] == 0
        assert run_cli(capsys, "example", name, "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()
        parse(out1.read_bytes())


def test_cli_example_unknown_name(capsys):
    code, _, err = run_cli(capsys, "example", "nosuch")
    assert code == 2
    assert "unknown example" in err


def test_cli_example_a6_group_level(tmp_path, capsys):
    out = tmp_path / "a6.json"
    assert run_cli(capsys, "example", "a6-group-level", "--out", str(out))[0] == 0
    table = parse(out.read_bytes())
    assert table.order == 360


def test_cli_incompatible_data_exit_two(tmp_path, capsys):
    # structurally valid documents whose contexts do not match
    d1 = tmp_path / "d1.json"
    d2 = tmp_path / "d2.json"
    d1.write_bytes(serialize(a4_unified_datum()))
    from hopfprod.special import matched_pair_datum as mpd

    d2.write_bytes(serialize(mpd(s3_matched_pair())))
    code, _, err = run_cli(capsys, "equiv", str(d1), str(d2), "--search")
    assert code == 2
    assert "share" in err


def test_cli_equiv_search_checks_the_context_before_any_candidate(tmp_path, capsys,
                                                                  monkeypatch):
    # the search passes over a candidate by its deformed dot alone, so the
    # shared context is checked on its own first: a second datum with
    # another base or coalgebra, or data over a base without an antipode,
    # exit 2 before any candidate reaches check_equivalence
    import dataclasses

    from hopfprod.structures import FDBialgebra, UnitalCoalgebra

    checked = []
    monkeypatch.setattr(hopfprod.cli, "check_equivalence", lambda *args: checked.append(args))
    d = a4_unified_datum()
    bialgebra = FDBialgebra(d.base.coalgebra, d.base.algebra)
    no_antipode = dataclasses.replace(d, base=bialgebra)
    moved_unit = dataclasses.replace(d, ext=UnitalCoalgebra(d.ext.coalg, {1: QQ.one}))
    paths = {}
    for name, datum in (("d", d), ("no-antipode", no_antipode), ("moved-unit", moved_unit)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_bytes(serialize(datum))
    share = "the two data must share the base and the coalgebra\n"
    for first, second, err in (("d", "no-antipode", share), ("no-antipode", "d", share),
                               ("d", "moved-unit", share), ("moved-unit", "d", share),
                               ("no-antipode", "no-antipode",
                                "equivalence checking needs a Hopf base\n")):
        got = run_cli(capsys, "equiv", str(paths[first]), str(paths[second]), "--search")
        assert got == (2, "", err), (first, second)
    assert checked == []


def test_cli_equiv_search_names_the_first_cocycle_that_passes(tmp_path, capsys):
    # passing over the candidates whose deformed dot misses keeps the
    # index: it is the first k for which check_equivalence passes, found
    # here by trying every candidate, and the report printed is its report
    from hopfprod.classification import deform_datum

    d = a4_unified_datum()
    cocycles = enumerate_cocycles(d.ext, d.base)
    p1 = tmp_path / "d1.json"
    p1.write_bytes(serialize(d))
    for k in (0, 5, 17, 31):
        d2 = deform_datum(d, cocycles[k])
        p2 = tmp_path / f"d2-{k}.json"
        p2.write_bytes(serialize(d2))
        first = next(j for j, u in enumerate(cocycles) if check_equivalence(d, d2, u).ok)
        code, out, err = run_cli(capsys, "equiv", str(p1), str(p2), "--search")
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == f"equivalent via cocycle {first} of 32"
        report = check_equivalence(d, d2, cocycles[first]).report
        assert out.split("-- machine --\n", 1)[1].encode() == serialize(report)


def test_cli_labels_that_collide_in_a_product_space_exit_two(tmp_path, capsys):
    # tensor_space formats the labels of each product space when it first
    # builds it, so labels "a" and "a,a", whose products "(a,a,a)" collide,
    # are refused as the document is read
    ph, pa = tmp_path / "h.json", tmp_path / "a.json"
    doc = json.loads(serialize(grouplike_coalgebra(("x", "y"))))
    doc["payload"]["space"]["labels"] = ["a", "a,a"]
    ph.write_text(json.dumps(doc))
    pa.write_bytes(serialize(group_algebra(builtin_group("c2"))))
    code, out, err = run_cli(capsys, "enum-cocycles", str(ph), str(pa))
    assert (code, out) == (2, "")
    assert err == f"{ph}: bad coalgebra payload: basis labels must be distinct\n"


def test_cli_datum_without_an_antipode_on_the_base_exits_two(tmp_path, capsys):
    # a lazy cocycle over Sweedler's H4 acting on itself, whose base carries
    # no antipode: equivalence needs one, so the data do not fit the command
    from hopfprod.structures import convolution_unit

    d = h4_trivial_datum()
    pd, pc = tmp_path / "d.json", tmp_path / "u.json"
    pd.write_bytes(serialize(d))
    pc.write_bytes(serialize(convolution_unit(d.ext.coalg, d.base.algebra)))
    code, out, err = run_cli(capsys, "equiv", str(pd), str(pd), "--cocycle", str(pc))
    assert (code, out, err) == (2, "", "equivalence checking needs a Hopf base\n")


def test_cli_mixed_fields_exit_two(tmp_path, capsys):
    # each document is well formed, but they live over different fields
    ph, pa = tmp_path / "h.json", tmp_path / "a.json"
    ph.write_bytes(serialize(grouplike_coalgebra(("p", "q"))))
    pa.write_bytes(serialize(group_algebra(builtin_group("c2"), PrimeField(5))))
    code, out, err = run_cli(capsys, "enum-cocycles", str(ph), str(pa))
    assert (code, out) == (2, "")
    assert err.startswith("mixed ground fields")


def test_cli_cocycle_of_the_wrong_shape_exits_two(tmp_path, capsys):
    d = a4_unified_datum()
    pd, pc = tmp_path / "d.json", tmp_path / "u.json"
    pd.write_bytes(serialize(d))
    pc.write_bytes(serialize(LinMap.identity(QQ, d.base.space)))
    code, out, err = run_cli(capsys, "equiv", str(pd), str(pd), "--cocycle", str(pc))
    assert (code, out, err) == (2, "", "cocycle shape does not match H -> A\n")


def test_cli_does_not_report_an_engine_error_as_malformed_input(tmp_path, capsys,
                                                                 monkeypatch):
    def broken(d):
        raise ValueError("engine bug")

    monkeypatch.setattr(hopfprod.cli, "check_product_conditions", broken)
    src = tmp_path / "d.json"
    src.write_bytes(serialize(a4_unified_datum()))
    with pytest.raises(ValueError, match="engine bug"):
        main(["verify", str(src)])


def closed_pipe() -> int:
    """The write end of a pipe whose reader has gone away: a write that
    reaches it raises BrokenPipeError."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end


def test_cli_closed_stdout_exits_141_without_a_traceback(tmp_path, capsys, monkeypatch):
    a4 = tmp_path / "a4.json"
    a4.write_bytes(serialize(a4_unified_datum()))
    for argv in (["equiv", str(a4), str(a4), "--search"], ["verify", str(a4)],
                 ["example", "a4-unified"]):
        with open(closed_pipe(), "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert main(argv) == 141
            # stdout now writes to the null device, so the flush at exit is quiet
            assert os.path.samestat(os.fstat(stdout.fileno()), os.stat(os.devnull))
            print("more output", flush=True)
    assert capsys.readouterr().err == ""


def test_cli_stdout_closed_before_the_first_write_exits_quietly():
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(hopfprod.cli.__file__).parents[1]))
    stdout = closed_pipe()
    try:
        proc = subprocess.run([sys.executable, "-m", "hopfprod.cli", "example", "a4-unified"],
                              stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(stdout)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_cli_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    assert hopfprod.cli.make_parser() is hopfprod.cli.make_parser()
    src, out = tmp_path / "d.json", tmp_path / "p.json"
    src.write_bytes(serialize(s3_matched_pair()))
    assert run_cli(capsys, "build", str(src), "--out", str(out)) == (0, "", "")
    # a later call without --out writes to stdout: no option carries over
    code, stdout, _ = run_cli(capsys, "build", str(src))
    assert code == 0 and stdout.encode() == out.read_bytes()


def test_cli_build_checks_each_datum_once(tmp_path, capsys, monkeypatch):
    calls = {"validate_datum": 0, "check_product_conditions": 0}
    for name in calls:
        real = getattr(hopfprod.unified, name)

        def counted(d, _real=real, _name=name):
            calls[_name] += 1
            return _real(d)

        monkeypatch.setattr(hopfprod.unified, name, counted)
        monkeypatch.setattr(hopfprod.cli, name, counted)
    for k, obj in enumerate((a4_unified_datum(), s3_matched_pair(), z4_crossed_datum())):
        src = tmp_path / f"d{k}.json"
        src.write_bytes(serialize(obj))
        code, _, _ = run_cli(capsys, "build", str(src), "--out", str(tmp_path / "p.json"))
        assert code == 0
        assert calls == {"validate_datum": k + 1, "check_product_conditions": k + 1}


def mod_p_datum_document(p) -> bytes:
    """A valid datum over GF(5) whose modulus is then replaced by p; every
    structure constant is 0 or 1, so the document is valid for any prime."""
    f5 = PrimeField(5)
    a, h = (group_algebra(builtin_group(n), f5) for n in ("c2", "c3"))
    doc = json.loads(serialize(matched_pair_datum(trivial_matched_pair(a, h))))
    doc["field"]["p"] = p
    return json.dumps(doc).encode()


def test_cli_huge_modulus_exits_two(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_bytes(mod_p_datum_document(10**400))
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "below 2**64" in err


def test_cli_hostile_json_exits_two(tmp_path, capsys):
    path = tmp_path / "hostile.json"
    for data in hostile_json_documents():
        path.write_bytes(data)
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 2
        assert "not a JSON document" in err and err.count("\n") == 1
        assert "Traceback" not in err


def test_cli_exit_paths(tmp_path, capsys):
    def write(name, obj):
        path = tmp_path / f"{name}.json"
        path.write_bytes(serialize(obj))
        return str(path)

    d = a4_unified_datum()
    c4 = group_algebra(builtin_group("c4"))
    sub_a = LinMap(QQ, BasedSpace(("0", "2")), c4.space, {0: {0: QQ.one}, 1: {2: QQ.one}})
    # delta(g + g^2) = g (x) g + g^2 (x) g^2 leaves the span of 1 and g + g^2
    open_h = LinMap(QQ, BasedSpace(("u0", "u1")), c4.space,
                    {0: {0: QQ.one}, 1: {1: QQ.one, 2: QQ.one}})
    datum, h4 = write("d", d), write("h4", h4_trivial_datum())
    zero = write("zero", LinMap.zero(QQ, d.ext.space, d.base.space))
    ambient, sub_a, open_h = write("c4", c4), write("sub-a", sub_a), write("open-h", open_h)

    code, _, err = run_cli(capsys, "equiv", datum, datum)
    assert (code, err) == (2, "supply --cocycle FILE or --search\n")
    code, out, _ = run_cli(capsys, "equiv", datum, datum, "--cocycle", zero)
    assert (code, out) == (1, "the supplied map is not a lazy cocycle\n")
    code, out, _ = run_cli(capsys, "equiv", h4, h4, "--search")
    assert code == 3 and out.startswith("undecided: ")
    code, _, err = run_cli(capsys, "factorize", ambient, "--sub-a", sub_a, "--sub-h", open_h)
    assert code == 2 and "not closed under comultiplication" in err
    code, _, err = run_cli(capsys, "factorize", sub_a, "--sub-a", sub_a, "--sub-h", sub_a)
    assert code == 2 and "expected a bialgebra or hopf document" in err
    code, _, err = run_cli(capsys, "verify", sub_a)
    assert (code, err) == (2, "cannot verify an object of type LinMap\n")


def test_cli_non_integer_modulus_exits_two(tmp_path, capsys):
    path = tmp_path / "float.json"
    for p in (7.9, "7", 7.0):
        path.write_bytes(mod_p_datum_document(p))
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 2
        assert "not an integer" in err and err.count("\n") == 1


def test_cli_zero_denominator_exits_two(tmp_path, capsys):
    path = tmp_path / "zero.json"
    for data in zero_denominator_documents():
        path.write_bytes(data)
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 2
        assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_non_integer_record_exits_two(tmp_path, capsys):
    path = tmp_path / "record.json"
    for data in non_integer_record_documents() + non_integer_dim_documents():
        path.write_bytes(data)
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 2
        assert "is not an integer" in err and err.count("\n") == 1


def test_cli_group_table_entry_outside_the_group_exits_two(tmp_path, capsys):
    path = tmp_path / "c4.json"
    code, _, _ = run_cli(capsys, "example", "c4", "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_bytes())
    for entry in (6, -1, 1.0, True, "1"):
        bad = copy.deepcopy(doc)
        bad["payload"]["table"][1][2] = entry
        path.write_text(json.dumps(bad))
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 2, entry
        assert "is not an element index" in err and err.count("\n") == 1
        assert "Traceback" not in err


def test_cli_repeated_record_exits_two(tmp_path, capsys):
    path = tmp_path / "repeated.json"
    for data in repeated_record_documents():
        path.write_bytes(data)
        for command in ("verify", "build"):
            code, _, err = run_cli(capsys, command, str(path))
            assert code == 2
            assert "repeated index" in err and err.count("\n") == 1


def test_cli_zero_valued_vector_record_is_dropped(tmp_path, capsys):
    # a record [1, 0, 1] in the unit of A is the zero term of 1_A, not a
    # second basis component of the unit
    clean = json.loads(serialize(a4_unified_datum()))
    padded = copy.deepcopy(clean)
    padded["payload"]["base"]["value"]["unit"].append([1, 0, 1])
    sections = []
    for doc in (clean, padded):
        path = tmp_path / "a4.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 0
        sections.append(machine_section(out))
    assert sections[0] == sections[1]


def test_cli_61_bit_prime_modulus_is_quick(tmp_path, capsys):
    data = mod_p_datum_document(2**61 - 1)
    start = time.perf_counter()
    datum = parse(data)
    assert time.perf_counter() - start < 0.25
    assert datum.field == PrimeField(2**61 - 1)
    path = tmp_path / "big.json"
    path.write_bytes(data)
    code, _, _ = run_cli(capsys, "verify", str(path))
    assert code == 0


def test_cli_composite_modulus_exits_two(tmp_path, capsys):
    path = tmp_path / "composite.json"
    for p in (6, (2**31 - 1) ** 2, 3825123056546413051):
        path.write_bytes(mod_p_datum_document(p))
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 2
        assert "not prime" in err and err.count("\n") == 1


def mutate(rng, doc):
    """A copy of a JSON tree with one seeded mutation at a random node: a
    numeric nudge, a dropped or duplicated key or list item, or a value of
    the wrong JSON type."""
    doc = copy.deepcopy(doc)
    slots = []

    def walk(node):
        if isinstance(node, dict):
            items = node.items()
        elif isinstance(node, list):
            items = enumerate(node)
        else:
            return
        for key, value in items:
            slots.append((node, key))
            walk(value)

    walk(doc)
    parent, key = rng.choice(slots)
    value = parent[key]
    kind = rng.choice(("nudge", "drop", "duplicate", "retype"))
    if kind == "nudge" and isinstance(value, int) and not isinstance(value, bool):
        parent[key] = value + rng.choice((-1, 1, -value))
    elif kind == "drop":
        del parent[key]
    elif kind == "duplicate" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(value))
    elif kind == "duplicate":
        parent[rng.choice(list(parent))] = copy.deepcopy(value)
    else:
        parent[key] = rng.choice((None, True, "x", 1.5, -1, [], {}, [0], {"x": 0}))
    return doc


def test_cli_fuzzed_documents_exit_cleanly(tmp_path, capsys):
    # a duplicated record is malformed input, so about one document in
    # thirty still parses and builds cleanly: 900 documents reach every exit
    # code at least 20 times
    rng = random.Random(2024)
    docs = {name: json.loads(serialize(builtin_example(name)))
            for name in ("s3-bicrossed", "z4-crossed", "a4-unified")}
    path = tmp_path / "fuzz.json"
    codes = []
    for k in range(900):
        name = rng.choice(sorted(docs))
        path.write_text(json.dumps(mutate(rng, docs[name])))
        argv = rng.choice((["verify"], ["build", "--out", str(tmp_path / "p.json")]))
        code, _, err = run_cli(capsys, *argv, str(path))
        assert code in (0, 1, 2), (k, name, argv[0])
        if code == 2:
            assert err.count("\n") == 1, (k, name, argv[0], err)
        codes.append(code)
    assert all(codes.count(c) >= 20 for c in (0, 1, 2)), codes
