"""Canonical document format for every object kind.

One self-describing JSON schema covers all kinds (the kind tag lives inside
the document), so whatever one command emits another can consume.  Emission
is canonical: sorted entry lists, reduced rationals, sorted keys and fixed
separators, so equal objects serialize to identical bytes and
``serialize(parse(b)) == b`` for every well-formed document.  Tensor indices
are row-major, matching the in-memory convention.
"""
from __future__ import annotations

import json

from .classification import LazyCocycle
from .fields import PrimeField, QQ
from .groups import GroupTable
from .linalg import SCALAR_SPACE, BasedSpace, LinMap, tensor_space
from .reports import Report
from .special import CrossedDatum, MatchedPair
from .structures import (
    FDAlgebra,
    FDBialgebra,
    FDCoalgebra,
    FDHopf,
    UnitalCoalgebra,
)
from .unified import MAP_SHAPES, ExtendingDatum

FORMAT_VERSION = "hopfprod/1"


class MalformedDocumentError(ValueError):
    pass


class CocycleMap(LinMap):
    """A linear map parsed from (and re-serialized as) a cocycle document."""


def _field_obj(field):
    if field == QQ:
        return {"kind": "rational"}
    return {"kind": "mod-p", "p": field.p}


def _field_from(obj):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise MalformedDocumentError("missing field descriptor")
    if obj["kind"] == "rational":
        return QQ
    if obj["kind"] == "mod-p":
        p = obj.get("p")
        if not isinstance(p, int) or isinstance(p, bool):
            raise MalformedDocumentError(f"bad modulus: {p!r} is not an integer")
        try:
            return PrimeField(p)
        except ValueError as exc:
            raise MalformedDocumentError(f"bad modulus: {exc}") from exc
    raise MalformedDocumentError(f"unknown field kind {obj['kind']!r}")


def _space_obj(space: BasedSpace):
    return {"dim": space.dim, "labels": list(space.labels)}


def _space_from(obj):
    try:
        labels = [str(x) for x in obj["labels"]]
        if _json_int(obj["dim"], "dim") != len(labels):
            raise MalformedDocumentError("dim does not match the label count")
        return BasedSpace(labels)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedDocumentError(f"bad space: {exc}") from exc


def _entries_obj(field, m: LinMap):
    out = []
    for i in sorted(m.cols):
        for j, v in m.cols[i]:
            num, den = field.to_pair(v)
            out.append([i, j, num, den])
    return out


def _json_int(x, what: str) -> int:
    """x itself if it is a JSON integer (not a float, string or boolean)."""
    if type(x) is not int:
        raise MalformedDocumentError(f"{what} {x!r} is not an integer")
    return x


def _scalar(field, num, den):
    """The field element num/den of a record; a zero denominator is malformed."""
    try:
        return field.of(_json_int(num, "numerator"), _json_int(den, "denominator"))
    except ZeroDivisionError as exc:
        raise MalformedDocumentError(f"zero denominator in {num}/{den}") from exc


def _entries_from(field, obj, domain, codomain) -> LinMap:
    cols: dict[int, dict] = {}
    try:
        for rec in obj:
            i, j, num, den = rec
            col = cols.setdefault(_json_int(i, "index"), {})
            if _json_int(j, "index") in col:
                raise MalformedDocumentError(f"repeated index ({i}, {j})")
            col[j] = _scalar(field, num, den)
    except (TypeError, ValueError) as exc:
        raise MalformedDocumentError(f"bad entry record: {exc}") from exc
    try:
        return LinMap(field, domain, codomain, cols)
    except ValueError as exc:
        raise MalformedDocumentError(str(exc)) from exc


def _vector_obj(field, v: dict):
    out = []
    for i in sorted(v):
        num, den = field.to_pair(v[i])
        out.append([i, num, den])
    return out


def _vector_from(field, obj, dim) -> dict:
    """The sparse vector of a record list; zero values are dropped, as
    :class:`LinMap` drops them from entry records."""
    out = {}
    try:
        for rec in obj:
            i, num, den = rec
            if not 0 <= _json_int(i, "index") < dim:
                raise MalformedDocumentError(f"vector index {i} out of range")
            if i in out:
                raise MalformedDocumentError(f"repeated index {i}")
            out[i] = _scalar(field, num, den)
    except (TypeError, ValueError) as exc:
        raise MalformedDocumentError(f"bad vector record: {exc}") from exc
    return {i: x for i, x in out.items() if not field.is_zero(x)}


def _coalgebra_obj(field, c: FDCoalgebra, unit: dict | None):
    obj = {
        "space": _space_obj(c.space),
        "delta": _entries_obj(field, c.delta),
        "epsilon": _entries_obj(field, c.epsilon),
    }
    if unit is not None:
        obj["unit"] = _vector_obj(field, unit)
    return obj


def _coalgebra_from(field, obj):
    try:
        space = _space_from(obj["space"])
    except KeyError as exc:
        raise MalformedDocumentError("coalgebra payload lacks a space") from exc
    delta = _entries_from(field, obj.get("delta", []), space,
                          tensor_space(space, space))
    epsilon = _entries_from(field, obj.get("epsilon", []), space, SCALAR_SPACE)
    coalg = FDCoalgebra(field, space, delta, epsilon)
    if "unit" in obj:
        return UnitalCoalgebra(coalg, _vector_from(field, obj["unit"], space.dim))
    return coalg


def _bialgebra_obj(field, b: FDBialgebra):
    obj = _coalgebra_obj(field, b.coalgebra, None)
    obj["mult"] = _entries_obj(field, b.mult)
    obj["unit"] = _vector_obj(field, b.unit)
    if isinstance(b, FDHopf):
        obj["antipode"] = _entries_obj(field, b.antipode)
    return obj


def _bialgebra_from(field, obj, want_hopf: bool):
    coalg = _coalgebra_from(field, {k: obj[k] for k in ("space", "delta", "epsilon")
                                    if k in obj})
    space = coalg.space
    mult = _entries_from(field, obj.get("mult", []), tensor_space(space, space), space)
    unit = _vector_from(field, obj.get("unit", []), space.dim)
    alg = FDAlgebra(field, space, mult, unit)
    if want_hopf or "antipode" in obj:
        if "antipode" not in obj:
            raise MalformedDocumentError("hopf document lacks an antipode")
        antipode = _entries_from(field, obj["antipode"], space, space)
        return FDHopf(coalg, alg, antipode)
    return FDBialgebra(coalg, alg)


def _sub_bialgebra_obj(field, b: FDBialgebra):
    return {"kind": "hopf" if isinstance(b, FDHopf) else "bialgebra",
            "value": _bialgebra_obj(field, b)}


def _sub_bialgebra_from(field, obj):
    try:
        return _bialgebra_from(field, obj["value"], obj["kind"] == "hopf")
    except (KeyError, TypeError) as exc:
        raise MalformedDocumentError(f"bad bialgebra block: {exc}") from exc


def _unital_coalgebra_obj(field, h: UnitalCoalgebra):
    return _coalgebra_obj(field, h.coalg, h.unit)


def _unital_coalgebra_from(field, obj):
    h = _coalgebra_from(field, obj)
    if not isinstance(h, UnitalCoalgebra):
        raise MalformedDocumentError("extending-datum needs a unit on H")
    return h


_BIALGEBRA = (_sub_bialgebra_obj, _sub_bialgebra_from)
_UNITAL_COALGEBRA = (_unital_coalgebra_obj, _unital_coalgebra_from)

# Each datum kind: its class, the payload keys of its factors A and H with
# their (emit, parse) pair, and its structure maps, whose shapes come from
# MAP_SHAPES.  Keys are read in the order listed.
_DATUM_KINDS = {
    "extending-datum": (ExtendingDatum, (("base", _BIALGEBRA), ("ext", _UNITAL_COALGEBRA)),
                        ("dot", "ract", "lact", "cocycle")),
    "matched-pair": (MatchedPair, (("a", _BIALGEBRA), ("h", _BIALGEBRA)), ("ract", "lact")),
    "crossed-datum": (CrossedDatum, (("a", _BIALGEBRA), ("h", _BIALGEBRA)),
                      ("lact", "cocycle")),
}


def _datum_payload(field, obj, factors, maps) -> dict:
    payload = {key: emit(field, getattr(obj, key)) for key, (emit, _) in factors}
    payload.update((name, _entries_obj(field, getattr(obj, name))) for name in maps)
    return payload


def _datum_from(field, payload, cls, factors, maps):
    parts = {key: read(field, payload[key]) for key, (_, read) in factors}
    a, h = parts.values()
    spaces = {"a": a.space, "h": h.space}
    for name in maps:
        left, right, target = MAP_SHAPES[name]
        parts[name] = _entries_from(field, payload[name],
                                    tensor_space(spaces[left], spaces[right]),
                                    spaces[target])
    return cls(**parts)


def _document(kind: str, field, payload: dict) -> dict:
    return {"format": FORMAT_VERSION, "field": _field_obj(field), "kind": kind,
            "payload": payload}


def to_document(obj) -> dict:
    """The canonical dict form of any serializable object."""
    if isinstance(obj, Report):
        return _document("report", QQ, obj.to_obj())
    if isinstance(obj, GroupTable):
        return _document("group-table", QQ,
                         {"labels": list(obj.labels),
                          "table": [list(row) for row in obj.table]})
    if isinstance(obj, UnitalCoalgebra):
        return _document("coalgebra", obj.field, _unital_coalgebra_obj(obj.field, obj))
    if isinstance(obj, FDCoalgebra):
        return _document("coalgebra", obj.field, _coalgebra_obj(obj.field, obj, None))
    if isinstance(obj, FDBialgebra):
        kind = "hopf" if isinstance(obj, FDHopf) else "bialgebra"
        return _document(kind, obj.field, _bialgebra_obj(obj.field, obj))
    for kind, (cls, factors, maps) in _DATUM_KINDS.items():
        if isinstance(obj, cls):
            return _document(kind, obj.field, _datum_payload(obj.field, obj, factors, maps))
    if isinstance(obj, LazyCocycle):
        obj = obj.linmap
        kind = "cocycle"
    elif isinstance(obj, CocycleMap):
        kind = "cocycle"
    elif isinstance(obj, LinMap):
        kind = "linmap"
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return _document(kind, obj.field,
                     {"domain": _space_obj(obj.domain),
                      "codomain": _space_obj(obj.codomain),
                      "entries": _entries_obj(obj.field, obj)})


def serialize(obj) -> bytes:
    """Canonical bytes: sorted keys, compact separators, trailing newline."""
    doc = obj if isinstance(obj, dict) else to_document(obj)
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def parse(data: bytes):
    """Parse a document back into the corresponding object."""
    try:
        doc = json.loads(data.decode())
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and an integer literal over
        # the interpreter's digit limit; RecursionError, nesting too deep
        raise MalformedDocumentError(f"not a JSON document: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedDocumentError("top level is not an object")
    if doc.get("format") != FORMAT_VERSION:
        raise MalformedDocumentError(f"unsupported format {doc.get('format')!r}")
    kind = doc.get("kind")
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        raise MalformedDocumentError("missing payload")
    field = _field_from(doc.get("field"))
    try:
        if kind == "report":
            rep = Report(str(payload.get("title", "")))
            for item in payload.get("checks", []):
                rep.add(str(item["condition"]), bool(item["passed"]),
                        item.get("witness"))
            return rep
        if kind == "group-table":
            return GroupTable(payload["table"], [str(x) for x in payload["labels"]])
        if kind == "coalgebra":
            return _coalgebra_from(field, payload)
        if kind in ("bialgebra", "hopf"):
            return _bialgebra_from(field, payload, kind == "hopf")
        if isinstance(kind, str) and kind in _DATUM_KINDS:
            return _datum_from(field, payload, *_DATUM_KINDS[kind])
        if kind in ("cocycle", "linmap"):
            domain = _space_from(payload["domain"])
            codomain = _space_from(payload["codomain"])
            m = _entries_from(field, payload.get("entries", []), domain, codomain)
            if kind == "cocycle":
                return CocycleMap(field, domain, codomain,
                                  {i: m.col(i) for i in m.cols})
            return m
    except MalformedDocumentError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedDocumentError(f"bad {kind} payload: {exc}") from exc
    raise MalformedDocumentError(f"unknown document kind {kind!r}")


def load(path):
    with open(path, "rb") as fh:
        return parse(fh.read())
