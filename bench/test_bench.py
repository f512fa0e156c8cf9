"""Tests of the benchmark itself: its checks catch corrupted outputs, its
inputs depend only on the seed, and its trace counts repeat.

    python3 -m pytest -q bench
"""
import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import oracles as orc  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from layertrace import Tracer  # noqa: E402


def small_inputs(tmp_path, name, setup):
    inp = wl.Inputs(name, 0, str(tmp_path))
    setup(inp, random.Random(0))
    return inp


def run_item(inp, k, rnd=0):
    return dict(wl.ops(inp, rnd))[k]()


def corrupt_entry(data: bytes, key: str, change) -> bytes:
    doc = json.loads(data)
    entries = doc["payload"][key]
    entries[0] = change(list(entries[0]))
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode() + b"\n"


@pytest.fixture
def build_item(tmp_path):
    inp = small_inputs(tmp_path, "build", lambda i, rng: wl.draw_splits(
        i, rng, wl.hp.QQ, [("s3", 2)]))
    out = run_item(inp, 0)
    assert wl.check_build(inp.items[0], out) == []
    return inp, out


def test_flipped_product_constant_is_caught(build_item):
    inp, out = build_item
    item = inp.items[0]
    with open(out["product"], "rb") as fh:
        good = fh.read()
    n = len(item["sub"]) * len(item["reps"])
    bad = corrupt_entry(good, "mult", lambda e: [e[0], (e[1] + 1) % n, *e[2:]])
    assert orc.group_product_errors(good, item["table"], item["sub"], item["reps"],
                                    item["field"]) == []
    assert orc.group_product_errors(bad, item["table"], item["sub"], item["reps"],
                                    item["field"])


def test_changed_recovered_datum_is_caught(build_item):
    inp, out = build_item
    with open(out["recovered"], "rb") as fh:
        good = fh.read()
    with open(out["recovered"], "wb") as fh:
        fh.write(corrupt_entry(good, "cocycle", lambda e: [e[0], 1 - e[1], *e[2:]]))
    errs = wl.check_build(inp.items[0], out)
    assert any("byte for byte" in e for e in errs)


def test_wrong_antipode_entry_is_caught(tmp_path):
    p = 101
    inp = small_inputs(tmp_path, "gfp", lambda i, rng: wl.add_tensor_pair(
        i, wl.hp.PrimeField(p), orc.sweedler(p), wl.dense_group(p, "c2")))
    out = run_item(inp, 0)
    assert wl.check_build(inp.items[0], out) == []
    with open(out["product"], "rb") as fh:
        good = fh.read()
    bad = corrupt_entry(good, "antipode", lambda e: [e[0], e[1], (e[2] + 1) % p, 1])
    errs = orc.tensor_product_errors(bad, inp.items[0]["want"])
    assert any("antipode" in e for e in errs)


def test_flipped_verdict_is_caught(tmp_path):
    inp = small_inputs(tmp_path, "oracle", wl.setup_oracle)
    for k, item in enumerate(inp.items[:3]):
        out = run_item(inp, k)
        assert wl.check_oracle(item, out) == []
        for pos in (1, 2, 3):
            flipped = list(out)
            flipped[pos] = not flipped[pos]
            assert wl.check_oracle(item, tuple(flipped))


def test_wrong_convolution_entry_is_caught(tmp_path):
    inp = small_inputs(tmp_path, "classify", wl.setup_classify)
    k = next(k for k, item in enumerate(inp.items) if item["kind"] == "table")
    item = inp.items[k]
    item["pairs"], item["inverses"] = item["pairs"][:4], item["inverses"][:2]
    outs = [op() for j, op in wl.ops(inp, 0) if j == k]
    assert wl.check_classify(item, outs) == []
    at = next(n for n, out in enumerate(outs) if out[0] == "conv")
    _, (i, j), _ = outs[at]
    cocycles = outs[0][1]
    other = next(m for m in range(len(cocycles)) if m not in (i, j))
    outs[at] = ("conv", (i, j), wl.hp.cocycle_convolve(cocycles[other], cocycles[j]))
    assert wl.check_classify(item, outs)


def test_same_seed_same_input_bytes(tmp_path):
    for name in ("build", "oracle", "classify", "gfp"):
        first = run.set_up(wl, name, 5, str(tmp_path / "a"))
        again = run.set_up(wl, name, 5, str(tmp_path / "b"))
        other = run.set_up(wl, name, 6, str(tmp_path / "c"))
        if name == "oracle":
            key = lambda inp: [repr(item["ges"]) for item in inp.items]
        else:
            key = lambda inp: inp.files
        assert key(first) == key(again)
        assert key(first) != key(other)


def test_two_traced_runs_give_identical_counts(tmp_path):
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            inp = run.set_up(wl, "gfp", 3, str(tmp_path))
            inp.items = inp.items[:2] + inp.items[-1:]
            _, _, outputs, failed = run.run_ops(wl, inp, 1, tracer)
        finally:
            tracer.uninstall()
        assert failed == 0 and run.check_all(wl, inp, outputs) == []
        counts.append(dict(tracer.counts))
    assert counts[0] == counts[1]
    assert counts[0]["cli.main.calls"] == 6
    assert counts[0]["unified.validate_datum.calls"] == 6
    assert all(counts[0][f"fields.{op}.calls"] > 0 for op in ("mul", "add", "is_zero"))
