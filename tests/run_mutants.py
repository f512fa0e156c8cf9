"""Plant each defect listed in ``tests/mutants.json`` and run the tests
named for it.

    python tests/run_mutants.py

Each mutant gives an ``id``, a ``file`` relative to the root of the
checkout, an exact ``old`` text that occurs once in it, the ``new`` text
that replaces it, the ``tests`` (pytest node ids) that must fail, and
``recorded``, the commit or ROADMAP item that first recorded it.

``src``, ``tests`` and ``pyproject.toml`` are copied once to a temporary
directory.  The named tests are run there on the unmutated copy first, and
must pass.  Then each mutant is applied alone, its tests are run with
``pytest -x``, and the file is restored.  A mutant is reported as

- caught: a named test fails;
- survived: every named test passes;
- stale: its old text does not occur exactly once, or pytest cannot run
  its tests (a node id that no longer exists, or a mutant that breaks
  collection);
- broken: a named test fails on the unmutated copy too.

The run exits 0 only when every mutant is caught.  The file name does not
match ``test_*.py``, so tier-1 collection does not pick the runner up.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
IGNORED = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")


def pytest(tree: Path, node_ids: list[str]) -> int:
    """pytest's exit code for the node ids, run in ``tree`` with its src."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *node_ids]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


# pytest's exit codes: 0 all passed, 1 a test failed, else the tests did not run
MUTATED = {0: "survived", 1: "caught"}
UNMUTATED = {0: None, 1: "broken"}


def run_mutant(tree: Path, mutant: dict, clean: bool) -> str:
    """The outcome of one mutant; ``clean`` says its tests already passed
    on the unmutated tree, else they are run there first."""
    path = tree / mutant["file"]
    text = path.read_text()
    if text.count(mutant["old"]) != 1:
        return "stale"
    if not clean and (outcome := UNMUTATED.get(pytest(tree, mutant["tests"]), "stale")):
        return outcome
    path.write_text(text.replace(mutant["old"], mutant["new"]))
    try:
        code = pytest(tree, mutant["tests"])
    finally:
        path.write_text(text)
    return MUTATED.get(code, "stale")


def main() -> int:
    mutants = json.loads((ROOT / "tests" / "mutants.json").read_text())
    ids = [m["id"] for m in mutants]
    if len(set(ids)) != len(ids):
        print("mutant ids repeat", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, tree / name, ignore=IGNORED)
            else:
                shutil.copy2(src, tree / name)
        # one run of every named test; only if it does not pass is each
        # mutant's list run alone on the unmutated tree
        clean = pytest(tree, sorted({t for m in mutants for t in m["tests"]})) == 0
        outcomes = {}
        for mutant in mutants:
            start = time.perf_counter()
            outcome = outcomes[mutant["id"]] = run_mutant(tree, mutant, clean)
            print(f"{outcome:8}  {mutant['id']}  ({time.perf_counter() - start:.1f} s)",
                  flush=True)
    bad = [i for i, outcome in outcomes.items() if outcome != "caught"]
    print(f"{len(outcomes) - len(bad)} of {len(outcomes)} mutants caught")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
