"""Command-line front end.

Every subcommand is a thin shell over library operations.  Reports print as
a human-readable table followed by a machine-readable document after the
``-- machine --`` marker; golden tests bind only the machine section.

Exit codes: 0 all checks passed, 1 checks failed (a valid run with a
negative answer), 2 malformed input, 3 enumeration cap exceeded or the
question is undecidable in the enumerable regime, 141 standard output
closed before everything was written (as in ``hopfprod ... | head -1``).
"""
from __future__ import annotations

import argparse
import functools
import os
import sys

from .classification import (
    CapExceededError,
    ContextError,
    DEFAULT_COCYCLE_CAP,
    LazyCocycle,
    NotALazyCocycleError,
    NotGroupLikeError,
    _dot_hits,
    check_equivalence,
    enumerate_cocycles,
)
from .corpus import EXAMPLE_NAMES, builtin_example
from .factorization import (
    FactorizationInput,
    FactorizationInputError,
    NotAFactorizationError,
    recover_datum,
)
from .groups import BUILTIN_NAMES
from .fields import FieldMismatchError
from .linalg import DimensionError, LinMap
from .reports import Report
from .serialize import MalformedDocumentError, load, serialize
from .special import (
    CrossedDatum,
    MatchedPair,
    check_crossed,
    check_matched_pair,
    crossed_datum,
    matched_pair_datum,
)
from .structures import (
    FDBialgebra,
    FDHopf,
    NoAntipodeError,
    UnitalCoalgebra,
)
from .unified import (
    ExtendingDatum,
    check_product_conditions,
    solve_product_antipode,
    unified_product_of_checked,
    validate_datum,
)

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_MALFORMED = 2
EXIT_UNDECIDED = 3
# 128 + SIGPIPE: the status a shell reports for a writer stopped by a closed pipe
_EXIT_BROKEN_PIPE = 141


class CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message
        super().__init__(message)


def _load(path, want=None, what="input"):
    try:
        obj = load(path)
    except (MalformedDocumentError, OSError) as exc:
        raise CliError(EXIT_MALFORMED, f"{path}: {exc}")
    if want is not None and not isinstance(obj, want):
        names = want.__name__ if isinstance(want, type) else \
            "/".join(t.__name__ for t in want)
        raise CliError(EXIT_MALFORMED,
                       f"{path}: expected {what} ({names}), got {type(obj).__name__}")
    return obj


def _emit(obj, out_path=None):
    data = serialize(obj)
    if out_path:
        try:
            with open(out_path, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            raise CliError(EXIT_MALFORMED, f"{out_path}: {exc}")
    else:
        sys.stdout.buffer.write(data)


def _print_report(report: Report):
    print(report.render())
    print("-- machine --")
    sys.stdout.buffer.write(serialize(report))
    sys.stdout.flush()


def _datum_report(obj) -> tuple[Report, ExtendingDatum]:
    if isinstance(obj, ExtendingDatum):
        datum = obj
        rep = Report("datum verification")
    elif isinstance(obj, MatchedPair):
        rep = Report("matched pair verification")
        rep.extend(check_matched_pair(obj))
        datum = matched_pair_datum(obj)
    elif isinstance(obj, CrossedDatum):
        rep = Report("crossed datum verification")
        rep.extend(check_crossed(obj))
        datum = crossed_datum(obj)
    else:
        raise CliError(EXIT_MALFORMED,
                       f"cannot verify an object of type {type(obj).__name__}")
    rep.extend(validate_datum(datum))
    rep.extend(check_product_conditions(datum))
    return rep, datum


def cmd_verify(args) -> int:
    obj = _load(args.datum)
    rep, _ = _datum_report(obj)
    _print_report(rep)
    return EXIT_OK if rep.ok else EXIT_CHECKS_FAILED


def cmd_build(args) -> int:
    obj = _load(args.datum)
    rep, datum = _datum_report(obj)
    if not rep.ok:
        _print_report(rep)
        return EXIT_CHECKS_FAILED
    product = unified_product_of_checked(datum)
    carrier = product.carrier
    try:
        carrier = FDHopf(carrier.coalgebra, carrier.algebra, solve_product_antipode(product))
    except NoAntipodeError:
        pass
    _emit(carrier, args.out)
    return EXIT_OK


def cmd_factorize(args) -> int:
    ambient = _load(args.hopf, (FDBialgebra,), "a bialgebra or hopf document")
    incl_a = _load(args.sub_a, (LinMap,), "a linear map document")
    incl_h = _load(args.sub_h, (LinMap,), "a linear map document")
    try:
        fi = FactorizationInput.build(ambient, incl_a, incl_h)
    except FactorizationInputError as exc:
        raise CliError(EXIT_MALFORMED, str(exc))
    try:
        datum = recover_datum(fi)
    except NotAFactorizationError as exc:
        print(f"not a factorization: rank deficit {exc.deficit}")
        return EXIT_CHECKS_FAILED
    _emit(datum, args.out)
    return EXIT_OK


def cmd_equiv(args) -> int:
    d1 = _load(args.datum1, (ExtendingDatum,), "an extending datum")
    d2 = _load(args.datum2, (ExtendingDatum,), "an extending datum")
    if args.cocycle is None and not args.search:
        raise CliError(EXIT_MALFORMED, "supply --cocycle FILE or --search")
    if args.cocycle is not None and args.search:
        raise CliError(EXIT_MALFORMED, "supply --cocycle FILE or --search, not both")
    if args.cocycle is not None:
        linmap = _load(args.cocycle, (LinMap,), "a cocycle document")
        try:
            u = LazyCocycle(linmap, d1.ext, d1.base)
        except NotALazyCocycleError:
            print("the supplied map is not a lazy cocycle")
            return EXIT_CHECKS_FAILED
        result = check_equivalence(d1, d2, u)
        _print_report(result.report)
        return EXIT_OK if result.ok else EXIT_CHECKS_FAILED
    try:
        candidates = enumerate_cocycles(d1.ext, d1.base, args.max_cocycles)
    except (NotGroupLikeError, CapExceededError) as exc:
        print(f"undecided: {exc}")
        return EXIT_UNDECIDED
    for k, u in _dot_hits(d1, d2, candidates):
        result = check_equivalence(d1, d2, u)
        if result.ok:
            print(f"equivalent via cocycle {k} of {len(candidates)}")
            _print_report(result.report)
            return EXIT_OK
    print(f"not equivalent: no cocycle works among all {len(candidates)} candidates")
    return EXIT_CHECKS_FAILED


def cmd_enum_cocycles(args) -> int:
    h = _load(args.ext, (UnitalCoalgebra,), "a coalgebra document with a unit")
    a = _load(args.base, (FDBialgebra,), "a bialgebra or hopf document")
    try:
        cocycles = enumerate_cocycles(h, a, args.max_cocycles)
    except (NotGroupLikeError, CapExceededError) as exc:
        print(str(exc))
        return EXIT_UNDECIDED
    print(f"{len(cocycles)} lazy cocycles")
    for u in cocycles:
        sys.stdout.buffer.write(serialize(u))
    return EXIT_OK


def cmd_example(args) -> int:
    try:
        obj = builtin_example(args.name)
    except KeyError as exc:
        raise CliError(EXIT_MALFORMED, str(exc.args[0]))
    _emit(obj, args.out)
    return EXIT_OK


def cap(text: str) -> int:
    """A ``--max-cocycles`` value: an integer of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The command parser, built once per process: parsing does not change
    it, so in-process callers of :func:`main` share one.  Callers must not
    change it either."""
    parser = argparse.ArgumentParser(
        prog="hopfprod",
        description="exact twisted products of finite-dimensional Hopf algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run all datum and product checks")
    p.add_argument("datum")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("build", help="build the product bialgebra of a datum")
    p.add_argument("datum")
    p.add_argument("--out")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("factorize",
                       help="recover a datum from a factorized bialgebra")
    p.add_argument("hopf")
    p.add_argument("--sub-a", required=True, dest="sub_a")
    p.add_argument("--sub-h", required=True, dest="sub_h")
    p.add_argument("--out")
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("equiv", help="test equivalence of two extending data")
    p.add_argument("datum1")
    p.add_argument("datum2")
    p.add_argument("--cocycle")
    p.add_argument("--search", action="store_true")
    p.add_argument("--max-cocycles", type=cap, default=DEFAULT_COCYCLE_CAP)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("enum-cocycles", help="list all lazy cocycles H -> A")
    p.add_argument("ext")
    p.add_argument("base")
    p.add_argument("--max-cocycles", type=cap, default=DEFAULT_COCYCLE_CAP)
    p.set_defaults(func=cmd_enum_cocycles)

    p = sub.add_parser("example", help="emit a built-in corpus object")
    p.add_argument("name",
                   help=f"one of {', '.join(EXAMPLE_NAMES)} or a builtin group "
                        f"({', '.join(BUILTIN_NAMES)})")
    p.add_argument("--out")
    p.set_defaults(func=cmd_example)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone away: point stdout at the null device, so that
        # what is still buffered, and the flush at exit, cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _EXIT_BROKEN_PIPE
    except CliError as exc:
        print(exc.message, file=sys.stderr)
        return exc.code
    except (DimensionError, FieldMismatchError, ContextError) as exc:
        # well-formed documents that do not fit together: incompatible
        # shapes, mixed fields, mismatched contexts
        print(str(exc), file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
