"""Command-line interface.

Subcommands compose over stdin/stdout so that, for example,
`adinkra build --n 3 | adinkra baobab | adinkra reconstruct` reproduces
the built adinkra byte for byte.  Failures print a single
machine-parseable `error: <kind>: <message>` line on stderr; exit code
0 means the subcommand's postcondition held, 1 means a check or
reconstruction failed, 2 means the input was unusable.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (
    AdinkraError,
    AmbiguousCorrectionError,
    ContradictionError,
    GradedSumError,
    InputError,
    InsufficientPinningError,
    ReplayError,
    SizeGuardError,
    UncorrectableError,
    UnderDeterminedError,
)

_ERROR_KINDS = (
    (InsufficientPinningError, "insufficient-pinning", 1),
    (UnderDeterminedError, "under-determined", 1),
    (ContradictionError, "contradiction", 1),
    (UncorrectableError, "uncorrectable", 1),
    (AmbiguousCorrectionError, "ambiguous", 1),
    (GradedSumError, "graded-sum", 1),
    (ReplayError, "replay", 1),
    (SizeGuardError, "size-guard", 2),
    (InputError, "input", 2),
    (AdinkraError, "error", 1),
)


def _read_text(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------- subcommands ----------
# Each one imports the submodules it runs, so that a call loads no more
# of the library than it uses.


def _cmd_build(args) -> int:
    from . import baobab as baobab_mod, graph

    gens = [g for g in args.code.split(",") if g]
    adinkra = graph.build_chromotopology(args.n, gens)
    if not args.skeleton:
        tree, cycles, _sets = baobab_mod.skeleton_baobab_edges(adinkra)
        bits = {e: 1 for e in tree + cycles}
        signs, _trace = baobab_mod.reconstruct_dashing(adinkra, bits)
        adinkra = adinkra.with_dashing(signs).with_heights(
            graph.valise_heights(adinkra)
        )
    _write_text(args.output, graph.to_json(adinkra))
    return 0


def _cmd_verify(args) -> int:
    from . import graph

    adinkra = graph.from_json(_read_text(args.file))
    failed = False
    report = graph.verify_odd_dashing(adinkra)
    print(report.summary())
    for p in report.violations:
        label = graph.bit_string(p.base, adinkra.length)
        print(f"  plaquette colors={p.colors} base={label}")
    failed = failed or not report
    if adinkra.heights is not None:
        report = graph.verify_heights(adinkra)
        print(report.summary())
        for e in report.violations:
            print(f"  edge {e}")
        failed = failed or not report
    else:
        print("heights: absent")
    return 1 if failed else 0


def _cmd_baobab(args) -> int:
    from . import baobab as baobab_mod, graph

    adinkra = graph.from_json(_read_text(args.file))
    result = baobab_mod.extract_baobab(adinkra)
    _write_text(args.output, result.to_json())
    return 0


def _cmd_reconstruct(args) -> int:
    from . import baobab as baobab_mod, graph

    bb = baobab_mod.Baobab.from_json(_read_text(args.file))
    gens = list(bb.code_generators)
    skeleton = graph.build_chromotopology(bb.n, gens)
    adinkra, dash_trace, dir_trace = baobab_mod.reconstruct_adinkra(
        skeleton, bb
    )
    if args.trace:
        _write_text(args.trace, dash_trace.to_jsonl() + dir_trace.to_jsonl())
    _write_text(args.output, graph.to_json(adinkra))
    return 0


def _cmd_dof(args) -> int:
    from . import _kernels, baobab as baobab_mod

    # the counts grow as 2**n: refuse n above the guard, as `build` does
    _kernels.check_guard(args.n, "degree-of-freedom count")
    if args.directed:
        lo, hi = baobab_mod.directed_dof_bounds(args.n)
        print(f"{lo} {hi}")
    else:
        print(baobab_mod.dashing_dof(args.n, args.k))
    return 0


def _cmd_encode(args) -> int:
    from . import codec

    family = codec.parse_family(args.family)
    vector = codec.encode(args.message, family)
    sys.stdout.write(codec.format_wire(vector))
    return 0


def _cmd_decode(args) -> int:
    from . import codec

    vector = codec.parse_wire(_read_text(args.file))
    result = codec.decode(vector, max_flips=args.max_flips)
    if result.flips:
        print(f"corrected positions: {list(result.flips)}", file=sys.stderr)
    print(result.message_string())
    return 0


def _cmd_inject(args) -> int:
    from . import codec

    vector = codec.parse_wire(_read_text(args.file))
    corrupted, positions = codec.inject_errors(vector, args.flips, args.seed)
    print(f"flipped positions: {list(positions)}", file=sys.stderr)
    sys.stdout.write(codec.format_wire(corrupted))
    return 0


def _cmd_distance(args) -> int:
    from . import codec

    family = codec.parse_family(args.family)
    print(codec.min_distance(family))
    return 0


def _cmd_export_dot(args) -> int:
    from . import baobab as baobab_mod, dot, graph

    text = _read_text(args.file)
    doc = graph.load_json_object(text, ())
    if "tree_edges" in doc:
        out = dot.baobab_to_dot(baobab_mod.Baobab.from_json(text))
    elif "edges" in doc:
        out = dot.adinkra_to_dot(graph.from_json(text))
    else:
        raise InputError("JSON is neither an adinkra nor a baobab")
    _write_text(args.output, out)
    return 0


# ---------- parser ----------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adinkra",
        description="Build, verify, reduce, reconstruct, and transmit "
        "adinkra graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct an adinkra as JSON")
    p.add_argument("--n", type=int, required=True,
                   help="graph dimension (2**n nodes)")
    p.add_argument("--code", default="",
                   help="comma-separated doubly even generators")
    p.add_argument("--skeleton", action="store_true",
                   help="omit dashing and heights")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="check odd dashing and heights")
    p.add_argument("file", nargs="?", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("baobab", help="extract the determining subgraph")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_baobab)

    p = sub.add_parser("reconstruct",
                       help="rebuild the full adinkra from a baobab")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--trace", default=None,
                   help="write the gate trace (JSONL) here")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("dof", help="degrees of freedom")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--directed", action="store_true",
                   help="print pinned-arrow bounds instead")
    p.set_defaults(func=_cmd_dof)

    p = sub.add_parser("encode", help="message bits to wire block")
    p.add_argument("--family", required=True)
    p.add_argument("--message", required=True)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="wire block to message bits")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--max-flips", type=int, default=1)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("inject", help="flip random bits in a wire block")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--flips", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_inject)

    p = sub.add_parser("distance", help="minimum distance of a family")
    p.add_argument("--family", required=True)
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("export-dot", help="render JSON to Graphviz DOT")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_export_dot)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 2
    except AdinkraError as exc:
        for klass, kind, code in _ERROR_KINDS:
            if isinstance(exc, klass):
                print(f"error: {kind}: {exc}", file=sys.stderr)
                return code
        raise  # unreachable: AdinkraError is the last row


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
