"""Command line front end.

Exit codes: 0 the analysis ran (whether or not anything matched), 1
usage error, 2 I/O or input-format error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .elf import ElfError, load_elf
from .report import (AnalysisConfig, MalformedLineError, UnknownFormatError,
                     analyze_binary, emit_report, load_entries)
from .sigdsl import ArityError, ParseError
from .siglib import builtin_names, load_catalog, load_signature_dir, \
    signature_source


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wherescrypto",
        description="Detect cryptographic primitives in ARM32 code by "
                    "matching signatures against normalized data flow "
                    "graphs.")
    parser.add_argument("--image", metavar="FILE",
                        help="raw little-endian image, or ELF with --elf")
    parser.add_argument("--base", metavar="HEX", default="0",
                        help="load address of a raw image (ignored with "
                             "--elf; default 0)")
    parser.add_argument("--entries", metavar="FILE",
                        help="entry point list, one hex address per line; "
                             "with --elf defaults to the symbol table's "
                             "functions")
    parser.add_argument("--elf", action="store_true",
                        help="treat the image as ELF32 (program headers "
                             "only)")
    parser.add_argument("--signatures", metavar="DIR",
                        help="directory of .sig files (default: built-in "
                             "catalog)")
    parser.add_argument("--n", type=int, default=4, metavar="N",
                        help="loop iteration target (default 4)")
    parser.add_argument("--depth", type=int, default=2, metavar="D",
                        help="call inlining depth (default 2)")
    parser.add_argument("--timeout", type=float, default=10.0, metavar="S",
                        help="exploration limit per function: a wall-clock "
                             "deadline for all of its paths together, plus "
                             "an instruction budget of 2,000,000 steps per "
                             "second that each forked path inherits from "
                             "its parent (default 10)")
    parser.add_argument("--format", choices=("json", "text", "dot"),
                        default="json", help="output format (default json)")
    parser.add_argument("--out", metavar="PATH",
                        help="write the report here instead of stdout")
    parser.add_argument("--dump-signatures", metavar="DIR",
                        help="write the built-in .sig files into DIR for "
                             "editing, then exit")
    return parser


def _fail_usage(message: str) -> int:
    print(f"wherescrypto: error: {message}", file=sys.stderr)
    return 1


def _fail_io(exc: Exception) -> int:
    print(f"wherescrypto: {exc}", file=sys.stderr)
    return 2


def _dump_signatures(directory: Path) -> int:
    try:
        directory.mkdir(parents=True, exist_ok=True)
        for name in builtin_names():
            target = directory / f"{name}.sig"
            target.write_text(signature_source(name), encoding="utf-8")
            print(f"wrote {target}")
    except OSError as exc:
        return _fail_io(exc)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        return _fail_usage(str(exc))

    if args.dump_signatures is not None:
        return _dump_signatures(Path(args.dump_signatures))

    if args.image is None:
        return _fail_usage("--image is required")
    if not args.elf and args.entries is None:
        return _fail_usage("--entries is required for raw images")
    try:
        base = int(args.base, 16)
    except ValueError:
        return _fail_usage(f"--base expects a hex address, got {args.base!r}")
    if base < 0:
        return _fail_usage("--base must not be negative")

    signature_paths = (args.signatures,) if args.signatures else ()
    try:
        config = AnalysisConfig(n=args.n, depth=args.depth,
                                timeout=args.timeout,
                                signature_paths=signature_paths,
                                output_format=args.format)
    except ValueError as exc:
        return _fail_usage(str(exc))

    try:
        data = Path(args.image).read_bytes()
        if args.elf:
            loaded = load_elf(data)
            image, base = loaded.image, loaded.base
            if args.entries is None:
                entries = sorted(set(loaded.functions.values()))
            else:
                entries = load_entries(args.entries)
        else:
            image = data
            entries = load_entries(args.entries)
        if args.signatures:
            corpus = load_signature_dir(Path(args.signatures))
        else:
            corpus = load_catalog()
    except (OSError, ElfError, MalformedLineError, ParseError, ArityError,
            UnicodeDecodeError) as exc:
        return _fail_io(exc)

    report = analyze_binary(image, base, entries, config, corpus)
    payload = emit_report(report, args.format)
    try:
        if args.out:
            Path(args.out).write_bytes(payload)
        else:
            sys.stdout.write(payload.decode("utf-8"))
    except OSError as exc:
        return _fail_io(exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
