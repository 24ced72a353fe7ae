"""Command line front end.

Exit codes: 0 the analysis ran (whether or not anything matched), 1
usage error, 2 I/O or input-format error.  Every address is an A32
address, below 2^32: an entry at or past 2^32 is a format error, and a
raw image whose base or end lies past it is a usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from .dfg import MASK32
from .report import (FORMATS, MalformedLineError, analyze_binary,
                     emit_report, load_entries, parse_hex)
from .siglib import SignatureFileError, builtin_names, load_catalog, \
    load_signature_dir, signature_source
from .symexec import Config


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
                        help="wall-clock backstop per function, for all "
                             "of its paths together; the work is bounded "
                             "by a fixed instruction budget that the paths "
                             "share (default 10)")
    parser.add_argument("--format", choices=FORMATS,
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


def _fail_io(exc: Exception, path: Optional[str] = None) -> int:
    where = "" if path is None else f"{path}: "
    print(f"wherescrypto: {where}{exc}", file=sys.stderr)
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
        base = parse_hex(args.base)
    except ValueError:
        return _fail_usage(f"--base expects a hex address, got {args.base!r}")
    if base > MASK32:
        return _fail_usage(f"--base must be a 32-bit address, got "
                           f"{args.base!r}")

    try:
        config = Config(n=args.n, depth=args.depth, timeout=args.timeout)
    except ValueError as exc:
        return _fail_usage(str(exc))

    # an OSError and a SignatureFileError name their file; the other
    # format errors get the name of the input they came from
    try:
        data = Path(args.image).read_bytes()
        if args.elf:
            from .elf import ElfError, load_elf   # only ELF runs need it
            try:
                loaded = load_elf(data)
            except ElfError as exc:
                return _fail_io(exc, args.image)
            image, base = loaded.image, loaded.base
        else:
            image = data
            if base + len(image) - 1 > MASK32:
                return _fail_usage(f"a {len(image)}-byte image at --base "
                                   f"{base:#x} ends past 2^32")
        if args.entries is None:                  # only with --elf
            entries = sorted(set(loaded.functions.values()))
        else:
            try:
                entries = load_entries(args.entries)
            except (MalformedLineError, UnicodeDecodeError) as exc:
                return _fail_io(exc, args.entries)
        if args.signatures:
            corpus = load_signature_dir(Path(args.signatures))
        else:
            corpus = load_catalog()
    except (OSError, SignatureFileError) as exc:
        return _fail_io(exc)

    report = analyze_binary(image, base, entries, config, corpus,
                            keep_graphs=args.format == "dot")
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
