"""Built-in signature catalog.

Signatures ship as ``.sig`` documents in the package's ``signatures/``
directory, read as plain files next to this module: the package is
installed as files on disk, not imported from a zip archive.  The catalog covers algorithm-specific documents
(XTEA, MD5, AES, SHA1) plus two generic classes: a Feistel ladder whose
variants substitute the round function with increasingly deep chains of
wildcard operations, and feedback shift register variants.

The Feistel ladder is also available programmatically through
`generate_feistel_variants`; the shipped ``feistel.sig`` is exactly the
printed form of the depth-8 ladder.
"""

from __future__ import annotations

import functools
from pathlib import Path

from .sigdsl import ArityError, ParseError, SignatureDoc, parse

__all__ = [
    "SignatureFileError", "UnknownSignatureError", "builtin_names",
    "signature_source",
    "load_builtin", "load_catalog", "load_signature_dir",
    "generate_feistel_variants",
]


class UnknownSignatureError(KeyError):
    def __init__(self, name: str):
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:
        return f"no built-in signature named {self.name!r}"


class SignatureFileError(ValueError):
    """A signature path that cannot be used: a ``.sig`` file that is not
    UTF-8 or does not parse, or a directory that does not exist, is not
    a directory or holds no ``.sig`` file.  The message names the path,
    then the cause."""

    def __init__(self, path: Path, cause: Exception | str):
        super().__init__(f"{path}: {cause}")
        self.path = path


#: The built-in documents.  A path beside this module, not
#: `importlib.resources`, whose import alone loads `tempfile`, `shutil`
#: and a dozen more modules that a scan never uses.
_SIGNATURE_DIR = Path(__file__).parent / "signatures"


def builtin_names() -> list[str]:
    """Names accepted by `load_builtin`, sorted."""
    return sorted(entry.name[:-4] for entry in _SIGNATURE_DIR.iterdir()
                  if entry.name.endswith(".sig"))


def signature_source(name: str) -> str:
    """Raw document text of a built-in, for display or extraction."""
    entry = _SIGNATURE_DIR / f"{name}.sig"
    try:
        return entry.read_text(encoding="utf-8")
    except (FileNotFoundError, NotADirectoryError):
        raise UnknownSignatureError(name) from None


@functools.cache
def load_builtin(name: str) -> SignatureDoc:
    """A built-in document, parsed once per process: the package data
    cannot change while it runs.  The document is shared by every
    caller and is read-only, as are the graphs built from its variants
    (`sigdsl.build_variant`)."""
    return parse(signature_source(name))


def load_catalog() -> dict[str, SignatureDoc]:
    """Every built-in document by name, in a new dict on each call; the
    documents themselves are shared (`load_builtin`)."""
    return {name: load_builtin(name) for name in builtin_names()}


def load_signature_dir(path: Path) -> dict[str, SignatureDoc]:
    """Parses every ``*.sig`` file in a directory, keyed by file stem,
    afresh on each call.  Raises `SignatureFileError` naming the file
    that fails, or naming `path` when it is missing, is not a directory
    or holds no ``.sig`` file."""
    if not path.exists():
        raise SignatureFileError(path, "no such directory")
    if not path.is_dir():
        raise SignatureFileError(path, "not a directory")
    entries = sorted(path.glob("*.sig"))
    if not entries:
        raise SignatureFileError(path, "no .sig files in the directory")
    docs = {}
    for entry in entries:
        try:
            docs[entry.stem] = parse(entry.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, ParseError, ArityError) as exc:
            raise SignatureFileError(entry, exc) from exc
    return docs


def _opaque_chain(inner: str, depth: int) -> str:
    expr = inner
    for _ in range(depth):
        expr = f"OPAQUE({expr})"
    return expr


def generate_feistel_variants(max_nesting: int) -> SignatureDoc:
    """Feistel ladder: one variant per round-function depth.

    Each variant encodes two chained rounds

        r1 = XOR(left, F(right))
        r2 = XOR(right, F(r1))

    where F is a chain of ``j`` wildcard operations; the second round
    consuming the untouched right half is the crisscross that separates
    a Feistel structure from a plain mixing chain.
    """
    if not 1 <= max_nesting <= 8:
        raise ValueError(
            f"max_nesting must be within [1, 8], got {max_nesting}")
    lines = ["IDENTIFIER Feistel network"]
    for depth in range(1, max_nesting + 1):
        lines.append("")
        lines.append(f"VARIANT depth-{depth}")
        lines.append("TRANSIENT right:OPAQUE;")
        lines.append("TRANSIENT r1:XOR(OPAQUE,"
                     f"{_opaque_chain('right', depth)});")
        lines.append(f"r2:XOR(right,{_opaque_chain('r1', depth)});")
    return parse("\n".join(lines) + "\n")
