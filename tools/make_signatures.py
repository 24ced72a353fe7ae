#!/usr/bin/env python3
"""Regenerates the derived signature documents.

xtea.sig and md5.sig unroll round schedules with concrete constants
(addition chains of the XTEA key schedule, the MD5 sine table), which
would be error prone to transcribe by hand.  feistel.sig is the printed
depth-8 ladder from wherescrypto.siglib.  Run from anywhere; writes
into src/wherescrypto/signatures/.
"""

import math
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from wherescrypto.sigdsl import build_variant, parse, print_doc  # noqa: E402
from wherescrypto.siglib import generate_feistel_variants  # noqa: E402

OUT = ROOT / "src" / "wherescrypto" / "signatures"


def xtea_source() -> str:
    delta = 0x9E3779B9
    lines = [
        "# Four cycles of XTEA encipherment.  The running sum and the",
        "# derived key indices fold to constants once the loop is",
        "# unrolled, so they appear literally; the two halves of the",
        "# block and the key base stay wildcarded.",
        "",
        "IDENTIFIER XTEA block cipher",
        "",
        "VARIANT encipher-4-cycles",
        "TRANSIENT key:OPAQUE;",
        "TRANSIENT v0c0:OPAQUE;",
        "TRANSIENT v1c0:OPAQUE;",
    ]

    def key_term(total: int, index: int) -> str:
        offset = 4 * index
        load = f"LOAD(key+{offset})" if offset else "LOAD(key)"
        return f"0x{total:x}+{load}" if total else load

    for cycle in range(4):
        pre = (cycle * delta) & 0xFFFFFFFF
        post = ((cycle + 1) * delta) & 0xFFFFFFFF
        v0, v1 = f"v0c{cycle}", f"v1c{cycle}"
        n0, n1 = f"v0c{cycle + 1}", f"v1c{cycle + 1}"
        keep = "" if cycle == 3 else "TRANSIENT "
        lines.append(
            f"{keep}{n0}:{v0}+XOR(XOR({v1}<<4,{v1}>>5)+{v1},"
            f"{key_term(pre, pre & 3)});")
        lines.append(
            f"{keep}{n1}:{v1}+XOR(XOR({n0}<<4,{n0}>>5)+{n0},"
            f"{key_term(post, (post >> 11) & 3)});")
    return "\n".join(lines) + "\n"


_MD5_SHIFTS = ((7, 12, 17, 22), (5, 9, 14, 20),
               (4, 11, 16, 23), (6, 10, 15, 21))


def _md5_sine(i: int) -> int:
    return int(abs(math.sin(i + 1)) * 2 ** 32) & 0xFFFFFFFF


def _md5_msg_index(i: int) -> int:
    if i < 16:
        return i
    if i < 32:
        return (5 * i + 1) % 16
    if i < 48:
        return (3 * i + 5) % 16
    return (7 * i) % 16


def _md5_boolean(i: int, b: str, c: str, d: str) -> str:
    if i < 16:
        return f"OR(AND({b},{c}),AND({d},XOR({b},0xffffffff)))"
    if i < 32:
        return f"OR(AND({d},{b}),AND({c},XOR({d},0xffffffff)))"
    if i < 48:
        return f"XOR({b},{c},{d})"
    return f"XOR({c},OR({b},XOR({d},0xffffffff)))"


def _md5_variant(name: str) -> list[str]:
    lines = [f"VARIANT {name}",
             "TRANSIENT m:OPAQUE;",
             "TRANSIENT a0:OPAQUE;",
             "TRANSIENT b0:OPAQUE;",
             "TRANSIENT c0:OPAQUE;",
             "TRANSIENT d0:OPAQUE;"]
    a, b, c, d = "a0", "b0", "c0", "d0"
    for i in range(64):
        offset = 4 * _md5_msg_index(i)
        load = f"LOAD(m+{offset})" if offset else "LOAD(m)"
        shift = _MD5_SHIFTS[i // 16][i % 4]
        pre, val = f"p{i + 1}", f"v{i + 1}"
        lines.append(
            f"TRANSIENT {pre}:{a}+{_md5_boolean(i, b, c, d)}"
            f"+{load}+0x{_md5_sine(i):x};")
        lines.append(f"TRANSIENT {val}:{b}+ROTATE({pre},{shift});")
        a, b, c, d = d, val, b, c
    for out, st, reg in zip(("out0", "out1", "out2", "out3"),
                            ("a0", "b0", "c0", "d0"), (a, b, c, d)):
        lines.append(f"{out}:{st}+{reg};")
    return lines


def md5_source() -> str:
    lines = [
        "# The 64-step MD5 compression skeleton with the four final",
        "# feedback additions.  Message words and the four incoming",
        "# state words are wildcarded, and the feedback additions fold",
        "# back onto those same state words; the sine-table",
        "# addends and per-step rotations are concrete.  The graph",
        "# broker turns a shift-or pair into a rotation, and a selector",
        "# whose OR was lowered to addition back into that OR, so this",
        "# one variant also covers compilers that expand rotations or",
        "# fuse the selector into the step additions, in any mix.",
        "",
        "IDENTIFIER MD5 compression",
        "",
    ]
    lines += _md5_variant("rotate")
    return "\n".join(lines) + "\n"


def documents() -> dict[str, str]:
    """File name → text of every generated document."""
    return {
        "xtea.sig": xtea_source(),
        "md5.sig": md5_source(),
        "feistel.sig": print_doc(generate_feistel_variants(8)),
    }


def main() -> None:
    assert _md5_sine(0) == 0xD76AA478
    assert _md5_sine(63) == 0xEB86D391
    for name, text in documents().items():
        doc = parse(text)
        for variant in doc.variants:
            built = build_variant(variant)
            if not built.graph.nodes:
                raise SystemExit(f"{name}: variant {variant.name} "
                                 "builds an empty graph")
        (OUT / name).write_text(text, encoding="utf-8")
        sizes = ", ".join(
            f"{v.name}={len(build_variant(v).graph.nodes)}"
            for v in doc.variants)
        print(f"wrote {name}: {sizes}")


if __name__ == "__main__":
    main()
