"""End-to-end acceptance suite.

One test per shipped guarantee, so `pytest -v` prints one pass/fail
line for each:

1. canonicalization keeps its idempotence and uniqueness invariants
   over 10,000 randomized request sequences in under ten seconds
2. the seven golden rewrites reproduce byte-exact serializations
3. the counted-loop exploration yields the frozen two-graph trace
   with the recorded branch-policy history
4. the production matcher agrees with the exhaustive oracle on 200+
   randomized signature/target pairs, clamped wildcards included
5. XTEA, MD5 and AES are detected across two independent compilers
   at O0 through O3 with per-function matching time within bounds
6. class-level shapes (Feistel ladder, LFSR, block permutation) are
   detected while ten non-crypto controls stay clean
7. the add-variant Feistel is reported as NOT matching, reproducing
   the known limitation instead of papering over it
8. repeated runs emit byte-identical JSON once the timestamp block
   is set aside
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import pytest

from helpers import (brute_force_match, drive_spec_sequence,
                     random_signature, random_target)
from wherescrypto import cli
from wherescrypto.asm import assemble
from wherescrypto.dfg import Dfg, NodeKind
from wherescrypto.matcher import match_signature
from wherescrypto.report import analyze_binary
from wherescrypto.siglib import load_builtin, load_catalog
from wherescrypto.symexec import Config, Status, explore

from conftest import FIXTURES, available_compilers

OPT_LEVELS = ("O0", "O1", "O2", "O3")

MATCH_TIME_CEILING = 3.5


def _op(g: Dfg, kind: NodeKind, *refs: int) -> int:
    return g.request_operation(kind, refs)


def _require_two_compilers() -> list[str]:
    names = available_compilers()
    if len(names) < 2:
        pytest.fail(
            f"two independent compilers required, found {names}; "
            "provision the second with tools/build_arm_tcc.sh")
    return names


# ------------------------------------------------------- criterion 1


def test_criterion_1_canonicalization_property_battery():
    rng = random.Random(0xC0115)
    started = time.perf_counter()
    for _ in range(10_000):
        seed = rng.getrandbits(32)
        drive_spec_sequence(seed, rng.randrange(10, 21))
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"battery took {elapsed:.1f}s, budget 10s"


# ------------------------------------------------------- criterion 2


def test_criterion_2_golden_rewrites_exact():
    passed = []

    g = Dfg()
    _op(g, NodeKind.ADD, g.request_constant(4), g.request_constant(12))
    assert g.serialize() == (
        "0: CONST() [0x4]\n"
        "1: CONST() [0xc]\n"
        "2: CONST() [0x10]")
    passed.append("constant-fold")

    g = Dfg()
    sp, r0 = g.request_input("SP"), g.request_input("R0")
    first = _op(g, NodeKind.ADD, sp, r0)
    assert _op(g, NodeKind.ADD, sp, r0) == first
    _op(g, NodeKind.ADD, first, g.request_constant(4))
    assert g.serialize() == (
        "0: INPUT() [SP]\n"
        "1: INPUT() [R0]\n"
        "2: ADD(0, 1)\n"
        "3: CONST() [0x4]\n"
        "4: ADD(0, 1, 3)")
    passed.append("cse-reuse")

    g = Dfg()
    sp, r3 = g.request_input("SP"), g.request_input("R3")
    addr = _op(g, NodeKind.ADD, sp, g.request_constant(8))
    g.record_store(addr, r3)
    loaded = g.request_load(addr)
    assert loaded == r3
    _op(g, NodeKind.AND, loaded, g.request_constant(0xFF))
    assert g.serialize() == (
        "0: INPUT() [SP]\n"
        "1: INPUT() [R3]\n"
        "2: CONST() [0x8]\n"
        "3: ADD(0, 2)\n"
        "4: STORE(3, 1)\n"
        "5: CONST() [0xff]\n"
        "6: AND(1, 5)")
    passed.append("store-load-forward")

    g = Dfg()
    sp, r0 = g.request_input("SP"), g.request_input("R0")
    inner = _op(g, NodeKind.ADD, sp, r0)
    flat = _op(g, NodeKind.ADD, inner, g.request_constant(4))
    assert g.node(flat).inputs == (sp, r0, g.request_constant(4))
    assert g.serialize() == (
        "0: INPUT() [SP]\n"
        "1: INPUT() [R0]\n"
        "2: ADD(0, 1)\n"
        "3: CONST() [0x4]\n"
        "4: ADD(0, 1, 3)")
    passed.append("assoc-flatten")

    g = Dfg()
    r1 = g.request_input("R1")
    doubled = _op(g, NodeKind.ADD, r1, r1)
    assert g.node(doubled).kind is NodeKind.MULT
    assert g.serialize() == (
        "0: INPUT() [R1]\n"
        "1: CONST() [0x2]\n"
        "2: MULT(0, 1)")
    passed.append("double-to-mult")

    g = Dfg()
    r4 = g.request_input("R4")
    rot = _op(g, NodeKind.ROTATE, r4, g.request_constant(24))
    _op(g, NodeKind.AND, rot, g.request_constant(0xFF))
    assert g.serialize() == (
        "0: INPUT() [R4]\n"
        "1: CONST() [0x18]\n"
        "2: ROTATE(0, 1)\n"
        "3: CONST() [0xff]\n"
        "4: CONST() [0x8]\n"
        "5: SHR(0, 4)\n"
        "6: AND(3, 5)")
    passed.append("rotate-mask-to-shift")

    g = Dfg()
    r3 = g.request_input("R3")
    inner = _op(g, NodeKind.ADD, r3, g.request_constant(4))
    res = _op(g, NodeKind.MULT, inner, g.request_constant(2))
    assert g.node(res).kind is NodeKind.ADD
    assert g.serialize() == (
        "0: INPUT() [R3]\n"
        "1: CONST() [0x4]\n"
        "2: ADD(0, 1)\n"
        "3: CONST() [0x2]\n"
        "4: MULT(0, 3)\n"
        "5: CONST() [0x8]\n"
        "6: ADD(4, 5)")
    passed.append("mult-over-add")

    assert len(passed) == 7, f"only {passed} held"


# ------------------------------------------------------- criterion 3


LOOP_SOURCE = """\
mov r2, #0
mov r0, #0
loop:
cmp r2, r8
bge exit
eor r0, r0, r1
ror r1, r1, #3
add r2, r2, #1
b loop
exit:
bx lr
"""

LOOP_GUARD = 12


def test_criterion_3_counted_loop_trace():
    image = assemble(LOOP_SOURCE)
    results = explore(0, image, Config(n=4, timeout=5))
    assert len(results) == 2
    trivial, looped = results
    assert trivial.status is Status.COMPLETE
    assert looped.status is Status.COMPLETE

    # first guard occurrence forked both ways; the loop path then
    # repeated the not-taken side three times and finished opposite
    assert trivial.backlog == {LOOP_GUARD: [True]}
    assert looped.backlog == {LOOP_GUARD: [False, False, False, False,
                                           True]}

    assert trivial.graph.const_value(trivial.result_ref) == 0
    assert trivial.conditions == [("0 >= R8", True)]
    assert looped.conditions == [("0 >= R8", False),
                                 ("1 >= R8", False),
                                 ("2 >= R8", False),
                                 ("3 >= R8", False),
                                 ("4 >= R8", True)]

    root = looped.graph.node(looped.result_ref)
    assert root.kind is NodeKind.XOR
    assert len(root.inputs) == 4
    kinds = sorted(looped.graph.node(i).kind.name for i in root.inputs)
    assert kinds == ["INPUT", "ROTATE", "ROTATE", "ROTATE"]


# ------------------------------------------------------- criterion 4


def test_criterion_4_matcher_oracle_equivalence():
    rng = random.Random(0xACCE55)
    cases = clamped = agreements = 0
    for _ in range(220):
        sig = random_signature(rng)
        target = random_target(rng, sig)
        expected = {m.key() for m in brute_force_match(sig, target)}
        got = {m.key() for m in
               match_signature(sig, target, limit=1_000_000)}
        assert got == expected, (
            f"disagreement: matcher {len(got)} vs oracle "
            f"{len(expected)}\nsig:\n{sig.graph.serialize()}\n"
            f"target:\n{target.serialize()}")
        cases += 1
        agreements += 1
        if sig.clamp_labels:
            clamped += 1
    assert cases >= 200
    assert agreements == cases
    assert clamped >= 20, f"only {clamped} clamped cases exercised"


# ------------------------------------------------------- criterion 5


def test_criterion_5_reference_ciphers_all_compilers(toolchain):
    compilers = _require_two_compilers()
    table = [
        ("xtea.c", "xtea_encipher", "xtea"),
        ("md5.c", "md5_compress", "md5"),
        ("aes.c", "aes_encrypt", "aes"),
    ]
    failures = []
    slow = []
    for source, symbol, signame in table:
        corpus = {signame: load_builtin(signame)}
        for compiler in compilers:
            for opt in OPT_LEVELS:
                loaded = toolchain.compile(FIXTURES / source, opt,
                                           compiler)
                entry = loaded.functions[symbol]
                rep = analyze_binary(loaded.image, loaded.base,
                                     [entry], Config(), corpus)
                fn = rep.functions[0]
                label = f"{source}/{compiler}/{opt}"
                if fn.error or not fn.matched_signatures:
                    failures.append(f"{label}: error={fn.error} "
                                    f"matched={fn.matched_signatures}")
                match_time = sum(s.elapsed for s in fn.signatures)
                if match_time > MATCH_TIME_CEILING:
                    slow.append(f"{label}: {match_time:.2f}s")
    assert not failures, f"undetected: {failures}"
    assert not slow, (f"matching exceeded {MATCH_TIME_CEILING}s: "
                     f"{slow}")


# ------------------------------------------------------- criterion 6


CONTROL_SYMBOLS = ("copy_words", "fill_words", "scan_length",
                   "sum_words", "max_word", "fib", "bubble_pass",
                   "dot_product", "popcount", "compare_bytes")


def test_criterion_6_class_detection_and_controls(toolchain):
    compilers = _require_two_compilers()
    catalog = load_catalog()

    def analyze(source, symbols, compiler, opt):
        loaded = toolchain.compile(FIXTURES / source, opt, compiler)
        entries = sorted(loaded.functions[s] for s in symbols)
        return analyze_binary(loaded.image, loaded.base, entries,
                              Config(), catalog)

    for compiler in compilers:
        for opt in ("O0", "O2"):
            rep = analyze("feistel4.c", ["feistel4"], compiler, opt)
            matched = rep.functions[0].matched_signatures
            assert "feistel" in matched, (
                f"feistel4/{compiler}/{opt}: {matched}")

            rep = analyze("lfsr.c", ["lfsr_run"], compiler, opt)
            matched = rep.functions[0].matched_signatures
            assert "nlfsr" in matched, (
                f"lfsr/{compiler}/{opt}: {matched}")

            rep = analyze("md_toy.c", ["md_toy"], compiler, opt)
            confirmed = [b for b in rep.functions[0].block_permutation
                         if b.confirmed]
            assert confirmed, f"md_toy/{compiler}/{opt}: unconfirmed"
            offsets = confirmed[0].offsets
            deltas = [b - a for a, b in zip(offsets, offsets[1:])]
            assert all(d >= 16 for d in deltas), offsets
            assert len(set(deltas)) == 1, offsets

            rep = analyze("controls.c", CONTROL_SYMBOLS, compiler, opt)
            hits = [(hex(fn.entry), name)
                    for fn in rep.functions
                    for name in fn.matched_signatures]
            assert hits == [], (
                f"controls/{compiler}/{opt} false positives: {hits}")
            confirmed = [hex(fn.entry) for fn in rep.functions
                         for b in fn.block_permutation if b.confirmed]
            assert confirmed == [], (
                f"controls/{compiler}/{opt} spurious block "
                f"permutations: {confirmed}")


# ------------------------------------------------------- criterion 7


def test_criterion_7_add_variant_feistel_not_matched(toolchain):
    compilers = _require_two_compilers()
    catalog = load_catalog()
    for compiler in compilers:
        for opt in ("O0", "O2"):
            loaded = toolchain.compile(FIXTURES / "rc2_add.c", opt,
                                       compiler)
            entry = loaded.functions["rc2_rounds"]
            rep = analyze_binary(loaded.image, loaded.base, [entry],
                                 Config(), catalog)
            fn = rep.functions[0]
            assert fn.error is None
            feistel = [s for s in fn.signatures if s.name == "feistel"]
            assert feistel and not feistel[0].matched, (
                f"rc2/{compiler}/{opt}: the add-variant ladder must "
                "stay undetected")
            assert fn.matched_signatures == ()


# ------------------------------------------------------- criterion 8


def _run_cli_json(elf_path: Path, out_path: Path) -> dict:
    rc = cli.main(["--image", str(elf_path), "--elf",
                   "--format", "json", "--out", str(out_path)])
    assert rc == 0
    payload = json.loads(out_path.read_text())
    payload.pop("timestamp")
    return payload


def test_criterion_8_report_determinism(toolchain, tmp_path):
    for idx, source in enumerate(("lfsr.c", "md5.c", "controls.c")):
        elf_path = toolchain.elf_path(FIXTURES / source, "O2")
        first = _run_cli_json(elf_path, tmp_path / f"{idx}_a.json")
        second = _run_cli_json(elf_path, tmp_path / f"{idx}_b.json")
        a = json.dumps(first, indent=2, sort_keys=False)
        b = json.dumps(second, indent=2, sort_keys=False)
        assert a == b, f"{source}: reports diverge"
