"""Decoder and lifting tests.

The encoding battery is the decoder's oracle: every line is assembled
both by clang's integrated assembler and by the bundled mini-assembler,
the two byte streams must agree, and decoding must reproduce the source
instruction.  Lifting tests drive single instructions against a fresh
execution state and check the graph structure they request.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import canonical_form, reference_execute
from wherescrypto import arm, asm
from wherescrypto.arm import OutcomeKind, UndecodableError, decode_word
from wherescrypto.asm import AsmError, assemble
from wherescrypto.dfg import MASK32, NodeKind
from wherescrypto.symexec import ExecState

BATTERY = """\
mov r0, #4
movs r1, r2
mvn r3, r4
add r0, r1, r2
adds r0, r1, #0x1000
adc r5, r6, r7
sub r0, r1, r2
subs r4, r4, #1
rsb r2, r3, #0
and r1, r2, r3
ands r1, r2, #0xff
orr r0, r0, r1
eor r3, r3, r4
bic r5, r6, #7
mul r0, r1, r2
mla r3, r4, r5, r6
lsl r0, r1, #3
lsr r2, r3, #5
asr r4, r5, #31
ror r6, r7, #8
lsl r0, r1, r2
cmp r0, #0
cmp r1, r2
cmn r3, #4
tst r5, #1
add r0, r1, r2, lsl #2
sub r3, r4, r5, lsr #16
eor r6, r7, r8, ror #13
mov r9, r10, asr #2
ldr r0, [r1]
ldr r2, [sp, #8]
ldr r3, [r4, #-12]
str r5, [r6, #16]
strb r7, [r8, #1]
ldrb r9, [r10, #2]
ldr r0, [r1, r2]
ldr r3, [r4, r5, lsl #2]
str r6, [r7, -r8]
ldr r0, [r1], #4
str r2, [r3], #8
ldr r4, [r5, #4]!
str r6, [r7, #-8]!
push {r4, r5, r6, lr}
pop {r4, r5, r6, pc}
stmia r0, {r1, r2, r3}
ldmia r4!, {r5, r6}
stmdb sp!, {r0, r1}
ldmib r2, {r3, r4}
b target
bl target
bne target
bge target
bgt target
ble target
blt target
beq target
bhi target
bls target
bcs target
bcc target
target:
bx lr
movne r0, #1
addeq r2, r2, #4
nop
"""


def test_battery_matches_clang(toolchain):
    ours = assemble(BATTERY, origin=0)
    theirs = toolchain.assemble(BATTERY, origin=0)
    assert len(ours) == len(theirs)
    for off in range(0, len(ours), 4):
        mine = int.from_bytes(ours[off:off + 4], "little")
        ref = int.from_bytes(theirs[off:off + 4], "little")
        assert mine == ref, (
            f"offset {off:#x}: mine {mine:08x} != clang {ref:08x}")


def test_battery_decodes_fully():
    image = assemble(BATTERY, origin=0)
    for off in range(0, len(image), 4):
        word = int.from_bytes(image[off:off + 4], "little")
        ins = decode_word(word, off)
        assert ins.address == off


# ---------------------------------------------------------------- decode


def test_decode_mov_immediate():
    ins = decode_word(0xE3A00004, 0)
    assert (ins.mnemonic, ins.cond, ins.set_flags) == ("MOV", "AL",
                                                       False)
    assert ins.operands == (arm.Reg(0), arm.Imm(4))


def test_decode_add_registers():
    ins = decode_word(0xE0810002, 0)
    assert ins.mnemonic == "ADD"
    assert ins.operands == (arm.Reg(0), arm.Reg(1), arm.Reg(2))


def test_decode_all_zero_word_is_conditional_and():
    ins = decode_word(0x00000000, 0)
    assert (ins.mnemonic, ins.cond) == ("AND", "EQ")
    assert ins.operands == (arm.Reg(0), arm.Reg(0), arm.Reg(0))


def test_decode_rotated_immediate():
    word = int.from_bytes(assemble("mov r0, #0x3FC00")[:4], "little")
    ins = decode_word(word, 0)
    assert ins.operands[1] == arm.Imm(0x3FC00)


def test_decode_ror_shifted_operand():
    word = int.from_bytes(assemble("eor r6, r7, r8, ror #13")[:4],
                          "little")
    ins = decode_word(word, 0)
    assert ins.operands[2] == arm.ShiftedReg(8, "ROR", amount=13)


def test_decode_push_pop():
    image = assemble("push {r4, lr}\npop {r4, pc}")
    first = decode_word(int.from_bytes(image[:4], "little"), 0)
    second = decode_word(int.from_bytes(image[4:8], "little"), 4)
    assert first.mnemonic == "PUSH"
    assert first.operands[0].regs == (4, 14)
    assert second.mnemonic == "POP"
    assert second.operands[0].regs == (4, 15)


def test_decode_post_index():
    word = int.from_bytes(assemble("ldr r0, [r1], #4")[:4], "little")
    ins = decode_word(word, 0)
    mem = ins.operands[1]
    assert (mem.pre, mem.writeback, mem.add) == (False, True, True)
    assert mem.offset == arm.Imm(4)


def test_decode_branch_target():
    image = assemble("b skip\nnop\nskip: nop", origin=0x100)
    ins = decode_word(int.from_bytes(image[:4], "little"), 0x100)
    assert ins.mnemonic == "B"
    assert ins.operands[0].address == 0x108


@pytest.mark.parametrize("word,why", [
    (0xFA000000, "unconditional space"),        # BLX imm
    (0xE0C10002, "SBC outside subset"),
    (0xE1A00060, "RRX"),
    (0xE0832291, "long multiply"),
    (0xE1D100B0, "halfword load"),
    (0xEF000000, "swi"),
    (0xE4B10000, "user-mode translate"),
    (0xE10F0000, "mrs"),
])
def test_undecodable_words(word, why):
    with pytest.raises(UndecodableError):
        decode_word(word, 0)


def _word(line: str) -> int:
    return int.from_bytes(assemble(line)[:4], "little")


# random words almost never hit BX and NOP, and seldom the multiplies,
# PUSH/POP or the shifts that decode out of MOV
@settings(max_examples=1000, deadline=None)
@given(word=st.integers(0, MASK32),
       address=st.integers(0, (1 << 28) - 1).map(lambda a: 4 * a))
@example(word=_word("bx lr"), address=0)
@example(word=_word("bxne r4"), address=0)
@example(word=_word("nop"), address=0)
@example(word=_word("nopeq"), address=0)
@example(word=_word("muls r0, r1, r2"), address=0)
@example(word=_word("mla r3, r4, r5, r6"), address=0)
@example(word=_word("push {r4, lr}"), address=0)
@example(word=_word("pop {r4, pc}"), address=0)
@example(word=_word("asr r0, r1, r2"), address=0)
@example(word=_word("ror r6, r7, #8"), address=0)
def test_decode_and_lift_contract(word, address):
    """``decode_word`` raises only ``UndecodableError``, and whatever it
    returns lifts on a fresh state raising only ``UnsupportedPcWrite``
    (the one error the explorer catches), so the lifter table covers
    every mnemonic that decode emits."""
    try:
        ins = decode_word(word, address)
    except UndecodableError:
        return
    image = word.to_bytes(4, "little")
    state = ExecState.initial(address, image, address)
    if ins.cond != "AL":
        (v1, op, v2), expect = arm.condition_info(state, ins.cond)
        for side in (v1, v2):
            # a live node, or a constant that has no node yet
            assert side in state.graph.nodes or side < 0
    try:
        outcome = arm.execute(state, ins)
    except arm.UnsupportedPcWrite as err:
        assert err.address == address
        return
    assert isinstance(outcome, arm.StepOutcome)


IMAGE_BASE = 0x8000
IMAGE_WORDS = 64
_BATTERY_WORDS = [int.from_bytes(_image[off:off + 4], "little")
                  for _image in [assemble(BATTERY, origin=0)]
                  for off in range(0, len(_image), 4)]
# half of the constants are addresses inside the image, so that loads
# and PC writes fold; the others lie near 0, near 2^31 or near 2^32
_REG_VALUES = st.booleans().flatmap(lambda inside: (
    st.integers(IMAGE_BASE, IMAGE_BASE + 4 * IMAGE_WORDS - 1) if inside
    else st.one_of(st.integers(0, 16),
                   st.integers((1 << 31) - 16, (1 << 31) + 16),
                   st.integers(MASK32 - 16, MASK32))))


def _lift_with(execute, ins, image, values, flags, store, as_ints):
    """Lift ``ins`` with ``execute`` on a state whose registers R0 ...
    LR hold the constants in ``values`` (None keeps the input), as ints
    (``~c``) with ``as_ints`` or else as CONST nodes, with the flag
    source ``flags`` (a register pair or None) and, when ``store`` is a
    register, a store of that register to its own address; returns
    what the lift left, in terms that do not depend on node numbering
    (`_meaning`)."""
    state = ExecState.initial(ins.address, image, IMAGE_BASE)
    g = state.graph
    for name, value in zip(arm.REG_NAMES, values):
        if value is not None:
            state.regs[name] = (~value if as_ints
                                else g.request_constant(value))
    if flags is not None:
        state.flag_source = (state.regs[flags[0]], state.regs[flags[1]])
    if store is not None:
        ref = g.materialize(state.regs[store])
        g.record_store(ref, ref)
    try:
        result = execute(state, ins)
    except Exception as err:                       # compared, not hidden
        result = (type(err), str(err))
    return result, _meaning(state)


def _denote(graph, value):
    """What a value stands for: a constant, or the canonical form of
    the node and its ancestors."""
    if graph.is_const(value):
        return "const", graph.const_value(value)
    return "node", canonical_form(graph, [value])[0]


def _meaning(state) -> dict:
    """What each register, the flag source and the store map denote,
    the approximations, and the canonical form of the graph without
    the constants that nothing consumes (the lifter makes a constant's
    node only when something needs it)."""
    g = state.graph
    return {
        "regs": {name: _denote(g, value)
                 for name, value in state.regs.items()},
        "flag_source": (None if state.flag_source is None
                        else [_denote(g, v) for v in state.flag_source]),
        "store_map": sorted((_denote(g, a), _denote(g, v))
                            for a, v in g.store_map.items()),
        "approx": sorted(state.approx),
        "graph": canonical_form(g, [ref for ref, node in g.nodes.items()
                                    if node.kind is not NodeKind.CONST])[0],
    }


_NAMES = st.sampled_from(arm.REG_NAMES[:15])
# random words seldom load at all: these are unconditional single
# transfers, with an offset of at most 15 bytes or a plain register
_TRANSFERS = st.builds(
    lambda bits, rn, rd, offset: (0xE4000000 | bits << 20 | rn << 16
                                  | rd << 12 | offset),
    st.integers(0, 0x3F), st.integers(0, 15), st.integers(0, 15),
    st.integers(0, 15))
_FILL = bytes(range(4 * IMAGE_WORDS))


def _consts(**regs: int) -> list:
    return [regs.get(name) for name in arm.REG_NAMES[:15]]


# the folding paths are each taken at least once by an example below
@settings(max_examples=500, deadline=None)
@given(word=st.one_of(st.integers(0, MASK32), st.sampled_from(_BATTERY_WORDS),
                      _TRANSFERS),
       slot=st.integers(0, IMAGE_WORDS - 1),
       fill=st.binary(min_size=4 * IMAGE_WORDS, max_size=4 * IMAGE_WORDS),
       values=st.lists(st.none() | _REG_VALUES, min_size=15, max_size=15),
       flags=st.none() | st.tuples(_NAMES, _NAMES),
       store=st.none() | _NAMES, as_ints=st.booleans())
@example(word=_word("ldrb r0, [r1, #3]"), slot=0, fill=_FILL,
         values=_consts(R1=IMAGE_BASE), flags=None, store=None, as_ints=True)
@example(word=_word("ldrb r2, [r3, r4]"), slot=0, fill=_FILL,
         values=_consts(R3=IMAGE_BASE, R4=6), flags=None, store=None,
         as_ints=True)
@example(word=_word("ldr r0, [r1], #4"), slot=0, fill=_FILL,
         values=_consts(R1=IMAGE_BASE + 8), flags=None, store=None,
         as_ints=True)
@example(word=_word("ldr r0, [pc, #-4]"), slot=3, fill=_FILL,
         values=_consts(), flags=None, store=None, as_ints=True)
@example(word=_word("ldr r0, [r1]"), slot=0, fill=_FILL,
         values=_consts(R1=IMAGE_BASE), flags=None, store="R1", as_ints=True)
@example(word=_word("pop {r4, pc}"), slot=0, fill=_FILL,
         values=_consts(SP=IMAGE_BASE + 16), flags=None, store=None,
         as_ints=True)
@example(word=_word("ldmib r0!, {r1, r2}"), slot=0, fill=_FILL,
         values=_consts(R0=IMAGE_BASE), flags=None, store=None, as_ints=True)
@example(word=_word("ror r0, r1, r2"), slot=0, fill=_FILL,
         values=_consts(R1=5, R2=40), flags=None, store=None, as_ints=True)
@example(word=_word("eor r0, r1, r2, ror #8"), slot=0, fill=_FILL,
         values=_consts(R1=5, R2=0x80000001), flags=None, store=None,
         as_ints=True)
@example(word=_word("mov pc, r0"), slot=0, fill=_FILL,
         values=_consts(R0=IMAGE_BASE), flags=None, store=None, as_ints=True)
@example(word=_word("bx r1"), slot=0, fill=_FILL,
         values=_consts(R1=IMAGE_BASE + 4), flags=None, store=None,
         as_ints=True)
@example(word=_word("subs r0, r1, #1"), slot=0, fill=_FILL,
         values=_consts(R1=0), flags=("R1", "R2"), store=None, as_ints=True)
@example(word=_word("rsbs r0, r1, r2"), slot=0, fill=_FILL,
         values=_consts(R1=3, R2=2), flags=None, store=None, as_ints=True)
@example(word=_word("bics r0, r1, #1"), slot=0, fill=_FILL,
         values=_consts(R1=0x80000000), flags=None, store=None, as_ints=True)
@example(word=_word("mlas r0, r1, r2, r3"), slot=0, fill=_FILL,
         values=_consts(R1=7, R2=9, R3=MASK32), flags=None, store=None,
         as_ints=True)
def test_bound_lifters_match_the_reference(word, slot, fill, values, flags,
                                           store, as_ints):
    """Each bound lifter leaves registers, a flag source and a store map
    that denote what the per-step reference lifter's do (the same
    constant, or nodes of the same canonical shape), the same
    approximations and the same graph apart from unused constants, or
    raises the same error, from states that mix constants and inputs,
    so that the folding paths are checked instruction by instruction.
    The reference holds every constant as a CONST node; the bound
    lifter is given ints or CONST nodes."""
    address = IMAGE_BASE + 4 * slot
    try:
        ins = decode_word(word, address)
    except UndecodableError:
        assume(False)
    image = bytearray(fill)
    image[4 * slot:4 * slot + 4] = word.to_bytes(4, "little")
    image = bytes(image)
    bound = _lift_with(arm.execute, ins, image, values, flags, store,
                       as_ints)
    reference = _lift_with(reference_execute, ins, image, values, flags,
                           store, False)
    assert bound == reference
    outcome = bound[0]
    if getattr(outcome, "kind", None) is OutcomeKind.FALLTHROUGH:
        # the explorer tells a fall-through by identity
        assert outcome is arm._FALLTHROUGH


def test_misaligned_address_rejected():
    with pytest.raises(UndecodableError):
        decode_word(0xE3A00004, 2)


def test_assembler_rejects_unencodable_immediate():
    with pytest.raises(AsmError):
        assemble("mov r0, #0x12345")


@pytest.mark.parametrize("line", [
    "mul r0, r1", "mla r0", "add r0", "eor r1", "mov", "cmp",
    "nop r0", "str r0, =5", "add r0, r1, r2, lsl #3, r4",
])
def test_assembler_rejects_bad_operand_counts(line):
    with pytest.raises(AsmError):
        assemble(line)


@pytest.mark.parametrize("line", [
    # the S bit of a block transfer is not encoded, and a branch lands
    # on a word
    "ldms r0, {r1}", "stmias r0, {r1}", "ldmfds sp!, {r1}",
    "b 3", "bl 6",
    # a number outside -2^31 ... 2^32-1 is not truncated to 32 bits
    ".word 0x100000000", ".word 0x1ffffffff", ".word -0x80000001",
    "ldr r0, =0x100000000", "mov r0, #0x100000001",
    "add r0, r0, #0x100000004", "cmp r0, #-0xffffffff",
    # a byte load of a pool entry would keep only its low byte
    "ldrb r0, =0x1ff", "ldrbeq r0, =1",
])
def test_assembler_rejects_what_it_cannot_encode(line):
    with pytest.raises(AsmError):
        assemble(line)


def test_assembler_reads_both_ends_of_the_word_range():
    assert assemble(".word 0xffffffff\n.word -0x80000000") == \
        bytes.fromhex("ffffffff00000080")
    assert assemble("ldr r0, =-1")[4:] == bytes.fromhex("ffffffff")
    assert assemble("mov r0, #-0x1000000") == assemble("mov r0, #0xff000000")


_ASM_FRAGMENTS = ("r0", "r1", "sp", "pc", "#4", "#0x104", "#-1", "#",
                  "[r1", "[r1]", "[r1, #4]", "[r1], #4", "{r2}", "{r1-r3}",
                  "{}", "r1!", "lsl #3", "lsl r2", "ror", "=5", "top",
                  "nowhere")


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(asm._BASES),
       st.sampled_from(("", "eq", "ne", "hs", "lo", "gt", "al")),
       st.sampled_from(("", "s")), st.booleans(),
       st.lists(st.sampled_from(_ASM_FRAGMENTS), max_size=4))
def test_assembler_raises_only_asm_error(base, cond, s, s_first, fragments):
    mnemonic = base + (s + cond if s_first else cond + s)
    line = " ".join([mnemonic, ", ".join(fragments)]).strip()
    try:
        assemble(f"top: {line}\nbx lr")
    except AsmError:
        pass


def test_literal_pool_pseudo():
    image = assemble("ldr r0, =0x9e3779b9\nbx lr")
    ins = decode_word(int.from_bytes(image[:4], "little"), 0)
    assert ins.mnemonic == "LDR"
    assert ins.operands[1].base == 15
    assert int.from_bytes(image[8:12], "little") == 0x9E3779B9


# ----------------------------------------------------------------- lift


def lift(text: str, steps: int | None = None, entry: int = 0):
    """Lift ``steps`` instructions (default: all) from ``entry`` while
    they fall through.  A conditional instruction stops the walk before
    its body runs and comes back as its ``condition_info`` pair."""
    image = assemble(text, origin=entry)
    state = ExecState.initial(entry, image, entry)
    count = steps if steps is not None else len(image) // 4
    outcome = None
    for _ in range(count):
        ins = arm.decode(image, state.pc, entry)
        if ins.cond != "AL":
            return state, arm.condition_info(state, ins.cond)
        outcome = arm.execute(state, ins)
        if outcome.kind is not OutcomeKind.FALLTHROUGH:
            break
        state.pc = ins.address + 4
    return state, outcome


def test_lift_add_registers():
    state, outcome = lift("add r0, r1, r2")
    assert outcome.kind is OutcomeKind.FALLTHROUGH
    node = state.graph.node(state.regs["R0"])
    assert node.kind is NodeKind.ADD
    assert node.inputs == (state.regs["R1"], state.regs["R2"])


def test_lift_store_load_round_trip():
    state, _ = lift("str r3, [sp, #8]\nldr r2, [sp, #8]\n"
                    "and r2, r2, #0xff")
    g = state.graph
    node = g.node(state.regs["R2"])
    assert node.kind is NodeKind.AND
    inputs = {g.node(i).kind for i in node.inputs}
    assert inputs == {NodeKind.INPUT, NodeKind.CONST}
    assert state.regs["R3"] in node.inputs


def test_lift_ror_is_left_rotate():
    state, _ = lift("ror r0, r4, #8")
    g = state.graph
    node = g.node(state.regs["R0"])
    assert node.kind is NodeKind.ROTATE
    assert g.const_value(node.inputs[1]) == 24


def test_lift_register_ror_amount():
    state, _ = lift("ror r0, r4, r5")
    g = state.graph
    node = g.node(state.regs["R0"])
    assert node.kind is NodeKind.ROTATE
    amount = g.node(node.inputs[1])
    assert amount.kind is NodeKind.SUB
    assert g.const_value(amount.inputs[0]) == 32


def test_lift_mvn_and_bic():
    state, _ = lift("mvn r0, r1\nbic r2, r3, r4")
    g = state.graph
    mvn = g.node(state.regs["R0"])
    assert mvn.kind is NodeKind.XOR
    assert any(g.is_const(i) and g.const_value(i) == 0xFFFFFFFF
               for i in mvn.inputs)
    bic = g.node(state.regs["R2"])
    assert bic.kind is NodeKind.AND
    other = [i for i in bic.inputs if i != state.regs["R3"]][0]
    assert g.node(other).kind is NodeKind.XOR


def test_lift_mul_mla():
    state, _ = lift("mul r0, r1, r2\nmla r3, r4, r5, r6")
    g = state.graph
    assert g.node(state.regs["R0"]).kind is NodeKind.MULT
    mla = g.node(state.regs["R3"])
    assert mla.kind is NodeKind.ADD
    assert any(g.node(i).kind is NodeKind.MULT for i in mla.inputs)


def test_lift_literal_load():
    state, _ = lift("ldr r0, =0x12345678\nnop")
    g = state.graph
    assert g.const_value(state.regs["R0"]) == 0x12345678


def test_lift_pc_read_is_const():
    state, _ = lift("add r0, pc, #8")
    g = state.graph
    assert g.const_value(state.regs["R0"]) == 16


def test_lift_ldrb_masks():
    state, _ = lift("ldrb r0, [r1]")
    g = state.graph
    node = g.node(state.regs["R0"])
    assert node.kind is NodeKind.AND
    kinds = {g.node(i).kind for i in node.inputs}
    assert NodeKind.LOAD in kinds


def test_lift_post_index_writeback():
    state, _ = lift("ldr r0, [r1], #4")
    g = state.graph
    assert g.node(state.regs["R0"]).kind is NodeKind.LOAD
    r1 = g.node(state.regs["R1"])
    assert r1.kind is NodeKind.ADD
    assert any(g.is_const(i) and g.const_value(i) == 4
               for i in r1.inputs)


def test_lift_push_stores_below_sp():
    state, _ = lift("push {r4, lr}")
    g = state.graph
    sp = g.node(state.regs["SP"])
    assert sp.kind is NodeKind.ADD
    consts = [g.const_value(i) for i in sp.inputs if g.is_const(i)]
    assert consts == [(1 << 32) - 8]
    stores = [n for n in g.nodes.values() if n.kind is NodeKind.STORE]
    assert len(stores) == 2


def test_lift_push_pop_round_trip_returns():
    text = "push {r4, lr}\nnop\npop {r4, pc}"
    state, outcome = lift(text, steps=3)
    assert outcome.kind is OutcomeKind.RETURN


def test_lift_bl_is_call():
    state, outcome = lift("bl 0x40", steps=1)
    assert outcome.kind is OutcomeKind.CALL
    assert outcome.target == 0x40
    assert outcome.return_address == 4


def test_lift_bx_lr_returns():
    state, outcome = lift("bx lr", steps=1)
    assert outcome.kind is OutcomeKind.RETURN


def test_lift_mov_pc_lr_returns():
    state, outcome = lift("mov pc, lr", steps=1)
    assert outcome.kind is OutcomeKind.RETURN


def test_lift_symbolic_pc_write_raises():
    with pytest.raises(arm.UnsupportedPcWrite):
        lift("bx r4", steps=1)


def test_lift_conditional_probe():
    state, ((v1, op, v2), expect) = lift("cmp r0, #5\nmovne r1, #1",
                                         steps=2)
    assert op == "=="
    assert expect is False
    assert v1 == state.regs["R0"]
    assert state.graph.const_value(v2) == 5


def test_lift_cmn_tst_flag_sources():
    state, _ = lift("cmn r1, #4")
    g = state.graph
    v1, v2 = state.flag_source
    assert g.node(v1).kind is NodeKind.ADD
    assert g.const_value(v2) == 0

    state, _ = lift("tst r5, #1")
    g = state.graph
    v1, v2 = state.flag_source
    assert g.node(v1).kind is NodeKind.AND


def test_lift_subs_compares_operands():
    state, _ = lift("subs r4, r4, #1")
    g = state.graph
    v1, v2 = state.flag_source
    assert v1 == g.request_input("R4")
    assert g.const_value(v2) == 1


def test_lift_unknown_flags_fall_back_to_input():
    state, ((v1, op, v2), expect) = lift("beq 0x20", steps=1)
    assert (op, expect) == ("==", True)
    assert state.graph.node(v1).symbol == "cpsr0"


def test_lift_approx_conditions_flagged():
    state, ((v1, op, v2), expect) = lift("cmp r0, #5\nbhi 0x20", steps=2)
    assert (op, expect) == (">", True)
    assert v1 == state.regs["R0"]
    assert any("HI" in a for a in state.approx)


def test_lift_asr_flagged():
    state, _ = lift("asr r0, r1, #2")
    assert any("ASR" in a for a in state.approx)
    assert state.graph.node(state.regs["R0"]).kind is NodeKind.SHR
