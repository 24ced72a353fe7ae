"""32-bit ARM (A32) decoder plus one binder per mnemonic.

``decode`` turns little-endian words into ``Instruction`` records for a
fixed subset of user-mode A32: data processing, multiplies, word/byte
loads and stores, block transfers, and branches.  Anything outside the
subset raises ``UndecodableError`` so the caller can abort that path and
flag the function.

Each ``Instruction`` is bound to its lifter when it is made: a table
holds one binder for every mnemonic ``decode`` emits, and the binder
resolves what depends on the instruction alone (register names,
immediates, shift kind, node kinds, the S bit, writes to PC) into a
``lift(state)`` closure that translates the instruction body into
values: work on constants alone is done on ints, and the rest becomes
graph-broker requests.  ``execute`` runs it.  A conditional
instruction's guard comes from ``condition_info``; the engine decides
it and runs ``execute`` only on the side where it holds.  The state
object is owned by the symbolic execution engine; this module only
relies on a small attribute protocol (graph, regs, flag_source,
approx, image, base, initial_lr).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Optional, Union

from .dfg import FOLD, MASK32, NodeKind, NodeRef

COND_NAMES = ("EQ", "NE", "CS", "CC", "MI", "PL", "VS", "VC",
              "HI", "LS", "GE", "LT", "GT", "LE", "AL")

_DP_OPCODES = {
    0b0000: "AND", 0b0001: "EOR", 0b0010: "SUB", 0b0011: "RSB",
    0b0100: "ADD", 0b0101: "ADC", 0b1000: "TST", 0b1010: "CMP",
    0b1011: "CMN", 0b1100: "ORR", 0b1101: "MOV", 0b1110: "BIC",
    0b1111: "MVN",
}
_COMPARE_OPS = {"TST", "CMP", "CMN"}
_SHIFT_KINDS = ("LSL", "LSR", "ASR", "ROR")


class DecodeError(Exception):
    pass


class UndecodableError(DecodeError):
    def __init__(self, address: int, word: Optional[int], why: str = ""):
        self.address = address
        self.word = word
        detail = f" word=0x{word:08x}" if word is not None else ""
        suffix = f" ({why})" if why else ""
        super().__init__(f"undecodable at 0x{address:x}{detail}{suffix}")


class UnsupportedPcWrite(Exception):
    def __init__(self, address: int):
        self.address = address
        super().__init__(f"symbolic PC write at 0x{address:x}")


REG_NAMES = tuple([f"R{i}" for i in range(13)] + ["SP", "LR", "PC"])


@dataclass(frozen=True)
class Reg:
    """A register operand, by number (13 SP, 14 LR, 15 PC)."""

    index: int


@dataclass(frozen=True)
class Imm:
    """An immediate value: an operand, shift amount or offset."""

    value: int


@dataclass(frozen=True)
class ShiftedReg:
    """A register operand shifted by an immediate or a register."""

    reg: int
    kind: str                      # LSL / LSR / ASR / ROR
    amount: Optional[int] = None   # immediate shift amount
    amount_reg: Optional[int] = None


@dataclass(frozen=True)
class Mem:
    """The address of a single load or store: base, offset and
    indexing mode."""

    base: int
    offset: Union[Imm, ShiftedReg, None]
    add: bool
    pre: bool
    writeback: bool


@dataclass(frozen=True)
class RegList:
    """The registers, base and mode of a block load or store."""

    regs: tuple[int, ...]
    base: int
    mode: str                      # IA / IB / DA / DB
    writeback: bool


@dataclass(frozen=True)
class BranchTarget:
    """The absolute address a branch goes to."""

    address: int


Operand = Union[Reg, Imm, ShiftedReg, Mem, RegList, BranchTarget]


@dataclass(frozen=True)
class Instruction:
    """One decoded A32 instruction, with its lifter bound."""

    address: int
    raw: int
    mnemonic: str
    cond: str
    set_flags: bool
    operands: tuple[Operand, ...]
    # lift(state) -> StepOutcome, bound once from the fields above
    lift: Callable = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "lift", _BINDERS[self.mnemonic](self))


def _ror32(value: int, amount: int) -> int:
    amount &= 31
    if amount == 0:
        return value & MASK32
    return ((value >> amount) | (value << (32 - amount))) & MASK32


def fetch_word(image: bytes, address: int, base: int) -> int:
    off = address - base
    if off < 0 or off + 4 > len(image):
        raise UndecodableError(address, None, "outside image")
    return int.from_bytes(image[off:off + 4], "little")


def decode(image: bytes, address: int, base: int = 0) -> Instruction:
    return decode_word(fetch_word(image, address, base), address)


def decode_word(word: int, address: int) -> Instruction:
    if address % 4:
        raise UndecodableError(address, word, "misaligned")
    cond_bits = word >> 28
    if cond_bits == 0b1111:
        raise UndecodableError(address, word, "unconditional space")
    cond = COND_NAMES[cond_bits]
    group = (word >> 26) & 0b11

    if group == 0b00:
        return _decode_group00(word, address, cond)
    if group == 0b01:
        return _decode_loadstore(word, address, cond)
    if group == 0b10:
        if (word >> 25) & 1:
            return _decode_branch(word, address, cond)
        return _decode_block(word, address, cond)
    raise UndecodableError(address, word, "coprocessor/swi space")


def _decode_group00(word: int, address: int, cond: str) -> Instruction:
    if (word & 0x0FFFFFF0) == 0x012FFF10:
        return Instruction(address, word, "BX", cond, False,
                           (Reg(word & 0xF),))
    if (word & 0x0FFFFFFF) == 0x0320F000:
        return Instruction(address, word, "NOP", cond, False, ())
    if (word & 0x0FC000F0) == 0x00000090:
        return _decode_multiply(word, address, cond)
    if (word & 0x0F8000F0) == 0x00800090:
        raise UndecodableError(address, word, "long multiply")
    imm_form = (word >> 25) & 1
    if not imm_form and (word & 0x90) == 0x90:
        raise UndecodableError(address, word, "halfword/dual transfer")

    opcode = (word >> 21) & 0xF
    s_bit = bool((word >> 20) & 1)
    mnemonic = _DP_OPCODES.get(opcode)
    if mnemonic is None:
        raise UndecodableError(address, word, "opcode outside subset")
    if mnemonic in _COMPARE_OPS and not s_bit:
        raise UndecodableError(address, word, "status register access")

    rn = (word >> 16) & 0xF
    rd = (word >> 12) & 0xF
    op2 = _decode_shifter_operand(word, address)

    if mnemonic == "MOV" and isinstance(op2, ShiftedReg):
        kind = op2.kind
        by: Operand = (Imm(op2.amount) if op2.amount_reg is None
                       else Reg(op2.amount_reg))
        return Instruction(address, word, kind, cond, s_bit,
                           (Reg(rd), Reg(op2.reg), by))
    if mnemonic in ("MOV", "MVN"):
        return Instruction(address, word, mnemonic, cond, s_bit,
                           (Reg(rd), op2))
    if mnemonic in _COMPARE_OPS:
        return Instruction(address, word, mnemonic, cond, True,
                           (Reg(rn), op2))
    return Instruction(address, word, mnemonic, cond, s_bit,
                       (Reg(rd), Reg(rn), op2))


def _decode_shifter_operand(word: int, address: int) -> Operand:
    if (word >> 25) & 1:
        rot = (word >> 8) & 0xF
        return Imm(_ror32(word & 0xFF, 2 * rot))
    rm = word & 0xF
    by_reg = bool((word >> 4) & 1)
    kind = _SHIFT_KINDS[(word >> 5) & 0b11]
    if by_reg:
        if (word >> 7) & 1:
            raise UndecodableError(address, word, "bad register shift")
        return ShiftedReg(rm, kind, amount_reg=(word >> 8) & 0xF)
    amount = (word >> 7) & 0x1F
    if amount == 0:
        if kind == "LSL":
            return Reg(rm)
        if kind == "ROR":
            raise UndecodableError(address, word, "RRX")
        amount = 32
    return ShiftedReg(rm, kind, amount=amount)


def _decode_multiply(word: int, address: int, cond: str) -> Instruction:
    acc = bool((word >> 21) & 1)
    s_bit = bool((word >> 20) & 1)
    rd = (word >> 16) & 0xF
    ra = (word >> 12) & 0xF
    rs = (word >> 8) & 0xF
    rm = word & 0xF
    if acc:
        return Instruction(address, word, "MLA", cond, s_bit,
                           (Reg(rd), Reg(rm), Reg(rs), Reg(ra)))
    if ra != 0:
        raise UndecodableError(address, word, "MUL with Ra set")
    return Instruction(address, word, "MUL", cond, s_bit,
                       (Reg(rd), Reg(rm), Reg(rs)))


def _decode_loadstore(word: int, address: int, cond: str) -> Instruction:
    reg_offset = bool((word >> 25) & 1)
    pre = bool((word >> 24) & 1)
    add = bool((word >> 23) & 1)
    byte = bool((word >> 22) & 1)
    wbit = bool((word >> 21) & 1)
    load = bool((word >> 20) & 1)
    rn = (word >> 16) & 0xF
    rd = (word >> 12) & 0xF

    if not pre and wbit:
        raise UndecodableError(address, word, "user-mode transfer")
    if reg_offset:
        if word & 0x10:
            raise UndecodableError(address, word, "media space")
        off = _decode_shifter_operand(word & ~(1 << 25), address)
        if isinstance(off, Reg):
            off = ShiftedReg(off.index, "LSL", amount=0)
    else:
        imm = word & 0xFFF
        off = Imm(imm) if imm else None
        if off is None and not pre:
            off = Imm(0)
    mem = Mem(rn, off, add, pre, (pre and wbit) or not pre)
    mnemonic = ("LDRB" if byte else "LDR") if load else (
        "STRB" if byte else "STR")
    return Instruction(address, word, mnemonic, cond, False,
                       (Reg(rd), mem))


def _decode_block(word: int, address: int, cond: str) -> Instruction:
    pre = bool((word >> 24) & 1)
    up = bool((word >> 23) & 1)
    if (word >> 22) & 1:
        raise UndecodableError(address, word, "user-bank transfer")
    writeback = bool((word >> 21) & 1)
    load = bool((word >> 20) & 1)
    rn = (word >> 16) & 0xF
    bits = word & 0xFFFF
    if bits == 0:
        raise UndecodableError(address, word, "empty register list")
    regs = tuple(i for i in range(16) if bits & (1 << i))
    mode = {(False, True): "IA", (True, True): "IB",
            (False, False): "DA", (True, False): "DB"}[(pre, up)]
    rl = RegList(regs, rn, mode, writeback)
    if load and rn == 13 and writeback and mode == "IA":
        return Instruction(address, word, "POP", cond, False, (rl,))
    if not load and rn == 13 and writeback and mode == "DB":
        return Instruction(address, word, "PUSH", cond, False, (rl,))
    return Instruction(address, word, "LDM" if load else "STM", cond,
                       False, (rl,))


def _decode_branch(word: int, address: int, cond: str) -> Instruction:
    link = bool((word >> 24) & 1)
    offset = word & 0xFFFFFF
    if offset & 0x800000:
        offset -= 1 << 24
    target = (address + 8 + (offset << 2)) & MASK32
    return Instruction(address, word, "BL" if link else "B", cond, False,
                       (BranchTarget(target),))


# ---------------------------------------------------------------------------
# lifting


class OutcomeKind(Enum):
    FALLTHROUGH = "FALLTHROUGH"
    JUMP = "JUMP"
    CALL = "CALL"
    RETURN = "RETURN"


class StepOutcome(NamedTuple):
    # a named tuple: a branch makes one at every step, and a tuple is
    # built in half the time of a frozen dataclass
    kind: OutcomeKind
    target: Optional[int] = None
    return_address: Optional[int] = None


# outcomes are immutable, so every fall-through and return shares one
# instance, and the engine tells a fall-through by identity
_FALLTHROUGH = StepOutcome(OutcomeKind.FALLTHROUGH)
_RETURN = StepOutcome(OutcomeKind.RETURN)

# Enum members read once (see `NodeKind.__hash__`): the lifters below
# run at every step
_JUMP = OutcomeKind.JUMP
_CONST = NodeKind.CONST
_ADD, _AND, _XOR = NodeKind.ADD, NodeKind.AND, NodeKind.XOR
_SUB, _ROTATE = NodeKind.SUB, NodeKind.ROTATE

# A register, a side of the flag source and a lifted operand hold a
# value in the sense of `Dfg.is_const`: a NodeRef, or ``~c`` for a
# constant c that the graph need not hold.  Work on constants alone
# runs on ints (`dfg.FOLD`); a constant gets its node only when an
# operation on a node, a store or the engine needs one.
_ZERO = ~0


# condition code → (comparison operator, taken when the tuple is ...,
# approximated?)
_COND_TABLE = {
    "EQ": ("==", True, False), "NE": ("==", False, False),
    "GE": (">=", True, False), "LT": ("<", True, False),
    "GT": (">", True, False), "LE": ("<=", True, False),
    "HI": (">", True, True), "LS": ("<=", True, True),
    "CS": (">=", True, True), "CC": ("<", True, True),
    "MI": ("<", True, True), "PL": (">=", True, True),
    "VS": ("<", True, True), "VC": (">=", True, True),
}


def condition_info(state, cond: str):
    """Condition tuple for a condition code, from the most recent
    flag-setting instruction on this path.  Its sides are values, so a
    constant side may have no node."""
    op, expect, approx = _COND_TABLE[cond]
    if state.flag_source is None:
        v1 = state.graph.request_input("cpsr0")
        v2 = _ZERO
    else:
        v1, v2 = state.flag_source
    if approx:
        state.approx.add(
            f"condition {cond} approximated by signed {op}")
    return (v1, op, v2), expect


def _pc_write(state, value, address: int) -> StepOutcome:
    if value == state.initial_lr:
        return _RETURN
    g = state.graph
    if g.is_const(value):
        return StepOutcome(_JUMP, g.const_value(value))
    raise UnsupportedPcWrite(address)


def _operation(kind: NodeKind):
    """op(g, a, b) -> the value of ``kind(a, b)``: computed with
    `dfg.FOLD` when both are constants, else requested from the broker
    with a node for each operand.  The broker's result stays a node
    even in the rare case that it folds to a CONST node (an AND or a
    product that collapses to 0); every reader takes that form too."""
    fold = FOLD[kind]

    def op(g, a, b):
        if a < 0:
            if b < 0:
                return ~fold(~a, ~b)
            a = g.request_constant(~a)
        elif b < 0:
            b = g.request_constant(~b)
        return g.request_operation(kind, (a, b))
    return op


_OPERATE = {kind: _operation(kind) for kind in FOLD}
_OP_ADD, _OP_AND, _OP_XOR = _OPERATE[_ADD], _OPERATE[_AND], _OPERATE[_XOR]
_OP_SUB = _OPERATE[_SUB]
_ALL_ONES, _LOW_BYTE = ~MASK32, ~0xFF


def _not(g, value):
    return _OP_XOR(g, value, _ALL_ONES)


def _in_image(state, address: int, length: int) -> bool:
    if state.image is None:
        return False
    off = address - state.base
    return 0 <= off and off + length <= len(state.image)


def _load_value(state, addr, byte: bool):
    """What a word or byte load from the value ``addr`` reads: the
    image's bytes at a constant address inside it at which this path
    stored nothing, else the broker's load (a forwarded store or a
    LOAD node), masked to its low byte for a byte load.  A forwarded
    constant comes back as ``~c``, so that a constant spilled to the
    stack and loaded again stays on ints."""
    g = state.graph
    if g.is_const(addr):
        address = g.const_value(addr)
        if g.find_constant(address) not in g.store_map:
            if byte and _in_image(state, address, 1):
                return ~state.image[address - state.base]
            if not byte and _in_image(state, address, 4):
                return ~fetch_word(state.image, address, state.base)
        addr = g.request_constant(address)
    value = g.request_load(addr)
    node = g.nodes[value]
    if node.kind is _CONST:
        value = ~node.const_value
    if byte:
        value = _OP_AND(g, value, _LOW_BYTE)
    return value


# ---------------------------------------------------------------------------
# binders: bind(ins) -> lift(state) -> StepOutcome
#
# A binder runs once per decoded instruction and resolves everything
# that depends on the instruction alone; the lifter it returns only
# reads and writes the state.


def _register_reader(name: str):
    return lambda state: state.regs[name]


def _register_writer(name: str):
    def write(state, value) -> StepOutcome:
        state.regs[name] = value
        return _FALLTHROUGH
    return write


# R0 ... LR are read and written alike by every instruction, so all
# share these
_READERS = tuple(_register_reader(name) for name in REG_NAMES[:15])
_WRITERS = tuple(_register_writer(name) for name in REG_NAMES[:15])


def _bind_const(value: int):
    constant = ~(value & MASK32)
    return lambda state: constant


def _bind_reg(index: int, ins: Instruction):
    """read(state) -> the value of a register; PC reads as the
    constant address of the instruction plus 8."""
    if index == 15:
        return _bind_const(ins.address + 8)
    return _READERS[index]


# shift kind → (operation, approximated?); right rotation by c is
# canonical left rotation by 32 - c
_SHIFTS = {"LSL": (NodeKind.SHL, False), "LSR": (NodeKind.SHR, False),
           "ASR": (NodeKind.SHR, True), "ROR": (_ROTATE, False)}


def _bind_shift(kind: str, read_value, amount: int):
    """read(state) -> the value of ``kind`` (LSL, LSR, ASR or ROR)
    applied to what ``read_value`` reads, by the immediate ``amount``;
    by 0 it is the value itself."""
    if amount == 0:
        return read_value
    operation, approx = _SHIFTS[kind]
    op = _OPERATE[operation]
    by = ~((32 - amount) % 32 if kind == "ROR" else amount)
    if not approx:
        return lambda state: op(state.graph, read_value(state), by)

    def shift_approx(state):
        state.approx.add("ASR lifted as logical shift right")
        return op(state.graph, read_value(state), by)
    return shift_approx


def _bind_shift_by_reg(kind: str, read_value, read_amount):
    """read(state) -> the value of ``kind`` applied to what
    ``read_value`` reads, by what ``read_amount`` reads."""
    operation, approx = _SHIFTS[kind]
    op = _OPERATE[operation]
    if kind == "ROR":
        def rotate(state):
            value = read_value(state)
            by = read_amount(state)
            g = state.graph
            if g.is_const(by):
                left = ~((32 - g.const_value(by)) % 32)
            else:
                left = _OP_SUB(g, ~32, by)
            return op(g, value, left)
        return rotate

    def shift(state):
        value = read_value(state)
        by = read_amount(state)
        if approx:
            state.approx.add("ASR lifted as logical shift right")
        return op(state.graph, value, by)
    return shift


def _bind_operand(op: Operand, ins: Instruction):
    """read(state) -> the value of a shifter or offset operand."""
    if isinstance(op, Imm):
        return _bind_const(op.value)
    if isinstance(op, Reg):
        return _bind_reg(op.index, ins)
    read_value = _bind_reg(op.reg, ins)
    if op.amount_reg is not None:
        return _bind_shift_by_reg(op.kind, read_value,
                                  _bind_reg(op.amount_reg, ins))
    return _bind_shift(op.kind, read_value, op.amount)


def _bind_write(ins: Instruction, index: int, set_flags: bool):
    """write(state, value) -> StepOutcome, the tail of a data-processing
    lifter: with ``set_flags`` the flags come from comparing the value
    with zero; then the value goes to the register, where a write to
    PC ends the step."""
    if index == 15:
        address = ins.address

        def write(state, value):
            return _pc_write(state, value, address)
    else:
        write = _WRITERS[index]
    if not set_flags:
        return write

    def write_with_flags(state, value):
        state.flag_source = (value, _ZERO)
        return write(state, value)
    return write_with_flags


def _bind_nop(ins: Instruction):
    return lambda state: _FALLTHROUGH


def _bind_branch(ins: Instruction):
    target = ins.operands[0].address
    if ins.mnemonic == "BL":
        outcome = StepOutcome(OutcomeKind.CALL, target, ins.address + 4)
    else:
        outcome = StepOutcome(_JUMP, target)
    return lambda state: outcome


def _bind_bx(ins: Instruction):
    read = _bind_reg(ins.operands[0].index, ins)
    address = ins.address
    return lambda state: _pc_write(state, read(state), address)


def _bind_move(ins: Instruction):
    """MOV and MVN, and the shifts that decode out of MOV."""
    if ins.mnemonic in ("MOV", "MVN"):
        rd, src = ins.operands
        read = _bind_operand(src, ins)
    else:
        rd, rm, by = ins.operands
        read = _bind_operand(
            ShiftedReg(rm.index, ins.mnemonic, amount=by.value)
            if isinstance(by, Imm) else
            ShiftedReg(rm.index, ins.mnemonic, amount_reg=by.index), ins)
    write = _bind_write(ins, rd.index, ins.set_flags)
    if ins.mnemonic == "MVN":
        return lambda state: write(state, _not(state.graph, read(state)))
    return lambda state: write(state, read(state))


def _bind_cmp(ins: Instruction):
    rn, op2 = ins.operands
    read_a, read_b = _bind_reg(rn.index, ins), _bind_operand(op2, ins)

    def lift(state):
        state.flag_source = (read_a(state), read_b(state))
        return _FALLTHROUGH
    return lift


def _bind_flag_test(ins: Instruction):
    """CMN and TST: flags from comparing ``kind(Rn, Op2)`` with zero."""
    rn, op2 = ins.operands
    op = _OP_ADD if ins.mnemonic == "CMN" else _OP_AND
    read_a, read_b = _bind_reg(rn.index, ins), _bind_operand(op2, ins)

    def lift(state):
        a = read_a(state)
        state.flag_source = (op(state.graph, a, read_b(state)), _ZERO)
        return _FALLTHROUGH
    return lift


# mnemonic → (operation, swap the operands, complement Op2 first)
_ALU = {
    "ADD": (NodeKind.ADD, False, False), "ADC": (NodeKind.ADD, False, False),
    "SUB": (NodeKind.SUB, False, False), "RSB": (NodeKind.SUB, True, False),
    "AND": (NodeKind.AND, False, False), "ORR": (NodeKind.OR, False, False),
    "EOR": (NodeKind.XOR, False, False), "BIC": (NodeKind.AND, False, True),
}


def _bind_alu(ins: Instruction):
    """``Rd = kind(Rn, Op2)``, with the operands swapped for RSB and Op2
    complemented for BIC.  A flag-setting subtraction compares its
    operands, as CMP does; ADC is lifted as ADD and says so."""
    rd, rn, op2 = ins.operands
    kind, swap, invert = _ALU[ins.mnemonic]
    op = _OPERATE[kind]
    read_a, read_b = _bind_reg(rn.index, ins), _bind_operand(op2, ins)
    compare = ins.set_flags and kind is NodeKind.SUB
    write = _bind_write(ins, rd.index, ins.set_flags and not compare)
    carry = ins.mnemonic == "ADC"

    def lift(state):
        if carry:
            state.approx.add("ADC lifted without carry-in")
        a = read_a(state)
        b = read_b(state)
        g = state.graph
        if swap:
            a, b = b, a
        if invert:
            b = _not(g, b)
        result = op(g, a, b)
        if compare:
            state.flag_source = (a, b)
        return write(state, result)
    return lift


def _bind_mul(ins: Instruction):
    rd, rm, rs = ins.operands[:3]
    read_m, read_s = _bind_reg(rm.index, ins), _bind_reg(rs.index, ins)
    read_acc = (_bind_reg(ins.operands[3].index, ins)
                if ins.mnemonic == "MLA" else None)
    write = _bind_write(ins, rd.index, ins.set_flags)
    mult = _OPERATE[NodeKind.MULT]

    def lift(state):
        g = state.graph
        result = mult(g, read_m(state), read_s(state))
        if read_acc is not None:
            result = _OP_ADD(g, result, read_acc(state))
        return write(state, result)
    return lift


def _bind_mem(ins: Instruction):
    """LDR, LDRB, STR and STRB, with every addressing mode."""
    rd, mem = ins.operands
    load = ins.mnemonic.startswith("LDR")
    byte = ins.mnemonic.endswith("B")
    read_base = _bind_reg(mem.base, ins)
    read_offset = (None if mem.offset is None
                   else _bind_operand(mem.offset, ins))
    index = _OP_ADD if mem.add else _OP_SUB
    pre = mem.pre
    writeback = mem.writeback
    pc_writeback = writeback and mem.base == 15
    base_name = REG_NAMES[mem.base]
    address = ins.address
    if load:
        write = _bind_write(ins, rd.index, False)
    else:
        read_rd = _bind_reg(rd.index, ins)

    def lift(state):
        g = state.graph
        base = read_base(state)
        if read_offset is None:
            indexed = base
        else:
            indexed = index(g, base, read_offset(state))
        addr = indexed if pre else base
        if not load:
            g.record_store(g.materialize(addr),
                           g.materialize(read_rd(state)))
        if writeback:
            if pc_writeback:
                raise UnsupportedPcWrite(address)
            state.regs[base_name] = indexed
        if load:
            return write(state, _load_value(state, addr, byte))
        return _FALLTHROUGH
    return lift


def _bind_block(ins: Instruction):
    """LDM/POP and STM/PUSH in all four addressing modes."""
    rl = ins.operands[0]
    load = ins.mnemonic in ("LDM", "POP")
    n = len(rl.regs)
    first = {"IA": 0, "IB": 4, "DA": -4 * (n - 1), "DB": -4 * n}[rl.mode]
    # (offset from the base as a value, or None for the base itself;
    # register name or the reader of a stored register); PC loads into
    # the step's outcome, not a register
    slots = [((~(delta & MASK32) if delta else None),
              (None if r == 15 else REG_NAMES[r]) if load
              else _bind_reg(r, ins))
             for delta, r in zip(range(first, first + 4 * n, 4), rl.regs)]
    read_base = _bind_reg(rl.base, ins)
    base_name = REG_NAMES[rl.base] if rl.writeback else None
    total = ~((4 * n if rl.mode in ("IA", "IB") else -4 * n) & MASK32)
    address = ins.address

    def lift(state):
        g = state.graph
        base = read_base(state)
        pc_value = None
        for delta, reg in slots:
            addr = base if delta is None else _OP_ADD(g, base, delta)
            if not load:
                g.record_store(g.materialize(addr),
                               g.materialize(reg(state)))
            elif reg is None:
                pc_value = _load_value(state, addr, False)
            else:
                state.regs[reg] = _load_value(state, addr, False)
        if base_name is not None:
            state.regs[base_name] = _OP_ADD(g, base, total)
        if pc_value is not None:
            return _pc_write(state, pc_value, address)
        return _FALLTHROUGH
    return lift


# every mnemonic that `decode` emits, and nothing else
_BINDERS = {
    "NOP": _bind_nop, "B": _bind_branch, "BL": _bind_branch,
    "BX": _bind_bx, "MOV": _bind_move, "MVN": _bind_move,
    "LSL": _bind_move, "LSR": _bind_move, "ASR": _bind_move,
    "ROR": _bind_move, "CMP": _bind_cmp, "CMN": _bind_flag_test,
    "TST": _bind_flag_test, **dict.fromkeys(_ALU, _bind_alu),
    "MUL": _bind_mul, "MLA": _bind_mul,
    "LDR": _bind_mem, "LDRB": _bind_mem, "STR": _bind_mem,
    "STRB": _bind_mem,
    "LDM": _bind_block, "POP": _bind_block, "STM": _bind_block,
    "PUSH": _bind_block,
}


def execute(state, ins: Instruction) -> StepOutcome:
    """Lift the instruction body, assuming its condition (if any) passed."""
    return ins.lift(state)
