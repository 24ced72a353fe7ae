"""32-bit ARM (A32) decoder plus one lifter per mnemonic.

``decode`` turns little-endian words into ``Instruction`` records for a
fixed subset of user-mode A32: data processing, multiplies, word/byte
loads and stores, block transfers, and branches.  Anything outside the
subset raises ``UndecodableError`` so the caller can abort that path and
flag the function.

``execute`` looks the mnemonic up in a table that holds one lifter for
every mnemonic ``decode`` emits, and the lifter translates the
instruction body into graph-broker requests against an execution state.
A conditional instruction's guard comes from ``condition_info``; the
engine decides it and runs ``execute`` only on the side where it holds.
The state object is owned by the symbolic execution engine; this module
only relies on a small attribute protocol (graph, regs, flag_source,
approx, image, base, initial_lr).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import NamedTuple, Optional, Union

from .dfg import MASK32, NodeKind, NodeRef

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
    index: int


@dataclass(frozen=True)
class Imm:
    value: int


@dataclass(frozen=True)
class ShiftedReg:
    reg: int
    kind: str                      # LSL / LSR / ASR / ROR
    amount: Optional[int] = None   # immediate shift amount
    amount_reg: Optional[int] = None


@dataclass(frozen=True)
class Mem:
    base: int
    offset: Union[Imm, ShiftedReg, None]
    add: bool
    pre: bool
    writeback: bool


@dataclass(frozen=True)
class RegList:
    regs: tuple[int, ...]
    base: int
    mode: str                      # IA / IB / DA / DB
    writeback: bool


@dataclass(frozen=True)
class BranchTarget:
    address: int


Operand = Union[Reg, Imm, ShiftedReg, Mem, RegList, BranchTarget]


@dataclass(frozen=True)
class Instruction:
    address: int
    raw: int
    mnemonic: str
    cond: str
    set_flags: bool
    operands: tuple[Operand, ...]


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
# instance
_FALLTHROUGH = StepOutcome(OutcomeKind.FALLTHROUGH)
_RETURN = StepOutcome(OutcomeKind.RETURN)


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
    flag-setting instruction on this path."""
    op, expect, approx = _COND_TABLE[cond]
    if state.flag_source is None:
        v1 = state.graph.request_input("cpsr0")
        v2 = state.graph.request_constant(0)
    else:
        v1, v2 = state.flag_source
    if approx:
        state.approx.add(
            f"condition {cond} approximated by signed {op}")
    return (v1, op, v2), expect


def _read_reg(state, index: int, ins: Instruction) -> NodeRef:
    if index == 15:
        return state.graph.request_constant(ins.address + 8)
    return state.regs[REG_NAMES[index]]


def _pc_write(state, value: NodeRef, ins: Instruction) -> StepOutcome:
    g = state.graph
    if value == state.initial_lr:
        return _RETURN
    if g.is_const(value):
        return StepOutcome(OutcomeKind.JUMP, g.const_value(value))
    raise UnsupportedPcWrite(ins.address)


def _write_reg(state, index: int, value: NodeRef,
               ins: Instruction) -> StepOutcome:
    if index == 15:
        return _pc_write(state, value, ins)
    state.regs[REG_NAMES[index]] = value
    return _FALLTHROUGH


def _write_result(state, ins: Instruction, rd: Reg, result: NodeRef,
                  flags: Optional[tuple[NodeRef, NodeRef]] = None
                  ) -> StepOutcome:
    """The tail of every data-processing lifter: with the S bit set the
    flags come from ``flags``, or else from comparing the result with
    zero; then the result goes to Rd, where a write to PC ends the
    step."""
    if ins.set_flags:
        state.flag_source = flags or (result,
                                      state.graph.request_constant(0))
    return _write_reg(state, rd.index, result, ins)


def _op(state, kind: NodeKind, *inputs: NodeRef) -> NodeRef:
    return state.graph.request_operation(kind, inputs)


def _not(state, value: NodeRef) -> NodeRef:
    return _op(state, NodeKind.XOR, value,
               state.graph.request_constant(MASK32))


def _operand_node(state, op: Operand, ins: Instruction) -> NodeRef:
    g = state.graph
    if isinstance(op, Imm):
        return g.request_constant(op.value)
    if isinstance(op, Reg):
        return _read_reg(state, op.index, ins)
    if isinstance(op, ShiftedReg):
        value = _read_reg(state, op.reg, ins)
        if op.amount_reg is not None:
            amount = _read_reg(state, op.amount_reg, ins)
        else:
            amount = g.request_constant(op.amount)
        return _apply_shift(state, op.kind, value, amount)
    raise TypeError(f"not a value operand: {op!r}")


def _apply_shift(state, kind: str, value: NodeRef,
                 amount: NodeRef) -> NodeRef:
    g = state.graph
    if kind == "LSL":
        return _op(state, NodeKind.SHL, value, amount)
    if kind == "LSR":
        return _op(state, NodeKind.SHR, value, amount)
    if kind == "ASR":
        state.approx.add("ASR lifted as logical shift right")
        return _op(state, NodeKind.SHR, value, amount)
    # right rotation by c is canonical left rotation by 32 - c
    if g.is_const(amount):
        left = g.request_constant((32 - g.const_value(amount)) % 32)
    else:
        left = _op(state, NodeKind.SUB, g.request_constant(32), amount)
    return _op(state, NodeKind.ROTATE, value, left)


def _in_image(state, address: int, length: int) -> bool:
    if state.image is None:
        return False
    off = address - state.base
    return 0 <= off and off + length <= len(state.image)


def _load_value(state, addr: NodeRef, byte: bool) -> NodeRef:
    g = state.graph
    if addr not in g.store_map and g.is_const(addr):
        address = g.const_value(addr)
        if byte and _in_image(state, address, 1):
            return g.request_constant(state.image[address - state.base])
        if not byte and _in_image(state, address, 4):
            return g.request_constant(
                fetch_word(state.image, address, state.base))
    value = g.request_load(addr)
    if byte:
        value = _op(state, NodeKind.AND, value,
                    g.request_constant(0xFF))
    return value


# ---------------------------------------------------------------------------
# one lifter per mnemonic: lift(state, ins) -> StepOutcome


def _lift_bx(state, ins: Instruction) -> StepOutcome:
    return _pc_write(state, _read_reg(state, ins.operands[0].index, ins),
                     ins)


def _lift_mov(state, ins: Instruction) -> StepOutcome:
    rd, src = ins.operands
    return _write_result(state, ins, rd, _operand_node(state, src, ins))


def _lift_mvn(state, ins: Instruction) -> StepOutcome:
    rd, src = ins.operands
    return _write_result(state, ins, rd,
                         _not(state, _operand_node(state, src, ins)))


def _lift_shift(state, ins: Instruction) -> StepOutcome:
    rd, rm, by = ins.operands
    value = _read_reg(state, rm.index, ins)
    amount = _operand_node(state, by, ins)
    return _write_result(state, ins, rd,
                         _apply_shift(state, ins.mnemonic, value, amount))


def _lift_cmp(state, ins: Instruction) -> StepOutcome:
    rn, op2 = ins.operands
    state.flag_source = (_read_reg(state, rn.index, ins),
                         _operand_node(state, op2, ins))
    return _FALLTHROUGH


def _flag_test(state, ins: Instruction, kind: NodeKind) -> StepOutcome:
    """CMN and TST: flags from comparing ``kind(Rn, Op2)`` with zero."""
    rn, op2 = ins.operands
    a = _read_reg(state, rn.index, ins)
    result = _op(state, kind, a, _operand_node(state, op2, ins))
    state.flag_source = (result, state.graph.request_constant(0))
    return _FALLTHROUGH


def _alu(state, ins: Instruction, kind: NodeKind, swap: bool = False,
         invert: bool = False) -> StepOutcome:
    """``Rd = kind(Rn, Op2)``; ``swap`` exchanges the two operands (RSB)
    and ``invert`` complements Op2 first (BIC).  A flag-setting
    subtraction compares its operands, as CMP does."""
    rd, rn, op2 = ins.operands
    a = _read_reg(state, rn.index, ins)
    b = _operand_node(state, op2, ins)
    if swap:
        a, b = b, a
    if invert:
        b = _not(state, b)
    flags = (a, b) if kind is NodeKind.SUB else None
    return _write_result(state, ins, rd, _op(state, kind, a, b), flags)


def _lift_adc(state, ins: Instruction) -> StepOutcome:
    state.approx.add("ADC lifted without carry-in")
    return _alu(state, ins, NodeKind.ADD)


def _lift_mul(state, ins: Instruction, accumulate: bool) -> StepOutcome:
    rd, rm, rs = ins.operands[:3]
    result = _op(state, NodeKind.MULT, _read_reg(state, rm.index, ins),
                 _read_reg(state, rs.index, ins))
    if accumulate:
        result = _op(state, NodeKind.ADD, result,
                     _read_reg(state, ins.operands[3].index, ins))
    return _write_result(state, ins, rd, result)


def _mem_access(state, ins: Instruction, load: bool,
                byte: bool) -> StepOutcome:
    """LDR, LDRB, STR and STRB, with every addressing mode."""
    rd, mem = ins.operands
    g = state.graph
    base = _read_reg(state, mem.base, ins)
    if mem.offset is None:
        indexed = base
    else:
        offset = _operand_node(state, mem.offset, ins)
        indexed = _op(state, NodeKind.ADD if mem.add else NodeKind.SUB,
                      base, offset)
    addr = indexed if mem.pre else base
    if not load:
        g.record_store(addr, _read_reg(state, rd.index, ins))
    if mem.writeback:
        if mem.base == 15:
            raise UnsupportedPcWrite(ins.address)
        state.regs[REG_NAMES[mem.base]] = indexed
    if load:
        return _write_reg(state, rd.index, _load_value(state, addr, byte),
                          ins)
    return _FALLTHROUGH


def _block_transfer(state, ins: Instruction, load: bool) -> StepOutcome:
    """LDM/POP and STM/PUSH in all four addressing modes."""
    rl = ins.operands[0]
    g = state.graph
    base = _read_reg(state, rl.base, ins)
    n = len(rl.regs)
    first = {"IA": 0, "IB": 4, "DA": -4 * (n - 1), "DB": -4 * n}[rl.mode]
    pc_value = None
    for i, r in enumerate(rl.regs):
        delta = first + 4 * i
        if delta:
            addr = _op(state, NodeKind.ADD, base, g.request_constant(delta))
        else:
            addr = base
        if load:
            value = _load_value(state, addr, byte=False)
            if r == 15:
                pc_value = value
            else:
                state.regs[REG_NAMES[r]] = value
        else:
            g.record_store(addr, _read_reg(state, r, ins))
    if rl.writeback:
        total = 4 * n if rl.mode in ("IA", "IB") else -4 * n
        state.regs[REG_NAMES[rl.base]] = _op(
            state, NodeKind.ADD, base, g.request_constant(total))
    if pc_value is not None:
        return _pc_write(state, pc_value, ins)
    return _FALLTHROUGH


# every mnemonic that `decode` emits, and nothing else
_LIFTERS = {
    "NOP": lambda state, ins: _FALLTHROUGH,
    "B": lambda state, ins: StepOutcome(OutcomeKind.JUMP,
                                        ins.operands[0].address),
    "BL": lambda state, ins: StepOutcome(OutcomeKind.CALL,
                                         ins.operands[0].address,
                                         ins.address + 4),
    "BX": _lift_bx, "MOV": _lift_mov, "MVN": _lift_mvn,
    "LSL": _lift_shift, "LSR": _lift_shift, "ASR": _lift_shift,
    "ROR": _lift_shift, "CMP": _lift_cmp,
    "CMN": partial(_flag_test, kind=NodeKind.ADD),
    "TST": partial(_flag_test, kind=NodeKind.AND),
    "ADD": partial(_alu, kind=NodeKind.ADD), "ADC": _lift_adc,
    "SUB": partial(_alu, kind=NodeKind.SUB),
    "RSB": partial(_alu, kind=NodeKind.SUB, swap=True),
    "AND": partial(_alu, kind=NodeKind.AND),
    "ORR": partial(_alu, kind=NodeKind.OR),
    "EOR": partial(_alu, kind=NodeKind.XOR),
    "BIC": partial(_alu, kind=NodeKind.AND, invert=True),
    "MUL": partial(_lift_mul, accumulate=False),
    "MLA": partial(_lift_mul, accumulate=True),
    "LDR": partial(_mem_access, load=True, byte=False),
    "LDRB": partial(_mem_access, load=True, byte=True),
    "STR": partial(_mem_access, load=False, byte=False),
    "STRB": partial(_mem_access, load=False, byte=True),
    "LDM": partial(_block_transfer, load=True),
    "POP": partial(_block_transfer, load=True),
    "STM": partial(_block_transfer, load=False),
    "PUSH": partial(_block_transfer, load=False),
}


def execute(state, ins: Instruction) -> StepOutcome:
    """Lift the instruction body, assuming its condition (if any) passed."""
    return _LIFTERS[ins.mnemonic](state, ins)
