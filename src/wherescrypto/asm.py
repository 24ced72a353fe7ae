"""Mini-assembler for the supported A32 subset.

Test fixtures are written as plain text, one instruction per line, ';'
comments, `label:` definitions, `.word` data, and a `ldr rd, =imm`
pseudo-instruction backed by a literal pool placed after the last line.
`assemble` returns little-endian bytes suitable for `arm.decode`.

This is deliberately a small, strict assembler: anything it cannot
encode is an `AsmError`, never a silent guess.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .arm import COND_NAMES, _DP_OPCODES, _SHIFT_KINDS, _ror32
from .dfg import MASK32


class AsmError(Exception):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


_REGS = {f"r{i}": i for i in range(16)}
_REGS.update({"sp": 13, "lr": 14, "pc": 15, "fp": 11, "ip": 12})

_DP_CODES = {name.lower(): code for code, name in _DP_OPCODES.items()}
_SHIFTS = {kind.lower(): code for code, kind in enumerate(_SHIFT_KINDS)}
_CONDS = {c.lower(): i for i, c in enumerate(COND_NAMES)}
_CONDS["hs"] = _CONDS["cs"]
_CONDS["lo"] = _CONDS["cc"]

_BASES = sorted(
    ["ldrb", "strb", "push", "nop", "mov", "mvn", "add", "adc", "sub",
     "rsb", "and", "orr", "eor", "bic", "mul", "mla", "lsl", "lsr",
     "asr", "ror", "cmp", "cmn", "tst", "ldr", "str", "pop", "bx",
     "bl", "b", "ldmia", "ldmib", "ldmda", "ldmdb", "ldmfd", "ldm",
     "stmia", "stmib", "stmda", "stmdb", "stmfd", "stm"],
    key=len, reverse=True)

# block transfers have no S form here: the S bit of LDM/STM selects user
# mode registers, which the assembler does not encode
_NO_FLAGS = {"cmp", "cmn", "tst", "b", "bl", "bx", "push", "pop",
             "nop", "ldr", "str", "ldrb", "strb",
             *(b for b in _BASES if b.startswith(("ldm", "stm")))}


def encode_immediate(value: int) -> int | None:
    """12-bit rotated-immediate encoding of a 32-bit value, or None."""
    for rot in range(16):
        imm8 = _ror32(value, 32 - 2 * rot) if rot else value
        if imm8 < 0x100:
            return (rot << 8) | imm8
    return None


@dataclass
class _Line:
    no: int
    label: str | None
    body: str


def _split_mnemonic(token: str, line_no: int):
    """token → (base, mode-suffix, cond index, s flag)."""
    for base in _BASES:
        if not token.startswith(base):
            continue
        rest = token[len(base):]
        mode = ""
        if base in ("ldm", "stm") and rest[:2] in ("ia", "ib", "da",
                                                   "db", "fd"):
            mode, rest = rest[:2], rest[2:]
        sflag = False
        cond = _CONDS["al"]
        if rest.startswith("s") and base not in _NO_FLAGS:
            sflag, rest = True, rest[1:]
        if rest[:2] in _CONDS:
            cond, rest = _CONDS[rest[:2]], rest[2:]
        if rest.startswith("s") and not sflag and base not in _NO_FLAGS:
            sflag, rest = True, rest[1:]
        if rest == "":
            if base.startswith(("ldm", "stm")) and len(base) == 5:
                mode = base[3:]
                base = base[:3]
            return base, mode, cond, sflag
    raise AsmError(line_no, f"unknown mnemonic {token!r}")


def _number(text: str, line_no: int) -> int:
    text = text.strip()
    try:
        return int(text, 0)
    except ValueError:
        raise AsmError(line_no, f"bad number {text!r}") from None


def _word(text: str, line_no: int) -> int:
    """A 32-bit value, written unsigned or as a negative signed one."""
    value = _number(text, line_no)
    if not -(1 << 31) <= value <= MASK32:
        raise AsmError(line_no, f"{text.strip()!r} does not fit in 32 bits")
    return value & MASK32


def _reg(text: str, line_no: int) -> int:
    r = _REGS.get(text.strip().lower())
    if r is None:
        raise AsmError(line_no, f"bad register {text!r}")
    return r


class Assembler:
    def __init__(self, text: str, origin: int = 0):
        self.origin = origin
        self.lines: list[_Line] = []
        self.labels: dict[str, int] = {}
        self.literals: list[int] = []
        self.literal_slots: dict[int, int] = {}
        self._parse_layout(text)

    def _parse_layout(self, text: str) -> None:
        address = self.origin
        for no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split(";", 1)[0].strip()
            if not line:
                continue
            label = None
            m = re.match(r"([A-Za-z_.$][\w.$]*):\s*(.*)", line)
            if m:
                label, line = m.group(1), m.group(2).strip()
                if label in self.labels:
                    raise AsmError(no, f"duplicate label {label!r}")
                self.labels[label] = address
            if not line:
                continue
            self.lines.append(_Line(no, label, line))
            address += 4
        self.pool_base = address
        # first pass over bodies just to count literal-pool slots
        for entry in self.lines:
            m = re.match(r"ldr\w*\s+[^,]+,\s*=\s*(\S+)", entry.body,
                         re.IGNORECASE)
            if m:
                value = _word(m.group(1), entry.no)
                if value not in self.literal_slots:
                    self.literal_slots[value] = (self.pool_base +
                                                 4 * len(self.literals))
                    self.literals.append(value)

    def assemble(self) -> bytes:
        out = bytearray()
        address = self.origin
        for entry in self.lines:
            word = self._encode(entry, address)
            out += word.to_bytes(4, "little")
            address += 4
        for value in self.literals:
            out += value.to_bytes(4, "little")
        return bytes(out)

    # ------------------------------------------------------------------

    def _encode(self, entry: _Line, address: int) -> int:
        body, no = entry.body, entry.no
        if body.startswith(".word"):
            return _word(body[5:], no)
        mtok, _, rest = body.partition(" ")
        rest = rest.strip()
        base, mode, cond, sflag = _split_mnemonic(mtok.lower(), no)
        c = cond << 28

        if base == "nop":
            if rest:
                raise AsmError(no, "nop takes no operands")
            return c | 0x0320F000
        if base == "b" or base == "bl":
            return c | self._branch(base, rest, address, no)
        if base == "bx":
            return c | 0x012FFF10 | _reg(rest, no)
        if base in ("push", "pop"):
            regs = self._reg_list(rest, no)
            if base == "push":
                return c | 0x092D0000 | regs
            return c | 0x08BD0000 | regs
        if base in ("ldm", "stm"):
            return c | self._block(base, mode or "ia", rest, no)
        if base in ("ldr", "str", "ldrb", "strb"):
            return c | self._loadstore(base, rest, address, no)
        if base in ("mul", "mla"):
            return c | self._multiply(base, rest, sflag, no)
        if base in _SHIFTS:
            return c | self._shift_alias(base, rest, sflag, no)
        return c | self._data_processing(base, rest, sflag, no)

    def _branch(self, base: str, rest: str, address: int,
                no: int) -> int:
        target = self.labels.get(rest.strip())
        if target is None:
            target = _number(rest, no)
            if target % 4:
                raise AsmError(no, "branch target not word-aligned")
        offset = (target - (address + 8)) >> 2
        if not -(1 << 23) <= offset < (1 << 23):
            raise AsmError(no, "branch out of range")
        word = 0x0A000000 | (offset & 0xFFFFFF)
        if base == "bl":
            word |= 1 << 24
        return word

    def _reg_list(self, rest: str, no: int) -> int:
        rest = rest.strip()
        if not (rest.startswith("{") and rest.endswith("}")):
            raise AsmError(no, "expected register list")
        bits = 0
        for part in rest[1:-1].split(","):
            part = part.strip()
            if "-" in part:
                lo, hi = part.split("-", 1)
                for r in range(_reg(lo, no), _reg(hi, no) + 1):
                    bits |= 1 << r
            elif part:
                bits |= 1 << _reg(part, no)
        if bits == 0:
            raise AsmError(no, "empty register list")
        return bits

    def _block(self, base: str, mode: str, rest: str, no: int) -> int:
        if mode == "fd":
            mode = "ia" if base == "ldm" else "db"
        head, _, listpart = rest.partition(",")
        head = head.strip()
        writeback = head.endswith("!")
        rn = _reg(head.rstrip("!"), no)
        bits = self._reg_list(listpart.strip(), no)
        p = 1 if mode in ("ib", "db") else 0
        u = 1 if mode in ("ia", "ib") else 0
        word = (0x08000000 | (p << 24) | (u << 23) |
                (int(writeback) << 21) | (rn << 16) | bits)
        if base == "ldm":
            word |= 1 << 20
        return word

    def _shifter_operand(self, text: str, no: int) -> int:
        text = text.strip()
        if text.startswith("#"):
            value = _word(text[1:], no)
            enc = encode_immediate(value)
            if enc is None:
                raise AsmError(no, f"immediate 0x{value:x} not "
                                   "encodable; use ldr =")
            return (1 << 25) | enc
        parts = [p.strip() for p in text.split(",")]
        rm = _reg(parts[0], no)
        if len(parts) == 1:
            return rm
        if len(parts) > 2:
            raise AsmError(no, f"unexpected operand {parts[2]!r}")
        m = re.match(r"(lsl|lsr|asr|ror)\s+(.+)", parts[1],
                     re.IGNORECASE)
        if not m:
            raise AsmError(no, f"bad shift {parts[1]!r}")
        kind = _SHIFTS[m.group(1).lower()]
        arg = m.group(2).strip()
        if arg.startswith("#"):
            amount = _number(arg[1:], no)
            if amount == 0:
                return rm
            if kind in (1, 2) and amount == 32:
                amount = 0
            if not 0 <= amount < 32:
                raise AsmError(no, "shift amount out of range")
            return (amount << 7) | (kind << 5) | rm
        return (_reg(arg, no) << 8) | (kind << 5) | (1 << 4) | rm

    def _data_processing(self, base: str, rest: str, sflag: bool,
                         no: int) -> int:
        opcode = _DP_CODES.get(base)
        if opcode is None:
            raise AsmError(no, f"unknown mnemonic {base!r}")
        parts = [p.strip() for p in _split_operands(rest)]
        need = 2 if base in ("mov", "mvn", "cmp", "cmn", "tst") else 3
        if len(parts) < need:
            raise AsmError(no, f"{base} needs {need} operands")
        word = (opcode << 21) | (int(sflag) << 20)
        if base in ("mov", "mvn"):
            rd = _reg(parts[0], no)
            op2 = ", ".join(parts[1:])
            return word | (rd << 12) | self._shifter_operand(op2, no)
        if base in ("cmp", "cmn", "tst"):
            rn = _reg(parts[0], no)
            op2 = ", ".join(parts[1:])
            return word | (1 << 20) | (rn << 16) | \
                self._shifter_operand(op2, no)
        rd = _reg(parts[0], no)
        rn = _reg(parts[1], no)
        op2 = ", ".join(parts[2:])
        return word | (rn << 16) | (rd << 12) | \
            self._shifter_operand(op2, no)

    def _shift_alias(self, base: str, rest: str, sflag: bool,
                     no: int) -> int:
        parts = [p.strip() for p in rest.split(",")]
        if len(parts) != 3:
            raise AsmError(no, f"{base} needs rd, rm, amount")
        rd = _reg(parts[0], no)
        rm = _reg(parts[1], no)
        kind = _SHIFTS[base]
        word = (0b1101 << 21) | (int(sflag) << 20) | (rd << 12)
        arg = parts[2]
        if arg.startswith("#"):
            amount = _number(arg[1:], no)
            if kind in (1, 2) and amount == 32:
                amount = 0
            elif not 0 < amount < 32:
                raise AsmError(no, "shift amount out of range")
            return word | (amount << 7) | (kind << 5) | rm
        return word | (_reg(arg, no) << 8) | (kind << 5) | (1 << 4) | rm

    def _multiply(self, base: str, rest: str, sflag: bool,
                  no: int) -> int:
        parts = [p.strip() for p in rest.split(",")]
        need = 4 if base == "mla" else 3
        if len(parts) != need:
            raise AsmError(no, f"{base} needs {need} registers")
        rd = _reg(parts[0], no)
        rm = _reg(parts[1], no)
        rs = _reg(parts[2], no)
        word = (int(sflag) << 20) | (rd << 16) | (rs << 8) | 0x90 | rm
        if base == "mla":
            return word | (1 << 21) | (_reg(parts[3], no) << 12)
        return word

    def _loadstore(self, base: str, rest: str, address: int,
                   no: int) -> int:
        load = base.startswith("ldr")
        byte = base.endswith("b")
        m = re.match(r"([^,]+),\s*(.+)", rest)
        if not m:
            raise AsmError(no, f"bad operands {rest!r}")
        rd = _reg(m.group(1), no)
        addr = m.group(2).strip()
        word = 0x04000000 | (int(byte) << 22) | (int(load) << 20) | \
            (rd << 12)

        if addr.startswith("="):
            # only a word load reads the whole pool entry
            if base != "ldr":
                raise AsmError(no, f"{base} cannot take a literal")
            slot = self.literal_slots[_word(addr[1:], no)]
            offset = slot - (address + 8)
            u = 1 if offset >= 0 else 0
            offset = abs(offset)
            if offset > 0xFFF:
                raise AsmError(no, "literal pool out of range")
            return word | (1 << 24) | (u << 23) | (15 << 16) | offset

        m = re.match(r"\[([^\]]*)\]\s*(!?)\s*(?:,\s*(.+))?$", addr)
        if not m:
            raise AsmError(no, f"bad address {addr!r}")
        inner, bang, post = m.group(1), m.group(2), m.group(3)
        inner_parts = [p.strip() for p in inner.split(",")]
        rn = _reg(inner_parts[0], no)
        word |= rn << 16

        if post is not None:
            if len(inner_parts) != 1 or bang:
                raise AsmError(no, "bad post-index form")
            return word | self._ls_offset(post, no)
        pre_off = ", ".join(inner_parts[1:]) if len(inner_parts) > 1 \
            else "#0"
        word |= (1 << 24) | (int(bool(bang)) << 21)
        return word | self._ls_offset(pre_off, no)

    def _ls_offset(self, text: str, no: int) -> int:
        text = text.strip()
        negative = False
        if text.startswith("#"):
            value = _number(text[1:], no)
            if value < 0:
                negative, value = True, -value
            if value > 0xFFF:
                raise AsmError(no, "offset too large")
            return ((0 if negative else 1) << 23) | value
        if text.startswith("-"):
            negative, text = True, text[1:].strip()
        enc = self._shifter_operand(text, no)
        if enc & (1 << 25):
            raise AsmError(no, "immediate must use # form")
        if enc & (1 << 4):
            raise AsmError(no, "register-shifted offset unsupported")
        return (1 << 25) | ((0 if negative else 1) << 23) | enc


def _split_operands(text: str) -> list[str]:
    return [p for p in (s.strip() for s in text.split(",")) if p]


def assemble(text: str, origin: int = 0) -> bytes:
    return Assembler(text, origin).assemble()


def label_addresses(text: str, origin: int = 0) -> dict[str, int]:
    return dict(Assembler(text, origin).labels)
