"""Seeded A32 corpus generator for the benchmark workloads.

Every function is written as A32 text for `wherescrypto.asm.assemble`,
so the corpus needs no compiler or linker.  A seed changes register
allocation, table contents, function order and padding, never the
amount of work: two seeds give images of the same shape, which keeps
timings comparable across seeds.

Each workload is one raw image at `BASE` plus an entry list.  Data
tables come first, then the internal helpers, then the entry functions
in seeded order.  Each function is assembled at its own origin so its
literal pool sits right behind it.  Calls to `EXTERNAL` leave the image
and become opaque call nodes.

Run it on its own to write a workload's image, entries, label map and
the A32 text of each function:

    python3 perfbench/corpus.py crypto-unrolled --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent

BASE = 0x10000
EXTERNAL = 0x400000        # far outside every image: an opaque callee
MASK32 = 0xFFFFFFFF

# registers a kernel may take for its temporaries; r0-r2 carry
# arguments, sp/lr/pc are fixed
POOL = ("r3", "r4", "r5", "r6", "r7", "r8", "r9", "r10", "r11", "r12")

PROLOGUE = "    push {r4-r11, lr}"
EPILOGUE = "    pop {r4-r11, pc}"

DEPTH = 2                 # call inlining depth, the CLI default
TIMEOUT = 10.0            # --timeout; every function needs under 1 s


@dataclass(frozen=True)
class Workload:
    n: int                        # loop iteration target (--n)
    kernels: tuple[str, ...]      # entry kernels, each in every style
    copies: int = 1               # instances of each kernel and style


WORKLOADS = {
    # few large graphs, so signature matching dominates
    "crypto-unrolled": Workload(
        n=32,
        kernels=("xtea", "feistel4", "rc2_add", "lfsr", "md_toy", "md5",
                 "aes", "ctr_glue")),
    # many tiny graphs from forking controls: per-call matcher cost,
    # forks and report size
    "branch-fanout": Workload(
        n=4, kernels=("cfg_apply", "status_pack"), copies=2),
    # long fixed-count loops that fold to constants, so exploration
    # dominates
    "selftest-loops": Workload(
        n=4,
        kernels=("crc32_check", "sum_check", "fletcher_check",
                 "delay_spin")),
}

STYLES = ("a", "b")
# ctr_glue is plumbing, not a primitive, so one style is enough.  It
# also leaves crypto-unrolled with an odd number of functions, which
# keeps the median per-function latency inside one function's samples
# instead of between the fast and the slow half.
SINGLE_STYLE = {"ctr_glue": ("a",)}


@dataclass(frozen=True)
class Sizes:
    """How much work the kernels do; TINY keeps the benchmark's own
    test fast."""
    max_n: int = 32               # cap on a workload's loop target
    fanout_branches: int = 4      # independent branches per control
    selftest_bytes: int = 96      # CRC and Fletcher input length
    sum_words: int = 640          # checksum input length
    delay_count: int = 4000       # delay loop iterations


FULL = Sizes()
TINY = Sizes(max_n=4, fanout_branches=2, selftest_bytes=8, sum_words=16,
             delay_count=40)


@dataclass
class Corpus:
    n: int                             # loop iteration target (--n)
    image: bytes
    base: int
    entries: dict[str, int]            # function name -> address
    kernel_of: dict[str, str]          # function name -> kernel
    sources: dict[str, str] = field(default_factory=dict)

    def argv(self, image_path: Path, entries_path: Path) -> list[str]:
        return ["--image", str(image_path), "--base", f"{self.base:x}",
                "--entries", str(entries_path), "--n", str(self.n),
                "--depth", str(DEPTH), "--timeout", str(TIMEOUT)]

    def entries_text(self) -> str:
        lines = [f"0x{addr:x}  # {name}"
                 for name, addr in sorted(self.entries.items(),
                                          key=lambda kv: kv[1])]
        return "\n".join(lines) + "\n"

    def write(self, directory: Path) -> tuple[Path, Path]:
        directory.mkdir(parents=True, exist_ok=True)
        image_path = directory / "image.bin"
        entries_path = directory / "entries.txt"
        image_path.write_bytes(self.image)
        entries_path.write_text(self.entries_text(), encoding="utf-8")
        return image_path, entries_path


def load_labels() -> dict[str, frozenset[str]]:
    """Kernel -> primitives it implements, from the hand-written file."""
    raw = json.loads((HERE / "labels.json").read_text(encoding="utf-8"))
    return {name: frozenset(entry["labels"])
            for name, entry in raw["kernels"].items()}


def _regs(rng: random.Random, *names: str) -> dict[str, str]:
    chosen = rng.sample(POOL, len(names))
    return dict(zip(names, chosen))


# ------------------------------------------------------------ crypto


XTEA_DELTA = 0x9E3779B9


def xtea(name: str, style: str, rng: random.Random, ctx) -> str:
    """r0 = rounds (symbolic), r1 = v[2], r2 = key[4]."""
    r = _regs(rng, "v0", "v1", "s", "t", "u", "i", "d")
    if style == "a":
        # counted up against r0, sum and delta in registers
        return f"""\
{name}:
{PROLOGUE}
    ldr {r['v0']}, [r1]
    ldr {r['v1']}, [r1, #4]
    mov {r['s']}, #0
    ldr {r['d']}, ={XTEA_DELTA:#x}
    mov {r['i']}, #0
{name}_loop:
    cmp {r['i']}, r0
    bge {name}_done
    lsl {r['u']}, {r['v1']}, #4
    eor {r['u']}, {r['u']}, {r['v1']}, lsr #5
    add {r['u']}, {r['u']}, {r['v1']}
    and {r['t']}, {r['s']}, #3
    ldr {r['t']}, [r2, {r['t']}, lsl #2]
    add {r['t']}, {r['t']}, {r['s']}
    eor {r['u']}, {r['u']}, {r['t']}
    add {r['v0']}, {r['v0']}, {r['u']}
    add {r['s']}, {r['s']}, {r['d']}
    lsl {r['u']}, {r['v0']}, #4
    eor {r['u']}, {r['u']}, {r['v0']}, lsr #5
    add {r['u']}, {r['u']}, {r['v0']}
    lsr {r['t']}, {r['s']}, #11
    and {r['t']}, {r['t']}, #3
    ldr {r['t']}, [r2, {r['t']}, lsl #2]
    add {r['t']}, {r['t']}, {r['s']}
    eor {r['u']}, {r['u']}, {r['t']}
    add {r['v1']}, {r['v1']}, {r['u']}
    add {r['i']}, {r['i']}, #1
    b {name}_loop
{name}_done:
    str {r['v0']}, [r1]
    str {r['v1']}, [r1, #4]
{EPILOGUE}
"""
    # counted down in r0, sum and the block pointer spilled to the stack
    return f"""\
{name}:
{PROLOGUE}
    sub sp, sp, #16
    str r1, [sp, #8]
    ldr {r['v0']}, [r1]
    ldr {r['v1']}, [r1, #4]
    mov {r['s']}, #0
    str {r['s']}, [sp]
    cmp r0, #0
    beq {name}_done
{name}_loop:
    ldr {r['s']}, [sp]
    and {r['t']}, {r['s']}, #3
    ldr {r['t']}, [r2, {r['t']}, lsl #2]
    add {r['t']}, {r['s']}, {r['t']}
    lsl {r['u']}, {r['v1']}, #4
    eor {r['u']}, {r['u']}, {r['v1']}, lsr #5
    add {r['u']}, {r['v1']}, {r['u']}
    eor {r['u']}, {r['t']}, {r['u']}
    add {r['v0']}, {r['u']}, {r['v0']}
    ldr {r['d']}, ={XTEA_DELTA:#x}
    add {r['s']}, {r['s']}, {r['d']}
    str {r['s']}, [sp]
    lsr {r['t']}, {r['s']}, #11
    and {r['t']}, {r['t']}, #3
    ldr {r['t']}, [r2, {r['t']}, lsl #2]
    add {r['t']}, {r['s']}, {r['t']}
    lsl {r['u']}, {r['v0']}, #4
    eor {r['u']}, {r['u']}, {r['v0']}, lsr #5
    add {r['u']}, {r['v0']}, {r['u']}
    eor {r['u']}, {r['t']}, {r['u']}
    add {r['v1']}, {r['u']}, {r['v1']}
    subs r0, r0, #1
    bne {name}_loop
{name}_done:
    ldr r1, [sp, #8]
    str {r['v0']}, [r1]
    str {r['v1']}, [r1, #4]
    add sp, sp, #16
{EPILOGUE}
"""


def _feistel_like(name: str, style: str, rng: random.Random,
                  mix: str) -> str:
    """Four rounds of l, r = r, l MIX ((r << 3 ^ r >> 5) + k[i]);
    r0 = v[2], r1 = k[4].  `mix` is eor (a Feistel network) or add
    (the RC2-like ladder that must stay undetected)."""
    r = _regs(rng, "l", "r", "f", "t", "i")
    if style == "a":
        return f"""\
{name}:
{PROLOGUE}
    ldr {r['l']}, [r0]
    ldr {r['r']}, [r0, #4]
    mov {r['i']}, #0
{name}_loop:
    lsl {r['f']}, {r['r']}, #3
    eor {r['f']}, {r['f']}, {r['r']}, lsr #5
    ldr {r['t']}, [r1, {r['i']}, lsl #2]
    add {r['f']}, {r['f']}, {r['t']}
    {mix} {r['t']}, {r['l']}, {r['f']}
    mov {r['l']}, {r['r']}
    mov {r['r']}, {r['t']}
    add {r['i']}, {r['i']}, #1
    cmp {r['i']}, #4
    blt {name}_loop
    str {r['l']}, [r0]
    str {r['r']}, [r0, #4]
{EPILOGUE}
"""
    # fully unrolled; the halves swap roles instead of moving
    rounds = []
    left, right = r["l"], r["r"]
    for i in range(4):
        rounds.append(f"""\
    ldr {r['t']}, [r1, #{4 * i}]
    lsl {r['f']}, {right}, #3
    eor {r['f']}, {r['f']}, {right}, lsr #5
    add {r['f']}, {r['t']}, {r['f']}
    {mix} {left}, {left}, {r['f']}
""")
        left, right = right, left
    return f"""\
{name}:
{PROLOGUE}
    ldr {r['l']}, [r0]
    ldr {r['r']}, [r0, #4]
{''.join(rounds)}\
    str {left}, [r0]
    str {right}, [r0, #4]
{EPILOGUE}
"""


def feistel4(name, style, rng, ctx):
    return _feistel_like(name, style, rng, "eor")


def rc2_add(name, style, rng, ctx):
    return _feistel_like(name, style, rng, "add")


def lfsr(name: str, style: str, rng: random.Random, ctx) -> str:
    """r0 = state, r1 = rounds (symbolic)."""
    r = _regs(rng, "s", "t", "i")
    if style == "a":
        return f"""\
{name}:
    mov {r['s']}, r0
    mov {r['i']}, #0
{name}_loop:
    cmp {r['i']}, r1
    bge {name}_done
    eor {r['t']}, {r['s']}, {r['s']}, lsr #3
    and {r['t']}, {r['t']}, #1
    orr {r['s']}, {r['t']}, {r['s']}, lsl #1
    add {r['i']}, {r['i']}, #1
    b {name}_loop
{name}_done:
    mov r0, {r['s']}
    bx lr
"""
    return f"""\
{name}:
{PROLOGUE}
    mov {r['s']}, r0
    mov {r['i']}, r1
    cmp {r['i']}, #0
    beq {name}_done
{name}_loop:
    lsr {r['t']}, {r['s']}, #3
    eor {r['t']}, {r['t']}, {r['s']}
    and {r['t']}, {r['t']}, #1
    eor {r['s']}, {r['t']}, {r['s']}, lsl #1
    subs {r['i']}, {r['i']}, #1
    bne {name}_loop
{name}_done:
    mov r0, {r['s']}
{EPILOGUE}
"""


FNV_OFFSET = 0x811C9DC5
FNV_PRIME = 16777619


def md_toy(name: str, style: str, rng: random.Random, ctx) -> str:
    """h = (h ^ m[16 * block]) * prime over four 64-byte blocks;
    r0 = message."""
    r = _regs(rng, "h", "p", "q", "t", "i")
    if style == "a":
        return f"""\
{name}:
{PROLOGUE}
    ldr {r['h']}, ={FNV_OFFSET:#x}
    ldr {r['p']}, ={FNV_PRIME}
    mov {r['q']}, r0
    mov {r['i']}, #0
{name}_loop:
    ldr {r['t']}, [{r['q']}], #64
    eor {r['h']}, {r['h']}, {r['t']}
    mul {r['t']}, {r['p']}, {r['h']}
    mov {r['h']}, {r['t']}
    add {r['i']}, {r['i']}, #1
    cmp {r['i']}, #4
    blt {name}_loop
    mov r0, {r['h']}
{EPILOGUE}
"""
    # unrolled, the multiply strength-reduced to shift-and-add
    blocks = "".join(f"""\
    ldr {r['t']}, [r0, #{64 * k}]
    eor {r['h']}, {r['h']}, {r['t']}
    add {r['h']}, {r['h']}, {r['h']}, lsl #8
    add {r['h']}, {r['h']}, {r['h']}, lsl #16
""" for k in range(4))
    return f"""\
{name}:
{PROLOGUE}
    ldr {r['h']}, ={FNV_OFFSET:#x}
{blocks}\
    mov r0, {r['h']}
{EPILOGUE}
"""


def _md5_constants():
    import math
    table = [int(abs(math.sin(i + 1)) * 2 ** 32) & MASK32
             for i in range(64)]
    shifts = ([7, 12, 17, 22] * 4 + [5, 9, 14, 20] * 4 +
              [4, 11, 16, 23] * 4 + [6, 10, 15, 21] * 4)
    return table, shifts


def _md5_index(i: int) -> int:
    if i < 16:
        return i
    if i < 32:
        return (5 * i + 1) % 16
    if i < 48:
        return (3 * i + 5) % 16
    return (7 * i) % 16


def md5(name: str, style: str, rng: random.Random, ctx) -> str:
    """Straight-line MD5 compression; r0 = state[4], r1 = block[16].
    Style a rotates with `ror`, style b with a shift-or pair."""
    table, shifts = _md5_constants()
    r = _regs(rng, "a", "b", "c", "d", "t", "u", "k")
    a, b, c, d = r["a"], r["b"], r["c"], r["d"]
    t, u, k = r["t"], r["u"], r["k"]
    body = [f"{name}:", PROLOGUE]
    for i, reg in enumerate((a, b, c, d)):
        body.append(f"    ldr {reg}, [r0, #{4 * i}]")
    for i in range(64):
        if i < 16:
            body += [f"    and {t}, {b}, {c}", f"    bic {u}, {d}, {b}",
                     f"    orr {t}, {t}, {u}"]
        elif i < 32:
            body += [f"    and {t}, {d}, {b}", f"    bic {u}, {c}, {d}",
                     f"    orr {t}, {t}, {u}"]
        elif i < 48:
            body += [f"    eor {t}, {b}, {c}", f"    eor {t}, {t}, {d}"]
        else:
            body += [f"    mvn {u}, {d}", f"    orr {u}, {b}, {u}",
                     f"    eor {t}, {c}, {u}"]
        body += [f"    add {a}, {a}, {t}",
                 f"    ldr {u}, [r1, #{4 * _md5_index(i)}]",
                 f"    add {a}, {a}, {u}",
                 f"    ldr {k}, ={table[i]:#x}",
                 f"    add {a}, {a}, {k}"]
        s = shifts[i]
        if style == "a":
            body.append(f"    ror {a}, {a}, #{32 - s}")
        else:
            body += [f"    lsl {u}, {a}, #{s}",
                     f"    orr {a}, {u}, {a}, lsr #{32 - s}"]
        body.append(f"    add {a}, {a}, {b}")
        a, b, c, d = d, a, b, c
    for i, reg in enumerate((a, b, c, d)):
        body += [f"    ldr {u}, [r0, #{4 * i}]",
                 f"    add {reg}, {reg}, {u}",
                 f"    str {reg}, [r0, #{4 * i}]"]
    body.append(EPILOGUE)
    return "\n".join(body) + "\n"


def _aes_tables() -> list[list[int]]:
    """The four AES encryption T tables, from the S-box."""
    exp, log = [0] * 255, [0] * 256
    x = 1
    for i in range(255):
        exp[i], log[x] = x, i
        x ^= ((x << 1) ^ (0x1B if x & 0x80 else 0)) & 0xFF  # times 3
    sbox = []
    for v in range(256):
        inv = exp[(255 - log[v]) % 255] if v else 0
        s = inv
        for shift in (1, 2, 3, 4):
            s ^= ((inv << shift) | (inv >> (8 - shift))) & 0xFF
        sbox.append(s ^ 0x63)
    assert sbox[0x00] == 0x63 and sbox[0x53] == 0xED
    te0 = []
    for v in sbox:
        v2 = ((v << 1) ^ (0x1B if v & 0x80 else 0)) & 0xFF
        te0.append((v2 << 24) | (v << 16) | (v << 8) | (v2 ^ v))
    tables = [te0]
    for _ in range(3):
        tables.append([((w >> 8) | (w << 24)) & MASK32
                       for w in tables[-1]])
    return tables


AES_ROUNDS = 2


def aes(name: str, style: str, rng: random.Random, ctx) -> str:
    """Table-driven AES rounds; r0 = round keys, r1 = in[4],
    r2 = out[4].  Style a addresses each T table by its absolute
    address.  Style b keeps one base register (r3, the caller's table
    pointer, as in position-independent code) and reaches T1-T3 at
    fixed offsets from it."""
    r = _regs(rng, "s0", "s1", "s2", "s3", "acc", "x", "tb")
    if style == "b":
        # r3 is the table base argument here, so keep it out of the
        # temporaries
        taken = set(r.values())
        spare = [p for p in POOL if p not in taken and p != "r3"]
        r = {key: (spare.pop() if reg == "r3" else reg)
             for key, reg in r.items()}
    s = [r["s0"], r["s1"], r["s2"], r["s3"]]
    acc, x, tb = r["acc"], r["x"], r["tb"]
    body = [f"{name}:", PROLOGUE, "    sub sp, sp, #16"]
    for i in range(4):
        body += [f"    ldr {s[i]}, [r1, #{4 * i}]",
                 f"    ldr {x}, [r0, #{4 * i}]",
                 f"    eor {s[i]}, {s[i]}, {x}"]
    shifts = (24, 16, 8, 0)
    for rnd in range(AES_ROUNDS):
        for j in range(4):
            body.append(f"    ldr {acc}, [r0, #{16 * (rnd + 1) + 4 * j}]")
            for table in range(4):
                src = s[(j + table) % 4]
                shift = shifts[table]
                if shift == 24:
                    body.append(f"    lsr {x}, {src}, #24")
                elif shift:
                    body += [f"    lsr {x}, {src}, #{shift}",
                             f"    and {x}, {x}, #255"]
                else:
                    body.append(f"    and {x}, {src}, #255")
                if style == "a":
                    body.append(f"    ldr {tb}, ={ctx.tables[table]:#x}")
                    base = tb
                elif table:
                    body.append(f"    add {tb}, r3, #{1024 * table}")
                    base = tb
                else:
                    base = "r3"
                body += [f"    ldr {x}, [{base}, {x}, lsl #2]",
                         f"    eor {acc}, {acc}, {x}"]
            body.append(f"    str {acc}, [sp, #{4 * j}]")
        for j in range(4):
            body.append(f"    ldr {s[j]}, [sp, #{4 * j}]")
    for j in range(4):
        body.append(f"    str {s[j]}, [r2, #{4 * j}]")
    body += ["    add sp, sp, #16", EPILOGUE]
    return "\n".join(body) + "\n"


def ctr_glue(name: str, style: str, rng: random.Random, ctx) -> str:
    """Counter-mode glue: XORs a keystream word from an external block
    function into the output, then signals completion through the
    callback pointer in r2, which the executor cannot follow (the path
    ends ABORTED).  r0 = out, r1 = in."""
    r = _regs(rng, "p", "q", "t", "f")
    return f"""\
{name}:
{PROLOGUE}
    mov {r['p']}, r0
    mov {r['q']}, r1
    mov {r['f']}, r2
    bl {EXTERNAL:#x}
    ldr {r['t']}, [{r['q']}]
    eor {r['t']}, {r['t']}, r0
    str {r['t']}, [{r['p']}]
    mov r0, {r['p']}
    mov lr, pc
    bx {r['f']}
{EPILOGUE}
"""


# ----------------------------------------------------- branch fan-out


# Small routines the controls call, inlined at depth 2.  `add_scaled`
# calls `scale` in turn, so it needs both levels.
HELPERS = {
    "scale": """\
scale:
    add r0, r0, r0, lsl #2
    bx lr
""",
    "add_scaled": """\
add_scaled:
    push {r4, lr}
    add r4, r0, r1
    mov r0, r4
    bl {scale}
    pop {r4, pc}
""",
    "set_field": """\
set_field:
    bic r0, r0, r2
    and r1, r1, r2
    orr r0, r0, r1
    bx lr
""",
}


def cfg_apply(name: str, style: str, rng: random.Random, ctx) -> str:
    """Applies optional configuration fields: each flag bit in r0
    enables one independent update of the record at r1.  Copies test
    different flag bits and call the helpers in another order."""
    r = _regs(rng, "flags", "rec", "v", "w")
    copy = ctx.copy
    lines = [f"{name}:", PROLOGUE,
             f"    mov {r['flags']}, r0", f"    mov {r['rec']}, r1"]
    for k in range(ctx.sizes.fanout_branches):
        skip = f"{name}_s{k}"
        offset = 4 * (k % 4) if style == "a" else 4 * (3 - k % 4)
        lines += [f"    tst {r['flags']}, #{1 << (k + 8 * copy)}",
                  f"    beq {skip}",
                  f"    ldr r0, [{r['rec']}, #{offset}]"]
        if (k + copy) % 3 == 0:
            lines += [f"    ldr r1, [{r['rec']}, #{16 + 4 * k}]",
                      f"    bl {ctx.helpers['add_scaled']:#x}"]
        elif (k + copy) % 3 == 1:
            lines += [f"    ldr r1, [{r['rec']}, #{16 + 4 * k}]",
                      f"    mov r2, #{0xF << (4 * (k % 4))}",
                      f"    bl {ctx.helpers['set_field']:#x}"]
        else:
            lines.append(f"    bl {ctx.helpers['scale']:#x}")
        lines += [f"    str r0, [{r['rec']}, #{offset}]", f"{skip}:"]
    # report the applied record: style a to an external logger, style b
    # through the record's change hook, a pointer the executor cannot
    # follow (every path ends ABORTED there)
    lines.append(f"    mov r0, {r['rec']}")
    if style == "a":
        lines.append(f"    bl {EXTERNAL:#x}")
    else:
        lines += [f"    ldr r3, [{r['rec']}, #60]", "    mov lr, pc",
                  "    bx r3"]
    lines += [f"    mov r0, {r['flags']}", EPILOGUE]
    return "\n".join(lines) + "\n"


def status_pack(name: str, style: str, rng: random.Random, ctx) -> str:
    """Packs sensor readings into a status word: each reading in
    r0[] is compared with a threshold and adds its own field.  Copies
    read other readings and alternate the two field kinds the other
    way round."""
    r = _regs(rng, "src", "st", "v", "lim")
    copy = ctx.copy
    lines = [f"{name}:", PROLOGUE,
             f"    mov {r['src']}, r0", f"    mov {r['st']}, #0"]
    for k in range(ctx.sizes.fanout_branches):
        skip = f"{name}_s{k}"
        lines += [f"    ldr {r['v']}, [{r['src']}, #{4 * k + 96 * copy}]",
                  f"    ldr {r['lim']}, [{r['src']}, "
                  f"#{32 + 4 * k + 96 * copy}]",
                  f"    cmp {r['v']}, {r['lim']}"]
        lines.append(f"    {'blt' if style == 'a' else 'ble'} {skip}")
        if (k + copy) % 2 == 0:
            lines += [f"    sub r0, {r['v']}, {r['lim']}",
                      f"    mov r1, #{k + 1}",
                      f"    bl {ctx.helpers['add_scaled']:#x}",
                      f"    add {r['st']}, {r['st']}, r0, lsl #{k}"]
        else:
            lines += [f"    mov r0, {r['st']}",
                      f"    mov r1, {r['v']}",
                      f"    mov r2, #{0xFF << (8 * (k % 4))}",
                      f"    bl {ctx.helpers['set_field']:#x}",
                      f"    mov {r['st']}, r0"]
        lines.append(f"{skip}:")
    lines += [f"    str {r['st']}, [{r['src']}, #64]",
              f"    mov r0, {r['st']}", EPILOGUE]
    return "\n".join(lines) + "\n"


# ----------------------------------------------------- self-test loops


CRC32_POLY = 0xEDB88320


def _crc32(data: bytes) -> int:
    crc = MASK32
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ (CRC32_POLY if crc & 1 else 0)
    return crc ^ MASK32


def _fletcher16(data: bytes) -> int:
    s1 = s2 = 0
    for byte in data:
        s1 = (s1 + byte) % 255
        s2 = (s2 + s1) % 255
    return (s2 << 8) | s1


def crc32_check(name: str, style: str, rng: random.Random, ctx) -> str:
    """Bit-serial CRC-32 of a constant table, compared with the value
    stored beside it; returns 1 on a match."""
    r = _regs(rng, "p", "n", "crc", "b", "j", "poly")
    data_addr = ctx.tables["selftest_bytes"]
    expect = _crc32(ctx.selftest_bytes)
    if style == "a":
        inner = f"""\
    tst {r['crc']}, #1
    lsr {r['crc']}, {r['crc']}, #1
    eorne {r['crc']}, {r['crc']}, {r['poly']}
"""
    else:
        inner = f"""\
    ands {r['b']}, {r['crc']}, #1
    lsr {r['crc']}, {r['crc']}, #1
    beq {name}_even
    eor {r['crc']}, {r['crc']}, {r['poly']}
{name}_even:
"""
    return f"""\
{name}:
{PROLOGUE}
    ldr {r['p']}, ={data_addr:#x}
    mov {r['n']}, #{ctx.sizes.selftest_bytes}
    mvn {r['crc']}, #0
    ldr {r['poly']}, ={CRC32_POLY:#x}
{name}_byte:
    ldrb {r['b']}, [{r['p']}], #1
    eor {r['crc']}, {r['crc']}, {r['b']}
    mov {r['j']}, #8
{name}_bit:
{inner}\
    subs {r['j']}, {r['j']}, #1
    bne {name}_bit
    subs {r['n']}, {r['n']}, #1
    bne {name}_byte
    mvn {r['crc']}, {r['crc']}
    ldr {r['b']}, ={expect:#x}
    mov r0, #0
    cmp {r['crc']}, {r['b']}
    moveq r0, #1
{EPILOGUE}
"""


def sum_check(name: str, style: str, rng: random.Random, ctx) -> str:
    """Additive (style a) or rotate-XOR (style b) checksum over a
    constant word table.  The result goes to an external reporting
    routine (style a) or to the callback in r1 (style b, which ends the
    path ABORTED) and is returned."""
    r = _regs(rng, "p", "n", "acc", "w")
    data_addr = ctx.tables["selftest_words"]
    if style == "a":
        loop = f"""\
    ldr {r['w']}, [{r['p']}], #4
    add {r['acc']}, {r['acc']}, {r['w']}
    subs {r['n']}, {r['n']}, #1
    bne {name}_loop
"""
    else:
        loop = f"""\
    ldr {r['w']}, [{r['p']}, {r['n']}, lsl #2]
    eor {r['acc']}, {r['w']}, {r['acc']}, ror #31
    add {r['n']}, {r['n']}, #1
    cmp {r['n']}, #{ctx.sizes.sum_words}
    blt {name}_loop
"""
    start = ctx.sizes.sum_words if style == "a" else 0
    call = (f"    bl {EXTERNAL:#x}" if style == "a"
            else "    mov lr, pc\n    bx r1")
    return f"""\
{name}:
{PROLOGUE}
    ldr {r['p']}, ={data_addr:#x}
    ldr {r['n']}, ={start}
    mov {r['acc']}, #0
{name}_loop:
{loop}\
    mov r0, {r['acc']}
{call}
    mov r0, {r['acc']}
{EPILOGUE}
"""


def fletcher_check(name: str, style: str, rng: random.Random, ctx) -> str:
    """Fletcher-16 over the constant byte table with the modulo done
    by conditional subtraction; returns 1 on a match and also stores
    the checksum through r0 when the caller passes a pointer there
    (the one data-dependent branch of the workload)."""
    r = _regs(rng, "p", "n", "s1", "s2", "b", "m", "out")
    data_addr = ctx.tables["selftest_bytes"]
    expect = _fletcher16(ctx.selftest_bytes)
    # s >= 255 and s > 254 are the same test
    reduce_, limit = ("subge", 255) if style == "a" else ("subgt", 254)
    return f"""\
{name}:
{PROLOGUE}
    mov {r['out']}, r0
    ldr {r['p']}, ={data_addr:#x}
    mov {r['n']}, #{ctx.sizes.selftest_bytes}
    mov {r['s1']}, #0
    mov {r['s2']}, #0
    mov {r['m']}, #{limit}
{name}_loop:
    ldrb {r['b']}, [{r['p']}], #1
    add {r['s1']}, {r['s1']}, {r['b']}
    cmp {r['s1']}, {r['m']}
    {reduce_} {r['s1']}, {r['s1']}, #255
    add {r['s2']}, {r['s2']}, {r['s1']}
    cmp {r['s2']}, {r['m']}
    {reduce_} {r['s2']}, {r['s2']}, #255
    subs {r['n']}, {r['n']}, #1
    bne {name}_loop
    orr {r['s1']}, {r['s1']}, {r['s2']}, lsl #8
    cmp {r['out']}, #0
    strne {r['s1']}, [{r['out']}]
    ldr {r['b']}, ={expect:#x}
    mov r0, #0
    cmp {r['s1']}, {r['b']}
    moveq r0, #1
{EPILOGUE}
"""


def delay_spin(name: str, style: str, rng: random.Random, ctx) -> str:
    """Busy-wait delay of a fixed count, as used between self-test
    steps; returns the number of spins."""
    r = _regs(rng, "n", "k")
    if style == "a":
        return f"""\
{name}:
    ldr {r['n']}, ={ctx.sizes.delay_count}
    mov {r['k']}, #0
{name}_loop:
    nop
    add {r['k']}, {r['k']}, #1
    subs {r['n']}, {r['n']}, #1
    bne {name}_loop
    mov r0, {r['k']}
    bx lr
"""
    return f"""\
{name}:
    mov {r['n']}, #0
{name}_loop:
    add {r['n']}, {r['n']}, #1
    ldr {r['k']}, ={ctx.sizes.delay_count}
    cmp {r['n']}, {r['k']}
    blt {name}_loop
    mov r0, {r['n']}
    bx lr
"""


KERNELS = {
    "xtea": xtea, "feistel4": feistel4, "rc2_add": rc2_add,
    "lfsr": lfsr, "md_toy": md_toy, "md5": md5, "aes": aes,
    "ctr_glue": ctr_glue, "cfg_apply": cfg_apply,
    "status_pack": status_pack, "crc32_check": crc32_check,
    "sum_check": sum_check, "fletcher_check": fletcher_check,
    "delay_spin": delay_spin,
}


# ------------------------------------------------------------- layout


@dataclass
class _Context:
    tables: dict[str, int] = field(default_factory=dict)
    helpers: dict[str, int] = field(default_factory=dict)
    sizes: Sizes = FULL
    selftest_bytes: bytes = b""
    copy: int = 0


def _pad(rng: random.Random) -> bytes:
    return bytes(4 * rng.randrange(1, 8))


def generate(workload: str, seed: int, sizes: Sizes = FULL) -> Corpus:
    from wherescrypto.asm import assemble

    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    ctx = _Context(sizes=sizes)
    image = bytearray()
    address = BASE

    def place(blob: bytes) -> int:
        nonlocal address
        start = address
        image.extend(blob)
        address += len(blob)
        pad = _pad(rng)
        image.extend(pad)
        address += len(pad)
        return start

    # data: AES tables, then self-test tables with seeded contents
    if "aes" in spec.kernels:
        for index, table in enumerate(_aes_tables()):
            blob = b"".join(w.to_bytes(4, "little") for w in table)
            ctx.tables[index] = place(blob)
    if workload == "selftest-loops":
        ctx.selftest_bytes = bytes(rng.randrange(256)
                                   for _ in range(sizes.selftest_bytes))
        ctx.tables["selftest_bytes"] = place(ctx.selftest_bytes)
        words = b"".join(rng.getrandbits(32).to_bytes(4, "little")
                         for _ in range(sizes.sum_words))
        ctx.tables["selftest_words"] = place(words)

    sources: dict[str, str] = {}
    if workload == "branch-fanout":
        # helpers in dependency order: add_scaled calls scale
        for helper in ("scale", "set_field", "add_scaled"):
            text = HELPERS[helper]
            if "{scale}" in text:
                text = text.replace("{scale}", f"{ctx.helpers['scale']:#x}")
            ctx.helpers[helper] = place(assemble(text, address))
            sources[helper] = text

    functions = [(kernel, style, copy) for kernel in spec.kernels
                 for style in SINGLE_STYLE.get(kernel, STYLES)
                 for copy in range(spec.copies)]
    rng.shuffle(functions)
    entries: dict[str, int] = {}
    kernel_of: dict[str, str] = {}
    for kernel, style, copy in functions:
        name = f"{kernel}_{style}" + (str(copy) if spec.copies > 1 else "")
        ctx.copy = copy
        text = KERNELS[kernel](name, style, rng, ctx)
        entries[name] = place(assemble(text, address))
        kernel_of[name] = kernel
        sources[name] = text
    return Corpus(min(spec.n, sizes.max_n), bytes(image), BASE, entries,
                  kernel_of, sources)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    corpus = generate(args.workload, args.seed)
    corpus.write(args.out)
    labels = load_labels()
    (args.out / "labels.json").write_text(json.dumps(
        {name: sorted(labels[kernel])
         for name, kernel in sorted(corpus.kernel_of.items())},
        indent=2) + "\n", encoding="utf-8")
    for name, text in corpus.sources.items():
        (args.out / f"{name}.s").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.exit(main())
