"""Lifting golden.

Every instruction of the encoding battery, plus the S-forms and PC
writes it lacks, is lifted on a fresh execution state, once with no
flag-setting instruction seen and once with a flag source already set.
The record of each lift (the serialized graph, the registers it
changed, the flag source, the approximations, the condition tuple of a
conditional line and the outcome of its body) must equal the one in
``fixtures/lift_golden.json``.  A value is recorded as its node ref,
or as ``const 0x…`` for a constant the lifter kept as an int.  Node
refs are handed out in request order, so a lifter that requests the
same nodes in another order fails here too.

After an intended change to lifting, regenerate the fixture with
``PYTHONPATH=src python tests/test_lift_golden.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

from wherescrypto import arm
from wherescrypto.asm import assemble
from wherescrypto.symexec import ExecState

from test_arm import BATTERY

GOLDEN = Path(__file__).parent / "fixtures" / "lift_golden.json"

# Each line is assembled on its own at EXTRA_ORIGIN; the battery is
# clang-checked and cannot take lines that are not re-checked.
EXTRA = """\
rsbs r2, r3, #0
bics r5, r6, #7
mvns r3, r4
muls r0, r1, r2
mlas r3, r4, r5, r6
lsls r0, r1, #3
lsrs r2, r3, #5
asrs r4, r5, #31
eors r3, r3, r4
adcs r5, r6, r7
rors r6, r7, r8
adds r0, r1, r2
movs r0, #0
tst r0, r1
add r0, pc, #8
ldr r0, =0x12345678
ldrb r1, [pc, #-4]
mov pc, lr
add pc, r0, #4
ldr pc, [sp], #4
ldmia r4, {r5, pc}
add pc, pc, #4
mov pc, #0x100
ldr pc, =0x2000
bx r4
ldr r0, [pc, #4]!
"""
EXTRA_ORIGIN = 0x1000


def _shown(value: int):
    return value if value >= 0 else f"const 0x{~value:x}"


def lift_record(image: bytes, address: int, base: int,
                flags_set: bool) -> dict:
    state = ExecState.initial(address, image, base)
    if flags_set:
        state.flag_source = (state.regs["R9"], ~7)
    initial = dict(state.regs)
    ins = arm.decode(image, address, base)
    record: dict = {}
    if ins.cond != "AL":
        (v1, op, v2), expect = arm.condition_info(state, ins.cond)
        record["condition"] = [_shown(v1), op, _shown(v2), expect]
    try:
        outcome = arm.execute(state, ins)
        record["outcome"] = [outcome.kind.name, outcome.target,
                             outcome.return_address]
    except arm.UnsupportedPcWrite:
        record["outcome"] = ["UnsupportedPcWrite"]
    record["graph"] = state.graph.serialize().splitlines()
    record["regs"] = {name: _shown(value)
                      for name, value in state.regs.items()
                      if value != initial[name]}
    record["flag_source"] = (None if state.flag_source is None
                             else [_shown(v) for v in state.flag_source])
    record["approx"] = sorted(state.approx)
    return record


def _entry(image: bytes, address: int, base: int) -> dict:
    ins = arm.decode(image, address, base)
    return {"address": address, "raw": f"{ins.raw:08x}",
            "plain": lift_record(image, address, base, False),
            "flagged": lift_record(image, address, base, True)}


def golden_records() -> dict:
    battery = assemble(BATTERY, origin=0)
    extra = []
    for line in EXTRA.splitlines():
        image = assemble(line, origin=EXTRA_ORIGIN)
        extra.append({"line": line,
                      **_entry(image, EXTRA_ORIGIN, EXTRA_ORIGIN)})
    return {"battery": [_entry(battery, off, 0)
                        for off in range(0, len(battery), 4)],
            "extra": extra}


def test_lifting_matches_golden():
    want = json.loads(GOLDEN.read_text())
    got = json.loads(json.dumps(golden_records()))
    for group in ("battery", "extra"):
        assert len(got[group]) == len(want[group])
        for mine, ref in zip(got[group], want[group]):
            assert mine == ref, f"{group}: {ref['raw']}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden_records(), indent=1) + "\n")
