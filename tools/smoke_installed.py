"""Smoke test of an installed wherescrypto package.

Tier-1 runs from `src/`, so a packaging slip (a `.sig` file left out of
the package data, a broken console entry point) goes unseen there.
This script checks the installed package instead: it dumps the
built-in signatures through the console command, assembles a small
LFSR with the installed `wherescrypto.asm`, scans it and expects the
`nlfsr` signature to match and the report's `version` to be the
installed distribution's version.  Run it from outside the checkout after
`pip install .`:

    python3 /path/to/checkout/tools/smoke_installed.py [COMMAND ...]

COMMAND defaults to the `wherescrypto` console script; any other
command that runs the CLI (e.g. `python3 -m wherescrypto.cli`) can be
given instead.  Exits 0 when every check passes.
"""

import json
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

import wherescrypto.asm

CHECKOUT = Path(__file__).resolve().parent.parent
# every built-in the checkout ships must come out of the install
SHIPPED = sorted(p.stem for p in (CHECKOUT / "src" / "wherescrypto"
                                  / "signatures").glob("*.sig"))

LFSR = """\
lfsr:
    mov r4, r0
    eor r0, r4, r4, lsr #3
    and r0, r0, #1
    orr r4, r0, r4, lsl #1
    eor r0, r4, r4, lsr #3
    and r0, r0, #1
    orr r4, r0, r4, lsl #1
    eor r0, r4, r4, lsr #3
    and r0, r0, #1
    orr r4, r0, r4, lsl #1
    eor r0, r4, r4, lsr #3
    and r0, r0, #1
    orr r4, r0, r4, lsl #1
    mov r0, r4
    bx lr
"""


def main(argv: list[str]) -> int:
    command = argv or ["wherescrypto"]
    package = Path(wherescrypto.asm.__file__).resolve().parent
    if CHECKOUT / "src" in package.parents:
        print(f"imported from the checkout ({package}), not an install")
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        subprocess.run(command + ["--dump-signatures", str(work / "sigs")],
                       check=True, stdout=subprocess.DEVNULL)
        dumped = sorted(p.stem for p in (work / "sigs").glob("*.sig"))
        if not SHIPPED or dumped != SHIPPED:
            print(f"dumped signatures {dumped}, expected {SHIPPED}")
            return 1
        (work / "lfsr.bin").write_bytes(wherescrypto.asm.assemble(LFSR))
        (work / "entries.txt").write_text("0x0\n")
        subprocess.run(command + ["--image", str(work / "lfsr.bin"),
                                  "--entries", str(work / "entries.txt"),
                                  "--out", str(work / "report.json")],
                       check=True)
        report = json.loads((work / "report.json").read_text())
    function = report["functions"][0]
    matched = [s["name"] for s in function["signatures"] if s["matched"]]
    if function["error"] is not None or "nlfsr" not in matched:
        print(f"scan of the LFSR gave error={function['error']!r}, "
              f"matched={matched}")
        return 1
    # the version the build read from `report.VERSION`
    installed = metadata.version("wherescrypto")
    if report["version"] != installed:
        print(f"report version {report['version']!r}, installed "
              f"distribution {installed!r}")
        return 1
    print(f"installed package at {package}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
