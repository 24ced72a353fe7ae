"""Every parse outcome of about a thousand signature texts, pinned
against a fixture.

`test_sigdsl.py` checks chosen documents and that no text raises
anything but `ParseError` or `ArityError`; this file pins *which* error
each text reports, and where.  ``fixtures/parse_pin.json`` holds edit
scripts, not texts:

- ``{"base": name, "edits": [[at, piece], ...]}`` starts from a shipped
  document (``aes.sig`` ...) or from ``round_trip:<i>``, the i-th of
  `test_sigdsl.ROUND_TRIP_DOCS`, and applies each edit in turn: insert
  ``piece`` before character ``at``, or delete that character when
  ``piece`` is empty;
- ``{"pieces": [...]}`` joins the pieces after a valid
  ``IDENTIFIER``/``VARIANT`` header.

Each case records its outcome (see `outcome`): for an error, its type,
line, column, ``expected``, ``found`` and message; for a document that
parses, the SHA-256 of its ``repr``.  The unedited shipped documents
also record the SHA-256 of ``graph.serialize()`` for every variant
they build.

After an intended change to the language or its messages, regenerate
the outcomes with ``PYTHONPATH=src python tests/test_parse_pin.py``.
The stored scripts are kept and only the outcomes are recomputed, so
the texts do not depend on how `random` draws on a given Python; the
scripts are drawn afresh only when the fixture does not exist.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from test_sigdsl import _DSL_PIECES, ROUND_TRIP_DOCS

from wherescrypto.sigdsl import (MAX_NESTING, ArityError, ParseError,
                                 _build, parse)
from wherescrypto.siglib import builtin_names, signature_source

PIN = Path(__file__).parent / "fixtures" / "parse_pin.json"
HEADER = "IDENTIFIER t\nVARIANT a\n"


def _bases() -> dict[str, str]:
    bases = {f"{name}.sig": signature_source(name)
             for name in builtin_names()}
    bases.update((f"round_trip:{i}", text)
                 for i, text in enumerate(ROUND_TRIP_DOCS))
    return bases


def _apply(text: str, edits) -> str:
    chars = list(text)
    for at, piece in edits:
        chars[at:at + (0 if piece else 1)] = list(piece)
    return "".join(chars)


def case_text(case: dict, bases: dict[str, str]) -> str:
    if "base" in case:
        return _apply(bases[case["base"]], case["edits"])
    return HEADER + "".join(case["pieces"])


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def outcome(text: str) -> list:
    """``[type, line, column, expected, found, message]`` of the error
    `text` raises, or ``["parsed", sha256 of the document's repr]``."""
    try:
        doc = parse(text)
    except (ParseError, ArityError) as exc:
        return [type(exc).__name__, exc.line, exc.column,
                list(getattr(exc, "expected", ())),
                getattr(exc, "found", None), str(exc)]
    return ["parsed", _digest(repr(doc))]


def built_graphs() -> dict[str, list[str]]:
    return {name: [_digest(_build(v).graph.serialize())
                   for v in parse(signature_source(name)).variants]
            for name in builtin_names()}


def _draw_cases(bases: dict[str, str]) -> list[dict]:
    """About a thousand edit scripts: the bases unedited, 1-4 random
    edits of each, random piece runs and directed edge cases."""
    rng = random.Random(17)
    cases = [{"base": name, "edits": []} for name in bases]
    for name, text in bases.items():
        for _ in range(66):
            length, edits = len(text), []
            for _ in range(rng.randint(1, 4)):
                at = rng.randrange(length + 1)
                piece = rng.choice(_DSL_PIECES + [""])
                if not piece and at == length:
                    at -= 1
                edits.append([at, piece])
                length += len(piece) if piece else -1
            cases.append({"base": name, "edits": edits})
    for _ in range(310):
        cases.append({"pieces": [rng.choice(_DSL_PIECES)
                                 for _ in range(rng.randint(1, 30))]})
    directed = [
        ["x", ":", "OPAQUE", "("],                      # end in arguments
        ["x", ":", "OPAQUE", "(", ")"],
        ["x", ":", "OPAQUE", "(", ")", ";"],
        ["x", ":", "OPAQUE", "(", "1", ","],
        ["x", ":", "OPAQUE", "(", ",", ")", ";"],
        ["x", ":", "OPAQUE", "<"],
        ["x", ":", "OPAQUE", "<", "t", ">", "(", ";"],
        ["x", ":", "OPAQUE", "<", "VARIANT", ">", ";"],
        ["x", ":", "XOR", "("],
        ["x", ":", "XOR", "(", ")", ";"],
        ["x", ":", "XOR", "(", "1", ";"],
        ["x", ":", "XOR", ";"],
        ["x", ":", "1", " ", "@", " ", "1", ";", "\n", "VARIANT", "\n"],
        ["x", ":", "1", ";", "x", ":", "1", ";"],
        ["x", ":", "x", ";"],
        ["x", "(", "1", ")", ";"],
        ["t", ":", "1", ";", "t", "(", "1", ")", ";"],
        ["TRANSIENT", ":", "1", ";"],
        ["TRANSIENT"],
        ["x", ":"],
        ["0x", ";"],
        ["4294967296", ";"],
        ["0xFFFFFFFF", "0", ";"],
        ["007", "007", "007", "007", ";"],
    ]
    # nesting at and around the limit, each as one piece
    for opener in ("(", "XOR(1,", "OPAQUE(", "OPAQUE<t>(", "LOAD("):
        for depth in (MAX_NESTING - 2, MAX_NESTING - 1, MAX_NESTING):
            directed.append(["x:", opener * depth + "1" + ")" * depth,
                             ";"])
    for shifts in (MAX_NESTING - 2, MAX_NESTING - 1, MAX_NESTING):
        directed.append(["x:", "1" + "<<1" * shifts, ";"])
        directed.append(["x:", "(" * 30 + "1" + ">>1" * (shifts - 30)
                         + ")" * 30, ";"])
    cases += [{"pieces": pieces} for pieces in directed]
    return cases


def test_parse_outcomes_are_pinned():
    pin = json.loads(PIN.read_text(encoding="utf-8"))
    bases = _bases()
    wrong = []
    for index, case in enumerate(pin["cases"]):
        got = outcome(case_text(case, bases))
        if got != case["outcome"]:
            wrong.append((index, case["outcome"], got))
    assert not wrong, (f"{len(wrong)} of {len(pin['cases'])} outcomes "
                       f"differ; first {wrong[:3]}")


def test_pin_covers_an_unclosed_wildcard_at_end_of_variant():
    pin = json.loads(PIN.read_text(encoding="utf-8"))
    case = next(c for c in pin["cases"]
                if c.get("pieces") == ["x", ":", "OPAQUE", "("])
    assert case["outcome"][3:5] == [["')'"], "end of variant"]


def test_shipped_variant_graphs_are_pinned():
    pin = json.loads(PIN.read_text(encoding="utf-8"))
    graphs = built_graphs()
    assert sum(map(len, graphs.values())) == 15
    assert graphs == pin["graphs"]


if __name__ == "__main__":
    bases = _bases()
    cases = (json.loads(PIN.read_text(encoding="utf-8"))["cases"]
             if PIN.exists() else _draw_cases(bases))
    rows = [json.dumps({**case, "outcome": outcome(case_text(case, bases))},
                       separators=(",", ":"))
            for case in cases]
    PIN.write_text('{"graphs": ' + json.dumps(built_graphs(), indent=1)
                   + ',\n"cases": [\n' + ",\n".join(rows) + "\n]}\n",
                   encoding="utf-8")
