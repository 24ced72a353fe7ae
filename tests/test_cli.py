"""Command line behavior: flags, exit codes, output plumbing."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wherescrypto import cli
from wherescrypto.asm import assemble, label_addresses
from wherescrypto.cli import main
from wherescrypto.siglib import builtin_names, signature_source

from test_report import LEAF, LFSR_INLINE, MDTOY

LFSR_C = """\
unsigned lfsr(unsigned s) {
    int i;
    for (i = 0; i < 4; i++) {
        unsigned bit = (s ^ (s >> 3)) & 1u;
        s = (s << 1) | bit;
    }
    return s;
}
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    image = root / "lfsr.bin"
    image.write_bytes(assemble(LFSR_INLINE))
    entries = root / "entries.txt"
    entries.write_text("0x0\n")
    return root, image, entries


def run_json(image, entries, out, extra=()):
    code = main(["--image", str(image), "--entries", str(entries),
                 "--format", "json", "--out", str(out), *extra])
    assert code == 0
    return json.loads(out.read_bytes())


def test_json_run_matches_lfsr(workspace):
    root, image, entries = workspace
    data = run_json(image, entries, root / "report.json")
    assert data["schema"] == 1
    assert data["config"]["n"] == 4
    (fn,) = data["functions"]
    assert fn["entry"] == "0x0"
    by_name = {s["name"]: s for s in fn["signatures"]}
    assert set(by_name) == set(builtin_names())
    assert by_name["nlfsr"]["matched"] is True
    assert by_name["xtea"]["matched"] is False


def test_stdout_default(workspace, capsys):
    _root, image, entries = workspace
    code = main(["--image", str(image), "--entries", str(entries),
                 "--format", "text"])
    assert code == 0
    out = capsys.readouterr().out
    assert "nlfsr: MATCH" in out


def test_cli_runs_are_deterministic(workspace):
    root, image, entries = workspace
    first = run_json(image, entries, root / "a.json")
    second = run_json(image, entries, root / "b.json")
    first.pop("timestamp")
    second.pop("timestamp")
    assert json.dumps(first) == json.dumps(second)


def test_report_independent_of_hash_seed(tmp_path):
    # str hashes change with PYTHONHASHSEED, so a report that leaned on
    # set or hash order would differ between these two runs
    text = LFSR_INLINE + MDTOY + LEAF
    image = tmp_path / "image.bin"
    image.write_bytes(assemble(text))
    entries = tmp_path / "entries.txt"
    entries.write_text("".join(f"{addr:#x}\n" for addr in
                               label_addresses(text).values()))
    src = str(Path(cli.__file__).resolve().parents[1])
    bodies = []
    for seed in ("0", "1"):
        out = tmp_path / f"seed{seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        subprocess.run([sys.executable, "-m", "wherescrypto.cli",
                        "--image", str(image), "--entries", str(entries),
                        "--format", "json", "--out", str(out)],
                       env=env, check=True)
        data = json.loads(out.read_bytes())
        data.pop("timestamp")
        bodies.append(json.dumps(data, indent=2))
    assert len(json.loads(bodies[0])["functions"]) == 3
    assert bodies[0] == bodies[1]


def test_dot_output(workspace):
    root, image, entries = workspace
    out = root / "report.dot"
    code = main(["--image", str(image), "--entries", str(entries),
                 "--format", "dot", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("digraph")
    assert 'match="nlfsr/C"' in text


def test_knob_passthrough(workspace):
    root, image, entries = workspace
    data = run_json(image, entries, root / "knobs.json",
                    extra=["--n", "3", "--depth", "1", "--timeout", "5"])
    assert data["config"]["n"] == 3
    assert data["config"]["depth"] == 1
    assert data["config"]["timeout"] == 5.0


def test_elf_symbols_used_as_entries(toolchain, tmp_path):
    source = tmp_path / "lfsr.c"
    source.write_text(LFSR_C)
    elf = toolchain.elf_path(source)
    out = tmp_path / "elf.json"
    code = main(["--image", str(elf), "--elf", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_bytes())
    entries = [fn["entry"] for fn in data["functions"]]
    assert len(entries) == 1
    matched = {s["name"] for fn in data["functions"]
               for s in fn["signatures"] if s["matched"]}
    assert "nlfsr" in matched


def test_dump_signatures(tmp_path, capsys):
    target = tmp_path / "sigs"
    assert main(["--dump-signatures", str(target)]) == 0
    names = sorted(p.stem for p in target.glob("*.sig"))
    assert names == builtin_names()
    for name in names:
        assert (target / f"{name}.sig").read_text() == \
            signature_source(name)
    assert "wrote" in capsys.readouterr().out


def test_dumped_signatures_reload(workspace, tmp_path):
    root, image, entries = workspace
    sigdir = tmp_path / "sigs"
    assert main(["--dump-signatures", str(sigdir)]) == 0
    data = run_json(image, entries, tmp_path / "again.json",
                    extra=["--signatures", str(sigdir)])
    by_name = {s["name"]: s for s in data["functions"][0]["signatures"]}
    assert by_name["nlfsr"]["matched"] is True


def test_usage_errors_exit_1(workspace, capsys):
    _root, image, entries = workspace
    assert main([]) == 1
    assert main(["--image", str(image)]) == 1
    assert main(["--image", str(image), "--entries", str(entries),
                 "--base", "zz"]) == 1
    assert main(["--image", str(image), "--entries", str(entries),
                 "--n", "0"]) == 1
    assert main(["--image", str(image), "--entries", str(entries),
                 "--format", "yaml"]) == 1
    assert main(["--no-such-flag"]) == 1
    capsys.readouterr()


def test_io_errors_exit_2(workspace, tmp_path, capsys):
    root, image, entries = workspace
    assert main(["--image", str(tmp_path / "missing.bin"),
                 "--entries", str(entries)]) == 2
    assert main(["--image", str(image),
                 "--entries", str(tmp_path / "missing.txt")]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("xyz\n")
    assert main(["--image", str(image), "--entries", str(bad)]) == 2
    assert main(["--image", str(image), "--elf"]) == 2
    assert main(["--image", str(image), "--entries", str(entries),
                 "--out", str(tmp_path / "no" / "dir" / "x.json")]) == 2
    # an arity error and a file that is not UTF-8 in a signature
    # directory, then an entry file that is not UTF-8
    arity = b"IDENTIFIER bad\nVARIANT v\nx: XOR(1);\n"
    for name, body in (("arity", arity), ("utf16", b"\xff\xfe")):
        sigdir = tmp_path / name
        sigdir.mkdir()
        (sigdir / "bad.sig").write_bytes(body)
        assert main(["--image", str(image), "--entries", str(entries),
                     "--signatures", str(sigdir)]) == 2
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"0x0\n\xff\n")
    assert main(["--image", str(image), "--entries", str(binary)]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_empty_entry_file_runs_clean(workspace, tmp_path):
    _root, image, _entries = workspace
    empty = tmp_path / "none.txt"
    empty.write_text("# nothing\n")
    out = tmp_path / "empty.json"
    data = run_json(image, empty, out)
    assert data["functions"] == []
    assert data["totals"]["functions"] == 0
