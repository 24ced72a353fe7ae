"""Command line behavior: flags, exit codes, output plumbing."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wherescrypto import cli, report, sigdsl, siglib
from wherescrypto.asm import assemble, label_addresses
from wherescrypto.cli import main
from wherescrypto.siglib import builtin_names, signature_source

from test_report import LEAF, LFSR_INLINE, MDTOY
from test_symexec import shift_register_loop

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
    assert data["schema"] == 2
    assert data["config"] == {"n": 4, "depth": 2, "timeout": 10.0}
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


def test_long_loop_report_is_independent_of_timeout(tmp_path):
    # 5,000 iterations, one path condition fact each, finish well inside
    # the step budget; a short and a long wall-clock backstop must give
    # the same report
    image = tmp_path / "loop.bin"
    image.write_bytes(assemble(shift_register_loop(5000)))
    entries = tmp_path / "entries.txt"
    entries.write_text("0x0\n")
    bodies = []
    for timeout in (5, 60):
        data = run_json(image, entries, tmp_path / f"t{timeout}.json",
                        extra=["--timeout", str(timeout)])
        data.pop("timestamp")
        assert data["config"].pop("timeout") == timeout
        assert [s for fn in data["functions"] for s in fn["statuses"]] == \
            ["COMPLETE"] * 2
        bodies.append(json.dumps(data))
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


def test_signature_dir_spelling_leaves_the_report_alone(workspace, tmp_path,
                                                         monkeypatch):
    # the report depends on the signatures read, not on how their
    # directory was named
    root, image, entries = workspace
    assert main(["--dump-signatures", str(tmp_path / "sigs")]) == 0
    monkeypatch.chdir(tmp_path)
    bodies = []
    for spelling in ("sigs", "./sigs/", str(tmp_path / "sigs")):
        data = run_json(image, entries, root / "spelling.json",
                        extra=["--signatures", spelling])
        data.pop("timestamp")
        bodies.append(json.dumps(data, indent=2))
    assert bodies[0] == bodies[1] == bodies[2]


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
    # not finite: the report would hold NaN or Infinity, which is not JSON
    for timeout in ("nan", "inf", "1e309", "-inf", "0", "-1"):
        assert main(["--image", str(image), "--entries", str(entries),
                     "--timeout", timeout]) == 1, timeout
    assert main(["--no-such-flag"]) == 1
    capsys.readouterr()


def test_io_errors_exit_2(workspace, tmp_path, capsys):
    root, image, entries = workspace
    errors = []

    def fails(*argv) -> str:
        assert main(list(argv)) == 2
        errors.append(capsys.readouterr().err)
        return errors[-1]

    fails("--image", str(tmp_path / "missing.bin"), "--entries", str(entries))
    fails("--image", str(image), "--entries", str(tmp_path / "missing.txt"))
    assert str(image) in fails("--image", str(image), "--elf")
    fails("--image", str(image), "--entries", str(entries),
          "--out", str(tmp_path / "no" / "dir" / "x.json"))
    # an arity error and a file that is not UTF-8 in a signature
    # directory: the message names the bad file, not its good sibling
    arity = b"IDENTIFIER bad\nVARIANT v\nx: XOR(1);\n"
    for name, body in (("arity", arity), ("utf16", b"\xff\xfe")):
        sigdir = tmp_path / name
        sigdir.mkdir()
        (sigdir / "good.sig").write_text(signature_source("xtea"))
        (sigdir / "bad.sig").write_bytes(body)
        err = fails("--image", str(image), "--entries", str(entries),
                    "--signatures", str(sigdir))
        assert str(sigdir / "bad.sig") in err
        assert "good.sig" not in err
    # a malformed line and a line that is not UTF-8 in the entry file
    for name, body in (("bad.txt", b"xyz\n"),
                       ("binary.txt", b"0x0\n\xff\n")):
        path = tmp_path / name
        path.write_bytes(body)
        assert str(path) in fails("--image", str(image),
                                  "--entries", str(path))
    assert not any("Traceback" in err for err in errors)


def test_entry_above_32_bits_exits_2(workspace, tmp_path, capsys):
    _root, image, _entries = workspace
    path = tmp_path / "high.txt"
    path.write_text("0x0\n0x100000000\n")
    assert main(["--image", str(image), "--entries", str(path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err
    assert "MALFORMED_LINE(2)" in err
    path.write_text("0xffffffff\n")
    assert report.load_entries(path) == [0xffffffff]


def test_entry_with_a_unicode_blank_exits_2(workspace, tmp_path, capsys):
    # str.strip() would take each of these as 0x10; only ASCII blanks
    # may surround an entry, as `--base` takes none
    _root, image, _entries = workspace
    path = tmp_path / "blank.txt"
    for line in ("\u30000x10", "\x1c0x10", "0x10\u0085", "0x10\u00a0"):
        path.write_text(f"0x0\n{line}\n", encoding="utf-8")
        assert main(["--image", str(image), "--entries", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "MALFORMED_LINE(2)" in err, repr(line)
    path.write_text(" \t0x10\v\f # ASCII blanks\r\n")
    assert report.load_entries(path) == [0x10]


def test_base_above_32_bits_exits_1(workspace, capsys):
    _root, image, entries = workspace
    assert main(["--image", str(image), "--entries", str(entries),
                 "--base", "100000000"]) == 1
    assert "--base" in capsys.readouterr().err


def test_base_reads_only_ascii_hex(workspace, capsys):
    root, image, entries = workspace
    # int(text, 16) reads every one of these as a number
    for base in ("+0", "-0", "0_0", "0x_0", " 0", "\uff10", "\u0660"):
        assert main(["--image", str(image), "--entries", str(entries),
                     "--base", base]) == 1, base
        assert "--base" in capsys.readouterr().err
    for base in ("0", "0x0", "0X00"):
        data = run_json(image, entries, root / "base.json",
                        extra=["--base", base])
        assert data["functions"][0]["entry"] == "0x0"


def test_image_ending_past_32_bits_exits_1(workspace, tmp_path, capsys):
    _root, image, _entries = workspace
    size = len(image.read_bytes())
    entries = tmp_path / "entries.txt"
    for base, code in ((2**32 - size + 4, 1), (2**32 - size, 0)):
        entries.write_text(f"{base:#x}\n")
        assert main(["--image", str(image), "--entries", str(entries),
                     "--base", f"{base:x}",
                     "--out", str(tmp_path / "out.json")]) == code
    assert "past 2^32" in capsys.readouterr().err


def test_cold_import_loads_no_metadata_elf_or_assembler():
    # -I -S: no environment variable, user site or site hook preloads
    # a module, so the list is what importing the CLI itself loads
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import wherescrypto.cli; print(sorted(sys.modules))")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code, src],
                         capture_output=True, text=True, check=True).stdout
    loaded = set(ast.literal_eval(out))
    assert "wherescrypto.report" in loaded
    assert "wherescrypto.siglib" in loaded
    assert not loaded & {"importlib.metadata", "wherescrypto.elf",
                         "wherescrypto.asm", "importlib.resources",
                         "tempfile", "shutil"}


def test_empty_entry_file_runs_clean(workspace, tmp_path):
    _root, image, _entries = workspace
    empty = tmp_path / "none.txt"
    empty.write_text("# nothing\n")
    out = tmp_path / "empty.json"
    data = run_json(image, empty, out)
    assert data["functions"] == []
    assert data["totals"]["functions"] == 0


def test_unusable_signature_path_exits_2(workspace, tmp_path, capsys):
    # each of these used to scan with an empty catalog and exit 0
    _root, image, entries = workspace
    plain = tmp_path / "plain.sig"
    plain.write_text(signature_source("nlfsr"))
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "notes.txt").write_text("no signatures here")
    for path in (tmp_path / "missing", plain, empty):
        assert main(["--image", str(image), "--entries", str(entries),
                     "--signatures", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err
        assert "Traceback" not in err


@pytest.fixture
def fresh_catalog():
    # the built-in documents, and the graphs built from their variants,
    # live as long as the process; start and end with none of them kept
    siglib.load_builtin.cache_clear()
    yield
    siglib.load_builtin.cache_clear()


def _spy(monkeypatch, owner, attr: str) -> list:
    """Replaces owner.attr with a wrapper that records (args, result)
    of each call, and returns the record."""
    calls = []
    original = getattr(owner, attr)

    def spy(*args):
        result = original(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(owner, attr, spy)
    return calls


def test_catalog_parsed_and_built_once_per_process(workspace, fresh_catalog,
                                                   monkeypatch):
    root, image, entries = workspace
    parsed = _spy(monkeypatch, siglib, "parse")
    built = _spy(monkeypatch, sigdsl, "_build")
    loads = _spy(monkeypatch, cli, "load_catalog")
    builds = _spy(monkeypatch, report, "build_variant")
    first = run_json(image, entries, root / "once-a.json")
    second = run_json(image, entries, root / "once-b.json")
    catalog = siglib.load_catalog()
    variants = [v for doc in catalog.values() for v in doc.variants]
    # each document parsed once, each variant built once ...
    assert sorted(doc.identifier for _, doc in parsed) == \
        sorted(doc.identifier for doc in catalog.values())
    assert [args[0] for args, _ in built] == variants
    # ... while every scan still loads the catalog and asks for every
    # variant, and gets the same objects
    assert len(loads) == 2
    assert loads[0][1] == loads[1][1] == catalog
    assert loads[0][1] is not loads[1][1]
    assert len(builds) == 2 * len(variants)
    assert [id(sig) for _, sig in builds] == \
        2 * [id(sig) for _, sig in built]
    first.pop("timestamp")
    second.pop("timestamp")
    assert first == second


def test_signature_dir_reread_on_every_scan(workspace, tmp_path, capsys):
    _root, image, entries = workspace
    sigdir = tmp_path / "sigs"
    sigdir.mkdir()
    doc = sigdir / "shift.sig"
    doc.write_text(signature_source("nlfsr"))
    data = run_json(image, entries, tmp_path / "a.json",
                    extra=["--signatures", str(sigdir)])
    (before,) = data["functions"][0]["signatures"]
    assert before["matched"] is True
    doc.write_text("IDENTIFIER edited\nVARIANT v\n"
                   "x: XOR(OPAQUE, 0x9e3779b9);\n")
    data = run_json(image, entries, tmp_path / "b.json",
                    extra=["--signatures", str(sigdir)])
    (after,) = data["functions"][0]["signatures"]
    assert (after["identifier"], after["matched"]) == ("edited", False)
    doc.write_text("IDENTIFIER broken\nVARIANT v\nx: XOR(1);\n")
    for _ in range(2):
        assert main(["--image", str(image), "--entries", str(entries),
                     "--signatures", str(sigdir)]) == 2
        assert str(doc) in capsys.readouterr().err
