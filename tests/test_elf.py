"""ELF32 loader: a well-formed file loads, and a malformed one ends in
ElfError (exit code 2 through the CLI), never another exception or an
allocation sized by an unchecked header field."""

import struct
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wherescrypto import elf
from wherescrypto.cli import main
from wherescrypto.elf import ElfError, load_elf

TEXT = bytes(range(16))
VADDR = 0x8000


def elf_header(phoff: int, phnum: int, shoff: int = 0,
               shnum: int = 0) -> bytes:
    ident = b"\x7fELF" + bytes([1, 1, 1]) + bytes(9)
    return ident + struct.pack("<HHIIIIIHHHHHH", 2, 40, 1, VADDR, phoff,
                               shoff, 0, 52, 32, phnum, 40, shnum, 0)


def program_header(offset: int, vaddr: int, filesz: int,
                   memsz: int) -> bytes:
    return struct.pack("<8I", 1, offset, vaddr, vaddr, filesz, memsz, 5, 4)


def section_header(sh_type: int, offset: int, size: int, link: int = 0,
                   entsize: int = 0) -> bytes:
    return struct.pack("<10I", 0, sh_type, 0, 0, offset, size, link, 0, 4,
                       entsize)


def well_formed(strtab: bytes = b"\0func\0") -> bytes:
    """One PT_LOAD segment with 8 bytes of bss, and a symbol table
    naming one function at its start with the name at offset 1 of
    ``strtab``."""
    text_off = 52 + 32
    str_off = text_off + len(TEXT)
    sym_off = str_off + len(strtab)
    symtab = bytes(16) + struct.pack("<IIIBBH", 1, VADDR, len(TEXT), 0x12,
                                     0, 1)
    sh_off = sym_off + len(symtab)
    sections = (section_header(0, 0, 0)
                + section_header(2, sym_off, len(symtab), link=2,
                                 entsize=16)
                + section_header(3, str_off, len(strtab)))
    return (elf_header(52, 1, sh_off, 3)
            + program_header(text_off, VADDR, len(TEXT), len(TEXT) + 8)
            + TEXT + strtab + symtab + sections)


def test_well_formed_file_loads():
    loaded = load_elf(well_formed())
    assert loaded.base == VADDR
    assert loaded.image == TEXT + bytes(8)
    assert loaded.functions == {"func": VADDR}


def test_last_name_without_nul_is_read_to_the_end_of_the_table():
    loaded = load_elf(well_formed(b"\0funcX"))
    assert loaded.functions == {"funcX": VADDR}


def test_program_headers_past_end_of_file_exit_2(tmp_path, capsys):
    path = tmp_path / "short.elf"
    path.write_bytes(elf_header(0x1000, 1))
    assert main(["--image", str(path), "--elf"]) == 2
    assert "program header outside file" in capsys.readouterr().err


def test_section_headers_past_end_of_file_rejected():
    data = well_formed()
    shoff = struct.unpack_from("<I", data, 32)[0]
    with pytest.raises(ElfError, match="section header outside file"):
        load_elf(data[:shoff + 40])


def test_span_over_cap_rejected_before_allocation():
    over = elf.MAX_IMAGE_SPAN + 1
    data = elf_header(52, 1) + program_header(84, VADDR, 4, over) + bytes(4)
    with mock.patch.object(elf, "bytearray", create=True,
                           side_effect=AssertionError("allocated")):
        with pytest.raises(ElfError, match="limit"):
            load_elf(data)


def test_span_between_segments_counts_toward_cap():
    data = (elf_header(52, 2)
            + program_header(116, 0, 4, 4)
            + program_header(116, elf.MAX_IMAGE_SPAN, 4, 4)
            + bytes(4))
    with pytest.raises(ElfError, match="limit"):
        load_elf(data)


def test_segment_ending_past_32_bits_exits_2(tmp_path, capsys):
    path = tmp_path / "high.elf"
    path.write_bytes(elf_header(52, 1)
                     + program_header(84, 0xfffffff0, 4, 0x20) + bytes(4))
    assert main(["--image", str(path), "--elf"]) == 2
    assert "past 2^32" in capsys.readouterr().err


def test_file_size_beyond_memory_size_rejected():
    data = elf_header(52, 1) + program_header(84, VADDR, 8, 4) + bytes(8)
    with pytest.raises(ElfError, match="exceeds its memory size"):
        load_elf(data)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_mutated_headers_raise_only_elf_error(data):
    original = well_formed()
    mutated = bytearray(original)
    edits = data.draw(st.lists(
        st.tuples(st.integers(0, len(original) - 1), st.integers(0, 255)),
        min_size=1, max_size=8))
    for offset, value in edits:
        mutated[offset] = value
    cut = data.draw(st.integers(0, len(original)))
    # a small cap keeps every accepted image small
    with mock.patch.object(elf, "MAX_IMAGE_SPAN", 1 << 16):
        try:
            loaded = load_elf(bytes(mutated[:cut] if cut else mutated))
        except ElfError:
            return
    assert len(loaded.image) <= 1 << 16
