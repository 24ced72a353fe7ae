"""Minimal ELF32 reader: PT_LOAD segments into a flat image, plus
function symbols from .symtab.

Only what the analysis front end needs; no relocation, no dynamic
linking.  Anything structurally off raises ElfError: a header, segment
or symbol table that lies outside the file, a segment whose file size
exceeds its memory size, loadable segments spanning more than
MAX_IMAGE_SPAN bytes from the lowest to the highest address, or a
segment that ends past the 32-bit address space.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

# The flat image is allocated in one piece, so its size is capped
# before anything is allocated: 256 MiB.
MAX_IMAGE_SPAN = 1 << 28

_PROGRAM_HEADER = struct.Struct("<IIIIII")
_SECTION_HEADER = struct.Struct("<10I")
_SYMBOL = struct.Struct("<IIIBBH")


class ElfError(Exception):
    pass


@dataclass
class LoadedImage:
    """The loadable segments as one flat image at `base`, with the
    symbol table's addresses by name."""

    image: bytes
    base: int
    symbols: dict[str, int] = field(default_factory=dict)
    functions: dict[str, int] = field(default_factory=dict)


def _unpack(record: struct.Struct, data: bytes, offset: int,
            what: str) -> tuple:
    if offset + record.size > len(data):
        raise ElfError(f"{what} outside file")
    return record.unpack_from(data, offset)


def load_elf(data: bytes) -> LoadedImage:
    if len(data) < 52 or data[:4] != b"\x7fELF":
        raise ElfError("not an ELF file")
    if data[4] != 1:
        raise ElfError("not ELF32")
    if data[5] != 1:
        raise ElfError("not little-endian")
    (e_phoff, e_shoff) = struct.unpack_from("<II", data, 28)
    (e_phentsize, e_phnum, e_shentsize, e_shnum) = struct.unpack_from(
        "<HHHH", data, 42)

    segments = []
    for i in range(e_phnum):
        (p_type, p_offset, p_vaddr, _p_paddr, p_filesz,
         p_memsz) = _unpack(_PROGRAM_HEADER, data,
                            e_phoff + i * e_phentsize, "program header")
        if p_type == 1 and p_memsz:                 # PT_LOAD
            segments.append((p_vaddr, p_offset, p_filesz, p_memsz))
    if not segments:
        raise ElfError("no loadable segments")

    base = min(s[0] for s in segments)
    top = max(s[0] + s[3] for s in segments)
    if top - base > MAX_IMAGE_SPAN:
        raise ElfError(f"loadable segments span {top - base:#x} bytes, "
                       f"limit {MAX_IMAGE_SPAN:#x}")
    if top > 1 << 32:
        raise ElfError(f"loadable segments end at {top:#x}, past 2^32")
    for _vaddr, offset, filesz, memsz in segments:
        if offset + filesz > len(data):
            raise ElfError("segment outside file")
        if filesz > memsz:
            raise ElfError("segment file size exceeds its memory size")
    image = bytearray(top - base)
    for vaddr, offset, filesz, _memsz in segments:
        image[vaddr - base:vaddr - base + filesz] = \
            data[offset:offset + filesz]

    loaded = LoadedImage(bytes(image), base)
    _read_symbols(data, e_shoff, e_shentsize, e_shnum, loaded)
    return loaded


def _read_symbols(data: bytes, e_shoff: int, e_shentsize: int,
                  e_shnum: int, loaded: LoadedImage) -> None:
    sections = []
    for i in range(e_shnum):
        (_name, sh_type, _flags, _addr, sh_offset, sh_size, sh_link,
         _info, _align, sh_entsize) = _unpack(
            _SECTION_HEADER, data, e_shoff + i * e_shentsize,
            "section header")
        sections.append((sh_type, sh_offset, sh_size, sh_link,
                         sh_entsize))
    for sh_type, sh_offset, sh_size, sh_link, sh_entsize in sections:
        if sh_type != 2:                            # SHT_SYMTAB
            continue
        if not (0 <= sh_link < len(sections)):
            continue
        if sh_entsize < _SYMBOL.size:
            raise ElfError("symbol table entries too small")
        str_off, str_size = sections[sh_link][1], sections[sh_link][2]
        strtab = data[str_off:str_off + str_size]
        for i in range(sh_size // sh_entsize):
            (st_name, st_value, _size, st_info, _other,
             st_shndx) = _unpack(_SYMBOL, data, sh_offset + i * sh_entsize,
                                 "symbol")
            if st_shndx == 0 or st_name >= len(strtab):
                continue
            end = strtab.find(b"\0", st_name)
            if end < 0:                             # last name, no NUL
                end = len(strtab)
            name = strtab[st_name:end].decode("utf-8", "replace")
            if not name:
                continue
            address = st_value & ~1                 # clear thumb bit
            loaded.symbols[name] = address
            if st_info & 0xF == 2:                  # STT_FUNC
                loaded.functions[name] = address
