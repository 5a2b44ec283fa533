"""The committed table and the generator in `augmentation.py` that wrote it,
complements and class columns included.

The generator's canonical labeling, the repository's only canonical search
apart from the reference in `full_refine.py`, and its automorphism
generators are tested in `test_graph.py` and `test_properties.py`; the
complements column in `test_graph.py`."""

import struct
import zlib

import pytest

import augmentation as aug
from mpart import graph as gr
from mpart.errors import InternalError


class TestTable:
    def test_the_committed_table_is_the_augmentations(self):
        for split, top in ((False, gr.MAX_ENUM_ALL), (True, gr.MAX_ENUM_SPLIT)):
            for n in range(top + 1):
                want = aug.generate(n, split)
                if n:
                    assert gr._section(n, split) == (aug.section(n, split), len(want[0]))
                # graph by graph, deck by deck, order by order, and every
                # complement, each built through the section's accessors
                assert aug.decoded(n, split) == want
                # the class bytes, rebuilt by the recognizers
                assert gr.generation(n, split).classes == aug.classes(n, split)
        # byte for byte, from the sections rebuilt above: the table holds no
        # compressor's output, which may differ between zlib builds
        assert aug.table() == aug.TABLE.read_bytes()

    def test_the_header_covers_the_file(self):
        data = aug.TABLE.read_bytes()
        ends = struct.unpack_from(f"<{gr._SECTIONS}I", data)
        assert list(ends) == sorted(ends) and ends[0] > 12 * gr._SECTIONS
        assert ends[-1] == len(data)
        crcs = struct.unpack_from(f"<{gr._SECTIONS}I", data, 8 * gr._SECTIONS)
        starts = (12 * gr._SECTIONS,) + ends[:-1]
        assert [zlib.crc32(data[a:b]) for a, b in zip(starts, ends)] == list(crcs)

    def test_a_flipped_byte_in_any_section_is_refused(self, tmp_path, monkeypatch):
        # CRC-32 detects every error within 32 consecutive bits, so one
        # flipped byte anywhere in a section, here its first, middle or
        # last, fails the check before the section is decoded
        data = aug.TABLE.read_bytes()
        ends = struct.unpack_from(f"<{gr._SECTIONS}I", data)
        starts = (12 * gr._SECTIONS,) + ends[:-1]
        table = tmp_path / "generation.bin"
        monkeypatch.setattr(gr, "_TABLE", str(table))
        keys = [(n, False) for n in range(1, gr.MAX_ENUM_ALL + 1)]
        keys += [(n, True) for n in range(1, gr.MAX_ENUM_SPLIT + 1)]
        for (n, split), a, b in zip(keys, starts, ends):
            for at in {a, (a + b) // 2, b - 1}:
                damaged = bytearray(data)
                damaged[at] ^= 0xFF
                table.write_bytes(damaged)
                with pytest.raises(InternalError, match="generation.bin.*CRC-32"):
                    gr._section(n, split)
