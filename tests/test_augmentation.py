"""The committed table and the generator in `augmentation.py` that wrote it,
complements and class columns included.

The generator's canonical labeling, the repository's only canonical search
apart from the reference in `full_refine.py`, and its automorphism
generators are tested in `test_graph.py` and `test_properties.py`; the
complements column in `test_graph.py`."""

import struct

import augmentation as aug
from mpart import graph as gr


class TestTable:
    def test_the_committed_table_is_the_augmentations(self):
        # payloads, not compressed bytes: zlib's output may differ between
        # zlib builds
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

    def test_the_header_covers_the_file(self):
        data = aug.TABLE.read_bytes()
        ends = struct.unpack_from(f"<{gr._SECTIONS}I", data)
        assert list(ends) == sorted(ends) and ends[0] > 8 * gr._SECTIONS
        assert ends[-1] == len(data)
