"""Tests for repro.trace.blocks (request-to-block expansion, block views)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import collecting
from repro.trace import VolumeTrace
from repro.trace.blocks import (
    adjacent_pairs,
    block_range,
    block_view,
    expand_to_blocks,
    stable_order,
)

from conftest import make_trace

BS = 4096


class TestBlockRange:
    def test_aligned_single_block(self):
        assert block_range(0, BS, BS) == (0, 1)

    def test_aligned_multi_block(self):
        assert block_range(BS, 3 * BS, BS) == (1, 3)

    def test_unaligned_spans_extra_block(self):
        # 512 bytes starting 512 before a boundary touch one block;
        # starting ON the boundary minus 256 touches two.
        assert block_range(BS - 256, 512, BS) == (0, 2)

    def test_one_byte(self):
        assert block_range(BS, 1, BS) == (1, 1)

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            block_range(0, 0, BS)


class TestExpandToBlocks:
    def test_empty(self):
        req, blk, nb = expand_to_blocks(np.array([]), np.array([]))
        assert len(req) == len(blk) == len(nb) == 0

    def test_single_aligned_request(self):
        req, blk, nb = expand_to_blocks(np.array([BS]), np.array([2 * BS]))
        assert list(req) == [0, 0]
        assert list(blk) == [1, 2]
        assert list(nb) == [BS, BS]

    def test_partial_first_and_last_block(self):
        req, blk, nb = expand_to_blocks(np.array([BS // 2]), np.array([BS]))
        assert list(blk) == [0, 1]
        assert list(nb) == [BS // 2, BS // 2]
        assert nb.sum() == BS

    def test_bytes_conserved(self):
        offsets = np.array([0, 100, BS * 7 + 13])
        sizes = np.array([BS * 3, 50, BS * 2 + 1])
        _, _, nb = expand_to_blocks(offsets, sizes)
        assert nb.sum() == sizes.sum()

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10**9),
                st.integers(min_value=1, max_value=10**6),
            ),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_property_bytes_and_ranges(self, reqs):
        offsets = np.array([o for o, _ in reqs], dtype=np.int64)
        sizes = np.array([s for _, s in reqs], dtype=np.int64)
        req_idx, blk, nb = expand_to_blocks(offsets, sizes)
        # Total bytes conserved.
        assert nb.sum() == sizes.sum()
        # Every per-block byte count is within (0, block_size].
        assert (nb > 0).all() and (nb <= BS).all()
        # Each request's blocks form a contiguous ascending run covering
        # exactly its byte range.
        for i, (o, s) in enumerate(reqs):
            mask = req_idx == i
            blocks = blk[mask]
            assert (np.diff(blocks) == 1).all()
            assert blocks[0] == o // BS
            assert blocks[-1] == (o + s - 1) // BS
            assert nb[mask].sum() == s


class TestBlockEvents:
    def test_event_ordering_follows_requests(self):
        tr = make_trace(
            timestamps=[0.0, 1.0],
            offsets=[0, 0],
            sizes=[2 * BS, BS],
            is_write=[True, False],
        )
        view = block_view(tr)
        assert list(view.block_id) == [0, 1, 0]
        assert list(view.is_write) == [True, True, False]
        assert list(view.timestamps) == [0.0, 0.0, 1.0]
        assert list(view.req_index) == [0, 0, 1]

    def test_reads_writes_views(self):
        tr = make_trace(is_write=[True, False, True, False])
        reads, writes = block_view(tr).access_counts
        assert reads.sum() == 2
        assert writes.sum() == 2


class TestAggregates:
    def test_unique_blocks(self):
        tr = make_trace(offsets=[0, 0, BS, 2 * BS], sizes=[BS] * 4)
        view = block_view(tr)
        assert list(view.block_id[view.order[view.run_starts]]) == [0, 1, 2]

    def test_working_set_size(self):
        tr = make_trace(offsets=[0, 0, BS, 2 * BS], sizes=[BS] * 4)
        assert len(block_view(tr).run_starts) * BS == 3 * BS

    def test_block_traffic_split_by_op(self):
        tr = make_trace(
            offsets=[0, 0, BS, 0],
            sizes=[BS, BS, BS, BS],
            is_write=[True, False, True, True],
        )
        view = block_view(tr)
        rd, wr = view.traffic
        assert list(view.block_id[view.order[view.run_starts]]) == [0, 1]
        assert list(rd) == [BS, 0]
        assert list(wr) == [2 * BS, BS]

    def test_block_traffic_empty(self):
        view = block_view(VolumeTrace.empty("v"))
        rd, wr = view.traffic
        assert len(view.run_starts) == len(rd) == len(wr) == 0
        assert [len(a) for a in (*view.pairs, *view.write_pairs, view.previous)] == [0] * 5


class TestBlockView:
    def test_order_groups_blocks_in_stream_order(self):
        # Requests 0 and 2 share timestamp 1.0 and block 0; the later
        # request index comes second.
        tr = make_trace(
            timestamps=[1.0, 1.0, 1.0, 2.0],
            offsets=[0, BS, 0, BS],
            sizes=[BS, BS, BS, BS],
            is_write=[False, True, True, False],
        )
        view = block_view(tr)
        assert list(view.req_index[view.order]) == [0, 2, 1, 3]
        assert list(view.run_starts) == [0, 2]
        assert [list(a) for a in view.pairs] == [[0, 1], [2, 3]]
        assert [list(a) for a in view.write_pairs] == [[], []]
        assert list(view.previous) == [-1, -1, 0, 1]

    def test_write_pairs_skip_reads(self):
        tr = make_trace(
            timestamps=[0.0, 1.0, 2.0], offsets=[0, 0, 0], sizes=[BS] * 3,
            is_write=[True, False, True],
        )
        assert [list(a) for a in block_view(tr).write_pairs] == [[0], [2]]

    def test_adjacent_pairs_of_a_subsequence(self):
        blocks = np.array([5, 3, 5, 3, 5])
        assert [list(a) for a in adjacent_pairs(blocks, np.array([1, 3, 0, 4]))] == [[1, 0], [3, 4]]

    def test_order_falls_back_when_block_ids_are_too_wide_to_pack(self):
        """Offsets near 0 and near 2^62 leave no room for the position bits
        of 9600 accesses; the order and previous accesses stay exact."""
        rng = np.random.default_rng(4)
        n = 600
        near_top = rng.random(n) < 0.5
        offsets = np.where(near_top, 2**62, 0) + rng.integers(0, 64, n) * BS
        tr = make_trace(timestamps=np.arange(n, dtype=float), offsets=offsets,
                        sizes=[16 * BS] * n, is_write=[False] * n)
        view = block_view(tr)
        span = int(view.block_id.max() - view.block_id.min())
        assert span >> (63 - (len(view) - 1).bit_length()) != 0
        assert view.order.tolist() == np.argsort(view.block_id, kind="stable").tolist()
        last, previous = {}, []
        for i, b in enumerate(view.block_id.tolist()):
            previous.append(last.get(b, -1))
            last[b] = i
        assert view.previous.tolist() == previous

    @given(
        values=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=200),
        dtype=st.sampled_from(["int64", "int32", "int8", "uint8", "uint32", "uint64", "bool",
                               "float64"]),
        small=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_stable_order_is_the_stable_argsort(self, values, dtype, small):
        """Packed or not, the order is ``argsort(kind="stable")``."""
        values = np.array(values, dtype=object)
        if small:
            values = values % 7
        arr = values.astype(np.float64 if dtype == "float64" else np.int64)
        if dtype not in ("int64", "float64"):
            arr = arr.astype(dtype)
        got = stable_order(arr)
        assert got.dtype == np.int64
        assert got.tolist() == np.argsort(arr, kind="stable").tolist()

    @pytest.mark.parametrize("n", [2, 3, 5, 200])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_stable_order_at_the_key_width(self, n, extra):
        """A span of 2^(63 - bits) - 1 packs into the largest int64 key;
        one more would wrap, so it takes the argsort."""
        span = 2 ** (63 - (n - 1).bit_length()) - 1 + extra
        values = np.array([span - 2**61] + [-(2**61)] * (n - 1), dtype=np.int64)
        assert stable_order(values).tolist() == list(range(1, n)) + [0]

    def test_expansions_counted_once_per_nonempty_stream(self):
        tr = make_trace(timestamps=[0.0, 1.0], offsets=[0, BS], sizes=[BS, 2 * BS])
        with collecting() as reg:
            view = block_view(tr)
            view.traffic, view.pairs, view.previous
            block_view(VolumeTrace.empty("v"))
        assert reg.counter("trace.blocks.expansions").value == 1
