"""Property tests: a partition's filter block round-trips, and any damaged
byte is refused with a typed error (DESIGN.md §9.3)."""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.errors import FilterBlockError
from repro.index.filters import (BloomFilter, PartitionFilters,
                                 PrefixBloomFilter, ZoneMapBuilder,
                                 decode_filter_block, digest,
                                 filter_block_pages)
from repro.storage.keycodec import encode_key

keys_st = st.lists(st.tuples(st.integers(0, 50), st.integers(0, 10 ** 6)),
                   min_size=1, max_size=300)
pages_st = st.lists(st.tuples(st.integers(0, 2 ** 40), st.integers(0, 2 ** 20),
                              st.booleans(), st.integers(0, 8192)),
                    max_size=40)


def build(keys, pages, with_bloom, with_prefix, with_zone) -> PartitionFilters:
    bloom = prefix = zone = None
    if with_bloom:
        bloom = BloomFilter(len(keys), 0.02)
        for key in keys:
            bloom.add(encode_key(key))
    if with_prefix:
        prefix = PrefixBloomFilter(len(keys), 0.1, 1)
        for key in keys:
            prefix.add_digest(*digest(encode_key(key[:1])))
    if with_zone:
        builder = ZoneMapBuilder()
        for lo, spread, pure, nbytes in pages:
            builder.add_page(lo, lo + spread, pure, nbytes)
        zone = builder.build()
    return PartitionFilters(bloom, prefix, zone)


def states(filters: PartitionFilters) -> tuple:
    return tuple(None if f is None else f.to_state() for f in filters)


@settings(max_examples=60, deadline=None)
@given(keys_st, pages_st, st.booleans(), st.booleans(), st.booleans(),
       st.integers(min_value=32, max_value=8192))
def test_filter_block_round_trips(keys, pages, with_bloom, with_prefix,
                                  with_zone, page_size):
    filters = build(keys, pages, with_bloom, with_prefix, with_zone)
    images = filter_block_pages(filters, page_size)
    assert all(len(image) <= page_size for image in images)
    back = decode_filter_block(images)
    assert states(back) == states(filters)
    if back.prefix_bloom is not None:
        assert back.prefix_bloom.prefix_columns == 1


@settings(max_examples=60, deadline=None)
@given(keys_st, pages_st, st.integers(min_value=32, max_value=1024),
       st.data())
def test_a_damaged_byte_is_refused(keys, pages, page_size, data):
    images = filter_block_pages(build(keys, pages, True, True, True),
                                page_size)
    page = data.draw(st.integers(0, len(images) - 1))
    pos = data.draw(st.integers(0, len(images[page]) - 1))
    flip = data.draw(st.integers(1, 255))
    damaged = bytearray(images[page])
    damaged[pos] ^= flip
    images[page] = bytes(damaged)
    with pytest.raises(FilterBlockError):
        decode_filter_block(images)


@settings(max_examples=30, deadline=None)
@given(keys_st, st.integers(min_value=32, max_value=512))
def test_a_lost_or_torn_page_is_refused(keys, page_size):
    images = filter_block_pages(build(keys, [], True, True, True), page_size)
    with pytest.raises(FilterBlockError):
        decode_filter_block(images[:-1])
    with pytest.raises(FilterBlockError):
        decode_filter_block(images[:-1] + [object()])
