"""Property tests: bloom filters never produce false negatives."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.filters import BloomFilter, PrefixBloomFilter, digest
from repro.storage.keycodec import encode_key


@settings(max_examples=60, deadline=None)
@given(st.lists(st.binary(min_size=1, max_size=30), max_size=200),
       st.floats(min_value=0.001, max_value=0.5))
def test_no_false_negatives(items, fpr):
    bf = BloomFilter(max(1, len(items)), fpr)
    for item in items:
        bf.add(item)
    assert all(bf.may_contain(item) for item in items)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 100), st.integers(0, 100),
                          st.integers(0, 1000)), max_size=150),
       st.integers(min_value=1, max_value=2))
def test_prefix_filter_no_false_negatives(keys, prefix_columns):
    pbf = PrefixBloomFilter(max(1, len(keys)), 0.1, prefix_columns)
    for key in keys:
        pbf.add_digest(*digest(encode_key(key[:prefix_columns])))
    for key in keys:
        # any range pinned to the key's prefix probes an encoding it added
        assert pbf.query(pbf.scan_probe(key, key))


@settings(max_examples=30, deadline=None)
@given(st.sets(st.integers(0, 10 ** 6), min_size=1, max_size=300))
def test_query_counters_consistent(items):
    bf = BloomFilter(len(items), 0.02)
    for item in items:
        bf.add(encode_key((item,)))
    probes = list(items)[:50] + list(range(-50, 0))
    for probe in probes:
        if bf.query(encode_key((probe,))):
            bf.report_pass_outcome(probe in items)
    stats = bf.stats
    assert stats.queries == len(probes)
    assert stats.negatives + stats.positives + stats.false_positives \
        == stats.queries
    assert stats.false_positives == 0 or min(probes) < 0
