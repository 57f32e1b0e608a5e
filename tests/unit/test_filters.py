"""Unit tests for bloom filters and prefix bloom filters."""

import random

import pytest

from repro.errors import ConfigError
from repro.index.base import TOP
from repro.index.filters import BloomFilter, PrefixBloomFilter, digest
from repro.storage.keycodec import encode_key


class TestBloomFilter:
    def test_no_false_negatives(self):
        bf = BloomFilter(1000, 0.02)
        keys = [encode_key((i,)) for i in range(1000)]
        for k in keys:
            bf.add(k)
        assert all(bf.may_contain(k) for k in keys)

    def test_false_positive_rate_near_target(self):
        bf = BloomFilter(2000, 0.02)
        for i in range(2000):
            bf.add(encode_key((i,)))
        fp = sum(1 for i in range(2000, 12000)
                 if bf.may_contain(encode_key((i,))))
        assert fp / 10000 < 0.06   # generous bound over the 2% target

    def test_size_scales_with_items(self):
        small = BloomFilter(100, 0.02)
        large = BloomFilter(10000, 0.02)
        assert large.size_bytes > small.size_bytes

    def test_size_scales_with_precision(self):
        loose = BloomFilter(1000, 0.1)
        tight = BloomFilter(1000, 0.001)
        assert tight.size_bytes > loose.size_bytes

    def test_invalid_fpr_rejected(self):
        with pytest.raises(ConfigError):
            BloomFilter(100, 1.5)

    def test_effectiveness_counters(self):
        bf = BloomFilter(100, 0.02)
        bf.add(b"present")
        assert bf.query(b"present")
        bf.report_pass_outcome(True)
        assert not bf.query(b"absent-key-123456")
        stats = bf.stats
        assert stats.queries == 2
        assert stats.positives == 1
        assert stats.negatives == 1
        assert stats.negative_rate == 0.5

    def test_false_positive_counter(self):
        bf = BloomFilter(10, 0.02)
        bf.add(b"x")
        # force a reported false positive
        assert bf.query(b"x")
        bf.report_pass_outcome(False)
        assert bf.stats.false_positives == 1

    def test_zero_items_tolerated(self):
        bf = BloomFilter(0, 0.02)
        assert not bf.may_contain(b"anything")


class TestPrefixBloomFilter:
    def test_gates_by_prefix(self):
        pbf = PrefixBloomFilter(100, 0.1, 2)
        pbf.add_digest(*digest(encode_key((1, 5))))
        assert pbf.query(encode_key((1, 5)))
        assert not pbf.query(encode_key((2, 9)))

    def test_applicable_requires_fixed_prefix(self):
        pbf = PrefixBloomFilter(100, 0.1, 2)
        assert pbf.applicable((1, 5, 0), (1, 5, 99)) == (1, 5)
        assert pbf.applicable((1, 5), (1, 6)) is None
        assert pbf.applicable(None, (1, 5)) is None
        assert pbf.applicable((1,), (1, 5)) is None

    def test_scan_probe_is_the_encoded_fixed_prefix(self):
        pbf = PrefixBloomFilter(100, 0.1, 2)
        pbf.add_digest(*digest(encode_key((1, 5))))
        probe = pbf.scan_probe((1, 5), (1, 5, TOP))
        assert probe == encode_key((1, 5))
        assert pbf.query(probe) and pbf.stats.queries == 1
        assert pbf.scan_probe((1, 5), (1, 6)) is None
        # a bound-only sentinel inside the prefix gates nothing
        assert pbf.scan_probe((1, TOP), (1, TOP)) is None

    def test_invalid_prefix_columns(self):
        with pytest.raises(ConfigError):
            PrefixBloomFilter(100, 0.1, 0)

    def test_paper_figure13_shape(self):
        """Point filter ~2% FP; negatives dominate for absent prefixes."""
        rng = random.Random(7)
        bf = BloomFilter(5000, 0.02)
        present = set(rng.sample(range(100000), 5000))
        for k in present:
            bf.add(encode_key((k,)))
        negatives = positives = 0
        for probe in rng.sample(range(100000), 20000):
            if bf.query(encode_key((probe,))):
                bf.report_pass_outcome(probe in present)
                positives += 1
            else:
                negatives += 1
        stats = bf.stats
        assert stats.negative_rate > 0.7          # paper: 81.8% negatives
        assert stats.false_positive_rate < 0.05   # paper: 0.6% FP
