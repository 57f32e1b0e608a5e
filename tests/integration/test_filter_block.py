"""Each durable partition carries its own filter block (DESIGN.md §9.3).

The build writes the bloom, prefix bloom and zone map once, as trailing
pages of the run's last extent append; the manifest keeps only their page
numbers; recovery reads none of them, and a restored partition reads its
block past the buffer pool, one sequential request per run of contiguous
pages, the first time a query reaches one of its filters.  Pinned here: what a flip now holds (a 70 000-key index fits the
default slot), where the block goes, the exact requests its first use
makes, and the typed error a damaged block raises.
"""

from __future__ import annotations

import pytest

from repro.config import EngineConfig
from repro.core import partition as partition_module
from repro.core.tree import MVPBT
from repro.durability.manifest import encode_state
from repro.engine.database import Database
from repro.errors import FilterBlockError
from repro.storage.keycodec import encode_key
from repro.workloads.backend import as_backend

PER_PARTITION = 200


def small_db() -> Database:
    """A durable database with 512-byte pages (so a block spans several
    pages) and three partitions: ``a = 0, 1, 2``, even ``b`` only."""
    db = Database(EngineConfig(durability=True, page_size=512,
                               extent_pages=32, buffer_pool_pages=256,
                               partition_buffer_bytes=1 << 20))
    db.create_table("t", [("a", "int"), ("b", "int"), ("v", "str")], "sias")
    db.create_index("ix", "t", ["a", "b"], kind="mvpbt", unique=True)
    tree = tree_of(db)
    for a in range(3):
        txn = db.begin()
        for b in range(0, 2 * PER_PARTITION, 2):
            db.insert(txn, "t", (a, b, "x"))
        txn.commit()
        tree.evict_partition()
    return db


def tree_of(db: Database) -> MVPBT:
    return db.catalog.index("ix").mvpbt


def absent_key(db: Database) -> tuple[int, int]:
    """An odd ``b`` under ``a = 0`` that partition 0's bloom rejects."""
    bloom = tree_of(db).persisted_partitions[0].bloom
    assert bloom is not None
    return next((0, b) for b in range(1, 2 * PER_PARTITION, 2)
                if not bloom.may_contain(encode_key((0, b))))


class TestWrite:
    def test_the_default_slot_holds_a_70k_key_index(self) -> None:
        """The filters left the manifest: a flip of a 70 000-key index
        fits the default eight-page slot (with them it took nine)."""
        db = Database(EngineConfig(durability=True))
        assert db.config.manifest_slot_pages == 8
        db.create_table("t", [("id", "str"), ("v", "str")], "sias")
        db.create_index("ix", "t", ["id"], kind="mvpbt", unique=True,
                        max_partitions=8)
        backend = as_backend(db)
        backend.bulk_insert("t", [(f"user{i:010d}", "v")
                                  for i in range(70_000)])
        backend.flush_all()
        tree = tree_of(db)
        assert tree.partition_count >= 4
        assert db.durability is not None
        body = encode_state(db.durability.snapshot_state())
        assert len(body) < db.config.page_size
        recovered = Database.recover(db)
        txn = recovered.begin()
        assert recovered.select(txn, "ix", ("user0000069999",)) \
            == [("user0000069999", "v")]
        txn.commit()

    def test_the_block_rides_in_the_last_extent_write(self) -> None:
        db = small_db()
        tree = tree_of(db)
        file = tree.file
        for part in tree.persisted_partitions:
            run = part.run
            assert run.page_count + len(run.trailer_page_nos) <= 32
            assert len(run.trailer_page_nos) >= 2
            # one extent: leaves then the block, contiguous
            pages = run.page_nos + run.trailer_page_nos
            addresses = [file._addresses[n] for n in pages]
            assert addresses == [addresses[0] + i * file.page_size
                                 for i in range(len(pages))]
        # one extent write per eviction, the block included
        writes = file.physical_writes
        txn = db.begin()
        for b in range(0, 2 * PER_PARTITION, 2):
            db.insert(txn, "t", (3, b, "x"))
        txn.commit()
        tree.evict_partition()
        assert file.physical_writes - writes == 1

    def test_a_spilled_block_allocates_only_its_pages(self) -> None:
        """With one-page extents the last extent is always full: the block
        opens an extent sized to it, not a whole extent per page."""
        db = Database(EngineConfig(durability=True, page_size=512,
                                   extent_pages=1,
                                   partition_buffer_bytes=1 << 20))
        db.create_table("t", [("a", "int"), ("v", "str")], "sias")
        db.create_index("ix", "t", ["a"], kind="mvpbt")
        txn = db.begin()
        for a in range(100):
            db.insert(txn, "t", (a, "x"))
        txn.commit()
        tree = tree_of(db)
        part = tree.evict_partition()
        assert part is not None
        block = part.run.trailer_page_nos
        start = tree.file._addresses[block[0]]
        assert start in tree.file._extent_starts
        sizes = {a.offset: a.nbytes for a in db.device._allocations}
        assert sizes[start] == len(block) * 512

    def test_a_non_durable_tree_writes_no_block(self) -> None:
        db = Database(EngineConfig(page_size=512))
        db.create_table("t", [("a", "int"), ("v", "str")], "sias")
        db.create_index("ix", "t", ["a"], kind="mvpbt")
        txn = db.begin()
        for a in range(100):
            db.insert(txn, "t", (a, "x"))
        txn.commit()
        part = tree_of(db).evict_partition()
        assert part is not None
        assert part.run.trailer_page_nos == []
        assert part.bloom is not None and part.zone_map is not None

    def test_a_merge_frees_its_inputs_blocks(self) -> None:
        db = small_db()
        tree = tree_of(db)
        file = tree.file
        inputs = tree.persisted_partitions
        blocks = [n for p in inputs for n in p.run.trailer_page_nos]
        merged = tree.merge_partitions()
        assert merged is not None and merged.run.trailer_page_nos
        assert not any(file.has_contents(n) for n in blocks)
        assert all(p.run.trailer_page_nos == [] for p in inputs)


class TestFirstUse:
    def test_recovery_reads_no_block(self) -> None:
        db = small_db()
        recovered = Database.recover(db)
        for part in tree_of(recovered).persisted_partitions:
            assert part._filters is None
            assert part.run.trailer_page_nos

    def test_a_lookup_loads_the_block_once(self) -> None:
        """The first lookup that reaches a restored partition's bloom reads
        its block — two pages or more, inside one extent — with one
        sequential device read and no pool request; the second reads
        nothing."""
        db = small_db()
        key = absent_key(db)
        recovered = Database.recover(db)
        tree = tree_of(recovered)
        part = tree.persisted_partitions[0]
        block = len(part.run.trailer_page_nos)
        stats = recovered.pool.stats_for(tree.file)

        requests, reads = stats.requests, tree.file.physical_reads
        txn = recovered.begin()
        assert block >= 2
        assert recovered.select(txn, "ix", key) == []
        assert stats.requests - requests == 0
        assert tree.file.physical_reads - reads == 1
        # only the partition the lookup reached loaded its block
        assert [p._filters is not None
                for p in tree.persisted_partitions] == [True, False, False]

        requests, reads = stats.requests, tree.file.physical_reads
        assert recovered.select(txn, "ix", key) == []
        txn.commit()
        assert stats.requests - requests == 0
        assert tree.file.physical_reads - reads == 0
        assert not any(recovered.pool.contains(tree.file, n)
                       for n in part.run.trailer_page_nos)

    def test_a_scan_decodes_each_block_once(
            self, monkeypatch: pytest.MonkeyPatch) -> None:
        """A scan gates on the prefix bloom, then prunes by zone map: one
        block decode for both, and none for a second scan."""
        recovered = Database.recover(small_db())
        decoded: list[int] = []
        decode = partition_module.decode_filter_block

        def counted(pages: list[object]) -> object:
            decoded.append(len(pages))
            return decode(pages)

        monkeypatch.setattr(partition_module, "decode_filter_block",
                            counted)
        tree = tree_of(recovered)
        part = tree.persisted_partitions[1]
        stats = recovered.pool.stats_for(tree.file)
        txn = recovered.begin()
        requests = stats.requests
        rows = recovered.range_select(txn, "ix", (1, 0), (1, 10 ** 6))
        assert len(rows) == PER_PARTITION
        assert decoded == [len(part.run.trailer_page_nos)]
        assert part.zone_map is not None
        assert stats.requests - requests == part.run.page_count
        recovered.range_select(txn, "ix", (1, 0), (1, 10 ** 6))
        txn.commit()
        assert len(decoded) == 1


    def test_a_spilled_block_costs_one_read_per_run(self) -> None:
        """With one-page extents every block page opens its own extent:
        the first use reads one request per page, each sequential."""
        db = Database(EngineConfig(durability=True, page_size=512,
                                   extent_pages=1,
                                   partition_buffer_bytes=1 << 20))
        db.create_table("t", [("a", "int"), ("b", "int"), ("v", "str")],
                        "sias")
        db.create_index("ix", "t", ["a", "b"], kind="mvpbt")
        txn = db.begin()
        for b in range(0, 2 * PER_PARTITION, 2):
            db.insert(txn, "t", (0, b, "x"))
        txn.commit()
        tree_of(db).evict_partition()
        recovered = Database.recover(db)
        tree = tree_of(recovered)
        part = tree.persisted_partitions[0]
        block = part.run.trailer_page_nos
        assert len(block) >= 2
        reads = tree.file.physical_reads
        assert part.bloom is not None
        assert tree.file.physical_reads - reads == len(block)


class TestDamage:
    def test_a_corrupted_block_raises_the_typed_error(self) -> None:
        db = small_db()
        key = absent_key(db)
        recovered = Database.recover(db)
        tree = tree_of(recovered)
        page_no = tree.persisted_partitions[0].run.trailer_page_nos[-1]
        image = bytearray(tree.file.peek(page_no))  # type: ignore[arg-type]
        image[-1] ^= 0xFF
        tree.file.put_page_nocost(page_no, bytes(image))
        txn = recovered.begin()
        with pytest.raises(FilterBlockError, match="P0 filter block"):
            recovered.select(txn, "ix", key)
        txn.abort()
