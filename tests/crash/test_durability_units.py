"""Unit tests for the durability building blocks.

Covers the fault-injection device layer (:class:`FaultPlan`, crash state,
torn installs), the write-ahead log (append / replay / truncate / torn
tail), the manifest superblock (round-trip, double-buffered fallback) and
clean-restart recovery at the :class:`Database` level.
"""

from __future__ import annotations

import pytest

from repro.config import EngineConfig
from repro.core.records import MVPBTRecord, RecordType
from repro.durability.manifest import (IndexManifest, ManifestState,
                                       ManifestStore, PartitionMeta,
                                       decode_state, encode_state)
from repro.durability.recovery import read_durable_state
from repro.durability.wal import (KIND_COMMIT, KIND_RECORD, WriteAheadLog,
                                  parse_entries)
from repro.engine.database import Database
from repro.errors import (DeviceCrashError, DeviceError, RecoveryError,
                          StorageError)
from repro.sim.clock import SimClock
from repro.sim.device import SECTOR_BYTES, FaultPlan, SimulatedDevice
from repro.sim.profiles import UNIT_TEST_PROFILE
from repro.storage.keycodec import encode_key
from repro.storage.pagefile import PageFile, TornPage
from repro.storage.recordid import RecordID

pytestmark = pytest.mark.crash


def make_file(device: SimulatedDevice, page_size: int = 512) -> PageFile:
    return PageFile("dura_test", device, page_size, 8)


def rec(key: int, ts: int, seq: int,
        rtype: RecordType = RecordType.REGULAR) -> MVPBTRecord:
    rid = RecordID(7, key % 50)
    if rtype in (RecordType.ANTI, RecordType.TOMBSTONE):
        return MVPBTRecord((key,), ts, seq, rtype, key, rid_old=rid)
    return MVPBTRecord((key,), ts, seq, rtype, key, rid_new=rid)


# ------------------------------------------------------------- FaultPlan

class TestFaultPlan:
    def test_validation(self) -> None:
        with pytest.raises(DeviceError):
            FaultPlan(fail_at=-1)
        with pytest.raises(DeviceError):
            FaultPlan(fail_at=0, mode="mangle")
        with pytest.raises(DeviceError):
            FaultPlan(fail_at=0, fraction=1.5)

    def test_clean_mode_persists_nothing(self) -> None:
        plan = FaultPlan(fail_at=0, mode="clean", fraction=1.0)
        assert plan.persisted_prefix(8192, write=True) == 0

    def test_reads_never_persist(self) -> None:
        plan = FaultPlan(fail_at=0, mode="torn", fraction=1.0)
        assert plan.persisted_prefix(8192, write=False) == 0

    def test_torn_rounds_to_sectors(self) -> None:
        plan = FaultPlan(fail_at=0, mode="torn", fraction=0.5)
        n = plan.persisted_prefix(8192, write=True)
        assert n == 4096
        assert plan.persisted_prefix(100, write=True) == 0  # < one sector
        odd = FaultPlan(fail_at=0, mode="torn", fraction=0.37)
        assert odd.persisted_prefix(8192, write=True) % SECTOR_BYTES == 0

    def test_partial_extent_rounds_to_pages(self) -> None:
        plan = FaultPlan(fail_at=0, mode="partial_extent", fraction=0.6,
                         granularity=8192)
        # 65536 * 0.6 = 39321.6 -> rounded down to 4 whole pages
        n = plan.persisted_prefix(8 * 8192, write=True)
        assert n == 4 * 8192


class TestDeviceCrash:
    def test_io_index_counts_completed_ios(self, clock: SimClock) -> None:
        device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
        device.write(0, 512)
        device.read(0, 512)
        assert device.io_count == 2

    def test_fail_at_k_allows_k_ios(self, clock: SimClock) -> None:
        device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
        device.set_fault_plan(FaultPlan(fail_at=2))
        device.write(0, 512)
        device.write(512, 512)
        with pytest.raises(DeviceCrashError):
            device.write(1024, 512)
        assert device.crashed
        assert device.io_count == 2

    def test_crashed_device_refuses_everything(self, clock: SimClock) -> None:
        device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
        device.set_fault_plan(FaultPlan(fail_at=0))
        with pytest.raises(DeviceCrashError):
            device.read(0, 512)
        with pytest.raises(DeviceCrashError):
            device.write(0, 512)
        device.reboot()
        assert not device.crashed
        device.write(0, 512)  # healthy again

    def test_bytes_persisted_carried_on_error(self, clock: SimClock) -> None:
        device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
        device.set_fault_plan(FaultPlan(fail_at=0, mode="torn",
                                        fraction=0.5))
        with pytest.raises(DeviceCrashError) as err:
            device.write(0, 4096)
        assert err.value.bytes_persisted == 2048


class TestTornInstall:
    def test_write_page_clean_crash_keeps_old(self, clock: SimClock) -> None:
        device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
        file = make_file(device)
        no = file.allocate_page()
        file.write_page(no, b"old" + bytes(509))
        device.set_fault_plan(FaultPlan(fail_at=device.io_count))
        with pytest.raises(DeviceCrashError):
            file.write_page(no, b"new" + bytes(509))
        assert bytes(file.peek(no)).startswith(b"old")

    def test_write_page_torn_splices_prefix(self, clock: SimClock) -> None:
        device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
        file = PageFile("t", device, 1024, 8)
        no = file.allocate_page()
        file.write_page(no, b"B" * 1024)
        device.set_fault_plan(FaultPlan(fail_at=device.io_count,
                                        mode="torn", fraction=0.5))
        with pytest.raises(DeviceCrashError):
            file.write_page(no, b"A" * 1024)
        torn = bytes(file.peek(no))
        assert torn == b"A" * 512 + b"B" * 512

    def test_object_payload_becomes_torn_marker(self, clock: SimClock) -> None:
        device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
        file = PageFile("t", device, 1024, 8)
        no = file.allocate_page()
        device.set_fault_plan(FaultPlan(fail_at=device.io_count,
                                        mode="torn", fraction=0.9))
        with pytest.raises(DeviceCrashError):
            file.write_page(no, ["not", "bytes"])
        assert isinstance(file.peek(no), TornPage)

    def test_extent_append_persists_page_prefix(self, clock: SimClock) -> None:
        device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
        file = make_file(device)
        payloads = [bytes([i]) * 512 for i in range(8)]
        device.set_fault_plan(FaultPlan(
            fail_at=device.io_count, mode="partial_extent",
            fraction=0.6, granularity=512))
        with pytest.raises(DeviceCrashError):
            file.append_extents(payloads)
        survived = [no for no in range(file.max_page_no)
                    if file.has_contents(no)]
        # 8 pages * 0.6 rounded down to page granularity = 2 full pages
        # at 4096 * 0.6 = 2457 -> 4 pages of 512
        assert survived == list(range(4))
        for no in survived:
            assert bytes(file.peek(no)) == payloads[no]


# ------------------------------------------------------------------- WAL

class TestWriteAheadLog:
    def test_round_trip(self, clock: SimClock) -> None:
        device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
        file = make_file(device)
        wal = WriteAheadLog(file)
        wal.log([("ix", rec(1, 10, 0)), ("ix", rec(2, 10, 1))],
                commit_txid=10)
        wal.log([("other", rec(3, 11, 2))], commit_txid=11)
        wal.log([], commit_txid=12)

        recovered, entries = WriteAheadLog.recover(make_file_like(file))
        kinds = [e.kind for e in entries]
        assert kinds == [KIND_RECORD, KIND_RECORD, KIND_COMMIT,
                         KIND_RECORD, KIND_COMMIT, KIND_COMMIT]
        assert [e.lsn for e in entries] == list(range(1, 7))
        assert {e.txid for e in entries if e.kind == KIND_COMMIT} \
            == {10, 11, 12}
        assert entries[0].index_name == "ix"
        assert entries[3].index_name == "other"
        assert entries[0].record == rec(1, 10, 0)
        assert recovered.end_lsn == wal.end_lsn

    def test_empty_log_call_is_noop(self, clock: SimClock) -> None:
        device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
        wal = WriteAheadLog(make_file(device))
        wal.log([])
        assert wal.end_lsn == 1
        assert wal.pages_written == 0

    def test_tail_page_seals_and_new_page_starts(self,
                                                 clock: SimClock) -> None:
        device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
        file = make_file(device)
        wal = WriteAheadLog(file)
        for i in range(60):
            wal.log([("ix", rec(i, i + 1, i))], commit_txid=i + 1)
        assert len(wal._pages) >= 1   # at least one page sealed
        _, entries = WriteAheadLog.recover(make_file_like(file))
        assert [e.lsn for e in entries] == list(range(1, wal.end_lsn))

    def test_recovery_reads_the_log_in_extent_runs(self,
                                                   clock: SimClock) -> None:
        """One read request per run of contiguous live pages inside an
        extent, not one per page — a truncation hole splits a run."""
        device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
        file = make_file(device)                 # 512 B pages, 8 per extent
        wal = WriteAheadLog(file)
        for i in range(60):
            wal.log([("ix", rec(i, i + 1, i))], commit_txid=i + 1)
        live = [no for no in range(file.max_page_no)
                if file.has_contents(no)]
        assert len(live) > 8                     # spans two extents
        reads = file.physical_reads
        _, entries = WriteAheadLog.recover(file)
        assert [e.lsn for e in entries] == list(range(1, wal.end_lsn))
        assert file.physical_reads - reads == 2
        wal.truncate_below(wal._pages[1][2] + 1)  # frees pages 0 and 1
        reads = file.physical_reads
        WriteAheadLog.recover(file)
        assert file.physical_reads - reads == 2  # pages 2-7, then 8-…

    def test_truncate_frees_only_covered_pages(self, clock: SimClock) -> None:
        device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
        file = make_file(device)
        wal = WriteAheadLog(file)
        for i in range(60):
            wal.log([("ix", rec(i, i + 1, i))], commit_txid=i + 1)
        sealed = list(wal._pages)
        assert sealed
        cut = sealed[len(sealed) // 2][2] + 1   # above some page's last lsn
        freed = wal.truncate_below(cut)
        assert freed >= 1
        _, entries = WriteAheadLog.recover(make_file_like(file))
        assert entries, "suffix must survive truncation"
        assert all(e.lsn >= cut or e.lsn >= entries[0].lsn
                   for e in entries)
        assert entries[-1].lsn == wal.end_lsn - 1
        # the surviving run is still LSN-contiguous
        lsns = [e.lsn for e in entries]
        assert lsns == list(range(lsns[0], lsns[-1] + 1))

    def test_truncate_at_a_pages_last_lsn_keeps_that_page(
            self, clock: SimClock) -> None:
        """Entry ``lsn`` is still needed after ``truncate_below(lsn)``, so
        the page it ends stays."""
        device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
        file = make_file(device)
        wal = WriteAheadLog(file)
        for i in range(60):
            wal.log([("ix", rec(i, i + 1, i))], commit_txid=i + 1)
        _, first, last = wal._pages[1]
        assert wal.truncate_below(last) == 1     # page 0 only
        _, entries = WriteAheadLog.recover(file)
        assert [e.lsn for e in entries] == list(range(first, wal.end_lsn))

    def test_torn_tail_keeps_valid_prefix(self, clock: SimClock) -> None:
        device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
        file = make_file(device)
        wal = WriteAheadLog(file)
        wal.log([("ix", rec(1, 5, 0))], commit_txid=5)
        # tear the next append halfway through its page rewrite
        device.set_fault_plan(FaultPlan(fail_at=device.io_count,
                                        mode="torn", fraction=0.2))
        with pytest.raises(DeviceCrashError):
            wal.log([("ix", rec(2, 6, 1)), ("ix", rec(3, 6, 2))],
                    commit_txid=6)
        device.reboot()
        _, entries = WriteAheadLog.recover(make_file_like(file))
        # the pre-crash prefix is intact; the torn suffix is dropped at an
        # entry boundary
        assert entries[0].record == rec(1, 5, 0)
        assert entries[1].kind == KIND_COMMIT and entries[1].txid == 5
        assert all(e.lsn < wal.end_lsn for e in entries)
        committed = {e.txid for e in entries if e.kind == KIND_COMMIT}
        assert 6 not in committed or len(entries) >= 5

    def test_staged_marker_rides_on_the_next_append(self,
                                                    clock: SimClock) -> None:
        device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
        file = make_file(device)
        wal = WriteAheadLog(file)
        wal.stage_commit_marker(7)
        wal.stage_commit_marker(8)
        assert device.io_count == 0 and wal.appends == 0
        assert wal.end_lsn == 1
        wal.log([("ix", rec(1, 9, 0))], commit_txid=9)
        assert wal.appends == 1 and device.io_count == 1
        _, entries = WriteAheadLog.recover(file)
        assert [(e.kind, e.txid) for e in entries] == [
            (KIND_COMMIT, 7), (KIND_COMMIT, 8), (KIND_RECORD, 0),
            (KIND_COMMIT, 9)]
        assert wal.commit_markers == 3

    def test_append_that_fits_a_page_never_straddles(self,
                                                     clock: SimClock) -> None:
        device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
        file = make_file(device)
        wal = WriteAheadLog(file)
        while wal._tail_len < 400:           # leave < 112 bytes in the page
            wal.log([("ix", rec(1, 1, 0))], commit_txid=1)
        assert wal._tail_no == 0
        before = device.io_count
        wal.log([("ix", rec(i, 2, i)) for i in range(4)], commit_txid=2)
        # sealed first: the whole append is ONE write on the fresh page
        assert device.io_count == before + 1
        assert wal._tail_no == 1 and wal._pages[-1][0] == 0

    def test_entry_larger_than_a_page_is_rejected(self,
                                                  clock: SimClock) -> None:
        from repro.errors import StorageError
        device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
        wal = WriteAheadLog(make_file(device))
        with pytest.raises(StorageError):
            wal.log_note(bytes(600))
        assert device.io_count == 0 and wal.end_lsn == 1

    def test_parse_entries_rejects_garbage(self) -> None:
        assert parse_entries(b"") == []
        assert parse_entries(b"\x00" * 64) == []
        assert parse_entries(bytes(range(256)) * 4) == []


def make_file_like(file: PageFile) -> PageFile:
    """The same file, as a recovery pass would see it (identity: recovery
    re-reads the very PageFile that holds the durable contents)."""
    return file


# -------------------------------------------------------------- manifest

def sample_state() -> ManifestState:
    part = PartitionMeta(
        number=3, record_count=120, size_bytes=4096, min_ts=5, max_ts=44,
        page_nos=[4, 5, 6], fences=[(10,), (20,), (999,)],
        min_key=(1,), max_key=(999,),
        bloom_state=(256, 3, 120, bytes(32)),
        prefix_state=(1, (128, 2, 120, bytes(16))))
    bare = PartitionMeta(
        number=4, record_count=1, size_bytes=64, min_ts=50, max_ts=50,
        page_nos=[9], fences=[(7, "b")], min_key=None, max_key=None)
    return ManifestState(
        txid_watermark=77, aborted_txids=[3, 9], active_txids=[76],
        indexes={"ix": IndexManifest("ix", 5, 400, 12, [part, bare]),
                 "empty": IndexManifest("empty", 0, 0, 1, [])})


def keyed_state(key_bytes: int) -> ManifestState:
    """A state whose one partition's ``min_key`` encodes to exactly
    ``key_bytes`` bytes."""
    key = ("k" * (key_bytes - 3),)       # tag, the bytes, a 2-byte end
    assert len(encode_key(key)) == key_bytes
    part = PartitionMeta(
        number=1, record_count=1, size_bytes=64, min_ts=1, max_ts=1,
        page_nos=[2], fences=[(1,)], min_key=key, max_key=(1,))
    return ManifestState(
        txid_watermark=2,
        indexes={"ix": IndexManifest("ix", 1, 1, 1, [part])})


def sized_state(watermark: int, pages: int,
                page_size: int = 512) -> ManifestState:
    """A state whose body fills exactly ``pages`` manifest pages."""
    chunk = page_size - 20           # after the 20-byte page header
    state = ManifestState(txid_watermark=watermark,
                          aborted_txids=list(range((pages - 1) * chunk // 8)))
    assert -(-len(encode_state(state)) // chunk) == pages
    return state


class TestManifest:
    def test_state_round_trip(self) -> None:
        state = sample_state()
        decoded = decode_state(encode_state(state))
        assert decoded == state

    def test_the_longest_key_round_trips(self) -> None:
        state = keyed_state(0xFFFE)
        assert decode_state(encode_state(state)) == state

    def test_a_key_as_long_as_the_absent_marker_is_refused(self) -> None:
        """A 0xFFFF-byte key would read back as no key at all."""
        with pytest.raises(StorageError, match="too long"):
            encode_state(keyed_state(0xFFFF))

    def test_decode_rejects_corruption(self) -> None:
        data = bytearray(encode_state(sample_state()))
        data[0] ^= 0xFF
        with pytest.raises(RecoveryError):
            decode_state(bytes(data))
        with pytest.raises(RecoveryError):
            decode_state(encode_state(sample_state())[:-10])

    def test_store_flip_and_attach(self, clock: SimClock) -> None:
        device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
        file = make_file(device)
        store = ManifestStore(file, slot_pages=6)
        state = sample_state()
        store.write(state)
        store.write(ManifestState(txid_watermark=99))

        attached, read_back = ManifestStore.attach(file, slot_pages=6)
        assert attached.epoch == 2
        assert read_back == ManifestState(txid_watermark=99)

    def test_attach_empty_device(self, clock: SimClock) -> None:
        device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
        store, state = ManifestStore.attach(make_file(device), slot_pages=4)
        assert state is None
        assert store.epoch == 0

    def test_torn_flip_falls_back_to_previous_epoch(self,
                                                    clock: SimClock) -> None:
        device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
        file = make_file(device)
        store = ManifestStore(file, slot_pages=6)
        store.write(ManifestState(txid_watermark=10))
        first_epoch_io = device.io_count
        # epoch 2 targets the other slot; tear its first page
        device.set_fault_plan(FaultPlan(fail_at=first_epoch_io,
                                        mode="torn", fraction=0.3))
        with pytest.raises(DeviceCrashError):
            store.write(sample_state())
        device.reboot()
        _, state = ManifestStore.attach(file, slot_pages=6)
        assert state == ManifestState(txid_watermark=10)

    @staticmethod
    def _flips(clock: SimClock, epochs: int, crash_at_page: int | None = None
               ) -> tuple[SimulatedDevice, PageFile, list[ManifestState]]:
        """Flip ``epochs`` 7-page states into a manifest file of 4-page
        extents and 10-page slots, striped by extent: odd epochs land on
        pages 4-7 and 12-14, even ones on pages 0-3 and 8-10 (one sector
        per page, so a page's LBA is its number).  With ``crash_at_page``
        the last flip dies writing that page of its slot.  Returns the
        states, by epoch."""
        device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
        file = PageFile("manifest", device, 512, 4)
        store = ManifestStore(file, slot_pages=10)
        states = [ManifestState(txid_watermark=10 * epoch,
                                aborted_txids=list(range(epoch, epoch + 400)))
                  for epoch in range(1, epochs + 1)]
        for state in states[:-1]:
            store.write(state)
        assert file.physical_writes == 7 * (epochs - 1)
        if crash_at_page is None:
            store.write(states[-1])
        else:
            device.set_fault_plan(FaultPlan(
                fail_at=device.io_count + crash_at_page))
            with pytest.raises(DeviceCrashError):
                store.write(states[-1])
            device.reboot()
        return device, file, states

    def test_recovery_reads_both_heads_then_the_newer_slot_in_runs(
            self, clock: SimClock) -> None:
        """2 + the newer slot's runs, not both slots: page 0 of each slot
        (pages 0 and 4), then the rest of slot 0 — pages 1-3 and 8-10,
        one request per extent run."""
        device, file, states = self._flips(clock, 2)
        device.trace.enable()
        durable = read_durable_state(file, make_file(device), slot_pages=10)
        assert (durable.store.epoch, durable.state) == (2, states[1])
        assert file.physical_reads == 4
        assert [(e.lba, e.sectors) for e in device.trace.entries("R")] \
            == [(0, 1), (4, 1), (1, 3), (8, 3)]

    def test_attach_with_a_torn_newer_slot_adopts_the_older(
            self, clock: SimClock) -> None:
        """Epoch 3 died before its last page: its head is valid, so attach
        reads the rest of its slot (pages 5-7, 12-14 — two extent runs),
        finds epoch 1's page 14 there and rejects the slot, then reads the
        rest of epoch 2's (pages 1-3, 8-10)."""
        _device, file, states = self._flips(clock, 3, crash_at_page=6)
        store, state = ManifestStore.attach(file, slot_pages=10)
        assert (store.epoch, state) == (2, states[1])
        assert file.physical_reads == 2 + 2 + 2

    def test_oversized_state_raises(self, clock: SimClock) -> None:
        device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
        store = ManifestStore(make_file(device), slot_pages=1)
        big = ManifestState(txid_watermark=1,
                            aborted_txids=list(range(1000)))
        with pytest.raises(Exception):
            store.write(big)

    def test_no_manifest_space_before_the_first_flip(self) -> None:
        db = durable_db()
        file = db.manifest_file
        assert db.durability.manifest.flips == 0
        assert file.max_page_no == 0
        key = 0
        while db.durability.manifest.flips == 0:
            txn = db.begin()
            db.insert(txn, "t", (key, f"v{key}"))
            txn.commit()
            key += 1
        # the first flip lays down one extent per slot
        assert -(-file.max_page_no // file.extent_pages) == 2

    def test_two_one_page_flips_hold_two_extents(self,
                                                 clock: SimClock) -> None:
        device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
        file = make_file(device)
        store = ManifestStore(file, slot_pages=6)
        store.write(sized_state(10, 1))
        store.write(sized_state(20, 1))
        assert file.physical_writes == 2
        assert device.allocated_bytes == 2 * file.extent_pages * 512

    def test_a_slot_grows_an_extent_beside_the_live_slot(
            self, clock: SimClock) -> None:
        """Epoch 3 needs 6 pages, so slot 1 grows a second 4-page extent
        (file extent 3) while slot 0 holds the live epoch 2; the later
        one-page flips win on epoch over the stale pages left there."""
        device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
        file = PageFile("manifest", device, 512, 4)
        store = ManifestStore(file, slot_pages=10)
        sizes = (1, 1, 6, 1, 1)
        for epoch, pages in enumerate(sizes, 1):
            state = sized_state(10 * epoch, pages)
            store.write(state)
            attached, read_back = ManifestStore.attach(file, slot_pages=10)
            assert (attached.epoch, read_back) == (epoch, state)
        assert device.allocated_bytes == 4 * 4 * 512

    @pytest.mark.parametrize("mode", ["clean", "torn"])
    def test_a_kill_in_a_freshly_grown_extent_falls_back(
            self, clock: SimClock, mode: str) -> None:
        """Epoch 3's slot-1 pages 0-3 fill the slot's first extent; the
        kill lands on page 4, the first write into its second one."""
        device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
        file = PageFile("manifest", device, 2048, 4)
        store = ManifestStore(file, slot_pages=10)
        previous = sized_state(20, 1, 2048)
        store.write(sized_state(10, 1, 2048))
        store.write(previous)
        assert file.max_page_no <= 2 * 4
        device.set_fault_plan(FaultPlan(fail_at=device.io_count + 4,
                                        mode=mode, fraction=0.5))
        with pytest.raises(DeviceCrashError):
            store.write(sized_state(30, 6, 2048))
        assert file.has_contents(12) == (mode == "torn")
        device.reboot()
        attached, state = ManifestStore.attach(file, slot_pages=10)
        assert (attached.epoch, state) == (2, previous)


# ------------------------------------------------------- end-to-end units

def durable_db(**extra) -> Database:
    config = EngineConfig(durability=True, page_size=512,
                          partition_buffer_bytes=1024,
                          buffer_pool_pages=64, manifest_slot_pages=6)
    db = Database(config)
    db.create_table("t", [("id", "int"), ("val", "str")])
    db.create_index("ix", "t", ["id"], kind="mvpbt", enable_gc=False,
                    **extra)
    return db


class TestDatabaseRecovery:
    def test_clean_restart_round_trip(self) -> None:
        db = durable_db()
        for i in range(40):
            txn = db.begin()
            db.insert(txn, "t", (i, f"v{i}"))
            txn.commit()
        tree = db.catalog.index("ix").mvpbt
        assert tree.stats.evictions >= 1

        db2 = Database.recover(db)
        tree2 = db2.catalog.index("ix").mvpbt
        assert len(tree2._persisted) == len(tree._persisted)
        txn = db2.begin()
        for i in range(40):
            assert db2.select(txn, "ix", (i,)) == [(i, f"v{i}")]
        txn.abort()

    def test_partitions_reattach_without_leaf_reads(self) -> None:
        db = durable_db()
        for i in range(40):
            txn = db.begin()
            db.insert(txn, "t", (i, f"v{i}"))
            txn.commit()
        index_file = db.catalog.index("ix").mvpbt.file
        reads_before = index_file.physical_reads
        Database.recover(db)
        assert index_file.physical_reads == reads_before

    def test_recovered_filters_match(self) -> None:
        db = durable_db()
        for i in range(40):
            txn = db.begin()
            db.insert(txn, "t", (i, f"v{i}"))
            txn.commit()
        old = db.catalog.index("ix").mvpbt
        db2 = Database.recover(db)
        new = db2.catalog.index("ix").mvpbt
        for p_old, p_new in zip(old._persisted, new._persisted):
            assert p_new.number == p_old.number
            assert p_new.min_ts == p_old.min_ts
            assert p_new.max_ts == p_old.max_ts
            if p_old.bloom is not None:
                assert p_new.bloom is not None
                assert p_new.bloom._bits == p_old.bloom._bits

    def test_recovered_partition_still_gates(self) -> None:
        db = Database(EngineConfig(durability=True, page_size=512,
                                   partition_buffer_bytes=1024,
                                   buffer_pool_pages=64,
                                   manifest_slot_pages=6))
        db.create_table("t", [("a", "int"), ("b", "int")])
        db.create_index("ix", "t", ["a", "b"], kind="mvpbt")
        for a in range(0, 100, 10):             # gaps in the prefix space
            txn = db.begin()
            for b in range(8):
                db.insert(txn, "t", (a, b))
            txn.commit()
        old = db.catalog.index("ix").mvpbt
        assert len(old.persisted_partitions) >= 2
        db2 = Database.recover(db)
        tree = db2.catalog.index("ix").mvpbt
        for p_old, p_new in zip(old.persisted_partitions,
                                tree.persisted_partitions):
            assert p_new.prefix_bloom.prefix_columns == 1
            assert (p_new.prefix_bloom.to_state()
                    == p_old.prefix_bloom.to_state())
        txn = db2.begin()
        before = tree.stats.partitions_skipped_bloom
        for a in range(1, 100, 10):             # absent, inside every range
            assert db2.range_select(txn, "ix", (a, 0), (a, 99)) == []
        assert tree.stats.partitions_skipped_bloom > before
        assert db2.range_select(txn, "ix", (40, 0), (40, 99)) == [
            (40, b) for b in range(8)]
        txn.commit()

    def test_default_manifest_slot_fits_a_40k_row_two_column_index(
            self) -> None:
        # the manifest carries every partition's filters; prefix filters
        # sized by distinct prefixes (ten rows each here) add ~2.4 KiB,
        # where sizing them by records (~24 KiB) would overflow the
        # default 8-page slot
        db = Database(EngineConfig(durability=True))
        assert db.config.manifest_slot_pages == 8
        db.create_table("t", [("a", "int"), ("b", "int")])
        db.create_index("ix", "t", ["a", "b"], kind="mvpbt")
        txn = db.begin()
        for k in range(40_000):
            db.insert(txn, "t", (k // 10, k % 10))
            if k % 1000 == 999:
                txn.commit()
                txn = db.begin()
        txn.commit()
        tree = db.catalog.index("ix").mvpbt
        tree.evict_partition()
        parts = tree.persisted_partitions
        assert sum(p.record_count for p in parts) == 40_000
        # one filter entry per distinct prefix (a prefix split by an
        # eviction counts once in each partition)
        prefixes = sum(p.prefix_bloom.items_added for p in parts)
        assert 4_000 <= prefixes < 4_000 + len(parts)

    def test_uncommitted_txn_recovers_as_aborted(self) -> None:
        db = durable_db()
        txn = db.begin()
        db.insert(txn, "t", (1, "committed"))
        txn.commit()
        open_txn = db.begin()
        db.insert(open_txn, "t", (2, "dirty"))
        # crash with open_txn still active (no commit marker written)
        db.device.set_fault_plan(FaultPlan(fail_at=db.device.io_count))
        db2 = Database.recover(db)
        from repro.txn.status import TxnStatus
        assert db2.txn.status_of(open_txn.id) is TxnStatus.ABORTED
        check = db2.begin()
        assert db2.select(check, "ix", (1,)) == [(1, "committed")]
        assert db2.select(check, "ix", (2,)) == []
        check.abort()

    def test_recover_requires_durability(self) -> None:
        db = Database(EngineConfig())
        with pytest.raises(RecoveryError):
            Database.recover(db)

    def test_wal_truncation_bounds_log_size(self) -> None:
        db = durable_db()
        for i in range(200):
            txn = db.begin()
            db.insert(txn, "t", (i, f"v{i}"))
            txn.commit()
        wal = db.durability.wal
        assert wal.pages_freed > 0
        live_pages = len(wal._pages) + (1 if wal._tail_no is not None else 0)
        # the live log covers roughly one partition buffer's worth of
        # records, not the whole history
        assert live_pages * 512 < 200 * 20

    def test_read_durable_state_empty(self, clock: SimClock) -> None:
        device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
        state = read_durable_state(make_file(device), make_file(device),
                                   slot_pages=8)
        assert state.state is None
        assert state.committed == set()
        assert state.records == {}
        assert state.next_txid == 1

    def test_prepared_txid_is_never_reissued(self, clock: SimClock) -> None:
        """A PREPARE with no COMMIT does not recover as committed, yet its
        id was issued, so the next txid clears it (here nothing else —
        no record, no marker, no manifest — carries the id)."""
        device = SimulatedDevice(UNIT_TEST_PROFILE, clock)
        wal_file = make_file(device)
        WriteAheadLog(wal_file).log_prepare([], 42)
        state = read_durable_state(make_file(device), wal_file, slot_pages=8)
        assert state.committed == set()
        assert state.next_txid == 43
