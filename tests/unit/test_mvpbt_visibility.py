"""Unit tests for the index-only visibility check (Algorithm 3)."""


from repro.core.records import MVPBTRecord, RecordType, ReferenceMode
from repro.core.visibility import Visibility, VisibilityChecker
from repro.storage.recordid import RecordID
from repro.txn.snapshot import Snapshot
from repro.txn.status import CommitLog


def make_log(committed=(), aborted=()):
    log = CommitLog()
    for ts in committed:
        log.register(ts)
        log.set_committed(ts)
    for ts in aborted:
        log.register(ts)
        log.set_aborted(ts)
    return log


def snap(owner=100, xmax=100, active=(), xmin=None):
    return Snapshot(owner=owner, xmax=xmax, active=frozenset(active),
                    xmin=xmin if xmin is not None else xmax)


def checker(snapshot, log, mode=ReferenceMode.PHYSICAL, actives=None):
    return VisibilityChecker(snapshot, log, mode, active_snapshots=actives)


V0, V1, V2, V3 = (RecordID(0, i) for i in range(4))


def regular(ts, seq=None, key=(7,), vid=1, rid=V0):
    return MVPBTRecord(key, ts, seq if seq is not None else ts,
                       RecordType.REGULAR, vid, rid_new=rid)


def replacement(ts, rid_new, rid_old, seq=None, key=(7,), vid=1):
    return MVPBTRecord(key, ts, seq if seq is not None else ts,
                       RecordType.REPLACEMENT, vid,
                       rid_new=rid_new, rid_old=rid_old)


def anti(ts, rid_old, seq=None, key=(7,), vid=1):
    return MVPBTRecord(key, ts, seq if seq is not None else ts,
                       RecordType.ANTI, vid, rid_old=rid_old)


def tombstone(ts, rid_old, seq=None, key=(7,), vid=1):
    return MVPBTRecord(key, ts, seq if seq is not None else ts,
                       RecordType.TOMBSTONE, vid, rid_old=rid_old)


class TestBasicRules:
    def test_committed_regular_visible(self):
        ck = checker(snap(), make_log(committed=[1]))
        assert ck.check(regular(1)) is Visibility.VISIBLE

    def test_uncommitted_invisible(self):
        ck = checker(snap(), make_log())
        assert ck.check(regular(1)) is Visibility.INVISIBLE

    def test_aborted_invisible(self):
        ck = checker(snap(), make_log(aborted=[1]))
        assert ck.check(regular(1)) is Visibility.INVISIBLE

    def test_newer_than_snapshot_invisible(self):
        ck = checker(snap(xmax=5), make_log(committed=[7]))
        assert ck.check(regular(7)) is Visibility.INVISIBLE

    def test_concurrent_invisible(self):
        ck = checker(snap(xmax=10, active=[4]), make_log(committed=[4]))
        assert ck.check(regular(4)) is Visibility.INVISIBLE

    def test_own_writes_visible(self):
        ck = checker(snap(owner=9, xmax=9), make_log())
        assert ck.check(regular(9)) is Visibility.VISIBLE

    def test_gc_flagged_invisible(self):
        ck = checker(snap(), make_log(committed=[1]))
        r = regular(1)
        r.mark_gc()
        assert ck.check(r) is Visibility.INVISIBLE

    def test_pure_antimatter_never_returned(self):
        log = make_log(committed=[1, 2])
        ck = checker(snap(), log)
        assert ck.check(anti(2, V0)) is Visibility.INVISIBLE
        assert ck.check(tombstone(2, V0)) is Visibility.INVISIBLE


class TestAntiMatterChains:
    def test_replacement_supersedes_regular(self):
        log = make_log(committed=[1, 2])
        ck = checker(snap(), log)
        assert ck.check(replacement(2, V1, V0)) is Visibility.VISIBLE
        assert ck.check(regular(1, rid=V0)) is Visibility.INVISIBLE

    def test_old_snapshot_sees_old_record(self):
        log = make_log(committed=[1, 2])
        ck = checker(snap(xmax=2), log)   # snapshot before ts=2
        assert ck.check(replacement(2, V1, V0)) is Visibility.INVISIBLE
        assert ck.check(regular(1, rid=V0)) is Visibility.VISIBLE

    def test_uncommitted_replacement_does_not_invalidate(self):
        log = make_log(committed=[1])
        ck = checker(snap(), log)
        assert ck.check(replacement(2, V1, V0)) is Visibility.INVISIBLE
        assert ck.check(regular(1, rid=V0)) is Visibility.VISIBLE

    def test_tombstone_cascades_through_whole_chain(self):
        """The DESIGN.md §6 deviation: anti-matter of superseded records
        still registers, so a tombstone kills records many hops down."""
        log = make_log(committed=[1, 2, 3, 4])
        ck = checker(snap(), log)
        assert ck.check(tombstone(4, V2)) is Visibility.INVISIBLE
        assert ck.check(replacement(3, V2, V1)) is Visibility.INVISIBLE
        assert ck.check(replacement(2, V1, V0)) is Visibility.INVISIBLE
        assert ck.check(regular(1, rid=V0)) is Visibility.INVISIBLE

    def test_anti_record_kills_old_key_record(self):
        """Key update: anti at old key, replacement at new key."""
        log = make_log(committed=[1, 2])
        ck = checker(snap(), log)
        # scan at the old key position processes the anti first
        assert ck.check(anti(2, V0, key=(7,))) is Visibility.INVISIBLE
        assert ck.check(regular(1, key=(7,), rid=V0)) is Visibility.INVISIBLE

    def test_logical_mode_kills_by_vid(self):
        log = make_log(committed=[1, 2])
        ck = checker(snap(), log, mode=ReferenceMode.LOGICAL)
        # blind replacement without rid_old still supersedes via the VID
        repl = MVPBTRecord((7,), 2, 2, RecordType.REPLACEMENT, vid=9,
                           rid_new=V1, rid_old=None)
        assert ck.check(repl) is Visibility.VISIBLE
        assert ck.check(regular(1, vid=9, rid=V0)) is Visibility.INVISIBLE

    def test_physical_mode_distinct_tuples_unaffected(self):
        log = make_log(committed=[1, 2])
        ck = checker(snap(), log)
        assert ck.check(replacement(2, V1, V0, vid=1)) is Visibility.VISIBLE
        other = MVPBTRecord((7,), 1, 0, RecordType.REGULAR, vid=2, rid_new=V3)
        assert ck.check(other) is Visibility.VISIBLE

    def test_same_ts_ordering_by_seq(self):
        """One transaction updating twice: the later statement wins."""
        log = make_log(committed=[5])
        ck = checker(snap(), log)
        assert ck.check(replacement(5, V2, V1, seq=11)) is Visibility.VISIBLE
        assert ck.check(replacement(5, V1, V0, seq=10)) is Visibility.INVISIBLE


class TestGarbageClassification:
    """The interval rule: a superseded record is garbage unless some
    active snapshot sees it but not its superseder."""

    def test_superseded_below_cutoff_is_garbage(self):
        log = make_log(committed=[1, 2])
        ck = checker(snap(), log, actives=[snap()])   # sees both versions
        ck.check(replacement(2, V1, V0))
        assert ck.check(regular(1, rid=V0)) is Visibility.GARBAGE

    def test_not_garbage_without_cutoff(self):
        log = make_log(committed=[1, 2])
        ck = checker(snap(), log)      # no GC information
        ck.check(replacement(2, V1, V0))
        assert ck.check(regular(1, rid=V0)) is Visibility.INVISIBLE

    def test_not_garbage_when_anti_above_cutoff(self):
        log = make_log(committed=[1, 2])
        older = snap(owner=50, xmax=2)   # sees ts=1, not its superseder
        ck = checker(snap(), log, actives=[snap(), older])
        ck.check(replacement(2, V1, V0))
        assert ck.check(regular(1, rid=V0)) is Visibility.INVISIBLE


class TestSetRecords:
    def test_visible_entries_filtered_by_snapshot(self):
        log = make_log(committed=[1, 2])
        ck = checker(snap(xmax=2), log)
        record = MVPBTRecord((7,), 2, 2, RecordType.REGULAR_SET, -1,
                             set_entries=[(2, V1, 2, 2), (1, V0, 1, 1)])
        visible = ck.visible_set_entries(record)
        assert [(vid, rid) for vid, rid, _ts, _seq in visible] == [(1, V0)]

    def test_entries_killed_by_antimatter(self):
        log = make_log(committed=[1, 2, 3])
        ck = checker(snap(), log)
        ck.check(tombstone(3, V0, vid=1))
        record = MVPBTRecord((7,), 1, 1, RecordType.REGULAR_SET, -1,
                             set_entries=[(1, V0, 1, 1), (2, V1, 2, 2)])
        visible = ck.visible_set_entries(record)
        assert [(vid, rid) for vid, rid, _ts, _seq in visible] == [(2, V1)]

    def test_gc_flagged_set_returns_nothing(self):
        log = make_log(committed=[1])
        ck = checker(snap(), log)
        record = MVPBTRecord((7,), 1, 1, RecordType.REGULAR_SET, -1,
                             set_entries=[(1, V0, 1, 1)])
        record.mark_gc()
        assert ck.visible_set_entries(record) == []
