"""The event journal: counters, equality, digest, export."""

import hashlib
import json

import pytest

from repro.des import EventJournal, JournalEntry, write_journal_jsonl


def make_journal():
    j = EventJournal()
    j.record(0.0, "sense", "node-00", ambient=0.4)
    j.record(0.0, "control", "cell-r0c0", led=0.6)
    j.record(1.0, "sense", "node-00", ambient=0.5)
    j.record(1.5, "handover", "node-00", source="cell-r0c0",
             target="cell-r0c1")
    return j


class TestRecording:
    def test_entries_get_monotone_seq(self):
        j = make_journal()
        assert [e.seq for e in j.entries] == [0, 1, 2, 3]
        assert len(j) == 4

    def test_detail_keys_are_sorted(self):
        j = EventJournal()
        entry = j.record(0.0, "x", b=2, a=1, c=3)
        assert entry.detail == (("a", 1), ("b", 2), ("c", 3))
        assert entry.get("b") == 2
        assert entry.get("missing", "d") == "d"

    def test_as_dict_flattens_detail(self):
        j = make_journal()
        row = j.entries[3].as_dict()
        assert row == {"seq": 3, "time": 1.5, "kind": "handover",
                       "actor": "node-00", "source": "cell-r0c0",
                       "target": "cell-r0c1"}


    def test_column_names_are_rejected_as_detail_keys(self):
        j = EventJournal()
        with pytest.raises(ValueError, match="'seq'"):
            j.record(0.5, "x", "a", seq=99)
        assert len(j) == 0 and j.count("x") == 0


class TestAggregation:
    def test_count_and_counts(self):
        j = make_journal()
        assert j.count("sense") == 2
        assert j.count("absent") == 0
        assert j.counts() == {"control": 1, "handover": 1, "sense": 2}

    def test_of_kind_filters_by_actor(self):
        j = make_journal()
        assert len(j.of_kind("sense")) == 2
        assert j.of_kind("sense", actor="node-99") == []

    def test_tail(self):
        j = make_journal()
        assert [e.kind for e in j.tail(2)] == ["sense", "handover"]
        assert j.tail(0) == []
        with pytest.raises(ValueError):
            j.tail(-1)

    def test_tail_edge_lengths(self):
        j = make_journal()
        # Asking for more than exists returns everything, in order.
        assert j.tail(100) == j.entries
        assert EventJournal().tail(0) == []
        assert EventJournal().tail(5) == []


class TestDeterminismWitness:
    def test_equal_traces_compare_equal(self):
        assert make_journal() == make_journal()

    def test_any_divergence_breaks_equality(self):
        a, b = make_journal(), make_journal()
        b.record(2.0, "extra")
        assert a != b

    def test_digest_is_stable_and_sensitive(self):
        assert make_journal().digest() == make_journal().digest()
        other = make_journal()
        other.record(9.0, "late")
        assert other.digest() != make_journal().digest()
        # A float differing only in the last bit must change the digest.
        a, b = EventJournal(), EventJournal()
        a.record(0.1 + 0.2, "x")
        b.record(0.3, "x")
        assert a.digest() != b.digest()

    def test_digest_hashes_one_line_per_entry_across_chunks(self):
        j = EventJournal()
        for i in range(2500):  # several digest chunks and a partial one
            j.record(i * 0.1, f"k{i % 3}", f"a{i % 5}", value=i / 7, n=i)
        reference = hashlib.sha256()
        for e in j.entries:
            reference.update(
                f"{e.seq}|{e.time!r}|{e.kind}|{e.actor}|{e.detail!r}\n"
                .encode())
        assert j.digest() == reference.hexdigest()
        assert EventJournal().digest() == hashlib.sha256().hexdigest()

    def test_render_mentions_counters(self):
        text = make_journal().render(n_tail=2)
        assert "4 entries" in text
        assert "sense" in text and "handover" in text

    def test_render_empty_journal(self):
        text = EventJournal().render()
        assert text == "event journal: 0 entries"

    def test_render_with_zero_tail(self):
        text = make_journal().render(n_tail=0)
        assert "4 entries" in text
        assert "last" not in text


class TestExport:
    def test_jsonl_round_trips(self, tmp_path):
        j = make_journal()
        path = write_journal_jsonl(j, tmp_path / "trace.jsonl")
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == len(j)
        assert rows[0]["kind"] == "sense"
        assert rows[3]["target"] == "cell-r0c1"

    def test_entry_is_frozen(self):
        entry = JournalEntry(seq=0, time=0.0, kind="x")
        with pytest.raises(AttributeError):
            entry.kind = "y"
