"""Tests for the metadata store: indices, query DSL, collections, façade."""

import pytest

from repro.metastore.index import FieldIndex
from repro.metastore.opensearch import OpenSearchLike
from repro.metastore.query import Bool, Exists, MatchAll, Range, Term, Terms
from repro.metastore.store import Collection, DocumentStore

from tests.helpers import make_job, make_transfer


class TestFieldIndex:
    def test_term_lookup(self):
        idx = FieldIndex("x")
        idx.add(0, "a")
        idx.add(1, "b")
        idx.add(2, "a")
        assert idx.term("a") == {0, 2}
        assert idx.term("missing") == set()

    def test_terms_union(self):
        idx = FieldIndex("x")
        idx.add(0, "a")
        idx.add(1, "b")
        idx.add(2, "c")
        assert idx.terms(["a", "c"]) == {0, 2}

    def test_range_queries(self):
        idx = FieldIndex("t")
        for i, v in enumerate([5.0, 1.0, 3.0, 9.0]):
            idx.add(i, v)
        idx.freeze()
        assert idx.range(gte=3.0) == {0, 2, 3}
        assert idx.range(lt=5.0) == {1, 2}
        assert idx.range(gte=1.0, lt=3.0) == {1}
        assert idx.range(gt=5.0) == {3}
        assert idx.range(lte=5.0) == {0, 1, 2}

    def test_range_on_text_rejected(self):
        idx = FieldIndex("x")
        idx.add(0, "text")
        with pytest.raises(TypeError):
            idx.range(gte=1)

    def test_range_lazy_freeze(self):
        idx = FieldIndex("t")
        idx.add(0, 1.0)
        assert idx.range(gte=0.0) == {0}  # freezes on demand

    def test_add_after_freeze_invalidates(self):
        idx = FieldIndex("t")
        idx.add(0, 1.0)
        idx.freeze()
        idx.add(1, 2.0)
        assert idx.range(gte=0.0) == {0, 1}

    def test_exists_and_cardinality(self):
        idx = FieldIndex("x")
        idx.add(0, "a")
        idx.add(1, None)
        assert idx.exists() == {0}
        assert idx.cardinality == 1

    def test_empty_range(self):
        assert FieldIndex("t").range(gte=0) == set()


class TestQueryDSL:
    @pytest.fixture()
    def col(self) -> Collection:
        c = Collection("jobs")
        c.ingest([
            make_job(pandaid=1, site="A", end=100.0),
            make_job(pandaid=2, site="B", end=200.0),
            make_job(pandaid=3, site="A", end=300.0, status="failed"),
        ])
        return c

    def test_term(self, col):
        assert {j.pandaid for j in col.search(Term("computingsite", "A"))} == {1, 3}

    def test_terms(self, col):
        hits = col.search(Terms("pandaid", [1, 3]))
        assert {j.pandaid for j in hits} == {1, 3}

    def test_range(self, col):
        hits = col.search(Range("endtime", gte=150.0, lt=250.0))
        assert [j.pandaid for j in hits] == [2]

    def test_bool_must(self, col):
        q = Bool(must=[Term("computingsite", "A"), Term("status", "failed")])
        assert [j.pandaid for j in col.search(q)] == [3]

    def test_bool_should(self, col):
        q = Bool(should=[Term("pandaid", 1), Term("pandaid", 2)])
        assert {j.pandaid for j in col.search(q)} == {1, 2}

    def test_bool_must_and_should(self, col):
        q = Bool(must=[Term("computingsite", "A")],
                 should=[Term("status", "failed"), Term("status", "finished")])
        assert {j.pandaid for j in col.search(q)} == {1, 3}

    def test_bool_must_not(self, col):
        q = Bool(must=[MatchAll()], must_not=[Term("status", "failed")])
        assert {j.pandaid for j in col.search(q)} == {1, 2}

    def test_match_all(self, col):
        assert col.count(MatchAll()) == 3

    def test_exists(self, col):
        assert col.count(Exists("computingsite")) == 3

    def test_unknown_field_matches_nothing(self, col):
        assert col.count(Term("nope", 1)) == 0


class TestDocumentStore:
    def test_create_and_lookup(self):
        store = DocumentStore()
        store.create("a")
        assert "a" in store and store.names() == ["a"]

    def test_duplicate_rejected(self):
        store = DocumentStore()
        store.create("a")
        with pytest.raises(ValueError):
            store.create("a")

    def test_missing_collection(self):
        with pytest.raises(KeyError):
            DocumentStore().collection("ghost")

    def test_indexed_fields_restriction(self):
        c = Collection("t", indexed_fields=["pandaid"])
        c.ingest([make_job(pandaid=1, site="A")])
        assert c.count(Term("pandaid", 1)) == 1
        assert c.count(Term("computingsite", "A")) == 0  # not indexed

    def test_ingest_dicts(self):
        c = Collection("d")
        c.ingest([{"k": 1}, {"k": 2}])
        assert c.count(Term("k", 2)) == 1

    def test_ingest_rejects_garbage(self):
        with pytest.raises(TypeError):
            Collection("d").ingest([object()])


class TestOpenSearchLike:
    @pytest.fixture()
    def os_like(self) -> OpenSearchLike:
        os_like = OpenSearchLike()
        os_like.jobs.ingest([
            make_job(pandaid=1, end=100.0, label="user"),
            make_job(pandaid=2, end=900.0, label="managed"),
            make_job(pandaid=3, end=None, start=None, label="user"),
        ])
        os_like.transfers.ingest([
            make_transfer(row_id=1, start=50.0, jeditaskid=9),
            make_transfer(row_id=2, start=500.0, jeditaskid=0),
        ])
        return os_like

    def test_jobs_completed_in_window(self, os_like):
        hits = os_like.jobs_completed_in(0.0, 500.0)
        assert [j.pandaid for j in hits] == [1]

    def test_running_jobs_invisible(self, os_like):
        """§4.2: jobs still running at window end are excluded."""
        hits = os_like.jobs_completed_in(0.0, 10_000.0)
        assert all(j.pandaid != 3 for j in hits)

    def test_user_jobs_only(self, os_like):
        hits = os_like.user_jobs_completed_in(0.0, 10_000.0)
        assert [j.pandaid for j in hits] == [1]

    def test_transfers_started_in(self, os_like):
        assert len(os_like.transfers_started_in(0.0, 100.0)) == 1

    def test_transfers_with_taskid(self, os_like):
        hits = os_like.transfers_with_taskid_in(0.0, 1000.0)
        assert [t.row_id for t in hits] == [1]

    def test_from_telemetry_roundtrip(self, small_telemetry):
        os_like = OpenSearchLike.from_telemetry(small_telemetry)
        assert len(os_like.jobs) == len(small_telemetry.jobs)
        assert len(os_like.transfers) == len(small_telemetry.transfers)
        assert len(os_like.files) == len(small_telemetry.files)

    def test_files_of_job(self, small_telemetry):
        os_like = OpenSearchLike.from_telemetry(small_telemetry)
        some = small_telemetry.files[0]
        hits = os_like.files_of_job(some.pandaid)
        assert all(f.pandaid == some.pandaid for f in hits)
        assert some in hits
