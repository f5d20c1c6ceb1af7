"""Tests for the RM3 scored matcher (``repro.core.matching.rm3``).

Three contracts:

* **oracle parity** — the columnar score kernel is bit-identical to
  the reference in ``tests/oracle.py`` for any window and any
  parameterization (hypothesis sweeps over degraded windows and
  thresholds);
* **streaming parity** — the incremental per-close delta scoring
  accumulates to exactly the batch result under shuffled delivery and
  arbitrary micro-batch sizes (given sufficient lateness);
* **threshold semantics** — recall is non-increasing in the threshold,
  and at threshold 0 RM3's kept pairs are a superset of every binary
  method's on the same window.

Plus the evaluation-hardening satellite: defined vacuous
precision/recall, out-of-window assertion accounting, F1, and the
RM2-style unknown-site recovery scoring.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import ColumnarIndex, supports_columnar
from repro.core.matching import (
    DEFAULT_RM3_THRESHOLD,
    ExactMatcher,
    RM1Matcher,
    RM2Matcher,
    RM3Matcher,
    evaluate_against_truth,
    recover_unknown_sites,
    visible_true_pairs,
)
from repro.core.matching.base import JobMatch, MatchResult
from repro.exec import WindowPlan
from repro.exec.executor import make_matchers
from repro.metastore.packsource import PackSource
from repro.stream import EventKind, EventLog, StreamProcessor
from repro.telemetry.groundtruth import GroundTruth
from repro.telemetry.records import UNKNOWN_SITE

from tests import oracle
from tests.helpers import make_file, make_job, make_transfer, matching_triple


KNOWN = {"SITE-A", "SITE-B"}

SITES = st.sampled_from(["SITE-A", "SITE-B", "", UNKNOWN_SITE])
LFNS = st.sampled_from(["f0", "f1", "f2", "f3"])
TASKIDS = st.sampled_from([-7, 0, 100, 200])
SIZES = st.sampled_from([500, 1000])
DATASETS = st.sampled_from(["ds", "ds2"])


def rm3_matchers():
    """A parameter spread: default, extreme thresholds, odd scales."""
    return [
        RM3Matcher(KNOWN),
        RM3Matcher(KNOWN, threshold=0.0),
        RM3Matcher(KNOWN, threshold=0.3),
        RM3Matcher(set(), threshold=0.55),
        RM3Matcher(KNOWN, threshold=0.9, tau=600.0, rho=0.1),
        RM3Matcher(KNOWN, threshold=0.5, site_prior=0.8, site_contra=0.0),
    ]


@st.composite
def rm3_windows(draw):
    """Degraded windows plus the axes RM3 actually scores on: varied
    creation times (time feature), set totals that miss the declared
    bytes (size feature), and every site-label pathology."""
    jobs, files, transfers = [], [], []
    for i in range(draw(st.integers(1, 4))):
        tid = draw(TASKIDS)
        jobs.append(make_job(
            pandaid=i + 1,
            jeditaskid=tid,
            site=draw(SITES),
            creation=draw(st.floats(0.0, 4000.0, allow_nan=False)),
            end=draw(st.one_of(st.none(), st.floats(0.0, 5000.0, allow_nan=False))),
            nin=draw(st.sampled_from([0, 1000, 1500, 2000, 3000])),
            nout=draw(st.sampled_from([0, 1000])),
        ))
        for _ in range(draw(st.integers(0, 3))):
            files.append(make_file(
                pandaid=i + 1,
                jeditaskid=tid,
                lfn=draw(LFNS),
                dataset=draw(DATASETS),
                size=draw(SIZES),
            ))
    for _ in range(draw(st.integers(0, 10))):
        transfers.append(make_transfer(
            row_id=draw(st.integers(1, 8)),  # duplicates allowed
            lfn=draw(LFNS),
            dataset=draw(DATASETS),
            size=draw(SIZES),
            jeditaskid=draw(TASKIDS),
            src=draw(SITES),
            dst=draw(SITES),
            download=draw(st.booleans()),
            upload=draw(st.booleans()),
            start=draw(st.floats(0.0, 5000.0, allow_nan=False)),
        ))
    return jobs, files, transfers


def assert_rm3_engines_agree(jobs, files, transfers, matchers=None):
    row_index = oracle.CandidateIndex(files, transfers)
    col_index = ColumnarIndex(jobs, files, transfers)
    for matcher in matchers or rm3_matchers():
        row = oracle.run_matcher(matcher, jobs, row_index, n_transfers_considered=7)
        col = col_index.run(matcher, n_transfers_considered=7)
        assert col.matched_pairs() == row.matched_pairs()
        assert [
            (m.job.pandaid, [t.row_id for t in m.transfers]) for m in col.matches
        ] == [
            (m.job.pandaid, [t.row_id for t in m.transfers]) for m in row.matches
        ]
        assert col == row  # full dataclass equality


# -- engine lowering --------------------------------------------------------------


class TestLowering:
    def test_rm3_supported(self):
        for m in rm3_matchers():
            assert supports_columnar(m)

    def test_make_matchers_registry(self):
        ms = make_matchers(["exact", "rm3"], KNOWN, rm3_threshold=0.4)
        assert [m.name for m in ms] == ["exact", "rm3"]
        assert ms[1].threshold == 0.4
        assert make_matchers(["rm3"], KNOWN)[0].threshold == DEFAULT_RM3_THRESHOLD
        with pytest.raises(ValueError):
            make_matchers(["rm9"], KNOWN)

    def test_overridden_scoring_hook_not_lowered(self):
        class Tweaked(RM3Matcher):
            name = "rm3x"

            def time_feature(self, t, job):
                return 1.0

        assert not supports_columnar(Tweaked(KNOWN))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RM3Matcher(KNOWN, threshold=-0.1)
        with pytest.raises(ValueError):
            RM3Matcher(KNOWN, tau=0.0)
        with pytest.raises(ValueError):
            RM3Matcher(KNOWN, site_prior=0.2, site_contra=0.5)


# -- kernel vs oracle parity ------------------------------------------------------


class TestEngineParity:
    def test_clean_triple(self):
        job, files, transfers = matching_triple()
        assert_rm3_engines_agree([job], files, transfers)

    def test_empty_window(self):
        assert_rm3_engines_agree([], [], [])

    @given(rm3_windows())
    @settings(max_examples=80, deadline=None)
    def test_degraded_windows(self, window):
        jobs, files, transfers = window
        assert_rm3_engines_agree(jobs, files, transfers)

    @given(rm3_windows(), st.floats(0.0, 1.2, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_thresholds(self, window, threshold):
        jobs, files, transfers = window
        assert_rm3_engines_agree(
            jobs, files, transfers, matchers=[RM3Matcher(KNOWN, threshold=threshold)]
        )


class TestScoredOnce:
    """One index scores RM3's candidates once per parameter set; every
    threshold is then a mask over those scores."""

    @given(rm3_windows())
    @settings(max_examples=40, deadline=None)
    def test_sweep_masks_equal_fresh_runs_at_score_values(self, window):
        """Thresholds equal to actual scores (where ``>=`` decides):
        the shared index keeps exactly what a fresh matcher on a fresh
        index keeps, and what the oracle keeps."""
        jobs, files, transfers = window
        shared = ColumnarIndex(jobs, files, transfers)
        scores = shared.rm3_scores(RM3Matcher(KNOWN))[2]
        row_index = oracle.CandidateIndex(files, transfers)
        for theta in sorted({0.0, *scores.tolist()}):
            swept = shared.run(RM3Matcher(KNOWN, threshold=theta), 7)
            fresh = ColumnarIndex(jobs, files, transfers).run(
                RM3Matcher(KNOWN, threshold=theta), 7)
            row = oracle.run_matcher(
                RM3Matcher(KNOWN, threshold=theta), jobs, row_index, 7)
            assert swept == fresh == row
            assert swept.matched_pairs() == fresh.matched_pairs() == row.matched_pairs()

    def test_cache_keys_on_scoring_parameters_not_threshold(self):
        job, files, transfers = matching_triple()
        index = ColumnarIndex([job], files, transfers)
        base = index.rm3_scores(RM3Matcher(KNOWN))
        assert index.rm3_scores(RM3Matcher(KNOWN, threshold=0.9)) is base
        assert index.rm3_scores(RM3Matcher({"SITE-B", "SITE-A"})) is base
        for other in (
            RM3Matcher(KNOWN, tau=600.0),
            RM3Matcher(KNOWN, rho=0.1),
            RM3Matcher(KNOWN, site_prior=0.8),
            RM3Matcher(KNOWN, site_contra=0.0),
            RM3Matcher({"SITE-A"}),
        ):
            assert index.rm3_scores(other) is not base


# -- threshold semantics ----------------------------------------------------------


class TestThresholdSemantics:
    @given(rm3_windows())
    @settings(max_examples=40, deadline=None)
    def test_kept_pairs_shrink_as_threshold_rises(self, window):
        jobs, files, transfers = window
        index = ColumnarIndex(jobs, files, transfers)
        previous = None
        for threshold in (0.0, 0.25, 0.5, 0.75, 1.0):
            pairs = set(
                index.run(
                    RM3Matcher(KNOWN, threshold=threshold), n_transfers_considered=0
                ).matched_pairs()
            )
            if previous is not None:
                assert pairs <= previous  # recall non-increasing in threshold
            previous = pairs

    @given(rm3_windows())
    @settings(max_examples=40, deadline=None)
    def test_threshold_zero_superset_of_binary_ladder(self, window):
        jobs, files, transfers = window
        index = ColumnarIndex(jobs, files, transfers)
        rm3_pairs = set(
            index.run(RM3Matcher(KNOWN, threshold=0.0), n_transfers_considered=0)
            .matched_pairs()
        )
        for m in (ExactMatcher(KNOWN), RM1Matcher(KNOWN), RM2Matcher(KNOWN)):
            assert set(index.run(m, n_transfers_considered=0).matched_pairs()) <= rm3_pairs

    def test_undegraded_default_threshold_keeps_exact_matches(self):
        job, files, transfers = matching_triple()
        index = ColumnarIndex([job], files, transfers)
        exact = set(index.run(ExactMatcher(KNOWN), n_transfers_considered=0).matched_pairs())
        rm3 = set(index.run(RM3Matcher(KNOWN), n_transfers_considered=0).matched_pairs())
        assert exact and exact == rm3

    def test_partial_candidate_set_survives_where_exact_vetoes(self):
        """One set member lost to degradation: Exact's whole-set size
        check vetoes the remaining members; RM3 scores each candidate
        on its own (exact per-candidate sizes -> score 1.0)."""
        job, files, transfers = matching_triple()  # nin = 3 x 1000
        partial = transfers[:2]  # degradation dropped one member
        index = ColumnarIndex([job], files, partial)
        assert index.run(ExactMatcher(KNOWN), n_transfers_considered=0).matched_pairs() == []
        kept = index.run(RM3Matcher(KNOWN), n_transfers_considered=0).matched_pairs()
        assert kept == [(job.pandaid, t.row_id) for t in partial]

    def test_size_drifted_pair_recovered_where_rm2_join_misses(self):
        """The recall mechanism: size imprecision breaks the Algorithm-1
        attribute-equality join, so RM2 never even sees the candidate;
        RM3's relaxed join admits it and the mismatch only dampens the
        score (rel = 64/1000 -> f_size ~ 0.89)."""
        job, files, transfers = matching_triple()
        drifted = [
            make_transfer(row_id=t.row_id, lfn=t.lfn, size=t.file_size + 64,
                          src=t.source_site, dst=t.destination_site,
                          start=t.starttime)
            for t in transfers
        ]
        index = ColumnarIndex([job], files, drifted)
        assert index.run(RM2Matcher(KNOWN), n_transfers_considered=0).matched_pairs() == []
        kept = index.run(RM3Matcher(KNOWN), n_transfers_considered=0).matched_pairs()
        assert kept == [(job.pandaid, t.row_id) for t in drifted]

    def test_weak_combined_evidence_rejected(self):
        """The precision mechanism: defects multiply.  A heavy size
        mismatch (partial Direct-IO read: rel = 0.85 -> f_size ~ 0.37)
        survives on its own, but combined with an uncertain site label
        (x 0.6) falls below the default threshold — where RM2-style
        binary rules would treat the two candidates identically."""
        job, files, transfers = matching_triple()

        def partial_read(t, dst):
            return make_transfer(row_id=t.row_id, lfn=t.lfn,
                                 size=int(t.file_size * 0.15),
                                 src=t.source_site, dst=dst, start=t.starttime)

        strict = [partial_read(t, "SITE-A") for t in transfers]
        uncertain = [partial_read(t, UNKNOWN_SITE) for t in transfers]
        rm3 = RM3Matcher(KNOWN)
        assert len(
            ColumnarIndex([job], files, strict)
            .run(rm3, n_transfers_considered=0).matched_pairs()
        ) == 3
        assert ColumnarIndex([job], files, uncertain).run(
            rm3, n_transfers_considered=0
        ).matched_pairs() == []

    def test_uncertain_site_admitted_contradiction_rejected(self):
        job, files, transfers = matching_triple()
        unknown = [
            make_transfer(row_id=t.row_id, lfn=t.lfn, size=t.file_size,
                          src=t.source_site, dst=UNKNOWN_SITE, start=t.starttime)
            for t in transfers
        ]
        contradicting = [
            make_transfer(row_id=t.row_id, lfn=t.lfn, size=t.file_size,
                          src=t.source_site, dst="SITE-B", start=t.starttime)
            for t in transfers
        ]
        rm3 = RM3Matcher(KNOWN)
        index_u = ColumnarIndex([job], files, unknown)
        assert len(index_u.run(rm3, n_transfers_considered=0).matched_pairs()) == 3
        index_c = ColumnarIndex([job], files, contradicting)
        assert index_c.run(rm3, n_transfers_considered=0).matched_pairs() == []

    def test_background_transfer_penalized_by_time_feature(self):
        """Same file moved long before the job existed scores low."""
        job, files, transfers = matching_triple()
        job = make_job(creation=90_000.0, end=100_000.0, nin=3000)
        early = [
            make_transfer(row_id=t.row_id, lfn=t.lfn, size=t.file_size,
                          start=10.0 + t.row_id)  # ~25h before creation
            for t in transfers
        ]
        index = ColumnarIndex([job], files, early)
        assert index.run(RM3Matcher(KNOWN), n_transfers_considered=0).matched_pairs() == []
        # but not vetoed: a permissive threshold still sees them
        kept = index.run(RM3Matcher(KNOWN, threshold=0.01), n_transfers_considered=0)
        assert len(kept.matched_pairs()) == 3


# -- streaming parity -------------------------------------------------------------


T0, T1 = 0.0, 10_000.0


def _ingest(jobs, files, transfers) -> PackSource:
    return PackSource.from_records(jobs, files, transfers)


def _disorder(events) -> float:
    high, bound = float("-inf"), 0.0
    for e in events:
        if e.kind is EventKind.TRANSFER:
            high = max(high, e.time)
            bound = max(bound, high - e.time)
    return bound


class TestStreamingParity:
    @given(
        rm3_windows(),
        st.integers(0, 2**32 - 1),
        st.integers(1, 7),
        st.sampled_from([0.0, 0.3, DEFAULT_RM3_THRESHOLD, 0.8]),
    )
    @settings(max_examples=40, deadline=None)
    def test_shuffled_replay_accumulates_batch_state(
        self, window, seed, batch_events, threshold
    ):
        jobs, files, transfers = window
        telemetry = SimpleNamespace(jobs=jobs, files=files, transfers=transfers)
        events = list(EventLog.from_telemetry(telemetry, T0, T1))
        random.Random(seed).shuffle(events)

        matchers = [RM3Matcher(KNOWN, threshold=threshold), RM2Matcher(KNOWN)]
        processor = StreamProcessor(
            T0, T1, matchers=matchers, lateness=_disorder(events)
        )
        processor.run(
            events[i : i + batch_events] for i in range(0, len(events), batch_events)
        )

        batch = oracle.build_report(
            _ingest(jobs, files, transfers),
            WindowPlan(T0, T1),
            [RM3Matcher(KNOWN, threshold=threshold), RM2Matcher(KNOWN)],
        )
        stream = processor.report()
        assert stream.methods == batch.methods
        for m in batch.methods:
            assert stream[m].matched_pairs() == batch[m].matched_pairs()
            assert stream[m] == batch[m]  # bit-identical accumulation

    def test_incremental_matcher_accepts_rm3(self):
        processor = StreamProcessor(T0, T1, matchers=[RM3Matcher(KNOWN)])
        assert [m.name for m in processor.matcher.matchers] == ["rm3"]


# -- evaluation hardening ---------------------------------------------------------


def _result(method, pairs_by_job, jobs_by_id, transfers_by_id):
    matches = [
        JobMatch(job=jobs_by_id[pid], transfers=[transfers_by_id[r] for r in rows])
        for pid, rows in pairs_by_job
    ]
    return MatchResult(
        method=method, matches=matches, n_jobs_considered=len(jobs_by_id),
        n_transfers_considered=len(transfers_by_id),
    )


class TestEvaluationHardening:
    def setup_method(self):
        self.jobs = [make_job(pandaid=1), make_job(pandaid=2)]
        self.transfers = [make_transfer(row_id=1), make_transfer(row_id=2)]
        self.jobs_by_id = {j.pandaid: j for j in self.jobs}
        self.transfers_by_id = {t.row_id: t for t in self.transfers}
        self.truth = GroundTruth()
        self.truth.link(1, 1, source_site="SITE-A", destination_site="SITE-A")
        self.truth.link(2, 2, source_site="SITE-A", destination_site="SITE-A")

    def test_empty_assertions_have_defined_precision(self):
        ev = evaluate_against_truth(
            _result("rm3", [], self.jobs_by_id, self.transfers_by_id),
            self.truth, self.jobs, self.transfers,
        )
        assert ev.pair_precision == 1.0 and ev.job_precision == 1.0
        assert ev.pair_recall == 0.0  # truth was visible, nothing found
        assert ev.pair_f1 == 0.0

    def test_no_visible_truth_has_defined_recall(self):
        ev = evaluate_against_truth(
            _result("rm3", [], self.jobs_by_id, self.transfers_by_id),
            GroundTruth(), self.jobs, self.transfers,
        )
        assert ev.pair_recall == 1.0 and ev.job_recall == 1.0
        assert ev.pair_precision == 1.0
        assert ev.n_true_pairs_visible == 0

    def test_out_of_window_assertions_excluded_from_precision(self):
        ghost_job = make_job(pandaid=99)
        result = _result(
            "rm3",
            [(1, [1]), (99, [1])],
            {**self.jobs_by_id, 99: ghost_job},
            self.transfers_by_id,
        )
        ev = evaluate_against_truth(result, self.truth, self.jobs, self.transfers)
        assert ev.n_asserted_pairs == 2
        assert ev.n_asserted_outside_window == 1
        assert ev.pair_precision == 1.0  # the ghost pair is not a false positive

    def test_f1_is_harmonic_mean(self):
        result = _result("rm3", [(1, [1, 2])], self.jobs_by_id, self.transfers_by_id)
        ev = evaluate_against_truth(result, self.truth, self.jobs, self.transfers)
        assert ev.pair_precision == 0.5  # (1,2) is wrong, (1,1) right
        assert ev.pair_recall == 0.5
        assert ev.pair_f1 == pytest.approx(0.5)

    def test_visible_true_pairs_requires_both_endpoints(self):
        assert visible_true_pairs(self.truth, self.jobs[:1], self.transfers) == {(1, 1)}

    def test_site_recovery_scored_against_truth(self):
        t_unknown = make_transfer(row_id=1, dst=UNKNOWN_SITE)
        t_blank_upload = make_transfer(
            row_id=2, src="", dst="SITE-B", download=False, upload=True
        )
        t_known = make_transfer(row_id=3, dst="SITE-A")
        truth = GroundTruth()
        truth.link(1, 1, source_site="SITE-B", destination_site="SITE-A")  # correct
        truth.link(2, 1, source_site="SITE-B", destination_site="SITE-A")  # wrong src
        truth.link(3, 1, source_site="SITE-B", destination_site="SITE-A")  # not recoverable
        result = _result(
            "rm3", [(1, [1, 2, 3])], self.jobs_by_id,
            {1: t_unknown, 2: t_blank_upload, 3: t_known},
        )
        rec = recover_unknown_sites(result, truth)
        assert rec.n_recoverable == 2  # the labeled transfer is skipped
        assert rec.n_correct == 1  # implied dst SITE-A right; implied src wrong
        assert rec.accuracy == 0.5

    def test_site_recovery_vacuous_accuracy(self):
        result = _result("rm3", [], self.jobs_by_id, self.transfers_by_id)
        assert recover_unknown_sites(result, GroundTruth()).accuracy == 1.0
