"""Property tests over randomized degradation configurations.

One campaign's ground truth is degraded under many random defect
configurations; the matching invariants must hold under every one of
them — the strongest statement that the matchers' guarantees don't
depend on the calibrated defaults.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matching.evaluation import evaluate_against_truth
from repro.core.matching.pipeline import MatchingPipeline
from repro.metastore.packsource import PackSource
from repro.rucio.activities import TransferActivity
from repro.telemetry.degradation import DegradationConfig, MetadataDegrader


@pytest.fixture(scope="module")
def campaign():
    """One small campaign whose collector is reused for every config."""
    from repro.grid.presets import build_mini
    from repro.scenarios.runtime import HarnessConfig, SimulationHarness
    from repro.workload.generator import WorkloadConfig

    h = SimulationHarness(
        HarnessConfig(
            seed=37,
            workload=WorkloadConfig(
                duration=12 * 3600.0,
                analysis_tasks_per_hour=10.0,
                production_tasks_per_hour=0.5,
                background_transfers_per_hour=20.0,
            ),
            drain=24 * 3600.0,
        ),
        topology=build_mini(seed=37),
    )
    h.run()
    return h


ACTIVITIES = [
    TransferActivity.ANALYSIS_DOWNLOAD,
    TransferActivity.ANALYSIS_UPLOAD,
    TransferActivity.ANALYSIS_DOWNLOAD_DIRECT_IO,
]

prob = st.floats(min_value=0.0, max_value=0.9)


@st.composite
def random_config(draw):
    return DegradationConfig(
        p_drop_transfer=draw(st.floats(min_value=0.0, max_value=0.3)),
        p_drop_file=draw(st.floats(min_value=0.0, max_value=0.3)),
        p_drop_jeditaskid={a: draw(prob) for a in ACTIVITIES},
        p_unknown_destination={a: draw(prob) for a in ACTIVITIES},
        p_unknown_source={a: draw(prob) for a in ACTIVITIES},
        p_size_imprecise={a: draw(prob) for a in ACTIVITIES},
        p_drop_jeditaskid_default=draw(prob),
    )


@given(random_config(), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=15, deadline=None)
def test_matching_invariants_under_any_degradation(campaign, cfg, seed):
    degrader = MetadataDegrader(cfg, np.random.default_rng(seed))
    telemetry = degrader.degrade(campaign.collector, campaign.panda.tasks)
    source = PackSource.from_records(
        telemetry.jobs, telemetry.files, telemetry.transfers
    )
    known = campaign.known_site_names()
    t0, t1 = campaign.window
    report = MatchingPipeline(source, known_sites=known).run(t0, t1)

    # nesting holds under any defect mix
    assert (report["exact"].matched_transfer_ids()
            <= report["rm1"].matched_transfer_ids()
            <= report["rm2"].matched_transfer_ids())

    # precision stays perfect: whatever is asserted is truly linked
    jobs = source.user_jobs_completed_in(t0, t1)
    transfers = source.transfers_started_in(t0, t1)
    for method in report.methods:
        ev = evaluate_against_truth(
            report[method], telemetry.ground_truth, jobs, transfers)
        if ev.n_asserted_pairs:
            assert ev.pair_precision == 1.0

    # production stays invisible under every configuration
    matched = report["rm2"].matched_transfer_ids()
    for t in telemetry.transfers:
        if t.activity.startswith("Production"):
            assert t.row_id not in matched
