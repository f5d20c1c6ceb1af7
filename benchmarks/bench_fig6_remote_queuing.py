"""Fig 6 — top-40 remote-transfer jobs with >=10% of queue time in transfer.

Paper: compared with the local list (Fig 5), jobs with only remote
transfers show more stable transfer-time percentages, and the extreme
*local* cases have much longer queuing times than their remote
counterparts — evidence that some sites suffered server queuing delays
despite local data.

Reproduced claims: the remote list exists; the maximum queuing time in
the local list exceeds the remote list's maximum; the spread
(std/mean) of transfer-time percentages is lower or comparable for
remote jobs.
"""

import numpy as np
from conftest import write_comparison

from repro.core.analysis.queuing import timing_table


def test_fig6_remote_queuing_breakdown(benchmark, eightday_report):
    # Remote population is thin under exact matching; RM2 is the
    # natural source for the remote figure (the paper's remote jobs
    # likewise surface through relaxed matching).
    table = timing_table(eightday_report["rm2"])
    top_remote = benchmark(table.top_jobs, "remote", 10.0, 40)
    top_local = table.top_jobs("local", 10.0, 40)

    assert top_remote, "expected remote jobs with >=10% transfer share"

    def spread(rows):
        pcts = np.array([t.transfer_pct for t in rows])
        return float(pcts.std() / pcts.mean()) if len(pcts) > 1 and pcts.mean() else 0.0

    local_max_queue = max((t.queuing_time for t in top_local), default=0.0)
    remote_max_queue = max(t.queuing_time for t in top_remote)

    write_comparison(
        "fig6_remote_queuing",
        paper={
            "selection": "top 40 all-remote jobs, transfer >=10% of queue",
            "finding": "remote transfer-time % more stable; extreme local "
                       "cases queue far longer than remote counterparts",
        },
        measured={
            "n_remote_selected": len(top_remote),
            "n_local_selected": len(top_local),
            "remote_pct_spread": round(spread(top_remote), 3),
            "local_pct_spread": round(spread(top_local), 3),
            "local_max_queue_s": round(local_max_queue, 1),
            "remote_max_queue_s": round(remote_max_queue, 1),
            "local_queues_longer": bool(local_max_queue >= remote_max_queue),
            "rows": [
                {
                    "pandaid": t.pandaid,
                    "label": t.label,
                    "queuing_s": round(t.queuing_time, 1),
                    "transfer_pct": round(t.transfer_pct, 1),
                }
                for t in top_remote[:10]
            ],
        },
    )
