"""Fig 3 — site-to-site transfer volume matrix (§3.2).

Paper (92 days, 111 sites): 957.98 PB total, 737.85 PB local (77%),
average pair volume 77.75 TB vs geometric mean 1.11 TB (~70x imbalance),
multi-PB diagonal outliers at Tier-0/1 sites, and a large CERN→UNKNOWN
cell from mislabelled endpoints.

We regenerate the matrix from a (scaled) campaign and check the
structural claims: local dominance, heavy-tailed pair distribution,
UNKNOWN mass, and diagonal outliers at big sites.
"""

from conftest import write_comparison

from repro.core.analysis.matrix import build_transfer_matrix
from repro.core.anomaly.imbalance import assess_imbalance
from repro.units import TB, bytes_to_human


def test_fig3_transfer_matrix(benchmark, threemonth):
    columns = threemonth.source.columns
    names = threemonth.site_names()

    matrix = benchmark(build_transfer_matrix, columns, names)

    stats = assess_imbalance(matrix)

    # Fig 3 structure.
    assert matrix.local_fraction > 0.5, "local transfers must dominate by volume"
    assert matrix.imbalance_ratio() > 2.0, "pair volumes must be heavy-tailed"
    assert matrix.unknown_volume() > 0, "mislabelled endpoints populate UNKNOWN"
    assert stats.gini > 0.5

    # The largest diagonal cells sit at high-capacity sites (the paper's
    # BNL / CERN / NDGF outliers).
    diag_outliers = [
        (src, vol) for src, dst, vol in matrix.outliers(matrix.mean_pair_volume() * 5)
        if src == dst
    ]
    assert diag_outliers, "diagonal outliers expected"

    write_comparison(
        "fig3_matrix",
        paper={
            "total_volume": "957.98 PB",
            "local_volume": "737.85 PB (77%)",
            "mean_pair": "77.75 TB",
            "geomean_pair": "1.11 TB",
            "mean_to_geomean": "~70x",
            "unknown_example": "42.4 PB CERN->UNKNOWN",
        },
        measured={
            "total_volume": bytes_to_human(matrix.total_volume),
            "local_fraction": round(matrix.local_fraction, 3),
            "mean_pair_TB": round(matrix.mean_pair_volume() / TB, 4),
            "geomean_pair_TB": round(matrix.geometric_mean_pair_volume() / TB, 4),
            "mean_to_geomean": round(matrix.imbalance_ratio(), 1),
            "gini": round(stats.gini, 3),
            "unknown_volume": bytes_to_human(matrix.unknown_volume()),
            "n_sites_with_traffic": matrix.sites_with_traffic(),
            "top_diagonal_outliers": [
                (s, bytes_to_human(v)) for s, v in diag_outliers[:5]
            ],
        },
        notes="Volume is laptop-scale; the paper's claims are about shape "
              "(local dominance, heavy tail, UNKNOWN mass), which transfer.",
    )
