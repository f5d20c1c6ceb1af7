"""Table 1 — breakdown of exact-matched transfers by activity.

Paper: Analysis Download 8.38%, Analysis Upload 95.42%, Analysis
Download Direct IO 2.31%, Production Upload 0%, Production Download 0%,
Total 1.92% of the 1,585,229 transfers carrying a jeditaskid.

The reproduced claim is the *ordering* (Upload ≫ Download > Direct IO >
Production = 0) and the production blind spot.
"""

from conftest import write_comparison

from repro.core.analysis.summary import activity_breakdown


PAPER_ROWS = {
    "Analysis Download": 8.38,
    "Analysis Upload": 95.42,
    "Analysis Download Direct IO": 2.31,
    "Production Upload": 0.0,
    "Production Download": 0.0,
    "Total": 1.92,
}


def test_table1_activity_breakdown(benchmark, eightday, eightday_report):
    exact = eightday_report["exact"]

    rows = benchmark(activity_breakdown, exact, eightday.source.columns)

    by_activity = {r.activity: r for r in rows}

    # Production transfers never match (block-granularity mismatch).
    assert by_activity["Production Upload"].matched == 0
    assert by_activity["Production Download"].matched == 0
    # Upload is the best-matched activity; Direct IO the worst nonzero.
    au = by_activity["Analysis Upload"]
    ad = by_activity["Analysis Download"]
    addio = by_activity["Analysis Download Direct IO"]
    assert au.pct > 50.0
    assert au.pct > ad.pct > addio.pct > 0.0
    # Overall match rate is low single digits.
    assert 0.0 < by_activity["Total"].pct < 15.0

    write_comparison(
        "table1_activity",
        paper={k: f"{v}%" for k, v in PAPER_ROWS.items()},
        measured={
            r.activity: {"matched": r.matched, "total": r.total, "pct": round(r.pct, 2)}
            for r in rows
        },
        notes="Ordering AU >> AD > ADDIO > production=0 is the reproduced claim.",
    )
