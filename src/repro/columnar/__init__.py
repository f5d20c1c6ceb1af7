"""Columnar dataplane: interned column packs + vectorized kernels.

This package lowers each materialized window into structure-of-arrays
packs — NumPy columns with dictionary-encoded strings — and runs
Algorithm 1's join and final filters as vectorized kernels
(:mod:`repro.columnar.engine`).  Downstream of matching,
:mod:`repro.columnar.frame` lowers each match result into a
:class:`MatchFrame` (per-job arrays + CSR ragged transfer mapping) and
:mod:`repro.columnar.kernels` supplies the array primitives the §5
analyses run on.  The plain-record reference implementations live in
``tests/oracle.py``; the parity suites hold this package bit-identical
to them.
"""

# The engine and frame modules reach back into repro.core (for
# matcher/JobMatch types), whose own init imports this package — so
# they load lazily (PEP 562) instead of during package init.  The
# leaf modules below (interner/kernels/packs) depend only on NumPy
# and the telemetry records and stay eager.
_LAZY = {
    "ColumnarIndex": "engine",
    "supports_columnar": "engine",
    "CLASS_ORDER": "frame",
    "MatchFrame": "frame",
}


def __getattr__(name):
    modname = _LAZY.get(name)
    if modname is not None:
        import importlib

        return getattr(importlib.import_module(f"{__name__}.{modname}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


from repro.columnar.interner import StringInterner  # noqa: E402
from repro.columnar.kernels import (  # noqa: E402
    bucket_accumulate,
    dense_codes,
    group_boundaries,
    interval_union_lengths,
    segmented_cummax,
)
from repro.columnar.packs import (  # noqa: E402
    FilePack,
    JobPack,
    RowCodes,
    TransferPack,
    WindowColumns,
    lower_files,
    lower_jobs,
    lower_transfers,
)


__all__ = [
    "CLASS_ORDER",
    "ColumnarIndex",
    "FilePack",
    "JobPack",
    "MatchFrame",
    "RowCodes",
    "StringInterner",
    "TransferPack",
    "WindowColumns",
    "bucket_accumulate",
    "dense_codes",
    "group_boundaries",
    "interval_union_lengths",
    "lower_files",
    "lower_jobs",
    "lower_transfers",
    "segmented_cummax",
    "supports_columnar",
]
