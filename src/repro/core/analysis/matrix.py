"""The site-to-site transfer volume matrix (Fig 3, §3.2).

Cell (i, j) holds the total bytes moved from source site i to
destination site j over the window.  The UNKNOWN pseudo-site gets its
own row/column, aggregating "all transfers with either an unidentified
source or destination" exactly as in the paper.  The matrix is built
from the interned site columns of
:class:`~repro.columnar.packs.WindowColumns`; ``tests/oracle.py``
holds the per-record loop the parity tests check it against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.columnar.packs import WindowColumns
from repro.telemetry.records import UNKNOWN_SITE


@dataclass
class TransferMatrix:
    """The Fig 3 heat-map data plus the summary statistics §3.2 quotes."""

    site_names: List[str]
    volume: np.ndarray  # bytes, shape (n, n)

    def __post_init__(self) -> None:
        n = len(self.site_names)
        if self.volume.shape != (n, n):
            raise ValueError(f"matrix shape {self.volume.shape} != ({n}, {n})")

    @property
    def n_sites(self) -> int:
        return len(self.site_names)

    @property
    def total_volume(self) -> float:
        return float(self.volume.sum())

    @property
    def local_volume(self) -> float:
        """Diagonal mass — PanDA's locality principle makes it dominate."""
        return float(np.trace(self.volume))

    @property
    def remote_volume(self) -> float:
        return self.total_volume - self.local_volume

    @property
    def local_fraction(self) -> float:
        total = self.total_volume
        return self.local_volume / total if total else 0.0

    def mean_pair_volume(self, active_only: bool = True) -> float:
        """Average volume across site pairs (§3.2's 77.75 TB average)."""
        if active_only:
            vals = self.volume[self.volume > 0]
            return float(vals.mean()) if len(vals) else 0.0
        return float(self.volume.mean())

    def geometric_mean_pair_volume(self) -> float:
        """Geometric mean over *active* pairs (§3.2's 1.11 TB geomean —
        orders of magnitude below the arithmetic mean: the imbalance)."""
        vals = self.volume[self.volume > 0]
        if len(vals) == 0:
            return 0.0
        return float(np.exp(np.mean(np.log(vals))))

    def outliers(self, threshold: float) -> List[Tuple[str, str, float]]:
        """Cells exceeding ``threshold`` bytes, largest first."""
        out = []
        idx = np.argwhere(self.volume > threshold)
        for i, j in idx:
            out.append((self.site_names[i], self.site_names[j], float(self.volume[i, j])))
        out.sort(key=lambda x: -x[2])
        return out

    def unknown_volume(self) -> float:
        """Mass on the UNKNOWN row + column (double counting the corner once)."""
        if UNKNOWN_SITE not in self.site_names:
            return 0.0
        k = self.site_names.index(UNKNOWN_SITE)
        return float(self.volume[k, :].sum() + self.volume[:, k].sum() - self.volume[k, k])

    def sites_with_traffic(self) -> int:
        """Number of sites appearing as source or destination of any bytes."""
        active = (self.volume.sum(axis=0) > 0) | (self.volume.sum(axis=1) > 0)
        return int(active.sum())

    def imbalance_ratio(self) -> float:
        """Arithmetic-to-geometric mean ratio over active pairs — the
        paper's quantitative signature of extreme imbalance (~70x)."""
        g = self.geometric_mean_pair_volume()
        return self.mean_pair_volume() / g if g > 0 else 0.0


def build_transfer_matrix(
    columns: WindowColumns, site_names: Sequence[str]
) -> TransferMatrix:
    """Accumulate transfer volumes into the site matrix.

    ``site_names`` must include ``UNKNOWN`` to receive mislabelled
    endpoints; transfers naming sites outside the list are folded into
    UNKNOWN as well (invalid labels, §4.3).  One code → matrix-index
    table gather over the interned site columns maps each transfer to
    a flat ``src * n + dst`` cell, and one bincount sums the bytes.
    """
    names = list(site_names)
    index: Dict[str, int] = {n: i for i, n in enumerate(names)}
    if UNKNOWN_SITE not in index:
        raise ValueError("site_names must include the UNKNOWN pseudo-site")
    unk = index[UNKNOWN_SITE]
    n = len(names)
    tp, it = columns.transfers, columns.interner
    if len(tp) == 0:
        return TransferMatrix(site_names=names, volume=np.zeros((n, n)))
    lut = np.full(len(it), unk, dtype=np.int64)
    for name, i in index.items():
        code = it.code_of(name)
        if code >= 0:
            lut[code] = i
    cell = lut[tp.src] * n + lut[tp.dst]
    flat = np.bincount(cell, weights=tp.size.astype(np.float64), minlength=n * n)
    return TransferMatrix(site_names=names, volume=flat.reshape(n, n))
