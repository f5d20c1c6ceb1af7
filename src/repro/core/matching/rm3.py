"""RM3 — a scored probabilistic matcher beyond the paper's rule ladder.

The paper's ladder relaxes Algorithm 1 rule by rule (Exact → RM1 drops
the size check → RM2 tolerates unknown sites).  Each step is all or
nothing, and all three share the same *candidate join*: a transfer must
match a PanDA file row on (jeditaskid, lfn, dataset, proddblock, scope,
**file_size**) exactly.  Degraded telemetry records sizes imprecisely
("file sizes are not recorded precisely down to the byte level", §4.3;
Direct-IO streams log partial-read byte counts), so for a large slice
of true pairs the join itself never fires and no amount of post-join
relaxation can recover them.

RM3 therefore relaxes the join — attribute equality *except*
``file_size`` — and replaces the binary rules with a per-candidate
likelihood score and a decision threshold, so each surviving defect
degrades the score instead of vetoing the match.

Score model (all factors in ``[0, 1]``, combined by multiplication)::

    score(t, rel, job) = (f_time(t, job) * f_site(t, job)) * f_size(rel)

* ``f_time = tau / (tau + lead)`` with ``lead = max(0, creationtime -
  starttime)``: transfers for a job start once it exists, so a start
  far *before* the job's creation is evidence of an unrelated
  (background) movement of the same file.  Condition (1) of Algorithm 1
  — ``starttime < endtime`` — stays a *hard* gate, which is also what
  keeps the streaming path bit-identical: a job closes only when the
  watermark passes its endtime, so every transfer that can pass the
  gate has arrived by close time.
* ``f_site`` ∈ {1, ``site_prior``, ``site_contra``}: 1 when the
  relevant endpoint (download destination / upload source) equals the
  job's computing site, the prior when the label is missing or invalid
  (RM2's uncertainty, reusing :meth:`RM2Matcher._site_uncertain`), and
  the contradiction penalty when it names a different known site.
  Undirected records are gated out.
* ``f_size = rho / (rho + rel)`` where ``rel`` is the candidate's
  relative size mismatch against the file row that produced it in the
  join: ``|transfer size - file size| / max(file size, 1)``.  An exact
  size scores 1 (the Algorithm-1 join's pass); a 6% accounting drift
  scores ~0.89; a Direct-IO partial read of 15% of the file scores
  ~0.37.

Threshold semantics: a candidate is kept when ``score >= threshold``.
At ``threshold = 0`` every time-gated directed candidate survives —
and the relaxed join's candidates are a superset of the sized join's,
so RM3 at 0 ⊇ Exact/RM1/RM2.  Raising the threshold only removes
pairs, so recall is non-increasing in the threshold.  The committed
default is calibrated on the 8-day campaign
(``benchmarks/bench_matching_quality.py``) so RM3 dominates RM2 on
pair F1 across degradation severities.

Bit-identity discipline: the columnar kernel
(:meth:`repro.columnar.engine.ColumnarIndex.rm3_scores`) must reproduce
this reference exactly, so the score uses only IEEE-deterministic
float64 operations (+, -, *, /, abs, comparisons — no
transcendentals), the product is associated ``(f_time * f_site) *
f_size`` in the kernel and the hooks, and integer operands are explicitly
converted to float *before* dividing — Python's int/int true division
rounds the exact rational, which can differ from NumPy's
convert-then-divide beyond 2**53.  The per-candidate ``rel`` follows
the join's first-occurrence dedup: when several file rows reach the
same transfer, the file row that enumerates first (insertion order —
identical in the kernel and the reference join) defines the mismatch.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.matching.rm2 import RM2Matcher
from repro.telemetry.records import JobRecord, TransferRecord

#: Decision threshold committed after calibration against ground truth
#: (see ``benchmarks/results/matching_quality.json``): keeps strict-site
#: candidates through realistic size drift, admits uncertain-site
#: candidates unless their size evidence is also weak, and always
#: rejects contradicting sites.
DEFAULT_RM3_THRESHOLD = 0.35


class RM3Matcher(RM2Matcher):
    """Scored matcher: time-proximity x site-prior x size-tolerance."""

    name = "rm3"
    #: Selects the size-relaxed candidate join and the scored
    #: ``match_job_scored`` decision.
    size_tolerant_join = True
    #: The binary whole-set size rule never applies to RM3.
    use_size_check = False

    def __init__(
        self,
        known_sites=None,
        threshold: float = DEFAULT_RM3_THRESHOLD,
        tau: float = 3600.0,
        rho: float = 0.5,
        site_prior: float = 0.6,
        site_contra: float = 0.05,
    ) -> None:
        super().__init__(known_sites)
        if not 0.0 <= threshold:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        if tau <= 0 or rho <= 0:
            raise ValueError("tau and rho must be > 0")
        if not 0.0 <= site_contra <= site_prior <= 1.0:
            raise ValueError("need 0 <= site_contra <= site_prior <= 1")
        self.threshold = float(threshold)
        self.tau = float(tau)
        self.rho = float(rho)
        self.site_prior = float(site_prior)
        self.site_contra = float(site_contra)

    # -- feature terms ---------------------------------------------------------

    def time_feature(self, t: TransferRecord, job: JobRecord) -> float:
        """``tau / (tau + lead)``: decays with start-before-creation lead."""
        lead = max(0.0, job.creationtime - t.starttime)
        return self.tau / (self.tau + lead)

    def site_feature(self, t: TransferRecord, job: JobRecord) -> float:
        """1 on endpoint match, the prior when uncertain, else the penalty."""
        if t.is_download:
            label = t.destination_site
        elif t.is_upload:
            label = t.source_site
        else:
            return 0.0
        if label == job.computingsite:
            return 1.0
        if self._site_uncertain(label):
            return self.site_prior
        return self.site_contra

    def size_feature(self, rel: float) -> float:
        """``rho / (rho + rel)`` on the candidate's relative size mismatch."""
        return self.rho / (self.rho + rel)

    def score(self, t: TransferRecord, rel: float, job: JobRecord) -> float:
        """One candidate's match likelihood (association order is part
        of the bit-identity contract with the columnar kernel)."""
        return (self.time_feature(t, job) * self.site_feature(t, job)) * self.size_feature(rel)

    # -- template override -----------------------------------------------------

    def match_job_scored(
        self, job: JobRecord, pairs: Sequence[Tuple[TransferRecord, float]]
    ) -> List[TransferRecord]:
        """Scored decision over the size-relaxed (candidate, rel) pairs."""
        end = job.endtime
        if end is None:
            return []
        return [
            t
            for t, rel in pairs
            if t.starttime < end
            and (t.is_download or t.is_upload)
            and self.score(t, rel, job) >= self.threshold
        ]


__all__ = ["RM3Matcher", "DEFAULT_RM3_THRESHOLD"]
