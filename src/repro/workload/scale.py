"""Vectorized paper-scale workload synthesis.

The event-driven simulator (:mod:`repro.workload.generator`) produces
richly correlated telemetry but pays Python-level cost per event — fine
at the 3.6k-job study scale, hopeless at the paper's 966k-job window.
This module synthesizes telemetry *directly in columnar form*: every
column is built by NumPy array programs, string vocabularies are
bounded pools interned once, and the result is a
:class:`~repro.metastore.packsource.PackSource` — no million-record
Python materialization ever happens.

The population is shaped so the matching ladder behaves like §4.3's:

* a ``matched_fraction`` of jobs have site/time-consistent download
  transfers for *all* their input files (exact-matchable);
* a ``partial_fraction`` of those lose one file's transfer, breaking
  the whole-set size check (RM1 recovers them);
* an ``unknown_site_fraction`` have their downloads recorded against
  ``UNKNOWN`` destinations (RM2 recovers them);
* a ``late_fraction`` have transfers starting after job end (no method
  may recover them);
* the remaining transfer volume is task-anonymous background movement
  (``jeditaskid = 0``), which the candidate join excludes by
  construction — matching the paper's ~77% of transfers without task
  identity.

Because the join key is ``(jeditaskid, lfn)`` and lfns are unique
within a task, the expected per-method matched-job counts are exact,
not probabilistic — the parity/scale tests assert them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Set, Tuple

import numpy as np

from repro.columnar.interner import StringInterner
from repro.columnar.packs import FilePack, JobPack, TransferPack, WindowColumns
from repro.metastore.packsource import PackSource, SidecarColumns
from repro.obs import get_obs
from repro.telemetry.records import UNKNOWN_SITE


@dataclass(frozen=True)
class ScaleConfig:
    """One rung of the scale ladder."""

    n_jobs: int = 3600
    seed: int = 2025
    days: float = 8.0
    n_sites: int = 32
    files_per_job_min: int = 2
    files_per_job_max: int = 4  # inclusive
    jobs_per_task: int = 12
    user_fraction: float = 0.95
    matched_fraction: float = 0.45
    partial_fraction: float = 0.12
    unknown_site_fraction: float = 0.10
    late_fraction: float = 0.05
    transfers_per_job: float = 6.5
    failed_fraction: float = 0.08
    lfn_pool: int = 250_000
    shard_seconds: float = 86400.0

    @property
    def window(self) -> Tuple[float, float]:
        return (0.0, self.days * 86400.0)


@dataclass
class ScaleDataset:
    """Synthesized telemetry plus the ground truth the shape implies."""

    source: PackSource
    config: ScaleConfig
    known_sites: Set[str]
    n_jobs: int
    n_user_jobs: int
    n_files: int
    n_transfers: int
    n_transfers_with_taskid: int
    #: Expected matched *user* job counts per method (exact by
    #: construction; see module docstring).
    expected_matches: Dict[str, int] = field(default_factory=dict)

    @property
    def window(self) -> Tuple[float, float]:
        return self.config.window


def _lognormal_int(rng, mean: float, sigma: float, n: int, lo: int) -> np.ndarray:
    out = rng.lognormal(mean=np.log(mean), sigma=sigma, size=n)
    return np.maximum(out.astype(np.int64), lo)


def synthesize(config: ScaleConfig) -> ScaleDataset:
    """Build one rung's telemetry as a sharded :class:`PackSource`."""
    with get_obs().tracer.span("workload.scale_synthesize", cat="workload") as sp:
        ds = _synthesize_inner(config)
        sp.set("n_jobs", ds.n_jobs)
        sp.set("n_files", ds.n_files)
        sp.set("n_transfers", ds.n_transfers)
    return ds


def _synthesize_inner(config: ScaleConfig) -> ScaleDataset:
    rng = np.random.default_rng(config.seed)
    n = int(config.n_jobs)
    if n <= 0:
        raise ValueError("n_jobs must be positive")
    t0, t1 = config.window
    w = t1 - t0
    n_tasks = (n + config.jobs_per_task - 1) // config.jobs_per_task

    # -- vocabulary (bounded pools, interned once, codes are arrays) ---------
    it = StringInterner()
    site_names = [f"SITE-{i:03d}" for i in range(config.n_sites)]
    site_codes = np.array([it.intern(s) for s in site_names], dtype=np.int64)
    unknown_code = it.intern(UNKNOWN_SITE)
    code_finished = it.intern("finished")
    code_failed = it.intern("failed")
    code_user = it.intern("user")
    code_managed = it.intern("managed")
    code_download = it.intern("Analysis Download")
    bg_activity_codes = np.array(
        [it.intern(s) for s in ("Production Input", "Data Consolidation", "Data Rebalancing")],
        dtype=np.int64,
    )
    code_empty = it.intern("")
    code_input = it.intern("input")
    scope_user = np.array(
        [it.intern(f"user.u{i:04d}") for i in range(min(500, n_tasks))], dtype=np.int64
    )
    scope_managed = it.intern("mc23_13p6TeV")
    ds_codes = np.array(
        [it.intern(f"ds.task{t:07d}") for t in range(n_tasks)], dtype=np.int64
    )
    pool = min(config.lfn_pool, n * config.files_per_job_max)
    lfn_pool_codes = np.array(
        [it.intern(f"lfn{i:08d}") for i in range(pool)], dtype=np.int64
    )

    # -- jobs ----------------------------------------------------------------
    end = np.sort(rng.uniform(t0 + 0.05 * w, t1 - 1.0, size=n))
    duration = rng.lognormal(np.log(5400.0), 0.8, size=n)
    start = np.maximum(end - duration, 0.0)
    queuing = rng.lognormal(np.log(600.0), 1.0, size=n)
    creation = np.maximum(start - queuing, 0.0)
    task_idx = np.arange(n) // config.jobs_per_task
    pandaid = 1_000_000 + np.arange(n, dtype=np.int64)
    jeditaskid = 1 + task_idx.astype(np.int64)
    task_is_user = rng.random(n_tasks) < config.user_fraction
    is_user = task_is_user[task_idx]
    site_idx = rng.integers(0, config.n_sites, size=n)
    failed = rng.random(n) < config.failed_fraction
    status = np.where(failed, code_failed, code_finished)

    # -- files ---------------------------------------------------------------
    k = rng.integers(config.files_per_job_min, config.files_per_job_max + 1, size=n)
    n_files = int(k.sum())
    file_job = np.repeat(np.arange(n), k)  # file row -> job row
    offsets = np.concatenate([[0], np.cumsum(k)[:-1]])
    file_size = _lognormal_int(rng, 1.2e8, 1.0, n_files, lo=1024)
    # lfns unique within a task: consecutive global file rows share a
    # task only in runs far shorter than the pool, so modular indexing
    # never collides inside one task.
    file_lfn = lfn_pool_codes[np.arange(n_files) % pool]
    file_ds = ds_codes[task_idx[file_job]]
    file_scope = np.where(
        is_user[file_job],
        scope_user[task_idx[file_job] % len(scope_user)],
        scope_managed,
    )
    nin = np.add.reduceat(file_size, offsets)
    nout = np.zeros(n, dtype=np.int64)

    # -- matched (task-identified) download transfers ------------------------
    u = rng.random(n)
    matched = u < config.matched_fraction
    v = rng.random(n)
    p1 = config.partial_fraction
    p2 = p1 + config.unknown_site_fraction
    p3 = p2 + config.late_fraction
    partial = matched & (v < p1)
    unknown = matched & (v >= p1) & (v < p2)
    late = matched & (v >= p2) & (v < p3)

    within = np.arange(n_files) - offsets[file_job]
    f_matched = matched[file_job]
    # partial jobs stage all but their last input file
    dropped = partial[file_job] & (within == (k[file_job] - 1))
    tf = np.flatnonzero(f_matched & ~dropped)  # file rows with a transfer
    tj = file_job[tf]  # their job rows

    m = len(tf)
    lead = rng.uniform(600.0, 6 * 3600.0, size=m)
    m_start = np.maximum(end[tj] - lead, 0.5)
    is_late = late[tj]
    late_start = np.minimum(end[tj] + rng.uniform(60.0, 3600.0, size=m), t1 - 0.5)
    m_start = np.where(is_late, np.maximum(late_start, end[tj]), m_start)
    m_end = m_start + rng.uniform(30.0, 1800.0, size=m)
    m_dst = np.where(unknown[tj], unknown_code, site_codes[site_idx[tj]])
    m_src = site_codes[rng.integers(0, config.n_sites, size=m)]

    # -- background (task-anonymous) transfers -------------------------------
    n_bg = max(0, int(round(n * config.transfers_per_job)) - m)
    bg_lfn = lfn_pool_codes[rng.integers(0, pool, size=n_bg)]
    bg_ds = ds_codes[rng.integers(0, n_tasks, size=n_bg)]
    bg_scope = np.where(
        rng.random(n_bg) < 0.5,
        scope_user[rng.integers(0, len(scope_user), size=n_bg)],
        scope_managed,
    )
    bg_size = _lognormal_int(rng, 8.0e8, 1.2, n_bg, lo=1024)
    bg_src = site_codes[rng.integers(0, config.n_sites, size=n_bg)]
    bg_dst = site_codes[rng.integers(0, config.n_sites, size=n_bg)]
    bg_dst = np.where(rng.random(n_bg) < 0.05, unknown_code, bg_dst)
    bg_start = rng.uniform(t0, t1 - 1.0, size=n_bg)
    bg_end = bg_start + rng.uniform(30.0, 7200.0, size=n_bg)
    bg_dir = rng.random(n_bg)
    bg_down = bg_dir < 0.6
    bg_up = (bg_dir >= 0.6) & (bg_dir < 0.8)

    # -- assemble transfer columns in starttime order ------------------------
    nt = m + n_bg
    t_start = np.concatenate([m_start, bg_start])
    order = np.argsort(t_start, kind="stable")
    t_start = t_start[order]

    def merge(a: np.ndarray, b: np.ndarray, dtype=None) -> np.ndarray:
        out = np.concatenate([a, b])
        if dtype is not None:
            out = out.astype(dtype)
        return out[order]

    transfers = TransferPack(
        row_id=np.arange(nt, dtype=np.int64),
        jeditaskid=merge(jeditaskid[tj], np.zeros(n_bg, dtype=np.int64)),
        lfn=merge(file_lfn[tf], bg_lfn),
        dataset=merge(file_ds[tf], bg_ds),
        proddblock=merge(file_ds[tf], bg_ds),
        scope=merge(file_scope[tf], bg_scope),
        size=merge(file_size[tf], bg_size),
        src=merge(m_src, bg_src),
        dst=merge(m_dst, bg_dst),
        is_download=merge(np.ones(m, dtype=bool), bg_down),
        is_upload=merge(np.zeros(m, dtype=bool), bg_up),
        starttime=t_start,
        endtime=merge(m_end, bg_end),
        activity=merge(
            np.full(m, code_download, dtype=np.int64),
            bg_activity_codes[rng.integers(0, len(bg_activity_codes), size=n_bg)],
        ),
    )
    jobs = JobPack(
        pandaid=pandaid,
        jeditaskid=jeditaskid,
        site=site_codes[site_idx],
        endtime=end,
        nin=nin,
        nout=nout,
        status=status,
        taskstatus=status,
        creation=creation,
        start=start,
        error_code=np.zeros(n, dtype=np.int64),
    )
    files = FilePack(
        pandaid=pandaid[file_job],
        jeditaskid=jeditaskid[file_job],
        lfn=file_lfn,
        dataset=file_ds,
        proddblock=file_ds,
        scope=file_scope,
        size=file_size,
    )
    sidecar = SidecarColumns(
        job_label=np.where(is_user, code_user, code_managed),
        job_error_message=np.full(n, code_empty, dtype=np.int64),
        file_ftype=np.full(n_files, code_input, dtype=np.int64),
        transfer_success=np.ones(nt, dtype=bool),
    )
    columns = WindowColumns(interner=it, jobs=jobs, files=files, transfers=transfers)
    source = PackSource(columns, sidecar, shard_seconds=config.shard_seconds)

    clean = matched & ~partial & ~unknown & ~late
    expected = {
        "exact": int(np.sum(is_user & clean)),
        "rm1": int(np.sum(is_user & (clean | partial))),
        "rm2": int(np.sum(is_user & (clean | partial | unknown))),
    }
    return ScaleDataset(
        source=source,
        config=config,
        known_sites=set(site_names),
        n_jobs=n,
        n_user_jobs=int(np.sum(is_user)),
        n_files=n_files,
        n_transfers=nt,
        n_transfers_with_taskid=m,
        expected_matches=expected,
    )
