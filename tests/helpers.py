"""Shared builders for unit tests: records, topologies, harnesses."""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.columnar.packs import WindowColumns
from repro.grid.presets import build_mini
from repro.grid.topology import GridTopology
from repro.telemetry.records import FileRecord, JobRecord, TransferRecord


def make_job(
    pandaid: int = 1,
    jeditaskid: int = 100,
    site: str = "SITE-A",
    creation: float = 0.0,
    start: Optional[float] = 1000.0,
    end: Optional[float] = 2000.0,
    nin: int = 3000,
    nout: int = 0,
    status: str = "finished",
    taskstatus: str = "finished",
    label: str = "user",
    error_code: int = 0,
) -> JobRecord:
    return JobRecord(
        pandaid=pandaid,
        jeditaskid=jeditaskid,
        computingsite=site,
        prodsourcelabel=label,
        status=status,
        taskstatus=taskstatus,
        creationtime=creation,
        starttime=start,
        endtime=end,
        ninputfilebytes=nin,
        noutputfilebytes=nout,
        error_code=error_code,
    )


def make_file(
    pandaid: int = 1,
    jeditaskid: int = 100,
    lfn: str = "f1",
    dataset: str = "ds",
    proddblock: str = "ds",
    scope: str = "user.x",
    size: int = 1000,
    ftype: str = "input",
) -> FileRecord:
    return FileRecord(
        pandaid=pandaid,
        jeditaskid=jeditaskid,
        lfn=lfn,
        dataset=dataset,
        proddblock=proddblock,
        scope=scope,
        file_size=size,
        ftype=ftype,
    )


def make_transfer(
    row_id: int = 1,
    lfn: str = "f1",
    dataset: str = "ds",
    proddblock: str = "ds",
    scope: str = "user.x",
    size: int = 1000,
    src: str = "SITE-A",
    dst: str = "SITE-A",
    activity: str = "Analysis Download",
    download: bool = True,
    upload: bool = False,
    start: float = 100.0,
    end: float = 200.0,
    jeditaskid: int = 100,
    success: bool = True,
) -> TransferRecord:
    return TransferRecord(
        row_id=row_id,
        lfn=lfn,
        scope=scope,
        dataset=dataset,
        proddblock=proddblock,
        file_size=size,
        source_site=src,
        destination_site=dst,
        activity=activity,
        is_download=download,
        is_upload=upload,
        starttime=start,
        endtime=end,
        success=success,
        jeditaskid=jeditaskid,
    )


def matching_triple(n_files: int = 3, site: str = "SITE-A"):
    """A job, its file rows, and perfectly matching transfers."""
    job = make_job(site=site, nin=n_files * 1000)
    files = [
        make_file(lfn=f"f{i}", size=1000)
        for i in range(n_files)
    ]
    transfers = [
        make_transfer(row_id=i + 1, lfn=f"f{i}", size=1000, src=site, dst=site,
                      start=100.0 + i, end=150.0 + i)
        for i in range(n_files)
    ]
    return job, files, transfers


def columns_of(
    jobs: Sequence[JobRecord] = (), transfers: Sequence[TransferRecord] = ()
) -> WindowColumns:
    """Hand-built records lowered into the packs the analyses read."""
    return WindowColumns.lower(jobs, [], transfers)


def mini_topology(seed: int = 3) -> GridTopology:
    return build_mini(seed=seed)
