"""Telemetry record schemas.

Field names mirror the attributes Algorithm 1 joins on: jobs expose
``pandaid``, ``jeditaskid``, ``computingsite``, ``ninputfilebytes``,
``noutputfilebytes`` and lifecycle timestamps; file records expose
``pandaid``, ``jeditaskid``, ``lfn``, ``dataset``, ``proddblock``,
``scope``, ``file_size``; transfer records expose the file attributes
plus sites, activity, direction flags, and timestamps — but **no job
identifier**, which is the entire reason the matching problem exists.

All three record types are ``slots=True`` dataclasses: at
millions-of-rows scale the per-record ``__dict__`` dominates both the
resident size of a window and the cost of pickling record batches to
executor workers, and slot access is what the matcher hooks' per-candidate
loops and the columnar lowering spend most of their time on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

#: Sentinel used in degraded records when a site label was lost.
UNKNOWN_SITE = "UNKNOWN"


@dataclass(slots=True)
class JobRecord:
    """One row of PanDA job metadata (as queried from the job archive)."""

    pandaid: int
    jeditaskid: int
    computingsite: str
    prodsourcelabel: str  # "user" for analysis, "managed" for production
    status: str  # "finished" | "failed"
    taskstatus: str  # "finished" | "failed" | "running"
    creationtime: float
    starttime: Optional[float]
    endtime: Optional[float]
    ninputfilebytes: int
    noutputfilebytes: int
    error_code: int = 0
    error_message: str = ""

    @property
    def queuing_time(self) -> Optional[float]:
        if self.starttime is None:
            return None
        return self.starttime - self.creationtime

    @property
    def wall_time(self) -> Optional[float]:
        if self.starttime is None or self.endtime is None:
            return None
        return self.endtime - self.starttime

    @property
    def succeeded(self) -> bool:
        return self.status == "finished"


@dataclass(slots=True)
class FileRecord:
    """One row of PanDA's file table: a file a job consumed or produced."""

    pandaid: int
    jeditaskid: int
    lfn: str
    dataset: str
    proddblock: str
    scope: str
    file_size: int
    ftype: str  # "input" | "output"


@dataclass(slots=True)
class TransferRecord:
    """One Rucio transfer event, as recorded (possibly degraded).

    ``row_id`` is an opaque storage row identifier (never a join key for
    the matching algorithms; it exists so evaluation code can look up
    the ground truth).  ``jeditaskid`` is 0 when the record lost or
    never had task identity.
    """

    row_id: int
    lfn: str
    scope: str
    dataset: str
    proddblock: str
    file_size: int
    source_site: str
    destination_site: str
    activity: str
    is_download: bool
    is_upload: bool
    starttime: float
    endtime: float
    success: bool = True
    jeditaskid: int = 0

    @property
    def has_jeditaskid(self) -> bool:
        return self.jeditaskid > 0

    @property
    def duration(self) -> float:
        return self.endtime - self.starttime

    @property
    def throughput(self) -> float:
        d = self.duration
        return self.file_size / d if d > 0 else 0.0

    @property
    def is_local(self) -> bool:
        """Local = same recorded source and destination site.

        Records with an UNKNOWN endpoint are *not* local — this is what
        pushes RM2's extra matches into the remote column of Table 2a.
        """
        return (
            self.source_site == self.destination_site
            and self.source_site != UNKNOWN_SITE
            and bool(self.source_site)
        )

    @property
    def has_unknown_site(self) -> bool:
        return (
            self.source_site == UNKNOWN_SITE
            or self.destination_site == UNKNOWN_SITE
            or not self.source_site
            or not self.destination_site
        )
