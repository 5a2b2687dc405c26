"""JSON persistence for simulation results and engine checkpoints.

Long sweeps (seed grids, paper-scale tables) are worth keeping; this
module round-trips :class:`~repro.scheduler.metrics.SimulationResult`
through plain JSON so results can be archived, diffed, and re-analyzed
without rerunning the simulator. Jobs serialize with their pattern
*names*; deserialization rebuilds pattern objects from the registry, so
custom patterns must be registered before loading.

Format history:

* **v1** — records only.
* **v2** — per-record fault fields (``requeues`` /
  ``wasted_node_seconds`` / ``failed``) and the top-level ``unstarted``
  job list.
* **v3** — a top-level ``digest`` (canonical SHA-256 of the payload,
  verified on load so a corrupted artifact is rejected instead of
  silently mis-analyzed), and a second artifact kind: the **engine
  checkpoint** (``kind: "engine-checkpoint"``) produced by
  :meth:`~repro.scheduler.engine.SchedulerEngine.snapshot` — the fully
  deterministic mid-run state that ``repro-sched simulate
  --resume-from`` continues from. v1/v2 result files still load (they
  simply carry no digest to verify).
* **v4** — checkpoints only: a trailing ``#sha256:<hex>`` *footer*
  covering the exact bytes of the JSON body (see
  :mod:`repro.runs.integrity`), so corruption anywhere in the file —
  including JSON whitespace the object-level digest cannot see — is
  caught before parsing. v3 checkpoints (no footer) still load; result
  files stay at v3.
* **v5** — checkpoints only: the event heap holds only FINISH and fault
  events. A ``jobs=`` run stores its arrivals still to come as an
  ``arrivals`` job list (a streaming run keeps its ``stream`` cursor),
  and the count of arrivals left is gone. v3/v4 checkpoints still load:
  their heap SUBMIT events become the arrival list.

Corrupt artifacts — invalid JSON, digest mismatches, footer
mismatches — raise the typed
:class:`~repro.runs.integrity.IntegrityError` (a ``ValueError``
subclass) instead of opaque decoder tracebacks.

All file writes go through :func:`repro.runs.atomic.atomic_write`: a
crash mid-dump never leaves a truncated JSON artifact.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

import numpy as np

from ..cluster.job import CommComponent, Job, JobKind
from ..faults.events import FaultEvent
from ..patterns.registry import get_pattern
from ..runs.atomic import atomic_write
from ..runs.digest import digest_obj
from ..runs.integrity import IntegrityError, verify_footer, write_footer
from .metrics import JobRecord, SimulationResult

__all__ = [
    "result_to_dict",
    "result_from_dict",
    "dump_result",
    "load_result",
    "job_to_dict",
    "job_from_dict",
    "fault_to_dict",
    "fault_from_dict",
    "record_to_dict",
    "record_from_dict",
    "dump_snapshot",
    "load_snapshot",
    "SNAPSHOT_KIND",
    "SNAPSHOT_FORMAT_VERSION",
]

#: v3 adds the verified top-level ``digest`` and the engine-checkpoint
#: artifact kind; v1/v2 result files load unchanged (v1 with fault-free
#: defaults).
_FORMAT_VERSION = 3
_READABLE_VERSIONS = (1, 2, 3)

#: v5 checkpoints store pending arrivals outside the event heap; v4
#: (heap SUBMIT events) and v3 (also footer-less) checkpoints still load.
SNAPSHOT_FORMAT_VERSION = 5
_SNAPSHOT_READABLE_VERSIONS = (3, 4, 5)

SNAPSHOT_KIND = "engine-checkpoint"


def job_to_dict(job: Job) -> Dict[str, Any]:
    """Plain-JSON representation of one :class:`Job`."""
    return {
        "job_id": job.job_id,
        "submit_time": job.submit_time,
        "nodes": job.nodes,
        "runtime": job.runtime,
        "kind": job.kind.value,
        "comm": [
            {"pattern": c.pattern.name, "fraction": c.fraction} for c in job.comm
        ],
    }


def job_from_dict(data: Dict[str, Any]) -> Job:
    """Inverse of :func:`job_to_dict` (patterns rebuilt from the registry)."""
    comm = tuple(
        CommComponent(get_pattern(c["pattern"]), float(c["fraction"]))
        for c in data["comm"]
    )
    return Job(
        job_id=int(data["job_id"]),
        submit_time=float(data["submit_time"]),
        nodes=int(data["nodes"]),
        runtime=float(data["runtime"]),
        kind=JobKind(data["kind"]),
        comm=comm,
    )


def fault_to_dict(fault: FaultEvent) -> Dict[str, Any]:
    """Plain-JSON representation of one :class:`FaultEvent`."""
    return {
        "time": fault.time,
        "action": fault.action,
        "nodes": list(fault.nodes),
        "cause": fault.cause,
        "target": fault.target,
    }


def fault_from_dict(data: Dict[str, Any]) -> FaultEvent:
    """Inverse of :func:`fault_to_dict`."""
    return FaultEvent(
        time=float(data["time"]),
        action=str(data["action"]),
        nodes=tuple(int(n) for n in data["nodes"]),
        cause=str(data.get("cause", "node")),
        target=str(data.get("target", "")),
    )


def record_to_dict(record: JobRecord) -> Dict[str, Any]:
    """Plain-JSON representation of one :class:`JobRecord`."""
    return {
        "job": job_to_dict(record.job),
        "start_time": record.start_time,
        "finish_time": record.finish_time,
        "nodes": record.nodes.tolist(),
        "cost_jobaware": dict(record.cost_jobaware),
        "cost_default": dict(record.cost_default),
        "requeues": record.requeues,
        "wasted_node_seconds": record.wasted_node_seconds,
        "failed": record.failed,
    }


def record_from_dict(rec: Dict[str, Any]) -> JobRecord:
    """Inverse of :func:`record_to_dict`; v1 records get fault-free defaults."""
    return JobRecord(
        job=job_from_dict(rec["job"]),
        start_time=float(rec["start_time"]),
        finish_time=float(rec["finish_time"]),
        nodes=np.asarray(rec["nodes"], dtype=np.int64),
        cost_jobaware={k: float(v) for k, v in rec["cost_jobaware"].items()},
        cost_default={k: float(v) for k, v in rec["cost_default"].items()},
        requeues=int(rec.get("requeues", 0)),
        wasted_node_seconds=float(rec.get("wasted_node_seconds", 0.0)),
        failed=bool(rec.get("failed", False)),
    )


def result_to_dict(result: SimulationResult) -> Dict[str, Any]:
    """Plain-JSON-serializable representation of a result (format v3).

    The embedded ``digest`` covers everything else in the dict, so a
    truncated or bit-flipped artifact is detected on load.
    """
    data = {
        "format_version": _FORMAT_VERSION,
        "allocator": result.allocator_name,
        "records": [record_to_dict(r) for r in result.records],
        "unstarted": [job_to_dict(j) for j in result.unstarted],
    }
    data["digest"] = digest_obj(data)
    return data


def result_from_dict(data: Dict[str, Any]) -> SimulationResult:
    """Inverse of :func:`result_to_dict`; validates version and digest."""
    version = data.get("format_version")
    if version not in _READABLE_VERSIONS:
        raise ValueError(
            f"unsupported result format version {version!r} "
            f"(this build reads {list(_READABLE_VERSIONS)})"
        )
    stored_digest = data.get("digest")
    if stored_digest is not None:
        payload = {k: v for k, v in data.items() if k != "digest"}
        actual = digest_obj(payload)
        if actual != stored_digest:
            raise IntegrityError(
                "result",
                f"digest mismatch: file says {stored_digest}, "
                f"content hashes to {actual} — the artifact is corrupt",
            )
    records: List[JobRecord] = [record_from_dict(rec) for rec in data["records"]]
    unstarted = [job_from_dict(j) for j in data.get("unstarted", [])]
    return SimulationResult(data["allocator"], records, unstarted=unstarted)


def dump_result(result: SimulationResult, path) -> None:
    """Atomically write a result as JSON to ``path``."""
    with atomic_write(path) as fh:
        json.dump(result_to_dict(result), fh, indent=1)


def load_result(path) -> SimulationResult:
    """Read a result JSON written by :func:`dump_result`.

    Corruption — invalid JSON, broken UTF-8, or a digest mismatch —
    raises :class:`~repro.runs.integrity.IntegrityError` naming the
    file.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        data = json.loads(blob.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        detail = getattr(exc, "msg", None) or str(exc)
        raise IntegrityError(
            path, f"not valid JSON ({detail}) — the artifact is corrupt"
        ) from exc
    try:
        return result_from_dict(data)
    except IntegrityError as exc:
        raise IntegrityError(path, exc.detail) from exc


# ----------------------------------------------------------------------
# engine checkpoints
# ----------------------------------------------------------------------


def dump_snapshot(snapshot: Dict[str, Any], path) -> None:
    """Atomically write an engine checkpoint produced by ``snapshot()``.

    Atomicity is the point: checkpoints are written *mid-run*, exactly
    when a crash is most likely, and a resumable run is only as good as
    its last uncorrupted checkpoint.
    """
    if snapshot.get("kind") != SNAPSHOT_KIND:
        raise ValueError(
            f"not an engine checkpoint: kind={snapshot.get('kind')!r}"
        )
    if "digest" not in snapshot:
        snapshot = dict(snapshot)
        snapshot["digest"] = digest_obj(snapshot)
    body = (json.dumps(snapshot, indent=1) + "\n").encode("utf-8")
    with atomic_write(path, mode="wb") as fh:
        fh.write(body)
        fh.write(write_footer(body))


def load_snapshot(path) -> Dict[str, Any]:
    """Read and validate an engine checkpoint file.

    The v4/v5 sha256 footer is verified against the body bytes before any
    parsing; footer-less v3 files load with object-digest verification
    only. All corruption raises
    :class:`~repro.runs.integrity.IntegrityError`.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    body = verify_footer(blob, path)
    try:
        data = json.loads(body.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        detail = getattr(exc, "msg", None) or str(exc)
        raise IntegrityError(
            path, f"not valid JSON ({detail}) — the checkpoint is corrupt"
        ) from exc
    if not isinstance(data, dict) or data.get("kind") != SNAPSHOT_KIND:
        raise ValueError(f"{path}: not an engine checkpoint file")
    version = data.get("format_version")
    if version not in _SNAPSHOT_READABLE_VERSIONS:
        raise ValueError(
            f"unsupported checkpoint format version {version!r} "
            f"(this build reads {list(_SNAPSHOT_READABLE_VERSIONS)})"
        )
    stored_digest = data.get("digest")
    if stored_digest is not None:
        payload = {k: v for k, v in data.items() if k != "digest"}
        actual = digest_obj(payload)
        if actual != stored_digest:
            raise IntegrityError(
                path, "checkpoint digest mismatch — the file is corrupt"
            )
    return data
