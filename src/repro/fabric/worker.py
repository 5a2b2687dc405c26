"""Fabric worker: lease consumer and cell executor.

A worker owns one directory under ``workers/<id>/`` and exactly three
kinds of writes — its heartbeat beacon, its outbox results, and nothing
else. It learns about work purely by scanning its inbox for assignment
files the coordinator dropped there, so the only coupling between the
two processes is the shared directory.

The execution path inside a cell is deliberately the serial sweep's
own: :func:`~repro.experiments.sweeps.point_config` →
:func:`~repro.experiments.runner.continuous_runs` →
:func:`~repro.experiments.sweeps.point_rows`. A fabric worker therefore
cannot drift from what ``sweep()`` would have computed — bit-identical
merged reports fall out of sharing the code, not from testing luck.

Crash-consistency is lease-shaped: a worker that dies mid-cell simply
stops heartbeating, the coordinator revokes its lease and re-assigns
the cell, and if the "dead" worker was merely slow its late outbox
result is deduplicated by digest. The worker never touches the journal.

:class:`WorkerChaos` hosts the failure injectors the PR 8 chaos battery
drives (die mid-cell, go heartbeat-silent while still working); they
live here so the chaos harness needs no private hooks.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Union

from ..experiments.runner import continuous_runs
from ..experiments.sweeps import point_config, point_rows
from ..runs.atomic import atomic_write_json
from ..runs.digest import digest_obj
from .protocol import FabricConfig, FabricPaths, load_fabric_config, write_heartbeat

__all__ = ["WorkerChaos", "run_worker", "spawn_local_workers"]


@dataclass
class WorkerChaos:
    """Failure injection knobs for one worker (chaos battery only).

    Cell selectors accept the literal ``"*"`` to mean "the first cell
    this worker is assigned" — chaos plans use it because which worker
    receives which cell is a scheduling outcome, not a plan input.

    Attributes
    ----------
    kill_on_cell:
        Cell key on whose assignment the worker dies with ``os._exit``
        (same signal-shaped death the PR 6 chaos harness uses): no
        cleanup, no outbox write, heartbeats just stop.
    hang_heartbeat_on_cell:
        Cell key on whose assignment the worker goes heartbeat-silent
        for ``hang_heartbeat_seconds`` while *still holding the cell* —
        the network-partition shape. The coordinator's watchdog revokes
        the lease; the worker later completes anyway, and its late
        result must be absorbed by digest dedupe, not duplicated.
    hang_heartbeat_seconds:
        Silence duration; must exceed the fabric's ``heartbeat_ttl``
        for the partition to be observed.
    """

    kill_on_cell: Optional[str] = None
    hang_heartbeat_on_cell: Optional[str] = None
    hang_heartbeat_seconds: float = 0.0
    _fired: Set[str] = field(default_factory=set, repr=False)

    def to_dict(self) -> Dict[str, Any]:
        """JSON form (crosses the process-spawn boundary)."""
        return {
            "kill_on_cell": self.kill_on_cell,
            "hang_heartbeat_on_cell": self.hang_heartbeat_on_cell,
            "hang_heartbeat_seconds": self.hang_heartbeat_seconds,
        }

    @classmethod
    def from_dict(cls, data: Optional[Dict[str, Any]]) -> Optional["WorkerChaos"]:
        """Inverse of :meth:`to_dict`; ``None`` passes through."""
        if data is None:
            return None
        return cls(
            kill_on_cell=data.get("kill_on_cell"),
            hang_heartbeat_on_cell=data.get("hang_heartbeat_on_cell"),
            hang_heartbeat_seconds=float(data.get("hang_heartbeat_seconds", 0.0)),
        )


class _Beacon:
    """The worker's heartbeat thread and its shared mutable state.

    A daemon thread publishes a monotonically increasing sequence
    number every ``heartbeat_interval`` seconds — including while the
    main thread is deep inside a long simulation, which is the whole
    point: liveness must be observable *during* work, not between
    cells. ``suppress_until`` implements the partition injector.
    """

    def __init__(self, paths: FabricPaths, worker_id: str, config: FabricConfig):
        self._paths = paths
        self._worker_id = worker_id
        self._interval = config.heartbeat_interval
        self.busy_key: Optional[str] = None
        self.done_cells = 0
        self.suppress_until = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"fabric-heartbeat-{worker_id}", daemon=True
        )

    def _run(self) -> None:
        seq = 0
        while not self._stop.is_set():
            if time.monotonic() >= self.suppress_until:
                seq += 1
                try:
                    write_heartbeat(
                        self._paths,
                        self._worker_id,
                        seq,
                        busy_key=self.busy_key,
                        done_cells=self.done_cells,
                    )
                except OSError:
                    # The fabric directory is being torn down; the next
                    # stop-file check ends the worker.
                    pass
            self._stop.wait(self._interval)

    def start(self) -> None:
        """Publish the first beat synchronously, then beat in the background.

        The synchronous first write means a worker is discoverable the
        instant :func:`run_worker` returns control to its main loop —
        no race between registration and the coordinator's first scan.
        """
        write_heartbeat(self._paths, self._worker_id, 0)
        self._thread.start()

    def stop(self) -> None:
        """Stop the beat thread (joined briefly; it is a daemon anyway)."""
        self._stop.set()
        self._thread.join(timeout=2.0)


def _compute_cell(
    point: Dict[str, Any], allocators: List[str]
) -> List[Dict[str, Any]]:
    """Run one cell exactly as the serial sweep would, returning its rows."""
    cfg = point_config(point, allocators)
    results = continuous_runs(cfg)
    return point_rows(point, results)


def _handle_assignment(
    paths: FabricPaths,
    worker_id: str,
    assignment_path: Path,
    beacon: _Beacon,
    chaos: Optional[WorkerChaos],
) -> bool:
    """Execute one inbox assignment; True when a cell was completed.

    Order of operations is the crash-safety contract: the outbox result
    is atomically written *before* the inbox file is removed, so a
    crash between the two leaves a completed result plus a stale
    assignment — re-executing the stale assignment later just produces
    a duplicate the coordinator dedupes. Work is never lost, only
    occasionally repeated.
    """
    try:
        with open(assignment_path) as fh:
            assignment = json.load(fh)
    except (OSError, json.JSONDecodeError):
        # Revoked out from under us, or not our kind of file: skip.
        return False
    if assignment.get("kind") != "fabric-assignment":
        return False
    key = str(assignment["key"])
    lease = str(assignment["lease"])

    if chaos is not None and chaos.kill_on_cell in (key, "*"):
        # Signal-shaped death: no cleanup, no result, heartbeats stop.
        os._exit(137)
    if (
        chaos is not None
        and chaos.hang_heartbeat_on_cell in (key, "*")
        and not chaos._fired
    ):
        chaos._fired.add(key)
        beacon.suppress_until = time.monotonic() + chaos.hang_heartbeat_seconds
        time.sleep(chaos.hang_heartbeat_seconds)

    beacon.busy_key = key
    try:
        try:
            rows = _compute_cell(
                dict(assignment["point"]), list(assignment["allocators"])
            )
        except Exception as exc:  # noqa: BLE001 - cell errors become protocol
            atomic_write_json(
                paths.outbox(worker_id) / f"{lease}.json",
                {
                    "kind": "fabric-error",
                    "key": key,
                    "lease": lease,
                    "worker": worker_id,
                    "error": f"{type(exc).__name__}: {exc}",
                },
            )
            return False
        atomic_write_json(
            paths.outbox(worker_id) / f"{lease}.json",
            {
                "kind": "fabric-result",
                "key": key,
                "lease": lease,
                "attempt": int(assignment.get("attempt", 1)),
                "worker": worker_id,
                "digest": digest_obj(rows),
                "rows": rows,
            },
        )
        beacon.done_cells += 1
        return True
    finally:
        beacon.busy_key = None
        try:
            assignment_path.unlink()
        except OSError:
            pass


def run_worker(
    root: Union[str, Path],
    worker_id: str,
    *,
    chaos: Optional[WorkerChaos] = None,
) -> int:
    """Run one fabric worker until the fabric (or this worker) is stopped.

    Registers under ``workers/<worker_id>/``, starts the heartbeat
    beacon, then loops: scan the inbox (sorted, so assignment order is
    deterministic), execute each assignment, post results to the
    outbox. Returns the number of cells completed. Exits when the
    global ``stop`` file or this worker's own ``stop`` file appears.

    This is what ``repro-sched fabric worker`` calls, so a fabric can
    mix workers spawned by the coordinator with workers attached by
    hand from other shells or machines sharing the directory.
    """
    paths = FabricPaths(root)
    config = load_fabric_config(root)
    inbox = paths.inbox(worker_id)
    inbox.mkdir(parents=True, exist_ok=True)
    paths.outbox(worker_id).mkdir(parents=True, exist_ok=True)
    own_stop = paths.worker(worker_id) / "stop"
    beacon = _Beacon(paths, worker_id, config)
    beacon.start()
    try:
        while True:
            if paths.stop.exists() or own_stop.exists():
                break
            assignments = sorted(inbox.glob("*.json"))
            if not assignments:
                time.sleep(config.poll_interval)
                continue
            for assignment_path in assignments:
                _handle_assignment(paths, worker_id, assignment_path, beacon, chaos)
    finally:
        beacon.stop()
    return beacon.done_cells


def _worker_main(
    root: str,
    worker_id: str,
    chaos: Optional[Dict[str, Any]],
) -> None:
    """Process entry point for :func:`spawn_local_workers` (picklable)."""
    run_worker(root, worker_id, chaos=WorkerChaos.from_dict(chaos))


def spawn_local_workers(
    root: Union[str, Path],
    count: int,
    *,
    chaos: Optional[Dict[str, WorkerChaos]] = None,
    name_prefix: str = "w",
) -> List[mp.Process]:
    """Start ``count`` worker processes against one fabric directory.

    Workers are named ``<name_prefix><index>``; ``chaos`` optionally
    maps a worker name to its :class:`WorkerChaos`. The processes are
    started but not joined — the caller (normally the coordinator
    driver) owns their lifecycle.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    procs: List[mp.Process] = []
    for i in range(count):
        worker_id = f"{name_prefix}{i}"
        worker_chaos = (chaos or {}).get(worker_id)
        proc = mp.Process(
            target=_worker_main,
            args=(
                str(root),
                worker_id,
                worker_chaos.to_dict() if worker_chaos else None,
            ),
            name=f"fabric-{worker_id}",
        )
        proc.start()
        procs.append(proc)
    return procs
