"""Append-only JSONL run journal.

A journal is the manifest of one harness run (`continuous_runs`,
`individual_runs`, or `sweep`): what tasks the run consists of, every
attempt each task made, and a digest of every result produced. It is
written as JSON Lines — one self-contained JSON object per line,
flushed per entry — so a crash at any instant loses at most the final
partial line, which the reader tolerates. Nothing in a journal is ever
rewritten: recovery and auditing work by *replaying* the log.

Entry kinds (all carry ``"kind"``):

* header (first line): ``{"kind": "journal", "journal_version": 1,
  "run_type": ..., "context": {...}}`` — ``context`` holds everything
  needed to re-execute the run's tasks (serialized config, explicit job
  list, sampling parameters).
* ``task``    — ``{"key", "spec"}``: one cell of the run.
* ``attempt`` — ``{"key", "attempt", "status": "start"|"error",
  "error"?}``: the lifecycle of one submission.
* ``result``  — ``{"key", "attempt", "digest"}``: a completed cell and
  the digest of its value (see :mod:`repro.runs.digest`).
* ``note``    — free-form executor diagnostics (pool rebuilds, etc.).

Every entry additionally carries a ``"check"`` field — a short sha256
of the rest of the record (see :mod:`repro.runs.integrity`) — so a
bit-flip anywhere in the journal is caught on load as a typed
:class:`~repro.runs.integrity.IntegrityError` naming the damaged line
and byte offset. The field is additive: journals written without
checksums still load.

``repro-sched verify-run`` re-executes journaled tasks and compares
digests, catching nondeterminism regressions (see
:mod:`repro.runs.verify`).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .integrity import ENTRY_CHECKSUM_FIELD, IntegrityError, checksum_entry, verify_entry

__all__ = [
    "RunJournal",
    "JournalData",
    "load_journal",
    "repair_torn_tail",
    "JOURNAL_VERSION",
]

JOURNAL_VERSION = 1


class RunJournal:
    """Writer half: append entries to a JSONL journal file.

    Opens the file in append mode and writes the header only when the
    file is new or empty, so a journal can span several process
    invocations of the same run. An existing file first goes through
    :func:`repair_torn_tail`, so a tail torn by a crashed writer is
    trimmed rather than glued onto, and a journal corrupt anywhere else
    raises :class:`~repro.runs.integrity.IntegrityError` instead of
    being appended to. Use as a context manager or call :meth:`close`.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        run_type: str = "tasks",
        context: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.path = Path(path)
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        if not fresh:
            repair_torn_tail(self.path)
        self._fh = open(self.path, "a")
        if fresh:
            self._append(
                {
                    "kind": "journal",
                    "journal_version": JOURNAL_VERSION,
                    "run_type": run_type,
                    "context": context or {},
                    "created": time.time(),
                }
            )

    def _append(self, entry: Dict[str, Any]) -> None:
        entry[ENTRY_CHECKSUM_FIELD] = checksum_entry(entry)
        self._fh.write(json.dumps(entry, sort_keys=True) + "\n")
        self._fh.flush()

    # ------------------------------------------------------------------

    def task(self, key: str, spec: Dict[str, Any]) -> None:
        """Declare one cell of the run before any attempt at it."""
        self._append({"kind": "task", "key": key, "spec": spec})

    def attempt_start(self, key: str, attempt: int) -> None:
        """Record that attempt ``attempt`` of task ``key`` is starting."""
        self._append(
            {"kind": "attempt", "key": key, "attempt": attempt, "status": "start"}
        )

    def attempt_error(self, key: str, attempt: int, error: str) -> None:
        """Record a failed attempt and its error text."""
        self._append(
            {
                "kind": "attempt",
                "key": key,
                "attempt": attempt,
                "status": "error",
                "error": error,
            }
        )

    def result(self, key: str, attempt: int, digest: str) -> None:
        """Record a successful attempt's result digest."""
        self._append(
            {"kind": "result", "key": key, "attempt": attempt, "digest": digest}
        )

    def note(self, event: str, **fields: Any) -> None:
        """Free-form executor diagnostic (pool rebuilt, task timed out...)."""
        entry = {"kind": "note", "event": event}
        entry.update(fields)
        self._append(entry)

    def close(self) -> None:
        """Flush and close the journal file (idempotent)."""
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


@dataclass
class JournalData:
    """Reader half: the parsed content of a journal file.

    ``truncated`` is True when the final line was cut mid-write (the
    expected signature of a crash); everything before it is intact.
    """

    header: Dict[str, Any]
    tasks: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    attempts: Dict[str, List[Dict[str, Any]]] = field(default_factory=dict)
    digests: Dict[str, str] = field(default_factory=dict)
    notes: List[Dict[str, Any]] = field(default_factory=list)
    truncated: bool = False

    @property
    def run_type(self) -> str:
        """The header's run type (``tasks`` when unspecified)."""
        return str(self.header.get("run_type", "tasks"))

    @property
    def context(self) -> Dict[str, Any]:
        """Copy of the header's re-execution context."""
        return dict(self.header.get("context", {}))

    def attempt_count(self, key: str) -> int:
        """Submissions recorded for ``key`` (``status == "start"``)."""
        return sum(1 for a in self.attempts.get(key, []) if a["status"] == "start")

    def completed_keys(self) -> List[str]:
        """Task keys with a recorded result digest, in task order."""
        return [k for k in self.tasks if k in self.digests]

    def missing_keys(self) -> List[str]:
        """Declared tasks that never produced a result."""
        return [k for k in self.tasks if k not in self.digests]


def load_journal(path: Union[str, Path]) -> JournalData:
    """Parse a journal file, tolerating a torn final line.

    Raises :class:`~repro.runs.integrity.IntegrityError` — naming the
    damaged line and byte offset — when any non-final line fails to
    parse, or when any line's record checksum mismatches. A final line
    that is not valid JSON is the expected signature of a crash
    mid-append and only sets ``truncated``. Raises plain ``ValueError``
    when the file does not start with a journal header or was written
    by a newer journal version.
    """
    header: Optional[Dict[str, Any]] = None
    data = JournalData(header={})
    offset = 0
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line_start = offset
            offset += len(raw)
            stripped = raw.strip()
            if not stripped:
                continue
            try:
                entry = json.loads(stripped.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                # Only the final line may be torn; anything earlier is
                # real corruption.
                detail = getattr(exc, "msg", None) or str(exc)
                if fh.readline():
                    raise IntegrityError(
                        path,
                        f"not valid JSON ({detail}) — corrupt journal",
                        lineno=lineno,
                        offset=line_start,
                    ) from exc
                data.truncated = True
                break
            # A line that *parses* but fails its checksum is corruption
            # even at the tail: a torn append cannot produce valid JSON
            # with a wrong checksum, only a bit-flip can.
            verify_entry(entry, path, lineno=lineno, offset=line_start)
            kind = entry.get("kind")
            if header is None:
                if kind != "journal":
                    raise ValueError(f"{path}: first line is not a journal header")
                version = entry.get("journal_version")
                if version != JOURNAL_VERSION:
                    raise ValueError(
                        f"{path}: journal version {version!r} not supported "
                        f"(this build reads {JOURNAL_VERSION})"
                    )
                header = entry
                data.header = entry
            elif kind == "task":
                data.tasks[entry["key"]] = entry.get("spec", {})
            elif kind == "attempt":
                data.attempts.setdefault(entry["key"], []).append(entry)
            elif kind == "result":
                data.digests[entry["key"]] = entry["digest"]
            elif kind == "note":
                data.notes.append(entry)
            # unknown kinds are skipped: forward compatibility
    if header is None:
        raise ValueError(f"{path}: empty journal")
    return data


def repair_torn_tail(path: Union[str, Path]) -> Optional[int]:
    """Truncate a torn final line so the journal can be appended to again.

    A process that dies mid-append leaves a partial final line. Readers
    tolerate it (``truncated=True``), but a *writer* reopening the file
    in append mode would glue its next record onto the partial line,
    turning a benign torn tail into mid-file corruption. This trims the
    file back to the last complete line — the torn fragment was never a
    complete record, so nothing that was durably journaled is lost, and
    the append-only discipline is preserved.

    A tear that cut only the final newline leaves a complete, verified
    record; it is kept and the newline restored, so 0 bytes are dropped.

    Returns the number of bytes dropped, or ``None`` when the tail was
    intact (including the empty/missing-file cases, which are left for
    the writer to handle). A tail that parses but fails its checksum is
    *corruption*, not a tear, and still raises
    :class:`~repro.runs.integrity.IntegrityError` via the load.
    """
    path = Path(path)
    if not path.exists() or path.stat().st_size == 0:
        return None
    data = load_journal(path)  # raises on real (non-tail) corruption
    if not data.truncated:
        with open(path, "r+b") as fh:
            fh.seek(-1, 2)
            if fh.read(1) == b"\n":
                return None
            fh.write(b"\n")
        return 0
    with open(path, "rb") as fh:
        keep = 0
        for raw in fh:
            if raw.endswith(b"\n"):
                try:
                    json.loads(raw.strip().decode("utf-8"))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    break
                keep += len(raw)
            else:
                break
        fh.seek(0, 2)
        dropped = fh.tell() - keep
    with open(path, "r+b") as fh:
        fh.truncate(keep)
    return dropped
