"""Checkpoint directories with last-good fallback.

A single checkpoint file has a single point of failure: corrupt it (a
bad disk, a byte flip, a torn copy) and the run it was protecting is
unresumable. A :class:`CheckpointStore` keeps the last few engine
checkpoints in a *directory* — ``ckpt-00000010.json``,
``ckpt-00000020.json``, … (zero-padded batch counts, so lexicographic
order is chronological order) — and resume falls back through them
newest-first until one verifies, instead of dying on the newest.

The engine accepts a store anywhere it accepts a checkpoint path
(``checkpoint_path=CheckpointStore(dir)``), and the CLI maps
``--checkpoint-dir`` onto one; ``--resume-from`` accepts either a file
or a store directory (see :func:`resolve_resume`). Every fallback past
a corrupt checkpoint bumps the ``runs.fallback_resumes`` counter in
:mod:`repro.obs` and is reported in the returned
:class:`ResolvedResume`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

from ..obs import runtime as obs_runtime
from .integrity import IntegrityError

__all__ = ["CheckpointStore", "ResolvedResume", "resolve_resume"]

_CKPT_RE = re.compile(r"\Ackpt-(\d{8,})\.json\Z")


@dataclass
class ResolvedResume:
    """Outcome of resolving a resume source to one loadable snapshot.

    ``skipped`` lists the corrupt checkpoints that were passed over
    (newest first), each with the error that disqualified it — empty
    for a direct file resume or an intact store.
    """

    snapshot: Dict[str, Any]
    path: Path
    skipped: List[Tuple[Path, str]] = field(default_factory=list)


class CheckpointStore:
    """A directory holding the ``keep`` most recent engine checkpoints.

    ``write`` names each file after the snapshot's batch counter and
    prunes older files beyond ``keep``; because every write is an
    :func:`~repro.runs.atomic.atomic_write` of a *new* file, a crash
    mid-checkpoint can never damage the previous generation.
    """

    def __init__(self, directory: Union[str, Path], *, keep: int = 3) -> None:
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.keep = keep
        self.directory.mkdir(parents=True, exist_ok=True)

    def __str__(self) -> str:
        return str(self.directory)

    def __repr__(self) -> str:
        return f"CheckpointStore({str(self.directory)!r}, keep={self.keep})"

    # ------------------------------------------------------------------

    def paths(self) -> List[Path]:
        """Checkpoint files currently in the store, oldest first."""
        found = []
        for entry in self.directory.iterdir():
            if _CKPT_RE.match(entry.name):
                found.append(entry)
        return sorted(found)

    def write(self, snapshot: Dict[str, Any]) -> Path:
        """Persist ``snapshot`` as a new generation and prune old ones."""
        # Local import: serialize sits above runs in the layering and
        # importing it at module top would be circular.
        from ..scheduler.serialize import dump_snapshot

        batches = int(snapshot.get("batches_done", 0))
        path = self.directory / f"ckpt-{batches:08d}.json"
        dump_snapshot(snapshot, path)
        for stale in self.paths()[: -self.keep]:
            try:
                stale.unlink()
            except OSError:
                pass
        return path

    def load_last_good(self) -> ResolvedResume:
        """Load the newest checkpoint that verifies, skipping corrupt ones.

        Walks generations newest-first; each corrupt file (torn,
        byte-flipped, digest-mismatched) is recorded in ``skipped`` and
        counted as a ``runs.fallback_resumes`` recovery. Raises
        :class:`IntegrityError` when every generation is corrupt and
        ``FileNotFoundError`` when the store is empty.
        """
        from ..scheduler.serialize import load_snapshot

        candidates = self.paths()
        if not candidates:
            raise FileNotFoundError(
                f"{self.directory}: no checkpoints (expected ckpt-*.json)"
            )
        skipped: List[Tuple[Path, str]] = []
        for path in reversed(candidates):
            try:
                snapshot = load_snapshot(path)
            except (IntegrityError, ValueError, OSError) as exc:
                skipped.append((path, str(exc)))
                obs_runtime.count("runs.fallback_resumes")
                continue
            return ResolvedResume(snapshot=snapshot, path=path, skipped=skipped)
        raise IntegrityError(
            self.directory,
            f"all {len(candidates)} checkpoints are corrupt "
            f"(newest: {skipped[0][1]})",
        )


def resolve_resume(source: Union[str, Path, CheckpointStore]) -> ResolvedResume:
    """Resolve a resume source — file, store, or store directory.

    A file path loads that exact checkpoint (corruption raises — there
    is nothing to fall back to); a directory or :class:`CheckpointStore`
    falls back to the last good generation.
    """
    from ..scheduler.serialize import load_snapshot

    if isinstance(source, CheckpointStore):
        return source.load_last_good()
    path = Path(source)
    if path.is_dir():
        return CheckpointStore(path).load_last_good()
    return ResolvedResume(snapshot=load_snapshot(path), path=path)
