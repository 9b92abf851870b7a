"""The append-only JSONL journal next to every result store.

The journal is the human-greppable trail of everything that was actually
*computed* (cache hits are never re-journaled) and the replay feed for
crash recovery and migration.  Its format has not changed since it was
introduced: one ``{"key": ..., "record": ...}`` object per line, written
as a single ``write`` to an ``O_APPEND`` descriptor so concurrent
workers never interleave mid-line, with torn tails tolerated on read.

:func:`iter_journal` is the streaming reader — replay and migration walk
journals of arbitrary size in constant memory.  :func:`load_journal`
keeps its historical list-returning signature on top of it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple, Union

#: File name of the append-only JSONL journal inside a cache directory.
JOURNAL_NAME = "journal.jsonl"


def journal_path(path: Union[str, Path]) -> Path:
    """Resolve a cache directory or explicit file path to the journal file."""
    journal = Path(path).expanduser()
    if journal.is_dir():
        journal = journal / JOURNAL_NAME
    return journal


def append_journal_line(path: Union[str, Path], payload: Dict[str, Any]) -> None:
    """Append one payload as a single ``O_APPEND`` write (crash-atomic line)."""
    line = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    fd = os.open(journal_path(path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, (line + "\n").encode("utf-8"))
    finally:
        os.close(fd)


def iter_journal_payloads(
    path: Union[str, Path],
) -> Iterator[Tuple[str, Dict[str, Any]]]:
    """Stream ``(key, record_dict)`` pairs from a journal, skipping bad lines.

    Malformed lines (a half-written tail from a killed process, a line
    without a record) are silently skipped, so a journal is always safe
    to replay after a crash — and the file is read line by line, never
    materialized whole.
    """
    journal = journal_path(path)
    if not journal.exists():
        return
    with open(journal) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                key = payload["key"]
                record = payload["record"]
            except (ValueError, KeyError, TypeError):
                continue
            if isinstance(key, str) and isinstance(record, dict):
                yield key, record


def iter_journal(path: Union[str, Path]) -> Iterator["TaskResult"]:
    """Stream a journal back as :class:`~repro.api.batch.TaskResult` records.

    The generator twin of :func:`load_journal`: replaying a
    million-record journal holds one record in memory at a time.
    Records that fail to deserialize are skipped like malformed lines.
    """
    from ..api.batch import TaskResult  # local import to avoid a cycle

    for _, record in iter_journal_payloads(path):
        try:
            yield TaskResult.from_dict(dict(record))
        except (ValueError, KeyError, TypeError):
            continue


def load_journal(path: Union[str, Path]) -> List["TaskResult"]:
    """Parse a cache journal (``journal.jsonl``) back into a record list.

    The materializing form of :func:`iter_journal`, kept for callers that
    want the whole (small) journal at once.
    """
    return list(iter_journal(path))
