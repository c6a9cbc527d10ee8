"""Append-only JSONL event journal.

One journal file records one or more campaigns.  Appends go through
:func:`repro.store.atomic.atomic_append_line` — a single ``O_APPEND``
write per event — so forked fleet workers and the parent process can
share the same journal without interleaving records.  Readers tolerate a
torn final line (a crash mid-append): the damaged record is dropped,
never propagated.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.store.atomic import atomic_append_line
from repro.telemetry.events import Event, new_run_id


class Journal:
    """Writes :class:`Event` records to a JSONL file.

    The journal holds only a path and a run id — no open file handle —
    so it survives ``fork`` trivially and pickles if it ever has to.
    """

    def __init__(
        self, path: str | os.PathLike, *, run_id: str | None = None
    ) -> None:
        self.path = Path(path)
        self.run_id = run_id or new_run_id()

    def emit(self, type: str, **fields) -> Event:
        """Append one event (stamped now, in this process) and return it."""
        event = Event.now(type, self.run_id, **fields)
        self.append(event)
        return event

    def append(self, event: Event) -> None:
        """Append an already-built event."""
        atomic_append_line(self.path, event.to_json())

    def read(self) -> list[Event]:
        """Every intact event currently in the journal."""
        return read_journal(self.path)


def read_journal(path: str | os.PathLike) -> list[Event]:
    """Parse a JSONL journal, dropping malformed (torn) lines.

    Only a crash mid-append can damage a record, and only the last line
    of the file at the moment of the crash — but after a resume the
    journal keeps growing past it, so every line is screened, not just
    the final one.
    """
    path = Path(path)
    if not path.is_file():
        return []
    events: list[Event] = []
    with open(path, encoding="utf-8", errors="replace") as stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(Event.from_json(line))
            except (ValueError, KeyError):
                continue  # torn append from a killed process
    return events
