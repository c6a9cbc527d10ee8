"""Per-directory ``MANIFEST.json`` with SHA-256 checksums.

Each artifact directory (``artifacts/weights``, ``artifacts/exhaustive``)
carries a manifest mapping file names to their checksum and size.  Writers
update the manifest atomically after every artifact write; readers verify
the checksum before trusting an artifact, which catches both truncation
and silent staleness (an artifact swapped without going through the
store).

Concurrent writers into one directory (a local fleet completing shards
into ``done/``) serialise their manifest updates on an ``flock`` of a
lock file next to the manifest, so no entry is lost to an interleaved
read-modify-write.  A directory that receives many artifacts (a shard
queue's ``done/``) appends each entry to ``MANIFEST.log`` instead, one
JSON line per artifact applied over ``MANIFEST.json`` in order, so
recording an artifact costs the same however many are already listed.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from repro.store.atomic import atomic_append_line, atomic_write_bytes

MANIFEST_NAME = "MANIFEST.json"
LOG_NAME = "MANIFEST.log"
LOCK_NAME = ".MANIFEST.lock"
_MANIFEST_VERSION = 1


def sha256_file(path: str | os.PathLike, *, chunk_size: int = 1 << 20) -> str:
    """Hex SHA-256 digest of a file, streamed."""
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        while chunk := stream.read(chunk_size):
            digest.update(chunk)
    return digest.hexdigest()


def manifest_path(directory: str | os.PathLike) -> Path:
    return Path(directory) / MANIFEST_NAME


def load_manifest(directory: str | os.PathLike) -> dict:
    """Manifest entries for *directory* (``{}`` when absent or unreadable).

    ``MANIFEST.log`` lines are applied over ``MANIFEST.json``, later
    lines winning; a malformed line (the torn tail of a killed writer)
    is skipped, which leaves its artifact unlisted.
    """
    try:
        with open(manifest_path(directory), encoding="utf-8") as stream:
            data = json.load(stream)
    except (OSError, json.JSONDecodeError):
        data = {}
    entries = data.get("artifacts") if isinstance(data, dict) else None
    entries = dict(entries) if isinstance(entries, dict) else {}
    try:
        with open(Path(directory) / LOG_NAME, encoding="utf-8") as stream:
            lines = stream.readlines()
    except OSError:
        lines = []
    for line in lines:
        try:
            record = json.loads(line)
            entries[record.pop("name")] = record
        except (json.JSONDecodeError, AttributeError, KeyError, TypeError):
            continue
    return entries


def _save_manifest(directory: Path, entries: dict) -> None:
    """Rewrite ``MANIFEST.json`` with *entries* and drop the log.

    The caller holds the manifest lock; *entries* supersede the log
    (they include its entries unless the manifest is being rebuilt).
    """
    payload = {
        "version": _MANIFEST_VERSION,
        "artifacts": {name: entries[name] for name in sorted(entries)},
    }
    atomic_write_bytes(
        manifest_path(directory),
        (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8"),
    )
    try:
        os.unlink(directory / LOG_NAME)
    except FileNotFoundError:
        pass


def _append_entry(directory: Path, name: str, entry: dict) -> None:
    """Append one entry to *directory*'s ``MANIFEST.log`` (one write)."""
    atomic_append_line(
        directory / LOG_NAME, json.dumps({"name": name, **entry}, sort_keys=True)
    )


@contextmanager
def _manifest_lock(directory: Path) -> Iterator[None]:
    """Hold an exclusive ``flock`` on *directory*'s manifest lock file."""
    fd = os.open(directory / LOCK_NAME, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)  # closing the descriptor drops the lock


def record_artifact(path: str | os.PathLike, *, append: bool = False) -> dict:
    """Record (or refresh) *path* in its directory's manifest.

    With *append* the entry is appended to ``MANIFEST.log`` (constant
    cost, for directories that receive many artifacts); otherwise
    ``MANIFEST.json`` is rewritten.  Returns the manifest entry written.
    Must be called after the artifact itself has been renamed into place.
    """
    path = Path(path)
    entry = {
        "sha256": sha256_file(path),
        "size": path.stat().st_size,
        "updated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    with _manifest_lock(path.parent):
        if append:
            _append_entry(path.parent, path.name, entry)
        else:
            entries = load_manifest(path.parent)
            entries[path.name] = entry
            _save_manifest(path.parent, entries)
    return entry


def write_manifest(
    directory: str | os.PathLike,
    *,
    pattern: str = "*.npz",
    names: list[str] | None = None,
) -> dict:
    """Rebuild the manifest for *directory*.

    Covers every *pattern* file, or exactly *names* when given (so callers
    can exclude files that failed structural validation).
    """
    directory = Path(directory)
    entries = {}
    paths = (
        [directory / name for name in names]
        if names is not None
        else sorted(directory.glob(pattern))
    )
    for path in paths:
        entries[path.name] = {
            "sha256": sha256_file(path),
            "size": path.stat().st_size,
            "updated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        }
    with _manifest_lock(directory):
        _save_manifest(directory, entries)
    return entries


def verify_artifact(
    path: str | os.PathLike, *, entries: dict | None = None
) -> str | None:
    """Check *path* against its directory manifest.

    Returns ``None`` when the checksum matches or the file is simply not
    listed (no manifest yet — legal for hand-placed artifacts), otherwise
    a human-readable description of the mismatch.  *entries* is the
    directory's manifest when the caller already loaded it (verifying
    many artifacts of one directory).
    """
    path = Path(path)
    if not path.is_file():
        return "file is missing"
    if entries is None:
        entries = load_manifest(path.parent)
    entry = entries.get(path.name)
    if entry is None:
        return None
    size = path.stat().st_size
    if size != entry.get("size"):
        return (
            f"size mismatch (manifest records {entry.get('size')} bytes, "
            f"file has {size})"
        )
    digest = sha256_file(path)
    if digest != entry.get("sha256"):
        return (
            "SHA-256 mismatch (file changed without going through the "
            "store, or is stale/corrupt)"
        )
    return None


@dataclass
class DirectoryReport:
    """Outcome of verifying one artifact directory."""

    directory: Path
    ok: list[str] = field(default_factory=list)
    unlisted: list[str] = field(default_factory=list)
    #: name -> failure description (checksum/size/zip problems).
    failed: dict[str, str] = field(default_factory=dict)
    #: manifest entries whose files are gone.
    missing: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.failed and not self.missing


def verify_directory(
    directory: str | os.PathLike, *, pattern: str = "*.npz"
) -> DirectoryReport:
    """Verify every *pattern* file in *directory* against its manifest.

    Zip-structure validation is left to callers (see
    :func:`repro.store.npz.validate_npz`); this checks existence and
    checksums only.
    """
    directory = Path(directory)
    report = DirectoryReport(directory=directory)
    entries = load_manifest(directory)
    present = {path.name for path in directory.glob(pattern)}
    for name in sorted(entries):
        if name not in present:
            report.missing.append(name)
    for name in sorted(present):
        problem = verify_artifact(directory / name, entries=entries)
        if problem is None and name not in entries:
            report.unlisted.append(name)
        elif problem is None:
            report.ok.append(name)
        else:
            report.failed[name] = problem
    return report
