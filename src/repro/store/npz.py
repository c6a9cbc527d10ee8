"""Verified ``.npz`` reader/writer built on the atomic store.

``save_verified_npz`` writes atomically and records the artifact in its
directory's manifest.  ``load_verified_npz`` validates the zip
structure and the manifest checksum *before* handing arrays out; every
failure mode surfaces as a :class:`~repro.store.errors.CorruptArtifactError`
naming the file and the regeneration command.
"""

from __future__ import annotations

import os
import zipfile
import zlib
from pathlib import Path

import numpy as np

from repro.store.atomic import atomic_savez
from repro.store.errors import CorruptArtifactError
from repro.store.manifest import load_manifest, record_artifact, verify_artifact


def save_verified_npz(
    path: str | os.PathLike,
    arrays: dict[str, np.ndarray],
    *,
    manifest: bool = True,
    append: bool = False,
) -> None:
    """Atomically write *arrays* to *path* and update the manifest.

    *append* records the checksum in the directory's ``MANIFEST.log``
    (see :func:`~repro.store.manifest.record_artifact`).
    """
    atomic_savez(path, **arrays)
    if manifest:
        record_artifact(path, append=append)


def validate_npz(path: str | os.PathLike) -> str | None:
    """Structural zip validation of an ``.npz`` file.

    Returns ``None`` when the archive is readable end to end, otherwise a
    description of the damage (missing central directory, truncated or
    CRC-failing members, ...).
    """
    path = Path(path)
    if not path.is_file():
        return "file is missing"
    if path.stat().st_size == 0:
        return "file is empty"
    try:
        with zipfile.ZipFile(path) as archive:
            bad_member = archive.testzip()
    except zipfile.BadZipFile as exc:
        return f"truncated or damaged zip archive ({exc})"
    except (OSError, zlib.error) as exc:
        return f"unreadable archive ({exc})"
    if bad_member is not None:
        return f"member {bad_member!r} fails its CRC check"
    return None


def validate_artifact(
    path: str | os.PathLike, *, entries: dict | None = None
) -> str | None:
    """Manifest checksum, else (unlisted artifacts only) zip structure.

    *entries* is the directory's already-loaded manifest, if any.
    """
    path = Path(path)
    if entries is None:
        entries = load_manifest(path.parent)
    problem = verify_artifact(path, entries=entries)
    if problem is not None or path.name in entries:
        return problem
    return validate_npz(path)


def load_verified_npz(
    path: str | os.PathLike,
    *,
    regenerate: str | None = None,
    entries: dict | None = None,
) -> dict[str, np.ndarray]:
    """Load an ``.npz`` after validating manifest checksum and structure.

    *regenerate* is the command to include in the error when validation
    fails (e.g. ``python examples/train_models.py --model resnet8_mini``).
    *entries* is the directory's manifest when the caller loads many
    artifacts of one directory and read it once.
    """
    path = Path(path)
    problem = validate_artifact(path, entries=entries)
    if problem is not None:
        raise CorruptArtifactError(path, reason=problem, regenerate=regenerate)
    try:
        with np.load(path, allow_pickle=False) as archive:
            return {name: archive[name] for name in archive.files}
    except (zipfile.BadZipFile, OSError, ValueError, zlib.error) as exc:
        raise CorruptArtifactError(
            path,
            reason=f"archive validated but failed to load ({exc})",
            regenerate=regenerate,
        ) from exc
