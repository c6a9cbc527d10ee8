"""Verified artifact store.

Every artifact the reproduction depends on — trained weights, exhaustive
outcome tables, shard results — goes through this package:

- :mod:`repro.store.atomic` writes files atomically (temp file + fsync +
  rename), so a killed process never leaves a half-written archive behind.
- :mod:`repro.store.manifest` maintains a ``MANIFEST.json`` per artifact
  directory with the SHA-256 of every artifact (updates serialised by a
  lock file, so concurrent writers lose no entry), and verifies it on load.
- :mod:`repro.store.npz` is the verified ``.npz`` reader/writer: it
  validates the zip structure and the manifest checksum before handing
  arrays out, and raises :class:`~repro.store.errors.CorruptArtifactError`
  naming the offending file and the exact regeneration command.
- :mod:`repro.store.salvage` recovers intact members from an ``.npz``
  whose zip central directory is damaged (the seed-corruption incident
  that motivated this package).
"""

from repro.store.atomic import (
    atomic_append_line,
    atomic_savez,
    atomic_write,
    atomic_write_bytes,
)
from repro.store.errors import ArtifactError, CorruptArtifactError
from repro.store.manifest import (
    MANIFEST_NAME,
    load_manifest,
    record_artifact,
    sha256_file,
    verify_artifact,
    verify_directory,
    write_manifest,
)
from repro.store.npz import (
    load_verified_npz,
    save_verified_npz,
    validate_artifact,
    validate_npz,
)
from repro.store.salvage import salvage_npz

__all__ = [
    "ArtifactError",
    "CorruptArtifactError",
    "MANIFEST_NAME",
    "atomic_append_line",
    "atomic_savez",
    "atomic_write",
    "atomic_write_bytes",
    "load_manifest",
    "load_verified_npz",
    "record_artifact",
    "salvage_npz",
    "save_verified_npz",
    "sha256_file",
    "validate_artifact",
    "validate_npz",
    "verify_artifact",
    "verify_directory",
    "write_manifest",
]
