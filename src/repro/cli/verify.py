"""``repro-verify-artifacts``: integrity-check the artifact store.

Walks every ``.npz`` under the artifact directory (weights, exhaustive
tables, anything else), validating the ``MANIFEST.json`` checksum and the
zip structure of each file.  Exits non-zero when any artifact is corrupt,
stale, or missing — CI runs this before the test suite so a damaged
artifact fails loudly instead of cascading into dozens of confusing test
errors (the seed-corruption incident this tool was born from).
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.store import (
    load_manifest,
    salvage_npz,
    save_verified_npz,
    validate_npz,
    verify_artifact,
    write_manifest,
)
from repro.store.manifest import LOG_NAME, MANIFEST_NAME
from repro.utils import artifacts_dir


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-verify-artifacts",
        description=(
            "Verify every artifact (.npz) against its MANIFEST.json "
            "checksum and zip structure; exit non-zero on any failure."
        ),
    )
    parser.add_argument(
        "--artifacts",
        type=Path,
        default=None,
        help="artifact directory to scan (default: the repo artifact dir)",
    )
    parser.add_argument(
        "--write-manifest",
        action="store_true",
        help="rebuild each directory's MANIFEST.json from the files that "
        "pass structural validation",
    )
    parser.add_argument(
        "--salvage-to",
        type=Path,
        default=None,
        metavar="DIR",
        help="write whatever members survive in each corrupt archive to "
        "DIR/<name>.npz (best-effort recovery, does not affect exit code)",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="only print failures"
    )
    return parser


def _artifact_directories(root: Path) -> list[Path]:
    """Every directory under *root* that holds at least one ``.npz``."""
    directories = {path.parent for path in root.rglob("*.npz")}
    # Directories whose manifests list files that have since vanished
    # must still be checked.
    for name in (MANIFEST_NAME, LOG_NAME):
        directories |= {path.parent for path in root.rglob(name)}
    return sorted(directories)


def _salvage(path: Path, out_dir: Path) -> str:
    recovered = salvage_npz(path)
    if not recovered:
        return "salvage recovered nothing"
    out_path = out_dir / path.name
    save_verified_npz(out_path, recovered, manifest=False)
    return f"salvaged {len(recovered)} member(s) to {out_path}"


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    root = args.artifacts if args.artifacts is not None else artifacts_dir()
    if not root.is_dir():
        print(f"artifact directory {root} does not exist")
        return 1
    if args.salvage_to is not None:
        args.salvage_to.mkdir(parents=True, exist_ok=True)

    failures = 0
    checked = 0
    for directory in _artifact_directories(root):
        entries = load_manifest(directory)
        names = sorted(
            {path.name for path in directory.glob("*.npz")} | set(entries)
        )
        structurally_valid: list[str] = []
        for name in names:
            path = directory / name
            checked += 1
            problem = verify_artifact(path) or validate_npz(path)
            if problem is None:
                structurally_valid.append(name)
                status = "ok" if name in entries else "ok (unlisted)"
                if not args.quiet:
                    print(f"  OK    {path.relative_to(root)}  [{status}]")
                continue
            failures += 1
            print(f"  FAIL  {path.relative_to(root)}: {problem}")
            if args.salvage_to is not None and path.is_file():
                print(f"        {_salvage(path, args.salvage_to)}")
        if args.write_manifest and structurally_valid:
            write_manifest(directory, names=structurally_valid)
            if not args.quiet:
                print(f"  wrote {directory.relative_to(root)}/MANIFEST.json")

    if failures:
        print(f"{failures} of {checked} artifact(s) FAILED verification")
        return 1
    if not args.quiet:
        print(f"all {checked} artifact(s) verified")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
