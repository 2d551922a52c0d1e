"""The snapshot manifest: the single atomically-swapped root of recovery.

``MANIFEST.json`` names everything recovery trusts: the checkpoint epoch,
the catalog version to resume counting from, the object-id watermark, each
relation's segments and serialized indexes, and the WAL file whose tail to
replay.  It is replaced with the classic write-new-then-rename protocol —
write ``MANIFEST.json.tmp``, ``fsync`` it, ``os.replace`` over the real
name, then ``fsync`` the directory — so a crash at any point leaves either
the old complete manifest or the new complete manifest, never a hybrid.
"""

from __future__ import annotations

import json
import os
from typing import Any

from ...core.errors import StorageError

__all__ = ["MANIFEST_NAME", "FORMAT_VERSION", "write_manifest", "load_manifest"]

MANIFEST_NAME = "MANIFEST.json"

#: Bumped on any incompatible layout change; recovery refuses every other
#: version, older ones included — there is one decoder.
#: 2: a k-index document holds its construction spec, its points and a list
#: of the trees it has (the rows beyond them are its unindexed tail).
#: 3: a tree is its packed per-level arrays (counts, corners, payloads; the
#: leaf level counts and record ids only), not a node/entry graph; index
#: documents carry the version themselves; specs name no tree variant.
#: 4: WAL records and object segments are binary codec messages (a JSON
#: header plus little-endian float64 blocks), not JSON text.
FORMAT_VERSION = 4


def _fsync_directory(directory: str) -> None:
    # Directory fsync makes the rename itself durable; some filesystems
    # (and platforms) refuse O_RDONLY directory handles — degrade quietly,
    # the data files themselves are already synced.
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def write_manifest(root: str, manifest: dict[str, Any]) -> None:
    """Atomically install a manifest (write-new, fsync, rename, fsync dir)."""
    manifest = dict(manifest)
    manifest["format_version"] = FORMAT_VERSION
    path = os.path.join(root, MANIFEST_NAME)
    temporary = path + ".tmp"
    with open(temporary, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temporary, path)
    _fsync_directory(root)


def load_manifest(root: str) -> dict[str, Any] | None:
    """The installed manifest, or ``None`` for a fresh (empty) database."""
    path = os.path.join(root, MANIFEST_NAME)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        return None
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        # The swap is atomic, so a damaged manifest is real corruption,
        # not a crash artefact — refuse loudly rather than silently
        # reinitialising over existing data.
        raise StorageError(
            f"manifest {path!r} is unreadable: {error}") from error
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise StorageError(
            f"manifest {path!r} has format version {version!r}; this build "
            f"reads version {FORMAT_VERSION}")
    return manifest
