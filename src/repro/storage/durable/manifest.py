"""The snapshot manifest: the single atomically-swapped root of recovery.

``MANIFEST.json`` names everything recovery trusts: the checkpoint epoch,
the catalog version to resume counting from, the object-id watermark, each
relation's segments and serialized indexes, and the WAL file whose tail to
replay.  It is replaced with the classic write-new-then-rename protocol —
write ``MANIFEST.json.tmp``, ``fsync`` it, ``os.replace`` over the real
name, then ``fsync`` the directory — so a crash at any point leaves either
the old complete manifest or the new complete manifest, never a hybrid.

It stays indented JSON, where every other file but the segments' ``.npy``
arrays is a codec frame, on purpose: it is tiny, the swap rules out a torn
one, and a person reading a directory starts here.
"""

from __future__ import annotations

import json
import os
from typing import Any

from ...core.errors import StorageError

__all__ = ["MANIFEST_NAME", "FORMAT_VERSION", "replace_atomically", "write_manifest",
           "load_manifest"]

MANIFEST_NAME = "MANIFEST.json"

#: Bumped on any incompatible layout change; recovery refuses every other
#: version, older ones included — there is one decoder.  Version 5: WAL
#: records, index pages and segment rows are framed codec messages, and
#: ``-coeffs.npy`` / ``-values.npy`` are the only other data files.
FORMAT_VERSION = 5


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


def replace_atomically(path: str, data: bytes) -> None:
    """Install ``data`` at ``path`` whole or not at all (write-new, fsync,
    rename, fsync the directory)."""
    temporary = path + ".tmp"
    with open(temporary, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temporary, path)
    _fsync_directory(os.path.dirname(path))


def write_manifest(root: str, manifest: dict[str, Any]) -> None:
    """Atomically install a manifest."""
    text = json.dumps({**manifest, "format_version": FORMAT_VERSION}, indent=1)
    replace_atomically(os.path.join(root, MANIFEST_NAME), text.encode("utf-8"))


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
