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

__all__ = ["MANIFEST_NAME", "FORMAT_VERSION", "READABLE_VERSIONS", "replace_atomically",
           "write_manifest", "load_manifest"]

MANIFEST_NAME = "MANIFEST.json"

#: Bumped on any incompatible layout change.  Version 5: WAL records, index
#: pages and segment rows are framed codec messages, and ``-coeffs.npy`` /
#: ``-values.npy`` are the only other data files.  Version 6: a columnar
#: segment's ``-coeffs.npy`` holds half spectra (the relation's manifest
#: entry says ``"spectrum": "half"``).
FORMAT_VERSION = 6

#: The versions recovery reads — this one, and version 5, whose segments'
#: whole spectra are sliced to halves as they are loaded — refusing every
#: other, older or newer.  A checkpoint always writes :data:`FORMAT_VERSION`.
READABLE_VERSIONS = (5, FORMAT_VERSION)


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


#: The keys recovery reads, and their types: of the manifest, of each
#: relation's entry, and of each segment an entry lists.
_MANIFEST_KEYS = {"epoch": int, "catalog_version": int, "watermark": int,
                  "wal": str, "relations": dict}
_RELATION_KEYS = {"kind": str, "count": int, "version": int, "segments": list,
                  "indexes": dict, "provider": (str, type(None))}
_SEGMENT_KEYS = {"start": int, "count": int}


def _check_keys(path: str, where: str, record: Any, keys: dict[str, Any]) -> None:
    if not isinstance(record, dict):
        raise StorageError(f"manifest {path!r}: {where} is not an object")
    for key, kind in keys.items():
        value = record.get(key)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise StorageError(
                f"manifest {path!r}: {where} key {key!r} is missing or holds "
                f"{value!r}, not a {kind.__name__ if isinstance(kind, type) else 'str'}")


def load_manifest(root: str) -> dict[str, Any] | None:
    """The installed manifest, or ``None`` for a fresh (empty) database.

    The swap is atomic, so a damaged manifest is real corruption, not a
    crash artefact: whatever recovery would read from it — a key missing or
    of the wrong type, here or in a relation's entry — is one
    :class:`StorageError` naming the manifest and the key, raised before
    anything is read on its word, rather than a silent reinitialisation
    over existing data.
    """
    path = os.path.join(root, MANIFEST_NAME)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        return None
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise StorageError(
            f"manifest {path!r} is unreadable: {error}") from error
    version = manifest.get("format_version") if isinstance(manifest, dict) else None
    if version not in READABLE_VERSIONS:
        raise StorageError(
            f"manifest {path!r} has format version {version!r}; this build "
            f"reads version {FORMAT_VERSION} (and version 5, whose segments hold "
            "whole spectra)")
    _check_keys(path, "the manifest", manifest, _MANIFEST_KEYS)
    for name, entry in manifest["relations"].items():
        _check_keys(path, f"relation {name!r}", entry, _RELATION_KEYS)
        if entry.get("spectrum", "whole") not in ("half", "whole"):
            raise StorageError(
                f"manifest {path!r}: relation {name!r} key 'spectrum' holds "
                f"{entry['spectrum']!r}, not 'half' or 'whole'")
        for segment in entry["segments"]:
            _check_keys(path, f"a segment of {name!r}", segment, _SEGMENT_KEYS)
        for index_name, file_name in entry["indexes"].items():
            if not isinstance(file_name, str):
                raise StorageError(
                    f"manifest {path!r}: index {index_name!r} of {name!r} "
                    f"names {file_name!r}, not a file")
    return manifest
