"""Atomic file writes and run-state (de)serialization.

Every library write goes through the atomic helpers here (temporary file +
``os.replace``, the same discipline as the dataset cache), so a process
killed mid-write never leaves a corrupt file behind — at worst the previous
archive survives intact.

Arbitrary nested state trees (dicts of arrays, scalars, strings, lists —
anything JSON-serializable at the leaves) are stored by
:func:`save_state_tree` / :func:`load_state_tree`; the trainer checkpoints
are built on top of these.  A state-tree archive is a *packed* ``.npz``:

* one ``manifest`` member, the UTF-8 JSON object
  ``{"arrays": [[key, dtype.str, shape, offset], ...], "plain": {key: value}}``
  — one entry per array leaf (``offset`` counts elements into its blob) and
  the plain-data (JSON) leaves inline, both under the flat keys of
  :func:`flatten_state_tree`;
* one 1-D blob member per distinct dtype, named by its ``dtype.str``: the
  C-order concatenation of every array leaf of that dtype.

The member count is therefore ``1 + number of dtypes`` however many leaves
the tree has, so an N-member fleet checkpoint has as many members as a
single-UE one.  Each member costs two zip headers, an ``.npy`` header and a
CRC pass — more bytes and time than a small leaf's data — which is why
leaves share members instead of getting one each.
"""
from __future__ import annotations

import io
import json
import math
import os
import zipfile
import zlib
from collections.abc import Mapping
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

#: Key suffix marking a JSON-encoded (non-array) leaf in a flattened tree.
_JSON_SUFFIX = ":json"

#: Separator between nesting levels in flattened keys.
_SEPARATOR = "//"


def _npz_path(path: str | os.PathLike) -> str:
    """Normalize ``path`` to the ``.npz`` name :func:`numpy.savez` produces."""
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path = path + ".npz"
    return path


def atomic_savez(
    path: str | os.PathLike,
    arrays: Mapping[str, np.ndarray],
    compressed: bool = False,
) -> str:
    """Write an ``.npz`` archive atomically (tmp file + ``os.replace``).

    This is the one sanctioned ``np.savez`` call site in the library (the
    analysis suite's ``SER001`` rule flags every other one).  numpy builds
    the archive in memory, where the zip writer's per-member header
    rewrites are buffer seeks rather than file syscalls; the bytes then go
    through the shared tmp-+-rename write: parent directories are created,
    the archive lands under a pid-suffixed temporary name, and the final
    rename is atomic — a killed process leaves either the old file or the
    new one, never a truncated archive.

    Returns the final (``.npz``-suffixed) path.
    """
    writer = np.savez_compressed if compressed else np.savez
    buffer = io.BytesIO()
    writer(buffer, **arrays)
    return _atomic_write_data(_npz_path(path), buffer.getbuffer(), "wb")


def _atomic_write_data(path: str | os.PathLike, data, mode: str) -> str:
    """Shared tmp-+-rename write of :func:`atomic_savez` and
    :func:`atomic_write_text`."""
    path = os.fspath(path)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    temporary = os.path.join(
        directory or ".", f".{os.path.basename(path)}.tmp-{os.getpid()}"
    )
    try:
        with open(temporary, mode) as handle:
            handle.write(data)
        os.replace(temporary, path)
    except BaseException:
        if os.path.exists(temporary):
            os.remove(temporary)
        raise
    return path


def atomic_write_text(path: str | os.PathLike, text: str) -> str:
    """Atomically write ``text`` (UTF-8 implied by the platform default).

    The sanctioned replacement for ``open(path, "w")`` /
    ``Path.write_text`` in library code (``SER003``): JSON artifacts are
    built with ``json.dumps`` and handed here, so concurrent readers (sweep
    workers, resume scans) never observe a partial document.
    """
    return _atomic_write_data(path, text, "w")


# -- nested state trees ---------------------------------------------------------------


def flatten_state_tree(tree: Mapping[str, Any]) -> Dict[str, np.ndarray]:
    """Flatten a nested state tree into an ``.npz``-compatible flat mapping.

    Dict nesting becomes ``//``-separated keys; array leaves are stored as
    is; every other leaf (scalars, strings, lists, dicts of plain data such
    as RNG states) is JSON-encoded under a ``:json``-suffixed key.  A mapping
    with no ndarray anywhere inside is one JSON leaf: RNG states and history
    records are small plain-data dicts, and a single JSON entry preserves
    their exact structure (including big ints beyond float64) through the
    archive round trip.  Arrays must sit directly under mapping keys; one
    inside a list or tuple raises ``TypeError`` naming its leaf's key path.
    """
    return {
        key: value if isinstance(value, np.ndarray) else np.array(value)
        for key, value in _flat_leaves(tree)
    }


def _flat_leaves(tree: Mapping[str, Any]) -> List[Tuple[str, Any]]:
    """:func:`flatten_state_tree`'s ``(key, leaf)`` pairs, JSON leaves as text."""
    if not tree:
        return [(_JSON_SUFFIX, json.dumps({}))]
    entries: list = []
    _flatten_into(tree, "", entries)
    return [
        (key, value if isinstance(value, np.ndarray) else _json_text(key, value))
        for key, value in entries
    ]


def _flatten_into(node: Mapping[str, Any], prefix: str, entries: list) -> bool:
    """Append ``node``'s flat ``(key, leaf)`` entries; True if any is an array.

    One walk: a child mapping is flattened in place and, if it turns out to
    hold no array, its entries are dropped again for one JSON leaf.  Keys
    are checked in the top-level mapping and in mappings that hold arrays;
    a nested plain-data mapping is JSON's to encode.
    """
    holds_array = False
    bad_key: Optional[Exception] = None
    for key, value in node.items():
        if bad_key is None and (not isinstance(key, str) or not key):
            bad_key = TypeError(f"state-tree keys must be non-empty str, got {key!r}")
        elif bad_key is None and (_SEPARATOR in key or key.endswith(_JSON_SUFFIX)):
            bad_key = ValueError(f"reserved characters in state-tree key {key!r}")
        full = f"{prefix}{key}"
        if isinstance(value, np.ndarray):
            entries.append((full, value))
            holds_array = True
        elif isinstance(value, Mapping) and value:
            mark = len(entries)
            if _flatten_into(value, full + _SEPARATOR, entries):
                holds_array = True
            else:
                del entries[mark:]
                entries.append((full + _JSON_SUFFIX, value))
        else:
            entries.append((full + _JSON_SUFFIX, value))
    if bad_key is not None and (holds_array or not prefix):
        raise bad_key
    return holds_array


def _json_text(key: str, value: Any) -> str:
    """``value`` JSON-encoded, or a ``TypeError`` naming the leaf's key path."""
    path = key[: -len(_JSON_SUFFIX)]

    def reject(item: Any) -> Any:
        if isinstance(item, np.ndarray):
            raise TypeError(
                f"state-tree leaf {path!r} holds an ndarray inside a list or "
                "tuple; arrays must sit directly under mapping keys"
            )
        raise TypeError(
            f"state-tree leaf {path!r} holds a {type(item).__name__}, which "
            "is not JSON serializable"
        )

    return json.dumps(value, default=reject)


def _nest(leaves: Mapping[str, Any]) -> Dict[str, Any]:
    """The nested tree of flat ``leaves`` whose JSON leaves are already decoded."""
    tree: Dict[str, Any] = {}
    for key in sorted(leaves):
        value = leaves[key]
        if key.endswith(_JSON_SUFFIX):
            key = key[: -len(_JSON_SUFFIX)]
        parts = key.split(_SEPARATOR) if key else [""]
        node = tree
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        if parts[-1] == "" and isinstance(value, dict):
            node.update(value)
        else:
            node[parts[-1]] = value
    return tree


#: Archive member holding a packed state tree's JSON manifest.
_MANIFEST = "manifest"

#: What a damaged archive can raise while it is read back.
_UNREADABLE = (
    OSError, EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile, zlib.error
)


def save_state_tree(path: str | os.PathLike, tree: Mapping[str, Any]) -> str:
    """Atomically persist a nested state tree as a packed ``.npz`` archive.

    The archive holds the manifest plus one blob per dtype (see the module
    docstring).  An array leaf whose dtype a blob cannot carry (object or
    structured dtypes) raises ``TypeError`` naming its key path.
    """
    blobs: Dict[np.dtype, List[np.ndarray]] = {}
    sizes: Dict[np.dtype, int] = {}
    arrays: list = []
    plain: list = []
    for key, value in _flat_leaves(tree):
        if not isinstance(value, np.ndarray):
            plain.append(f"{json.dumps(key)}: {value}")
            continue
        dtype = value.dtype
        if dtype not in blobs:
            if dtype.hasobject or np.dtype(dtype.str) != dtype:
                raise TypeError(
                    f"state-tree leaf {key!r} has dtype {dtype}, which a "
                    "packed archive cannot store"
                )
            blobs[dtype] = []
            sizes[dtype] = 0
        arrays.append([key, dtype.str, list(value.shape), sizes[dtype]])
        blobs[dtype].append(value.reshape(-1))
        sizes[dtype] += value.size
    manifest = (
        '{"arrays": ' + json.dumps(arrays, separators=(",", ":"))
        + ', "plain": {' + ", ".join(plain) + "}}"
    )
    members = {_MANIFEST: np.frombuffer(manifest.encode("utf-8"), dtype=np.uint8)}
    for dtype, parts in blobs.items():
        members[dtype.str] = np.concatenate(parts)
    return atomic_savez(path, members)


def load_state_tree(path: str | os.PathLike) -> Dict[str, Any]:
    """Load a nested state tree written by :func:`save_state_tree`.

    Every array leaf comes back with its dtype, shape and bytes, as a
    writeable C-contiguous view of its blob that overlaps no other leaf.

    Raises:
        FileNotFoundError: when no archive exists at ``path``.
        ValueError: naming ``path`` when the archive cannot be read back
            whole — truncated, failing a zip CRC, missing its manifest or a
            blob, a manifest entry outside its blob or of an unknown dtype,
            or a per-leaf archive written before checkpoint version 2.
    """
    path = os.fspath(path)
    if not os.path.exists(path) and os.path.exists(path + ".npz"):
        path = path + ".npz"
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    try:
        with np.load(path, allow_pickle=False) as archive:
            leaves = _unpack(archive)
    except _UNREADABLE as exc:
        raise ValueError(f"unreadable state-tree archive {path!r}: {exc}") from exc
    return _nest(leaves)


def _unpack(archive: np.lib.npyio.NpzFile) -> Dict[str, Any]:
    """The flat leaves of a packed archive: decoded JSON and blob views."""
    if _MANIFEST not in archive.files:
        raise ValueError(
            "no manifest member (archives of checkpoint version 1 stored one "
            "member per leaf and are no longer readable)"
        )
    manifest = json.loads(archive[_MANIFEST].tobytes().decode("utf-8"))
    leaves: Dict[str, Any] = dict(manifest["plain"])
    blobs: Dict[str, np.ndarray] = {}
    for key, dtype, shape, offset in manifest["arrays"]:
        blob = blobs.get(dtype)
        if blob is None:
            if dtype not in archive.files:
                raise ValueError(f"leaf {key!r}: no blob of dtype {dtype!r}")
            blob = blobs[dtype] = archive[dtype]
            if blob.ndim != 1 or blob.dtype.str != dtype:
                raise ValueError(f"blob {dtype!r} holds {blob.dtype} {blob.shape}")
        size = math.prod(shape)
        if offset < 0 or min(shape, default=0) < 0 or offset + size > blob.size:
            raise ValueError(
                f"leaf {key!r} (shape {shape} at offset {offset}) runs past "
                f"its {dtype!r} blob of {blob.size} elements"
            )
        leaves[key] = blob[offset : offset + size].reshape(shape)
    return leaves
