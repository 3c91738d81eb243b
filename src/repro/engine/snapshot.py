"""Zero-copy memory-mapped serving snapshots.

Every serving worker used to rebuild its frozen state from the model
in-process: copy the embedding matrices, derive the item norms, quantise the
candidate blocks, build the CSR exclusion — O(freeze) work per worker, and
none of it shareable across a process boundary without pickling whole
matrices.  This module persists that frozen state once, as a versioned
on-disk artifact, and reconstructs it in O(open):

* :func:`save_snapshot` — write an :class:`InferenceIndex` (embeddings,
  per-item norms, optional quantised candidate blocks, the CSR exclusion
  arrays) as one file with a checksummed JSON header and 64-byte-aligned raw
  sections.  The write lands in a temp file and is published with one atomic
  ``os.replace``, so readers only ever see complete snapshots — the swap
  primitive behind :meth:`OnlineRecommendationService.compact`'s background
  republish.
* :func:`load_snapshot` — open a snapshot.  With ``mmap=True`` (the default)
  every section is a read-only ``np.memmap`` view: nothing is copied, cold
  catalogues page in lazily on first touch, and N workers mapping the same
  file share one page cache — the zero-copy substrate for
  :class:`repro.engine.remote.ShardServer`.  ``mmap=False`` reads owning
  (writable) arrays for writers and tooling.
* :class:`ServingSnapshot` — the loaded artifact.  Its builders reconstruct
  the full serving stack without per-element copies: ``inference_index()``
  adopts the mapped matrices (``InferenceIndex(copy=False)``),
  ``exclusion()`` adopts the CSR arrays
  (:meth:`UserItemIndex.from_csr_arrays`), ``quantized_block(mode)`` adopts
  stored codes/scales/bound norms, and ``sharded_index()`` /
  ``candidate_index()`` compose them behind the existing facades.

Exactness contract: a snapshot stores the frozen arrays bit-for-bit, so
serving from ``load_snapshot(path)`` — single-matrix, sharded, or two-stage
quantised, memory-mapped or owning — is **bit-identical** to serving from
the in-memory index it was saved from (pinned by
``benchmarks/bench_snapshot_serving.py`` and the snapshot property sweep).

File layout (all little-endian)::

    [magic 8s][version u4][header_len u8][header_crc32 u4]   fixed preamble
    [header JSON, header_len bytes]                           crc-protected
    [padding to 64]                                           data_start
    [section 0][padding][section 1][padding] ...              64-aligned raw

Section offsets in the header are relative to ``data_start`` so the header
can be serialised before knowing its own length.  The header carries the id
space, dtype, section table (name/dtype/shape/offset/nbytes) and free-form
metadata; a magic/version/checksum/size mismatch raises
:class:`SnapshotFormatError` instead of serving garbage.

This module only defines the file format and its loaders; the shard-server
side that serves one shard of a snapshot lives in
:mod:`repro.engine.remote`.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .candidates import CANDIDATE_MODES, QuantizedItemBlock, quantize_item_matrix
from .index import InferenceIndex, UserItemIndex
from .sharding import ShardedInferenceIndex, partition_items

__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "SnapshotFormatError",
    "ServingSnapshot",
    "save_snapshot",
    "load_snapshot",
    "snapshot_info",
]

SNAPSHOT_MAGIC = b"REPROSNP"
SNAPSHOT_VERSION = 1

#: Raw sections (and the data region itself) start on this byte boundary, so
#: memory-mapped views stay aligned for vectorised loads regardless of the
#: header's length.
_SECTION_ALIGN = 64

_PREAMBLE = struct.Struct("<8sIQI")  # magic, version, header_len, header_crc


class SnapshotFormatError(ValueError):
    """The file is not a readable serving snapshot (bad magic, unsupported
    version, corrupted header, or truncated sections)."""


def _align(offset: int) -> int:
    return (offset + _SECTION_ALIGN - 1) // _SECTION_ALIGN * _SECTION_ALIGN


def _frozen_exclusion(exclusion) -> Optional[UserItemIndex]:
    """The plain CSR index behind ``exclusion`` (unwrapping an online overlay).

    A compacted overlay is exactly its base; an overlay with pending delta
    pairs has no single CSR to persist — the caller must ``compact()`` first
    (which :meth:`OnlineRecommendationService.publish_snapshot` does).
    """
    if exclusion is None or isinstance(exclusion, UserItemIndex):
        return exclusion
    base = getattr(exclusion, "base", None)
    delta = getattr(exclusion, "delta", None)
    if isinstance(base, UserItemIndex) and delta is not None:
        if delta.nnz or exclusion.num_users != base.num_users:
            raise ValueError(
                "exclusion overlay has pending delta pairs or grown users; "
                "compact() it before saving a snapshot")
        return base
    raise TypeError(f"cannot persist exclusion of type {type(exclusion).__name__}")


def save_snapshot(path, index: InferenceIndex, *,
                  candidate_modes: Sequence[str] = ("int8",),
                  metadata: Optional[dict] = None) -> Path:
    """Persist a frozen factorised :class:`InferenceIndex` atomically.

    Writes the user/item matrices (in the index dtype), the float64 item
    norms, one quantised block (codes + scales + bound norms) per entry of
    ``candidate_modes``, and the exclusion CSR arrays when the index has an
    exclusion attached.  The file is assembled in ``<path>.tmp.<pid>`` and
    published with ``os.replace``, so a concurrently reading worker either
    sees the old complete snapshot or the new one — never a partial write.
    Returns the final path.
    """
    if not index.is_factorized:
        raise ValueError("only factorised indexes can be snapshotted "
                         "(scorer fallbacks have no matrices to persist)")
    for mode in candidate_modes:
        if mode not in CANDIDATE_MODES:
            raise ValueError(f"unknown candidate mode {mode!r}; "
                             f"options: {CANDIDATE_MODES}")
    path = Path(path)
    exclusion = _frozen_exclusion(index.exclusion)

    sections: "Dict[str, np.ndarray]" = {
        "user_embeddings": np.ascontiguousarray(index.user_embeddings),
        "item_embeddings": np.ascontiguousarray(index.item_embeddings),
        "item_norms": np.ascontiguousarray(index.item_norms),
    }
    if exclusion is not None:
        sections["exclusion_indptr"] = np.ascontiguousarray(exclusion.indptr)
        sections["exclusion_indices"] = np.ascontiguousarray(exclusion.indices)
    for mode in dict.fromkeys(candidate_modes):  # dedupe, keep order
        block = quantize_item_matrix(index.item_embeddings, mode,
                                     item_norms=index.item_norms)
        sections[f"candidates.{mode}.codes"] = np.ascontiguousarray(block.codes)
        if block.scales is not None:
            sections[f"candidates.{mode}.scales"] = \
                np.ascontiguousarray(block.scales)
        sections[f"candidates.{mode}.bound_norms"] = \
            np.ascontiguousarray(block.bound_norms)

    table = {}
    offset = 0
    for name, array in sections.items():
        offset = _align(offset)
        table[name] = {
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "offset": offset,           # relative to data_start
            "nbytes": int(array.nbytes),
        }
        offset += array.nbytes

    # Digest of every section's bytes.  The preamble's header CRC covers the
    # header bytes — including this field — so two snapshots share a header
    # CRC iff their *content* matches, which is what the remote-serving
    # fingerprint handshake relies on (same-shape retrains must not collide).
    content_crc = 0
    for array in sections.values():
        content_crc = zlib.crc32(memoryview(array).cast("B"), content_crc)

    header = {
        "format_version": SNAPSHOT_VERSION,
        "num_users": index.num_users,
        "num_items": index.num_items,
        "dim": int(index.user_embeddings.shape[1]),
        "dtype": index.dtype.name,
        "candidate_modes": list(dict.fromkeys(candidate_modes)),
        "has_exclusion": exclusion is not None,
        "content_crc32": content_crc,
        "metadata": dict(metadata or {}),
        "sections": table,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    data_start = _align(_PREAMBLE.size + len(header_bytes))

    tmp_path = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(_PREAMBLE.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
                                        len(header_bytes),
                                        zlib.crc32(header_bytes)))
            handle.write(header_bytes)
            handle.write(b"\x00" * (data_start - handle.tell()))
            for name, array in sections.items():
                target = data_start + table[name]["offset"]
                handle.write(b"\x00" * (target - handle.tell()))
                handle.write(memoryview(array).cast("B"))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        tmp_path.unlink(missing_ok=True)
        raise
    return path


def _read_header_from(handle, path: Path) -> Tuple[dict, int]:
    """Validated header dict + absolute ``data_start`` read off ``handle``."""
    try:
        preamble = handle.read(_PREAMBLE.size)
        if len(preamble) < _PREAMBLE.size:
            raise SnapshotFormatError(f"{path}: too short to be a snapshot")
        magic, version, header_len, header_crc = _PREAMBLE.unpack(preamble)
        if magic != SNAPSHOT_MAGIC:
            raise SnapshotFormatError(f"{path}: not a repro serving snapshot")
        if version != SNAPSHOT_VERSION:
            raise SnapshotFormatError(
                f"{path}: snapshot format version {version} is not "
                f"supported (this build reads version {SNAPSHOT_VERSION})")
        header_bytes = handle.read(header_len)
        file_size = os.fstat(handle.fileno()).st_size
    except OSError as error:
        raise SnapshotFormatError(f"cannot read snapshot: {error}") from error
    if len(header_bytes) < header_len:
        raise SnapshotFormatError(f"{path}: truncated snapshot header")
    if zlib.crc32(header_bytes) != header_crc:
        raise SnapshotFormatError(f"{path}: snapshot header checksum mismatch "
                                  "(corrupted file)")
    header = json.loads(header_bytes.decode("utf-8"))
    data_start = _align(_PREAMBLE.size + header_len)
    if not isinstance(header, dict) or \
            not isinstance(header.get("sections"), dict):
        raise SnapshotFormatError(
            f"{path}: malformed snapshot header (no section table)")
    for name, spec in header["sections"].items():
        # The CRC only proves the header matches what was written, not that
        # what was written is sane — a tampered-then-rechecksummed header
        # must still fail closed instead of aliasing the preamble (negative
        # offset) or mis-viewing a section (nbytes inconsistent with
        # dtype * shape).
        try:
            dtype = np.dtype(spec["dtype"])
            shape = tuple(int(n) for n in spec["shape"])
            offset = int(spec["offset"])
            nbytes = int(spec["nbytes"])
        except (KeyError, TypeError, ValueError) as error:
            raise SnapshotFormatError(
                f"{path}: malformed section table entry {name!r} "
                f"({error})") from error
        if offset < 0 or any(n < 0 for n in shape):
            raise SnapshotFormatError(
                f"{path}: malformed section table entry {name!r} "
                f"(negative offset or dimension)")
        if nbytes != int(np.prod(shape, dtype=np.int64)) * dtype.itemsize:
            raise SnapshotFormatError(
                f"{path}: section {name!r} byte count does not match its "
                f"dtype and shape")
        if data_start + offset + nbytes > file_size:
            raise SnapshotFormatError(
                f"{path}: truncated snapshot (section {name!r} reaches past "
                f"end of file)")
    return header, data_start


def _read_header(path: Path) -> Tuple[dict, int]:
    """Validated header dict + absolute ``data_start`` of ``path``."""
    try:
        handle = open(path, "rb")
    except OSError as error:
        raise SnapshotFormatError(f"cannot read snapshot: {error}") from error
    with handle:
        return _read_header_from(handle, path)


def snapshot_info(path) -> dict:
    """The validated header of a snapshot (id space, dtype, section table)."""
    header, _ = _read_header(Path(path))
    return header


def snapshot_fingerprint(path) -> str:
    """A content fingerprint of a snapshot file, cheap enough to re-check.

    Format version + header CRC + file size, read from the preamble alone
    (no section I/O).  Unlike the shard servers' ``(inode, mtime)`` cache
    key (:func:`repro.engine.remote._snapshot_identity`) — which
    distinguishes *republishes of the same path on one host* — this
    identifies the *content*, so a router and a shard server
    on different machines agree iff they hold byte-identical snapshots.
    The header CRC covers the section table, the metadata *and* the
    ``content_crc32`` digest of every section's bytes, so any regenerated
    snapshot — even a same-shape retrain — yields a new fingerprint.  Used
    by the remote-serving handshake to reject a shard serving a stale file.
    """
    path = Path(path)
    try:
        handle = open(path, "rb")
    except OSError as error:
        raise SnapshotFormatError(f"cannot read snapshot: {error}") from error
    with handle:
        preamble = handle.read(_PREAMBLE.size)
        if len(preamble) < _PREAMBLE.size:
            raise SnapshotFormatError(f"{path}: too short to be a snapshot")
        magic, version, _, header_crc = _PREAMBLE.unpack(preamble)
        if magic != SNAPSHOT_MAGIC:
            raise SnapshotFormatError(f"{path}: not a repro serving snapshot")
        size = os.fstat(handle.fileno()).st_size
    return f"v{version}:{header_crc:08x}:{size}"


def load_snapshot(path, *, mmap: bool = True) -> "ServingSnapshot":
    """Open a serving snapshot written by :func:`save_snapshot`.

    ``mmap=True`` maps every section read-only and zero-copy — O(open)
    regardless of catalogue size, pages faulted in lazily on first touch.
    ``mmap=False`` reads owning, writable arrays (an O(bytes) copy) for
    callers that need to mutate or outlive the file.
    """
    path = Path(path)
    try:
        handle = open(path, "rb")
    except OSError as error:
        raise SnapshotFormatError(f"cannot read snapshot: {error}") from error
    arrays: "Dict[str, np.ndarray]" = {}
    with handle:
        header, data_start = _read_header_from(handle, path)
        if mmap:
            # One map for the whole file, sections as views into it: the N
            # sections cost a single open + mmap (np.memmap per section would
            # pay both, plus a realpath resolution, per section), and every
            # view shares the one kernel page-cache mapping.
            base = np.memmap(handle, dtype=np.uint8, mode="r")
            # Slice/view/reshape through the plain-ndarray alias: memmap's
            # __array_finalize__ runs on every intermediate otherwise, more
            # than doubling per-section cost.  Only the final array is cast
            # back to the memmap subclass (still the same zero-copy pages,
            # kept alive through its .base chain).
            flat = base.view(np.ndarray)
            for name, spec in header["sections"].items():
                start = data_start + spec["offset"]
                arrays[name] = (flat[start:start + spec["nbytes"]]
                                .view(np.dtype(spec["dtype"]))
                                .reshape(tuple(spec["shape"]))
                                .view(type=np.memmap))
        else:
            for name, spec in header["sections"].items():
                handle.seek(data_start + spec["offset"])
                count = int(np.prod(spec["shape"], dtype=np.int64))
                array = np.fromfile(handle, dtype=np.dtype(spec["dtype"]),
                                    count=count)
                if array.size != count:
                    raise SnapshotFormatError(
                        f"{path}: truncated snapshot section {name!r}")
                arrays[name] = array.reshape(tuple(spec["shape"]))
    return ServingSnapshot(path, header, arrays, mmap=mmap)


class ServingSnapshot:
    """A loaded snapshot: raw sections plus zero-copy serving-stack builders.

    Everything expensive was paid at save time; the builders here only adopt
    the section arrays behind the existing facades — no embedding copies, no
    requantisation, no CSR re-sort.  A snapshot can therefore back many
    independently constructed indexes/services at once (they share the
    mapped pages).
    """

    def __init__(self, path: Path, header: dict,
                 arrays: Dict[str, np.ndarray], *, mmap: bool) -> None:
        self.path = Path(path)
        self.header = header
        self.mmap = bool(mmap)
        self.num_users = int(header["num_users"])
        self.num_items = int(header["num_items"])
        self.dim = int(header["dim"])
        self.dtype = np.dtype(header["dtype"])
        self.candidate_modes = tuple(header["candidate_modes"])
        self.metadata = dict(header.get("metadata", {}))
        self._arrays = arrays

    # ------------------------------------------------------------------ #
    @property
    def section_names(self) -> Tuple[str, ...]:
        return tuple(self._arrays)

    @property
    def nbytes(self) -> int:
        """Total bytes across all sections (mapped or owned)."""
        return sum(array.nbytes for array in self._arrays.values())

    def section(self, name: str) -> np.ndarray:
        try:
            return self._arrays[name]
        except KeyError:
            raise KeyError(f"snapshot {self.path} has no section {name!r}; "
                           f"available: {sorted(self._arrays)}") from None

    @property
    def has_exclusion(self) -> bool:
        return "exclusion_indptr" in self._arrays

    # ------------------------------------------------------------------ #
    def exclusion(self) -> Optional[UserItemIndex]:
        """The persisted ``user -> train items`` index (CSR arrays adopted
        zero-copy), or ``None`` when the snapshot was saved without one."""
        if not self.has_exclusion:
            return None
        return UserItemIndex.from_csr_arrays(
            self.num_users, self.num_items,
            self.section("exclusion_indptr"), self.section("exclusion_indices"))

    def inference_index(self) -> InferenceIndex:
        """A fresh :class:`InferenceIndex` over the mapped matrices.

        Fresh per call (callers may rebind users or swap exclusions, e.g.
        the online overlay); the matrices themselves are always the same
        zero-copy views, so "fresh" costs O(1), not O(users x dim).
        """
        index = InferenceIndex(
            self.num_users, self.num_items,
            user_embeddings=self.section("user_embeddings"),
            item_embeddings=self.section("item_embeddings"),
            exclusion=self.exclusion(), dtype=self.dtype, copy=False)
        norms = self.section("item_norms")
        if norms.flags.writeable:
            norms.setflags(write=False)
        index._item_norms = norms
        return index

    def quantized_block(self, mode: str) -> QuantizedItemBlock:
        """The whole-catalogue quantised block of ``mode``, sections adopted.

        Falls back to quantising the (mapped) embeddings when the snapshot
        was saved without that mode — an O(items x dim) cost the saved modes
        never pay.
        """
        if f"candidates.{mode}.codes" not in self._arrays:
            if mode not in CANDIDATE_MODES:
                raise ValueError(f"unknown candidate mode {mode!r}; "
                                 f"options: {CANDIDATE_MODES}")
            return quantize_item_matrix(self.section("item_embeddings"), mode,
                                        item_norms=self.section("item_norms"))
        scales_name = f"candidates.{mode}.scales"
        return QuantizedItemBlock(
            mode, self.section(f"candidates.{mode}.codes"),
            self._arrays.get(scales_name),
            self.section(f"candidates.{mode}.bound_norms"),
            self.section("item_norms"))

    def shard_blocks(self, mode: str, num_shards: int,
                     policy: str = "contiguous") -> list:
        """Per-shard quantised blocks sliced from the stored whole-catalogue
        block (bit-identical to requantising each shard's slice)."""
        block = self.quantized_block(mode)
        return [block.take(part)
                for part in partition_items(self.num_items, num_shards, policy)]

    def sharded_index(self, num_shards: int, *, policy: str = "contiguous",
                      executor=None) -> ShardedInferenceIndex:
        """An item-sharded facade over the mapped matrices (contiguous shards
        are zero-copy views of the mapped item matrix)."""
        return ShardedInferenceIndex.from_index(
            self.inference_index(), num_shards, policy=policy,
            executor=executor)

    def __repr__(self) -> str:
        mode = "mmap" if self.mmap else "owned"
        return (f"ServingSnapshot(path={str(self.path)!r}, {mode}, "
                f"users={self.num_users}, items={self.num_items}, "
                f"dim={self.dim}, dtype={self.dtype.name}, "
                f"modes={list(self.candidate_modes)}, nbytes={self.nbytes})")
