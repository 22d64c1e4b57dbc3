"""Crash-safe append-only JSONL solution store (the engine's L2).

One store file is a sequence of framed records, one per line::

    <length:08x> <crc32:08x> <payload JSON>\\n

``length`` is the byte count of the JSON payload, ``crc32`` its
checksum (``zlib.crc32``); the payload is compact, ASCII-escaped JSON
``{"key": ..., "value": ...}``.  The framing makes every failure mode
at-worst-truncating:

* a **torn tail** (process died mid-append) fails the length or CRC
  check of the last line — :meth:`SolutionStore.open`-time recovery
  truncates the file back to the last intact record;
* a **corrupt record** anywhere invalidates everything after it (an
  append-only log has no record boundaries to resynchronise on
  trustworthily), so recovery truncates from the first bad frame —
  every surviving record is bitwise-verified intact;
* **duplicate keys** are last-writer-wins, so interrupted re-solves
  simply append a fresh record.

Writes are append-only under one lock; :meth:`compact` rewrites the
live records through a temp file in the same directory and swaps it in
atomically with ``os.replace``.  Because one store file is shared
"across engines/restarts", appends, compaction and open-time recovery
are additionally serialized *across processes* with an advisory
``flock`` on a sidecar ``<store>.lock`` file (a graceful no-op where
``fcntl`` is unavailable): concurrent workers cannot interleave frames,
truncate each other's in-progress appends as torn tails, or clobber
each other's records during compaction (compact re-scans the file under
the lock and carries foreign records forward).  Keys are engine-defined
strings
(``"r{model revision}:{registry version}:{request.cache_key}"`` — see
``api/engine.py``); values are plain JSON objects, typically
``solution_to_dict`` payloads.

Fault points: ``store.open``, ``store.read``, ``store.append``,
``store.compact``.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

from ..core.types import ConfigurationError
from .faults import fault_point, register_fault_site
from .retry import PermanentError

__all__ = ["SolutionStore", "StoreCorruptionError"]

SITE_OPEN = register_fault_site(
    "store.open", "raised while opening/scanning the store file")
SITE_READ = register_fault_site(
    "store.read", "raised on a store lookup")
SITE_APPEND = register_fault_site(
    "store.append", "raised while appending a record")
SITE_COMPACT = register_fault_site(
    "store.compact", "raised during atomic compaction")

#: ``<len:08x> <crc:08x> `` — bytes before the payload on every line.
_HEADER_LEN = 18


class StoreCorruptionError(PermanentError):
    """The store file is damaged beyond the recoverable tail.

    Raised only when recovery itself is impossible (e.g. the path is a
    directory) — ordinary torn tails and bit-flips are handled by
    truncation, not errors.
    """


def _frame(payload: bytes) -> bytes:
    return (f"{len(payload):08x} {zlib.crc32(payload):08x} ").encode(
        "ascii") + payload + b"\n"


class SolutionStore:
    """Append-only persistent key/value store with CRC-framed records.

    Thread-safe; usable as a context manager.  ``fsync=True`` forces a
    disk sync per append (strict durability); the default relies on OS
    write-back plus the torn-tail recovery to keep crashes lossy only
    at the very tail.
    """

    def __init__(self, path: Union[str, Path], *,
                 fsync: bool = False) -> None:
        self.path = Path(path)
        self.fsync = bool(fsync)
        self._lock = threading.Lock()
        self._index: Dict[str, Any] = {}
        self._file: Optional[Any] = None
        self._lockfile: Optional[Any] = None
        self.hits = 0
        self.misses = 0
        self.appended = 0
        self.recovered_records = 0
        self.truncated_bytes = 0
        self.compactions = 0
        self._open()

    # -- recovery scan -------------------------------------------------

    def _open(self) -> None:
        fault_point("store.open")
        if self.path.is_dir():
            raise StoreCorruptionError(
                f"store path {self.path} is a directory, not a file")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self._lockfile is None:
            self._lockfile = open(str(self.path) + ".lock", "ab")
        # The process lock covers the recovery scan + truncate too:
        # without it, a reader opening mid-append in another process
        # would see that append as a torn tail and truncate it away.
        with self._process_lock():
            good_end = 0
            if self.path.exists():
                raw = self.path.read_bytes()
                for key, value, end in self._scan(raw):
                    self._index[key] = value
                    self.recovered_records += 1
                    good_end = end
                if good_end < len(raw):
                    # Torn tail or mid-file corruption: everything past
                    # the last intact frame is untrusted — truncate it.
                    self.truncated_bytes = len(raw) - good_end
                    with open(self.path, "r+b") as handle:
                        handle.truncate(good_end)
            self._file = open(self.path, "ab")

    @contextmanager
    def _process_lock(self) -> Iterator[None]:
        """Advisory inter-process exclusion (append/compact/recovery).

        An exclusive ``flock`` on the sidecar ``<store>.lock`` file —
        the sidecar is never replaced by compaction, so the lock
        identity is stable across ``os.replace`` swaps of the data
        file.  Where ``fcntl`` is unavailable (non-POSIX) this is a
        graceful no-op: single-process use keeps working everywhere,
        multi-process sharing needs POSIX advisory locks.
        """
        if fcntl is None or self._lockfile is None:
            yield
            return
        fcntl.flock(self._lockfile.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(self._lockfile.fileno(), fcntl.LOCK_UN)

    def _refresh_handle(self) -> None:
        """Reopen the append handle if another process's compaction
        swapped a new inode under ``self.path`` — writes through the
        orphaned old inode would be silently lost.  Call only with
        both locks held."""
        if self._file is None:
            return
        try:
            current = os.stat(self.path)
        except OSError:
            current = None
        if current is None or not os.path.samestat(
                os.fstat(self._file.fileno()), current):
            self._file.close()
            self._file = open(self.path, "ab")

    @staticmethod
    def _scan(raw: bytes) -> Iterator[Any]:
        """Yield ``(key, value, end_offset)`` for each intact frame,
        stopping at the first damaged one."""
        offset = 0
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            if newline < 0:
                return  # incomplete tail (no terminator)
            line = raw[offset:newline]
            if len(line) < _HEADER_LEN:
                return
            try:
                length = int(line[0:8], 16)
                crc = int(line[9:17], 16)
            except ValueError:
                return
            payload = line[_HEADER_LEN:]
            if (line[8:9] != b" " or line[17:18] != b" "
                    or len(payload) != length
                    or zlib.crc32(payload) != crc):
                return
            try:
                record = json.loads(payload)
            except json.JSONDecodeError:
                return
            if not isinstance(record, dict) or "key" not in record:
                return
            yield record["key"], record.get("value"), newline + 1
            offset = newline + 1

    # -- key/value API -------------------------------------------------

    def get(self, key: str) -> Optional[Any]:
        """The stored value for *key*, or ``None``."""
        fault_point("store.read")
        with self._lock:
            value = self._index.get(key)
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
            return value

    def put(self, key: str, value: Any) -> None:
        """Append ``key -> value`` (last writer wins on re-puts)."""
        if not isinstance(key, str) or not key:
            raise ConfigurationError("store keys must be non-empty strings")
        payload = json.dumps({"key": key, "value": value},
                             separators=(",", ":"), sort_keys=True)
        frame = _frame(payload.encode("ascii"))
        with self._lock:
            if self._file is None:
                raise StoreCorruptionError(
                    f"store {self.path} is closed")
            fault_point("store.append")
            with self._process_lock():
                self._refresh_handle()
                assert self._file is not None
                self._file.write(frame)
                self._file.flush()
                if self.fsync:
                    os.fsync(self._file.fileno())
            self._index[key] = value
            self.appended += 1

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._index

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def keys(self) -> Iterator[str]:
        with self._lock:
            return iter(tuple(self._index))

    # -- maintenance ---------------------------------------------------

    def compact(self) -> int:
        """Rewrite live records only; returns bytes reclaimed.

        Atomic: the new file is built next to the old one and swapped
        in with ``os.replace``, so a crash mid-compaction leaves either
        the old file or the new one — never a blend.  Under the
        inter-process lock the current file is re-scanned first and
        records appended by *other* processes (keys this store has
        never seen) are carried forward into both the rewrite and the
        in-memory index, so a worker compacting never clobbers its
        siblings' work; for keys this store knows, its own value wins.
        """
        with self._lock:
            fault_point("store.compact")
            if self._file is None:
                raise StoreCorruptionError(f"store {self.path} is closed")
            with self._process_lock():
                self._refresh_handle()
                before = (self.path.stat().st_size
                          if self.path.exists() else 0)
                if self.path.exists():
                    for key, value, _ in self._scan(self.path.read_bytes()):
                        if key not in self._index:
                            self._index[key] = value
                fd, tmp_name = tempfile.mkstemp(
                    dir=str(self.path.parent), prefix=self.path.name,
                    suffix=".tmp")
                try:
                    with os.fdopen(fd, "wb") as tmp:
                        for key, value in self._index.items():
                            payload = json.dumps(
                                {"key": key, "value": value},
                                separators=(",", ":"), sort_keys=True)
                            tmp.write(_frame(payload.encode("ascii")))
                        tmp.flush()
                        os.fsync(tmp.fileno())
                    self._file.close()
                    os.replace(tmp_name, self.path)
                except BaseException:
                    try:
                        os.unlink(tmp_name)
                    except OSError:
                        pass
                    self._file = open(self.path, "ab")
                    raise
                self._file = open(self.path, "ab")
                self.compactions += 1
                after = self.path.stat().st_size
            return max(0, before - after)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"records": len(self._index), "hits": self.hits,
                    "misses": self.misses, "appended": self.appended,
                    "recovered_records": self.recovered_records,
                    "truncated_bytes": self.truncated_bytes,
                    "compactions": self.compactions}

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None
            if self._lockfile is not None:
                self._lockfile.close()
                self._lockfile = None

    def __enter__(self) -> "SolutionStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"<SolutionStore {str(self.path)!r} "
                f"records={len(self)}>")
