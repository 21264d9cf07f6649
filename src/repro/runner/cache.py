"""Persistent, content-addressed result cache.

Every experiment run is a pure function of its request — spec fields,
population size/shape, seed, attack load, defenses — and of the
simulator code itself. The cache key is a SHA-256 over a canonical JSON
encoding of the request plus :func:`code_fingerprint`, a digest of every
source file (``.py`` and the C kernel's ``.c``) in the ``repro``
package. Editing any source file therefore invalidates the whole cache
(conservative but sound: a kernel tweak can shift every derived number),
while re-running the same battery across sessions is a pure disk read.

Entries are pickles written atomically (temp file + rename) so a killed
run never leaves a truncated entry behind; unreadable entries are treated
as misses and overwritten.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pathlib
import pickle
import tempfile
import time
from typing import Any, NamedTuple, Optional, Union

import repro

_FINGERPRINT: Optional[str] = None

CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Prefix of the atomic-write staging files (`.tmp-XXXX.pkl`).
TEMP_PREFIX = ".tmp-"

#: A staging file older than this is an orphan from a killed ``put()``
#: (a live write lasts milliseconds) and is swept opportunistically.
TEMP_SWEEP_AGE_SECONDS = 3600.0


class _MissSentinel:
    """Distinct cache-miss marker so ``None`` is a storable value."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<MISS>"

    def __bool__(self) -> bool:
        return False


#: Returned by :meth:`DiskCache.get` on a miss. Test with ``is MISS`` —
#: a legitimately-``None`` cached result must not read as a miss.
MISS = _MissSentinel()


class ClearStats(NamedTuple):
    """What :meth:`DiskCache.clear` removed."""

    entries: int
    temps: int


def default_cache_dir() -> pathlib.Path:
    """Resolve the cache location: ``$REPRO_CACHE_DIR`` or ``~/.cache``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro-runs"


#: Source files that determine results: the Python tree plus the C
#: source of the optional compiled event kernel.
SOURCE_SUFFIXES = (".py", ".c")


def source_digest(root: pathlib.Path) -> str:
    """Digest of every source file (``SOURCE_SUFFIXES``) under ``root``."""
    digest = hashlib.sha256()
    for path in sorted(
        path for path in root.rglob("*") if path.suffix in SOURCE_SUFFIXES
    ):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def code_fingerprint() -> str:
    """Digest of the installed ``repro`` source tree (cached per process)."""
    global _FINGERPRINT
    if _FINGERPRINT is None:
        root = pathlib.Path(repro.__file__).resolve().parent
        _FINGERPRINT = source_digest(root)
    return _FINGERPRINT


def _canonical(value: Any) -> Any:
    """Reduce a request component to JSON-encodable canonical form.

    Every encoding must be stable across *processes*: set iteration
    follows the per-process string hash seed and default ``repr`` embeds
    an object address, so both are canonicalized explicitly. Types with
    no stable encoding raise ``TypeError`` instead of silently keying on
    an address — a wrong cache key defeats the cache without any error.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            **{
                field.name: _canonical(getattr(value, field.name))
                for field in dataclasses.fields(value)
            },
        }
    if isinstance(value, enum.Enum):
        # Before the scalar check: IntEnum/StrEnum subclass int/str, and
        # two enums may share a value while meaning different things.
        return {"__enum__": f"{type(value).__name__}.{value.name}"}
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, (set, frozenset)):
        items = [_canonical(item) for item in value]
        items.sort(key=lambda item: json.dumps(item, sort_keys=True))
        return {"__set__": items}
    if isinstance(value, (bytes, bytearray)):
        return {"__bytes__": bytes(value).hex()}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(
        f"cannot build a stable cache key from {type(value).__name__!r} "
        f"({value!r}); add an explicit canonical encoding to _canonical"
    )


def cache_key(request: Any) -> str:
    """Stable content hash for a :class:`~repro.runner.executor.RunRequest`."""
    payload = json.dumps(
        {"request": _canonical(request), "code": code_fingerprint()},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class DiskCache:
    """Pickle store addressed by :func:`cache_key` digests."""

    def __init__(
        self, root: Union[str, "os.PathLike[str]", None] = None
    ) -> None:
        self.root = pathlib.Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0

    def path_for(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.pkl"

    def get(self, key: str) -> Any:
        """Load a cached result, or :data:`MISS` on miss/corruption.

        The sentinel (not ``None``) marks the miss so a run whose
        detached result is legitimately ``None`` still reads as a hit.
        """
        path = self.path_for(key)
        try:
            with path.open("rb") as stream:
                value = pickle.load(stream)
        except FileNotFoundError:
            self.misses += 1
            return MISS
        except Exception:
            # A truncated or stale-format entry is just a miss; the next
            # put() replaces it.
            self.misses += 1
            return MISS
        self.hits += 1
        return value

    def put(self, key: str, value: Any) -> None:
        """Store a result atomically (write-to-temp, then rename)."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        descriptor, temp_name = tempfile.mkstemp(
            dir=self.root, prefix=TEMP_PREFIX, suffix=".pkl"
        )
        try:
            with os.fdopen(descriptor, "wb") as stream:
                pickle.dump(value, stream, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        # A put() killed between mkstemp and replace leaves its staging
        # file behind forever; sweep aged orphans while we are here.
        self.sweep_temps(min_age_seconds=TEMP_SWEEP_AGE_SECONDS)

    def sweep_temps(self, min_age_seconds: Optional[float] = None) -> int:
        """Remove orphaned ``.tmp-*.pkl`` staging files; returns count.

        With ``min_age_seconds`` set, only files at least that old are
        removed — young staging files may belong to a concurrent
        ``put()`` whose ``os.replace`` has not happened yet.
        """
        removed = 0
        if not self.root.is_dir():
            return 0
        # Wall clock on purpose: file ages are an OS artifact, not
        # simulation state.
        now = time.time()  # repro-lint: allow[determinism]
        for path in self.root.glob(TEMP_PREFIX + "*.pkl"):
            if min_age_seconds is not None:
                try:
                    age = now - path.stat().st_mtime
                except OSError:
                    continue
                if age < min_age_seconds:
                    continue
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        return removed

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def clear(self) -> ClearStats:
        """Delete every entry and staging file; reports both counts."""
        entries = 0
        if self.root.is_dir():
            for path in self.root.glob("*.pkl"):
                if path.name.startswith(TEMP_PREFIX):
                    continue  # counted by the temp sweep below
                path.unlink(missing_ok=True)
                entries += 1
        temps = self.sweep_temps()
        return ClearStats(entries=entries, temps=temps)
