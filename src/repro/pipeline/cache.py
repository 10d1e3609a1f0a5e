"""On-disk profile cache.

Profiling is by far the expensive half of the pipeline (the simulator walks
per-warp traces cycle by cycle), yet every harness re-simulates launches it
has seen before: Table 3 profiles each case twice, Figure 7 profiles the same
baselines again, and a second run of either starts from zero.  The cache
stores each :class:`~repro.sampling.sample.KernelProfile` as JSON under a key
that digests *everything the simulation depends on*:

* the binary (encoded code sections, line tables, inline info, resources),
* the kernel symbol and the launch configuration,
* the workload specification, through its wire form (a workload is plain
  data, so its wire form is all the simulation reads of it),
* the architecture model (all hardware limits and latency overrides),
* the PC sampling period,
* the simulation cycle bound (``max_cycles``), so a truncated simulation is
  never replayed as a full one, and
* the simulation scope, so a cached single-wave profile never replays as a
  whole-GPU one (or vice versa), and
* the memory model, so flat and hierarchy profiles never collide.

Changing any of these misses; repeating a run hits and skips the simulator.
Writes go through a temporary file and :func:`os.replace` so concurrent
worker processes never observe a torn entry, and every *mutation* (store,
clear) additionally holds a :class:`CacheLock` — an advisory
``flock`` on ``<dir>/.cache.lock`` — so one cache directory is safe to
share between multiple daemons on a host, not just between the worker
processes of one daemon.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from dataclasses import asdict
from pathlib import Path
from typing import Optional, Union

try:  # pragma: no cover - present on every POSIX build we target
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from repro.arch.machine import GpuArchitecture
from repro.cubin.binary import Cubin
from repro.sampling.sample import KernelProfile, LaunchConfig
from repro.sampling.vector import DEFAULT_MAX_CYCLES
from repro.sampling.workload import WorkloadSpec

#: Bump when the digest scheme or the profile JSON schema changes shape.
#: Version 4: profiles record the memory model (flat vs hierarchy) and its
#: statistics, and the key digests the memory model, so hierarchy-on/off
#: profiles never collide.
#: Version 5: the key digests the *resolved* simulator backend ("object" or
#: "vector").  The two cores are bit-identical by contract, but a cached
#: entry must witness the core that produced it so an equivalence regression
#: can never hide behind a replay.
#: Version 6: the ``backend=`` token is gone — every profile is produced by
#: the one production core — so version-5 entries simply miss.
#: Version 7: the workload and the architecture digest as their JSON forms.
CACHE_SCHEMA_VERSION = 7


def _cubin_token(cubin: Cubin) -> str:
    """The binary's key token, ``json.dumps(cubin.to_dict(), sort_keys=True)``.

    A :class:`Cubin` is frozen, so the token is encoded once per object and
    memoized in its instance ``__dict__`` (as
    :func:`~repro.sampling.trace.instruction_meta` memoizes on an
    instruction): it lives as long as the binary, and a
    :func:`dataclasses.replace` copy encodes its own.
    """
    token = cubin.__dict__.get("_cache_token")
    if token is None:
        token = cubin.__dict__["_cache_token"] = json.dumps(cubin.to_dict(), sort_keys=True)
    return token


def profile_cache_key(
    cubin: Cubin,
    kernel_name: str,
    config: LaunchConfig,
    workload: WorkloadSpec,
    architecture: GpuArchitecture,
    sample_period: int,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    simulation_scope: str = "single_wave",
    memory_model: str = "flat",
) -> str:
    """The cache key of one simulated kernel launch.

    ``max_cycles`` bounds the simulation loop and therefore the recorded
    counts, so a truncated simulation must never be replayed as a full one;
    ``simulation_scope`` selects the engine (single-wave extrapolation vs.
    measured whole-GPU), so profiles from one scope must never replay as the
    other; ``memory_model`` selects the memory system (flat latency vs. the
    L1/L2/DRAM hierarchy), whose profiles differ in both timing and recorded
    statistics.  (``keep_samples`` is deliberately absent: it only controls
    whether raw samples are retained on the transient ``SimulationResult``,
    which is not cached — replays always return ``simulation=None``.)
    """
    hasher = hashlib.sha256()
    for token in (
        f"v{CACHE_SCHEMA_VERSION}",
        _cubin_token(cubin),
        kernel_name,
        f"grid={config.grid_blocks};tpb={config.threads_per_block};"
        f"smem={config.shared_memory_bytes}",
        # default=repr: a leaf JSON cannot express (a Fraction scale, say)
        # digests by its repr instead of failing the key.
        json.dumps(workload.to_dict(), sort_keys=True, default=repr),
        json.dumps(asdict(architecture), sort_keys=True, default=repr),
        f"period={sample_period}",
        f"max_cycles={max_cycles}",
        f"scope={simulation_scope}",
        f"memory_model={memory_model}",
    ):
        hasher.update(token.encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


# ----------------------------------------------------------------------
# The cache proper
# ----------------------------------------------------------------------
class CacheLock:
    """A reentrant cross-process mutex on a cache directory.

    Combines a thread :class:`~threading.RLock` (handler threads of one
    daemon) with an advisory ``flock`` on ``<dir>/.cache.lock``
    (daemons sharing the directory).  The OS drops the flock automatically
    if the holder dies, so a SIGKILL'd daemon can never wedge its
    neighbours.  On platforms without :mod:`fcntl` the file lock degrades
    to the thread lock alone — single-process safety is preserved.
    """

    def __init__(self, directory: Union[str, Path]):
        self.path = Path(directory) / ".cache.lock"
        self._thread_lock = threading.RLock()
        self._depth = 0
        self._handle = None

    def __enter__(self) -> "CacheLock":
        self._thread_lock.acquire()
        self._depth += 1
        if self._depth == 1 and fcntl is not None:
            try:
                handle = open(self.path, "a+b")
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
                self._handle = handle
            except OSError:  # pragma: no cover - exotic filesystems
                # A filesystem that refuses flock (some network mounts):
                # fall back to thread-level locking rather than failing
                # every cache write.
                self._handle = None
        return self

    def __exit__(self, *exc_info) -> None:
        if self._depth == 1 and self._handle is not None:
            try:
                fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
            finally:
                self._handle.close()
                self._handle = None
        self._depth -= 1
        self._thread_lock.release()

    @property
    def held(self) -> bool:
        """Whether this process currently holds the lock (for tests)."""
        return self._depth > 0


class ProfileCache:
    """A directory of cached kernel profiles, one JSON file per key."""

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.lock = CacheLock(self.directory)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.profile.json"

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def get(self, key: str) -> Optional[KernelProfile]:
        """The cached profile for ``key``, or ``None`` on a miss."""
        path = self.path_for(key)
        try:
            text = path.read_text()
        except OSError:
            self.misses += 1
            return None
        try:
            profile = KernelProfile.from_json(text)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError):
            # A torn or stale entry — including valid JSON of the wrong
            # shape: treat as a miss and let the writer replace it.
            self.misses += 1
            return None
        self.hits += 1
        return profile

    def put(self, key: str, profile: KernelProfile) -> Path:
        """Store ``profile`` under ``key`` (atomic, last writer wins).

        Held under :attr:`lock`, so daemons sharing the directory
        serialize their writes; readers never need the lock because
        :func:`os.replace` publishes entries atomically.
        """
        path = self.path_for(key)
        with self.lock:
            handle, tmp_name = tempfile.mkstemp(
                dir=self.directory, prefix=".tmp-", suffix=".json"
            )
            try:
                with os.fdopen(handle, "w") as stream:
                    stream.write(profile.to_json())
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
            self.stores += 1
        return path

    def clear(self) -> int:
        """Delete every cached entry; returns the number removed.

        Race-safe like :meth:`put`/:meth:`get`: an entry another process
        removes between the listing and the unlink is simply skipped.
        """
        removed = 0
        with self.lock:
            for path in self.directory.glob("*.profile.json"):
                try:
                    path.unlink()
                except FileNotFoundError:
                    continue
                removed += 1
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.profile.json"))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProfileCache({str(self.directory)!r}, entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )


def coerce_cache(cache: Union[None, str, Path, ProfileCache]) -> Optional[ProfileCache]:
    """Accept a cache instance or a directory path (or ``None``)."""
    if cache is None or isinstance(cache, ProfileCache):
        return cache
    return ProfileCache(cache)
