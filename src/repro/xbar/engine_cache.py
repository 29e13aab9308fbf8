"""Content-addressed cache of programmed crossbar engines.

Programming a layer onto crossbars is the expensive, one-off part of
hardware conversion: tiling, bit-slicing, per-tile conductance
programming, predictor bank preparation and the initial gain
calibration.  ``convert_to_hardware`` historically repeated all of it
on every invocation — so adaptive hardware-in-loop attacks, reliability
sweeps and repeated experiment cells paid the full programming cost
again and again for *identical* chips.

This cache keys a programmed :class:`~repro.xbar.simulator.CrossbarEngine`
on everything that determines its fixed function:

* the exact weight matrix bytes (dtype, shape, contents),
* the full :class:`~repro.xbar.presets.CrossbarConfig` digest —
  device, circuit, bit-slicing, ADC, gain calibration, **and** the
  fault population / guard policy,
* the column predictor's identity (content hash for GENIEx, declarative
  fields for the analytic noise model, class tag for the stateless
  backends),
* the programming RNG state (seed *and* position), which covers write
  variation and chip-specific fault maps.

Two builds with the same key compute bit-identical functions, so a hit
returns a pristine clone of the cached engine: it shares the immutable
programmed banks (the expensive state) but gets its own gain vector,
guard counters and perf counters.  The RNG passed in is fast-forwarded
to the state it would have reached by actually programming, so layer
sequences that share one generator stay deterministic whether they hit
or miss.

Invalidation is by construction: any change to weights, config, fault
realization seed or predictor contents changes the key.  Entries are
evicted LRU beyond ``maxsize``.

Disk tier
---------
The process-wide :data:`ENGINE_CACHE` additionally spills programmed
engines to content-addressed ``{key}.npz`` snapshots (default
``artifacts/engine_cache/``, override with ``REPRO_XBAR_CACHE_DIR``;
set it to the empty string/``off`` to disable).  Writes are atomic
(temp file + ``os.replace``) and loads are fail-open: a corrupt or
incompatible file is deleted and the engine rebuilt.  ``python -m repro
cache {stats,clear}`` inspects and clears the tier.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import logging
import os
import tempfile
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

#: Environment override for the disk tier's directory; empty/"off"
#: disables spilling entirely.
DISK_CACHE_ENV = "REPRO_XBAR_CACHE_DIR"

_DISABLED_VALUES = {"", "0", "off", "none", "disabled"}

#: Bumped whenever the snapshot layout changes; mismatched files are
#: ignored (and rebuilt), never misread.
#: Format 2: drift-aware snapshots — entries carry the chip's temporal
#: coordinates (drift epoch + pulse count) and pristine tile arrays.
#: Format 3: GENIEx column biases summed in the fixed order of
#: :mod:`repro.xbar._ckernels` (format 2 held BLAS-rounded biases)
#: and stored (hidden, cols).
#: Format 4: the stored probe-calibrated gain comes from a fixed-order
#: ideal product (format 3 fitted it against a BLAS ``probes @ W.T``).
SNAPSHOT_FORMAT = 4


def resolve_disk_dir(override: "str | os.PathLike | None" = None) -> Path | None:
    """Resolve the disk tier directory (``None`` = disabled).

    ``override`` beats the :data:`DISK_CACHE_ENV` environment variable,
    which beats the default ``artifacts/engine_cache/`` next to the
    model zoo.  Resolved lazily per call so tests and the CLI can flip
    the environment at any time.
    """
    if override is not None:
        return Path(override)
    env = os.environ.get(DISK_CACHE_ENV)
    if env is not None:
        if env.strip().lower() in _DISABLED_VALUES:
            return None
        return Path(env)
    from repro.train.zoo import artifacts_dir

    return artifacts_dir() / "engine_cache"


def weight_digest(weight: np.ndarray) -> str:
    """Content hash of a weight matrix (dtype, shape and bytes)."""
    w = np.ascontiguousarray(weight)
    h = hashlib.sha256()
    h.update(str(w.dtype).encode())
    h.update(str(w.shape).encode())
    h.update(w.tobytes())
    return h.hexdigest()


def config_digest(config) -> str:
    """Digest of the *complete* crossbar config (incl. faults/guard)."""
    payload = json.dumps(dataclasses.asdict(config), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()


def predictor_token(predictor) -> str:
    """Stable identity of a column-predictor backend.

    Preference order: an explicit ``cache_token`` attribute/property
    (GENIEx hashes its trained parameters), declarative dataclass
    fields (the analytic noise model), then an ``id``-based tag — which
    is always *safe* (same object → same function) but only hits within
    one predictor instance's lifetime.
    """
    token = getattr(predictor, "cache_token", None)
    if token is not None:
        return str(token() if callable(token) else token)
    if dataclasses.is_dataclass(predictor):
        payload = json.dumps(dataclasses.asdict(predictor), sort_keys=True, default=str)
        return f"{type(predictor).__name__}:{hashlib.sha256(payload.encode()).hexdigest()[:16]}"
    return f"{type(predictor).__name__}@{id(predictor):x}"


def rng_digest(rng: np.random.Generator | None) -> str:
    """Digest of a generator's full state (seed and stream position)."""
    if rng is None:
        return "rng:none"
    payload = json.dumps(rng.bit_generator.state, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()


def engine_key(weight, config, predictor, rng) -> str:
    """Content-addressed cache key for one programmed engine."""
    h = hashlib.sha256()
    h.update(weight_digest(weight).encode())
    h.update(config_digest(config).encode())
    h.update(predictor_token(predictor).encode())
    h.update(rng_digest(rng).encode())
    return h.hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one engine cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_hits: int = 0
    disk_stores: int = 0
    disk_errors: int = 0

    def reset(self) -> None:
        self.hits = self.misses = self.evictions = 0
        self.disk_hits = self.disk_stores = self.disk_errors = 0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
            "disk_stores": self.disk_stores,
            "disk_errors": self.disk_errors,
        }

    def format(self) -> str:
        text = f"{self.hits} hits / {self.misses} misses / {self.evictions} evicted"
        if self.disk_hits or self.disk_stores or self.disk_errors:
            text += (
                f" / disk {self.disk_hits} hits, {self.disk_stores} stores"
                + (f", {self.disk_errors} errors" if self.disk_errors else "")
            )
        return text


@dataclass
class _CacheEntry:
    engine: object  # the pristine-snapshotted CrossbarEngine
    rng_state_after: dict | None  # generator state right after programming


class EngineCache:
    """Bounded LRU cache of programmed :class:`CrossbarEngine` objects.

    ``disk`` selects the persistent tier: ``None``/``False`` keeps the
    cache memory-only (the default, and what unit tests rely on for
    exact hit/miss accounting), ``True`` resolves the directory via
    :func:`resolve_disk_dir` on every access, and a path pins it.
    """

    def __init__(self, maxsize: int = 64, disk: "bool | str | os.PathLike | None" = None):
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self.disk = disk
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, _CacheEntry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self.stats.reset()

    def _disk_dir(self) -> Path | None:
        if self.disk is None or self.disk is False:
            return None
        if self.disk is True:
            return resolve_disk_dir()
        return Path(self.disk)

    def get_or_build(self, weight, config, predictor, rng, builder):
        """Return a programmed engine for the key, building on miss.

        ``builder`` must program the engine using exactly the
        ``(weight, config, predictor, rng)`` the key was computed from.
        On a hit the cached engine is cloned pristine and ``rng`` is
        fast-forwarded to the post-programming state, so downstream
        consumers of the shared generator see identical draws either
        way.  A miss probes the disk tier (when enabled) before paying
        the programming cost, and spills freshly built engines.
        """
        key = engine_key(weight, config, predictor, rng)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            if rng is not None and entry.rng_state_after is not None:
                rng.bit_generator.state = copy.deepcopy(entry.rng_state_after)
            return entry.engine.clone_pristine()
        disk_dir = self._disk_dir()
        if disk_dir is not None:
            loaded = self._load_from_disk(disk_dir, key, config, predictor)
            if loaded is not None:
                engine, state_after = loaded
                self.stats.disk_hits += 1
                if rng is not None and state_after is not None:
                    rng.bit_generator.state = copy.deepcopy(state_after)
                self._remember(key, engine, state_after)
                return engine.clone_pristine()
        self.stats.misses += 1
        engine = builder()
        state_after = (
            copy.deepcopy(rng.bit_generator.state) if rng is not None else None
        )
        self._remember(key, engine, state_after)
        if disk_dir is not None:
            self._store_to_disk(disk_dir, key, engine, state_after)
        return engine

    def _remember(self, key: str, engine, state_after) -> None:
        self._entries[key] = _CacheEntry(engine=engine, rng_state_after=state_after)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    # -- disk tier ------------------------------------------------------
    def _store_to_disk(self, disk_dir: Path, key: str, engine, state_after) -> None:
        from repro.xbar.simulator import snapshot_engine

        snapshot = snapshot_engine(engine)
        if snapshot is None:  # predictor handles we don't serialize
            return
        arrays, meta = snapshot
        meta = dict(meta)
        meta["format"] = SNAPSHOT_FORMAT
        meta["rng_state_after"] = state_after  # PCG64 ints are JSON-safe
        import time

        meta["stored_at"] = time.time()  # age display only, not addressed
        payload = dict(arrays)
        payload["__meta__"] = np.frombuffer(
            json.dumps(meta, default=str).encode(), dtype=np.uint8
        )
        try:
            disk_dir.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=disk_dir, prefix=f".{key[:16]}-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    np.savez(fh, **payload)
                os.replace(tmp_name, disk_dir / f"{key}.npz")
            except BaseException:
                os.unlink(tmp_name)
                raise
            self.stats.disk_stores += 1
        except OSError as exc:
            self.stats.disk_errors += 1
            logger.warning("engine cache: failed to store %s: %r", key[:16], exc)

    def _load_from_disk(self, disk_dir: Path, key: str, config, predictor):
        path = disk_dir / f"{key}.npz"
        if not path.exists():
            return None
        try:
            with np.load(path, allow_pickle=False) as npz:
                meta = json.loads(bytes(npz["__meta__"].tobytes()).decode())
                if meta.get("format") != SNAPSHOT_FORMAT:
                    raise ValueError(f"snapshot format {meta.get('format')!r}")
                # Freshness gate: get_or_build hands out factory-fresh
                # chips (drift epoch 0, zero pulses).  An entry recorded
                # at any later point of a chip's life must be treated as
                # a *miss* — a drifted engine can never round-trip from
                # the disk tier as fresh.
                drift_meta = meta.get("drift")
                if drift_meta is not None and (
                    int(drift_meta.get("epoch", 0)) != 0
                    or int(drift_meta.get("pulse_count", 0)) != 0
                ):
                    raise ValueError(
                        "stale drift snapshot: epoch "
                        f"{drift_meta.get('epoch')!r}, "
                        f"pulses {drift_meta.get('pulse_count')!r}"
                    )
                arrays = {
                    name: npz[name] for name in npz.files if name != "__meta__"
                }
            from repro.xbar.simulator import restore_engine

            engine = restore_engine(meta, arrays, config, predictor)
            return engine, meta.get("rng_state_after")
        except Exception as exc:
            # Fail open: a corrupt/incompatible snapshot must never take
            # the pipeline down — delete it and rebuild.
            self.stats.disk_errors += 1
            logger.warning("engine cache: dropping bad snapshot %s: %r", path, exc)
            path.unlink(missing_ok=True)
            return None


def disk_cache_contents(disk_dir: Path | None = None) -> tuple[list[Path], int]:
    """Snapshot files of the disk tier and their total size in bytes."""
    disk_dir = disk_dir if disk_dir is not None else resolve_disk_dir()
    if disk_dir is None or not disk_dir.is_dir():
        return [], 0
    files = sorted(disk_dir.glob("*.npz"))
    return files, sum(f.stat().st_size for f in files)


def disk_cache_entries(disk_dir: Path | None = None) -> list[dict]:
    """Per-entry metadata of the disk tier, for ``cache stats``.

    Each dict carries the snapshot key, file size, the chip's recorded
    temporal coordinates (``epoch`` / ``pulses``; 0 for static chips)
    and the entry's wall-clock age in seconds (``None`` for snapshots
    from before age stamping).  Unreadable files report ``error``
    instead of being deleted — inspection must never mutate the tier.
    """
    import time

    files, _total = disk_cache_contents(disk_dir)
    entries: list[dict] = []
    now = time.time()
    for path in files:
        entry: dict = {"key": path.stem, "bytes": path.stat().st_size}
        try:
            with np.load(path, allow_pickle=False) as npz:
                meta = json.loads(bytes(npz["__meta__"].tobytes()).decode())
            drift_meta = meta.get("drift") or {}
            entry["format"] = meta.get("format")
            entry["epoch"] = int(drift_meta.get("epoch", 0))
            entry["pulses"] = int(drift_meta.get("pulse_count", 0))
            stored_at = meta.get("stored_at")
            entry["age_seconds"] = (
                max(0.0, now - float(stored_at)) if stored_at is not None else None
            )
        except Exception as exc:  # pragma: no cover - corrupt snapshots
            entry["error"] = repr(exc)
        entries.append(entry)
    return entries


def clear_disk_cache(disk_dir: Path | None = None) -> int:
    """Delete every snapshot (and stray temp file); returns count removed."""
    disk_dir = disk_dir if disk_dir is not None else resolve_disk_dir()
    if disk_dir is None or not disk_dir.is_dir():
        return 0
    removed = 0
    for pattern in ("*.npz", "*.tmp"):
        for path in disk_dir.glob(pattern):
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
    return removed


#: Process-wide default cache used by ``convert_to_hardware``; the only
#: cache with the disk tier enabled by default.
ENGINE_CACHE = EngineCache(maxsize=64, disk=True)


def resolve_cache(spec) -> EngineCache | None:
    """Map a ``convert_to_hardware`` cache spec to a cache instance.

    ``True`` → the process-wide :data:`ENGINE_CACHE`; ``False``/``None``
    → caching disabled; an :class:`EngineCache` instance → itself.
    """
    if isinstance(spec, EngineCache):
        # Checked first: an *empty* cache is falsy via __len__ but must
        # still be used, not silently dropped.
        return spec
    if spec is True:
        return ENGINE_CACHE
    if spec is False or spec is None:
        return None
    raise TypeError(f"engine_cache must be bool, None or EngineCache, got {spec!r}")


def clear_engine_cache() -> None:
    """Drop every entry of the process-wide cache (frees the banks)."""
    ENGINE_CACHE.clear()
