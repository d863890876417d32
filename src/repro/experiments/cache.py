"""Dataset caching: content-addressed keys, a bounded LRU, a disk layer.

The paper's pipeline is only tractable because each stage's expensive
artefacts are computed once and reused by every downstream analysis
(§2); the reproduction mirrors that with three pieces layered under
:func:`repro.experiments.common.build_dataset`:

* :func:`config_fingerprint` — a content hash derived automatically from
  the *full* config dataclass tree (``dataclasses.fields``, recursively).
  Unlike a hand-maintained key tuple, it cannot silently go stale when
  :class:`~repro.config.SimulationConfig` grows a field: new fields (and
  their defaults) change the canonical form and therefore the hash.
* :class:`LRUCache` — a small bounded in-memory map so parameter sweeps
  and ablations no longer grow memory without limit.
* :class:`DatasetDiskCache` — a persistent content-addressed store under
  ``.repro-cache/`` (npz for the big arrays + pickle for the object
  graph, versioned via ``meta.json``) so a cold process reuses a prior
  campaign instead of re-simulating it.

:func:`dataset_content_hash` hashes the *output* arrays of a built
dataset; determinism tests assert that identical configs produce
identical content hashes in-process and across subprocess workers.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pathlib
import pickle
import shutil
import time
from collections import OrderedDict
from typing import Any, Callable

import numpy as np

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "canonical_config",
    "config_fingerprint",
    "dataset_content_hash",
    "LRUCache",
    "DatasetDiskCache",
    "default_cache_dir",
]

#: Bump to invalidate every persisted dataset (format or semantics change).
CACHE_SCHEMA_VERSION = 1

#: Environment override for the on-disk cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_DEFAULT_CACHE_DIR = ".repro-cache"


def default_cache_dir() -> pathlib.Path:
    """The disk-cache root: ``$REPRO_CACHE_DIR`` or ``./.repro-cache``."""
    return pathlib.Path(os.environ.get(CACHE_DIR_ENV, _DEFAULT_CACHE_DIR))


# --------------------------------------------------------------- fingerprint


def canonical_config(obj: Any) -> Any:
    """A config object as nested JSON-able primitives, deterministically.

    Dataclasses contribute their type name and *every* field (via
    :func:`dataclasses.fields`, recursively), so the canonical form — and
    any hash of it — changes whenever a field is added, removed or given
    a different value.  Dicts, tuples, enums and numpy scalars are
    normalised; anything else falls back to ``repr``.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: canonical_config(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return {"__dataclass__": type(obj).__qualname__, **fields}
    if isinstance(obj, enum.Enum):
        return [type(obj).__qualname__, obj.name]
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, dict):
        return {"__dict__": {str(k): canonical_config(v) for k, v in obj.items()}}
    if isinstance(obj, (tuple, list)):
        return [canonical_config(item) for item in obj]
    if isinstance(obj, np.ndarray):
        return {
            "__ndarray__": hashlib.sha256(
                np.ascontiguousarray(obj).tobytes()
            ).hexdigest(),
            "shape": list(obj.shape),
            "dtype": str(obj.dtype),
        }
    if callable(obj):
        return f"<callable {getattr(obj, '__qualname__', repr(obj))}>"
    return repr(obj)


def config_fingerprint(config: Any) -> str:
    """Content-addressed cache key for a config dataclass tree (sha256 hex)."""
    payload = {
        "schema_version": CACHE_SCHEMA_VERSION,
        "config": canonical_config(config),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def dataset_content_hash(dataset: Any) -> str:
    """Hash of a built dataset's numeric content (sha256 hex).

    Covers the utilisation matrix, observed link set, the TM series and
    the flow table columns — the arrays every figure analysis reads.
    Two datasets with equal hashes are interchangeable for analysis.
    """
    digest = hashlib.sha256()

    def add(name: str, array: np.ndarray) -> None:
        array = np.ascontiguousarray(array)
        digest.update(name.encode("utf-8"))
        digest.update(str(array.shape).encode("utf-8"))
        digest.update(str(array.dtype).encode("utf-8"))
        digest.update(array.tobytes())

    add("utilization", dataset.utilization)
    add("observed_links", dataset.observed_links)
    add("tm10", dataset.tm10.matrices)
    flows = dataset.flows
    for column in ("src", "dst", "src_port", "dst_port",
                   "start_time", "end_time", "num_bytes"):
        add(f"flows.{column}", getattr(flows, column))
    return digest.hexdigest()


# ----------------------------------------------------------------- LRU cache


class LRUCache:
    """A small bounded mapping with least-recently-used eviction.

    ``on_evict`` (if given) is called once per evicted value — the
    experiments layer uses it to count evictions into telemetry.
    """

    def __init__(self, limit: int = 8,
                 on_evict: Callable[[str, Any], None] | None = None) -> None:
        if limit < 1:
            raise ValueError("cache limit must be >= 1")
        self._data: OrderedDict[str, Any] = OrderedDict()
        self._limit = limit
        self._on_evict = on_evict
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    @property
    def limit(self) -> int:
        """Maximum number of entries held."""
        return self._limit

    def set_limit(self, limit: int) -> None:
        """Change the bound, evicting oldest entries if now over it."""
        if limit < 1:
            raise ValueError("cache limit must be >= 1")
        self._limit = limit
        self._shrink()

    def get(self, key: str) -> Any | None:
        """Fetch and mark as most recently used (None on miss)."""
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
        return value

    def put(self, key: str, value: Any) -> None:
        """Insert as most recently used, evicting past the limit."""
        self._data[key] = value
        self._data.move_to_end(key)
        self._shrink()

    def clear(self) -> None:
        """Drop every entry (not counted as evictions)."""
        self._data.clear()

    def keys(self) -> list[str]:
        """Keys, oldest first."""
        return list(self._data)

    def _shrink(self) -> None:
        while len(self._data) > self._limit:
            key, value = self._data.popitem(last=False)
            self.evictions += 1
            if self._on_evict is not None:
                self._on_evict(key, value)


# ---------------------------------------------------------------- disk cache

#: Big numeric payloads stored in ``arrays.npz`` instead of the pickle.
_NPZ_FIELDS = ("utilization", "observed_links")


class DatasetDiskCache:
    """Content-addressed persistent dataset store.

    One directory per entry (``dataset-<fingerprint>/``) holding:

    * ``arrays.npz`` — the large numeric fields, compressed;
    * ``dataset.pkl`` — the remaining object graph (config, simulation
      result, flow table, TM series);
    * ``meta.json`` — schema version, creation time, seed/duration and
      the dataset content hash, for ``repro cache ls`` and validation.

    Writes go to a temp directory renamed into place, so concurrent
    campaign workers storing the same fingerprint race benignly.
    """

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        self.root = pathlib.Path(root) if root is not None else default_cache_dir()

    def entry_dir(self, fingerprint: str) -> pathlib.Path:
        """Directory that does/would hold this fingerprint's artefacts."""
        return self.root / f"dataset-{fingerprint}"

    def load(self, fingerprint: str):
        """The cached dataset, or None on miss/version-mismatch/corruption."""
        entry = self.entry_dir(fingerprint)
        try:
            with open(entry / "meta.json", "r", encoding="utf-8") as handle:
                meta = json.load(handle)
            if meta.get("schema_version") != CACHE_SCHEMA_VERSION:
                return None
            with open(entry / "dataset.pkl", "rb") as handle:
                dataset = pickle.load(handle)
            with np.load(entry / "arrays.npz") as stored:
                return dataclasses.replace(
                    dataset, **{name: stored[name] for name in _NPZ_FIELDS}
                )
        except (OSError, json.JSONDecodeError, KeyError, EOFError,
                pickle.UnpicklingError, ValueError, AttributeError,
                ModuleNotFoundError):
            return None

    def store(self, fingerprint: str, dataset) -> pathlib.Path:
        """Persist a dataset (no-op if the fingerprint already exists)."""
        entry = self.entry_dir(fingerprint)
        if entry.exists():
            return entry
        staging = entry.with_name(f"{entry.name}.tmp-{os.getpid()}")
        if staging.exists():
            shutil.rmtree(staging)
        staging.mkdir(parents=True)
        try:
            arrays = {
                name: np.ascontiguousarray(getattr(dataset, name))
                for name in _NPZ_FIELDS
            }
            np.savez_compressed(staging / "arrays.npz", **arrays)
            slim = dataclasses.replace(
                dataset,
                **{name: np.empty(0) for name in _NPZ_FIELDS},
            )
            with open(staging / "dataset.pkl", "wb") as handle:
                pickle.dump(slim, handle, protocol=pickle.HIGHEST_PROTOCOL)
            size = sum(p.stat().st_size for p in staging.iterdir())
            meta = {
                "schema_version": CACHE_SCHEMA_VERSION,
                "fingerprint": fingerprint,
                "created_at": time.time(),
                "seed": getattr(dataset.config, "seed", None),
                "duration": getattr(dataset.config, "duration", None),
                "content_hash": dataset_content_hash(dataset),
                "size_bytes": size,
            }
            with open(staging / "meta.json", "w", encoding="utf-8") as handle:
                json.dump(meta, handle, indent=2)
                handle.write("\n")
            try:
                staging.rename(entry)
            except OSError:
                # Another worker persisted the same fingerprint first.
                shutil.rmtree(staging, ignore_errors=True)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        return entry

    def entries(self) -> list[dict]:
        """Metadata of every valid entry, oldest first."""
        if not self.root.is_dir():
            return []
        found = []
        for entry in sorted(self.root.iterdir()):
            meta_path = entry / "meta.json"
            if not entry.is_dir() or not meta_path.is_file():
                continue
            try:
                with open(meta_path, "r", encoding="utf-8") as handle:
                    meta = json.load(handle)
            except (OSError, json.JSONDecodeError):
                continue
            meta["path"] = str(entry)
            found.append(meta)
        found.sort(key=lambda meta: meta.get("created_at", 0.0))
        return found

    def clear(self) -> int:
        """Remove every entry; returns how many were removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for entry in list(self.root.iterdir()):
            if entry.is_dir() and entry.name.startswith("dataset-"):
                shutil.rmtree(entry, ignore_errors=True)
                removed += 1
        return removed
