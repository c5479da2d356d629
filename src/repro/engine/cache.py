"""Bounded memoization for exact distributions and prepared states.

Exact noisy PMFs are deterministic functions of (circuit content, device
config, backend kind, readout mapping) — all captured by the engine's
cache keys — so memoizing them is semantically invisible: only the
sampling step consumes randomness.  Across VQE iterations the same
measurement circuits recur whenever the tuner revisits parameters
(SPSA's paired perturbations, trial repeats, benchmark sweeps), which is
exactly what a bounded LRU exploits.

:class:`LRUCache` is deliberately generic; the engine instantiates one
for PMFs and one for prepared statevectors.  Two bounds compose:

* ``maxsize`` — an entry-count cap (the original bound, now secondary);
* ``max_bytes`` — an approximate byte budget over the *payload* sizes of
  the cached values (:func:`approx_nbytes`: a PMF's probability vector,
  a statevector's buffer).  Entries above the budget evict LRU-first, so
  256 cached 20-qubit PMFs can no longer silently pin gigabytes.

Hit/miss/eviction counters plus the live byte footprint are kept per
cache and surfaced through :class:`CacheStats`.
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

__all__ = ["CacheStats", "LRUCache", "approx_nbytes"]

_MISSING = object()


def approx_nbytes(value) -> int:
    """Approximate heap footprint of a cached value in bytes.

    Understands the engine's two payload types without importing them:
    objects exposing a ``probs`` array (:class:`~repro.sim.PMF`) and
    array-likes exposing ``nbytes`` (prepared statevectors).  Anything
    else falls back to ``sys.getsizeof``.  A small constant covers the
    wrapping object/key overhead; this is budget accounting, not a
    profiler.
    """
    overhead = 64
    probs = getattr(value, "probs", None)
    if probs is not None and hasattr(probs, "nbytes"):
        return int(probs.nbytes) + overhead
    nbytes = getattr(value, "nbytes", None)
    if nbytes is not None:
        return int(nbytes) + overhead
    return int(sys.getsizeof(value))


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time counters for one cache.

    Snapshots subtract field-wise (``after - before`` is one phase's
    cache activity); the size/byte gauges subtract too, giving the
    phase's net growth rather than an absolute level.
    """

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int
    bytes: int = 0
    max_bytes: int = 0

    def __sub__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            hits=self.hits - other.hits,
            misses=self.misses - other.misses,
            evictions=self.evictions - other.evictions,
            size=self.size - other.size,
            maxsize=self.maxsize,
            bytes=self.bytes - other.bytes,
            max_bytes=self.max_bytes,
        )

    @property
    def requests(self) -> int:
        """Total lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when untouched)."""
        total = self.requests
        return self.hits / total if total else 0.0


class LRUCache:
    """A doubly-bounded least-recently-used map with usage counters.

    Parameters
    ----------
    maxsize:
        Entry-count cap.  ``maxsize=0`` disables storage entirely: every
        lookup misses and nothing is retained (useful as a null object —
        callers need no special-casing).
    max_bytes:
        Approximate byte budget over the payload sizes of cached values;
        ``0`` means unbounded bytes (entry cap only).  A single value
        larger than the whole budget is simply not retained.  Payload
        sizes are :func:`approx_nbytes`.
    """

    def __init__(self, maxsize: int, max_bytes: int = 0):
        if maxsize < 0:
            raise ValueError("maxsize must be >= 0")
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        self.maxsize = int(maxsize)
        self.max_bytes = int(max_bytes)
        self._data: OrderedDict[Any, Any] = OrderedDict()
        self._sizes: dict[Any, int] = {}
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data

    def get(self, key):
        """Return the cached value or ``None``, updating hit/miss stats."""
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return None
        self.hits += 1
        self._data.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        """Insert ``value``, evicting least-recently-used overflow.

        Overflow is whatever violates either bound: more than ``maxsize``
        entries, or (when ``max_bytes`` is set) a total payload footprint
        above the byte budget.
        """
        if self.maxsize == 0:
            return
        size = approx_nbytes(value)
        if self.max_bytes and size > self.max_bytes:
            # Oversized values are not retained — and must not flush
            # every smaller entry on their way through.  Drop any stale
            # value previously stored under this key.
            if key in self._data:
                del self._data[key]
                self.bytes -= self._sizes.pop(key)
            return
        if key in self._data:
            self._data.move_to_end(key)
            self.bytes -= self._sizes[key]
        self._data[key] = value
        self._sizes[key] = size
        self.bytes += size
        while len(self._data) > self.maxsize or (
            self.max_bytes and self.bytes > self.max_bytes
        ):
            evicted_key, _ = self._data.popitem(last=False)
            self.bytes -= self._sizes.pop(evicted_key)
            self.evictions += 1

    @property
    def stats(self) -> CacheStats:
        """A point-in-time :class:`CacheStats` snapshot."""
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            size=len(self._data),
            maxsize=self.maxsize,
            bytes=self.bytes,
            max_bytes=self.max_bytes,
        )

    def __repr__(self) -> str:
        s = self.stats
        return (
            f"<LRUCache {s.size}/{s.maxsize} entries, "
            f"{s.bytes}/{s.max_bytes or '∞'} bytes, "
            f"{s.hits} hits / {s.misses} misses, {s.evictions} evicted>"
        )
