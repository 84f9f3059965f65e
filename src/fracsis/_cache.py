"""The package's one cache policy.

What depends only on alpha, on a coefficient table, or on either and a
:class:`~fracsis.solvers.TimeGrid` is computed once per process and kept
in an LRU cache of :data:`_CACHE_SIZE` entries, keyed where it is
declared; every output is the same bit for bit as without it.

Cached values are shared by every caller, so they are read-only: frozen
dataclasses, tuples, and arrays marked by :func:`_read_only`.

The bound, 8, is the working set of the paper's sweep: four alphas on
two grids (the ``c-nonzero`` and ``c-zero`` presets), so eight plans of
each scheme and eight power tables, and for each alpha one table of each
kind with its kernel form and two log-Gamma tuples (K = 120, and K = 3
for the carrying-capacity radius).  Where alpha is fresh on every call,
more entries would only keep values that no later call reads.

Only grids of at most :data:`_CACHE_MAX_N` = 1000 steps enter the
per-grid caches: at that size a stress op reads its node powers three
times, in the carrying-capacity sample, the zero-capacity sample and the
population curve N(t).  Past it a plan costs O(N) beside its O(N^2)
march and would hold O(N) memory per entry, so a larger grid is built
for on every call and nothing is kept.

Generated code is compiled once per process, by :func:`_compiled` on its
first use, so importing the package compiles nothing.
"""

from __future__ import annotations

import linecache
from functools import lru_cache, wraps
from typing import Callable

import numpy as np

#: entries of every data cache of the package
_CACHE_SIZE = 8
#: the largest N of a grid that enters a per-grid cache
_CACHE_MAX_N = 1000


def _read_only(x: np.ndarray) -> np.ndarray:
    x.flags.writeable = False
    return x


def _per_grid(build):
    """``build(key, grid)`` behind an LRU cache of ``_CACHE_SIZE`` entries
    that a grid of more than ``_CACHE_MAX_N`` steps bypasses.

    The key is what the build reads besides the grid: alpha, or a
    coefficient table.  The wrapper has the ``cache_info`` and
    ``cache_clear`` of the cache; ``__wrapped__`` is ``build``.
    """
    cached = lru_cache(maxsize=_CACHE_SIZE)(build)

    @wraps(build)
    def lookup(key, grid):
        return (cached if grid.N <= _CACHE_MAX_N else build)(key, grid)

    lookup.cache_info, lookup.cache_clear = cached.cache_info, cached.cache_clear
    return lookup


@lru_cache(maxsize=None)
def _compiled(source: Callable[[], str]) -> Callable:
    """The function whose source ``source()`` returns, compiled on first use.

    The source is a module of its own, its imports and one ``def`` of the
    function named as ``source`` less its ``_source`` suffix.  Every
    generated function adds its terms with ``+``, left to right from 0.0,
    and calls no ``sum``, which compensates float rounding from Python
    3.12 on: so its bits are the same on every Python version.  Its source
    goes into :mod:`linecache` with no mtime, which ``checkcache`` never
    drops, so tracebacks and ``inspect.getsource`` show its lines.
    """
    name = source.__name__.removesuffix("_source")
    text, filename = source(), f"<{source.__module__}.{name}>"
    linecache.cache[filename] = (len(text), None, text.splitlines(True), filename)
    scope: dict = {}
    exec(compile(text, filename, "exec"), scope)
    return scope[name]
