"""The package's one cache policy.

What depends only on alpha, on a coefficient table, or on either and a
:class:`~fracsis.solvers.TimeGrid` is computed once per process and kept
in an LRU cache of :data:`_CACHE_SIZE` entries; every output is the same
bit for bit as without it.  The caches, by key:

* (alpha, K): the log-Gammas lgamma(alpha k + 1), k = 0..K, of
  :func:`fracsis.coeffs.log_gamma_orders`, a tuple, from which the
  coefficient recursions form their Gamma ratios and
  :attr:`~fracsis.coeffs.CoeffTable.values` its ``c_k``;
* (alpha, K, d0, kind): the :class:`~fracsis.coeffs.CoeffTable` of
  :func:`~fracsis.coeffs.euler_alpha` and :func:`~fracsis.coeffs.a_coeffs`,
  whose root test and hash are each a ``cached_property``, computed once
  per table object, so a lookup keyed by the table does not hash its
  entries again;
* (table): the summation kernel's form of a coefficient table, with the
  thresholds of its stopping rule, in :mod:`fracsis.series`;
* (alpha, grid), through :func:`_per_grid`: the PECE and L1 plans of
  :mod:`fracsis.solvers` and the nodes' t**alpha of
  :func:`~fracsis.solvers.node_powers`;
* (table, grid), through :func:`_per_grid`: the zero-capacity series'
  unscaled node sums, terms used and ``converged`` flags in
  :mod:`fracsis.series`.

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

Never cached: the public :func:`~fracsis.solvers.pece_kernels` and
:func:`~fracsis.solvers.l1_kernel` (each call returns fresh, writable
arrays), the sums of a series whose argument carries a scale (the
carrying-capacity series with its run's b, the rescaled series),
``evaluate``, ``mittag_leffler`` and ``population_curve``.
"""

from __future__ import annotations

from functools import lru_cache, wraps

import numpy as np

#: entries of every data cache of the package
_CACHE_SIZE = 8
#: the largest N of a grid that enters a per-grid cache
_CACHE_MAX_N = 1000


def _read_only(x: np.ndarray) -> np.ndarray:
    x.flags.writeable = False
    return x


def _per_grid(build):
    """``build(key, grid)`` behind an LRU cache of ``_CACHE_SIZE`` entries.

    The key is what the build reads besides the grid: alpha, or a
    coefficient table.  A grid of more than ``_CACHE_MAX_N`` steps is
    built for afresh and nothing is kept.  The wrapper has the
    ``cache_info`` and ``cache_clear`` of the cache; ``__wrapped__`` is
    ``build``.
    """
    cached = lru_cache(maxsize=_CACHE_SIZE)(build)

    @wraps(build)
    def lookup(key, grid):
        return (cached if grid.N <= _CACHE_MAX_N else build)(key, grid)

    lookup.cache_info, lookup.cache_clear = cached.cache_info, cached.cache_clear
    return lookup
