"""Seeded input streams for the three benchmark workloads.

Every op is a plain dict of the values a user would pass to fracsis:
rates typed as short decimal strings, fractional orders, initial data and
grids.  The same ``(workload, seed)`` always yields the same stream.

Streams are drawn in small blocks whose composition is fixed (regime, grid
size, CLI share) and whose draws come from the seed, each continuous draw
stratified across the block.  A run then sees the same mix of op kinds
whatever the seed, so run-to-run spread measures the program rather than
the luck of the draw.

This module imports neither fracsis nor numpy: the measured worker and the
checking parent both use it.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

WORKLOADS = ("paper_sweep", "long_horizon", "series_stress")

#: fractional orders repeated across paper_sweep ops (the paper's grid)
PAPER_ALPHAS = (0.99, 0.7, 0.5, 0.3)
#: every coefficient table in series_stress is built to MAX_ORDER
STRESS_TERMS = 200


def typed(hundredths: int) -> str:
    """A rate as a user types it, e.g. 7 -> '0.07', 130 -> '1.30'."""
    return f"{hundredths // 100}.{hundredths % 100:02d}"


def exact(s: str) -> Fraction:
    """The decimal value the user meant, free of binary rounding."""
    return Fraction(s)


def misrounds(op: dict) -> bool:
    """True when typed sigma = 1 rates do not sum exactly in binary64."""
    return float(op["gamma"]) + float(op["mu"]) != float(op["beta"])


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n draws in [lo, hi), one per equal-width stratum, in random order."""
    vals = [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]
    rng.shuffle(vals)
    return vals


def _endemic_rates(rng: random.Random, b_lo: int, b_hi: int) -> dict:
    """Typed (beta, gamma, mu) with b = beta - gamma - mu in [b_lo, b_hi] hundredths."""
    beta = rng.randint(b_lo + 2, 150)
    s = rng.randint(max(2, beta - b_hi), beta - b_lo)
    gamma = rng.randint(1, s - 1)
    return {"beta": typed(beta), "gamma": typed(gamma), "mu": typed(s - gamma)}


def _sigma_one_rates(rng: random.Random, beta_lo: int, beta_hi: int) -> dict:
    """Typed (beta, gamma, mu) with beta = gamma + mu in decimal."""
    beta = rng.randint(beta_lo, beta_hi)
    gamma = rng.randint(1, beta - 1)
    return {"beta": typed(beta), "gamma": typed(gamma), "mu": typed(beta - gamma)}


def _endemic_i0(op: dict) -> float:
    """I0 = c/2 with c = 1 - (gamma + mu)/beta, rounded once from exact."""
    c = 1 - (exact(op["gamma"]) + exact(op["mu"])) / exact(op["beta"])
    return float(c / 2)


def _paper_block(rng: random.Random) -> list[dict]:
    ops = []
    for regime in ("endemic", "sigma1"):
        cli_slot = rng.randrange(len(PAPER_ALPHAS))
        for k, alpha in enumerate(PAPER_ALPHAS):
            if regime == "endemic":
                op = _endemic_rates(rng, 5, 95)
                op.update(i0=_endemic_i0(op), T="5", dt="0.05")
            else:
                op = _sigma_one_rates(rng, 51, 150)
                op.update(i0=float(1 / (2 * exact(op["beta"]))), T="1", dt="0.01")
            op.update(regime=regime, alpha=alpha, terms=120, cli=k == cli_slot)
            ops.append(op)
    rng.shuffle(ops)
    return ops


def _long_block(rng: random.Random) -> list[dict]:
    # two ops at dt = 0.05 (N = 2000) for each at dt = 0.025 (N = 4000), so
    # the latency median sits inside one cluster instead of between two.
    # The kinds keep this fixed order: with about a second per op, a run
    # ends mid-block, and any prefix then still holds the 2:1 mix.
    regimes = ("c>0", "c=0", "c<0", "c=0", "c<0", "c>0", "c<0", "c>0", "c=0")
    kinds = list(zip(regimes, ("0.05", "0.05", "0.025") * 3))
    alphas = _strata(rng, len(kinds), 0.2, 0.95)
    i0s = _strata(rng, len(kinds), 0.05, 0.95)
    ops = []
    for (regime, dt), alpha, i0 in zip(kinds, alphas, i0s):
        if regime == "c>0":
            op = _endemic_rates(rng, 5, 95)
        elif regime == "c=0":
            op = _sigma_one_rates(rng, 10, 100)
        else:
            beta = rng.randint(10, 100)
            s = rng.randint(beta + 5, beta + 100)
            gamma = rng.randint(1, s - 1)
            op = {"beta": typed(beta), "gamma": typed(gamma), "mu": typed(s - gamma)}
        op.update(regime=regime, alpha=alpha, i0=i0, T="100", dt=dt)
        ops.append(op)
    return ops


def _stress_block(rng: random.Random) -> list[dict]:
    n = 16
    alphas = _strata(rng, n, 0.2, 0.99)
    # lam - mu in tenths over [-5.0, 1.0]: decreasing and growing populations
    rates = [round(x) for x in _strata(rng, n, -50.5, 10.5)]
    ops = []
    for alpha, r in zip(alphas, rates):
        op = _endemic_rates(rng, 30, 99)
        lam = rng.randint(0, 10)
        op.update(
            regime="stress",
            alpha=alpha,
            i0=_endemic_i0(op),
            beta0=typed(rng.randint(51, 150)),
            lam=f"{lam / 10:.1f}",
            pop_mu=f"{(lam - r) / 10:.1f}",
            T="5",
            dt="0.005",
            terms=STRESS_TERMS,
        )
        ops.append(op)
    return ops


_BLOCKS = {
    "paper_sweep": _paper_block,
    "long_horizon": _long_block,
    "series_stress": _stress_block,
}

#: ops per second of op time at the seed commit, on the host of the
#: README's figures; a run's op count is fixed from ``--seconds`` by it
NOMINAL_OPS_PER_S = {"paper_sweep": 110.0, "long_horizon": 1.8, "series_stress": 15.0}
#: nominal op time of one throughput window (see ``window_ops``)
WINDOW_S = 1.0


def block_size(workload: str) -> int:
    return len(_BLOCKS[workload](random.Random(0)))


def op_count(workload: str, seconds: float, trace: int = 0) -> int:
    """Number of timed ops in a run: whole blocks, about ``seconds`` of work.

    The count depends only on the arguments, never on the clock, so the
    same seed runs the same ops, and fails the same ones, in every run.
    A traced run times each op twice and so runs half as many.
    """
    size = block_size(workload)
    target = seconds * NOMINAL_OPS_PER_S[workload] / (2 if trace else 1)
    return size * max(1, round(target / size))


def window_ops(workload: str) -> int:
    """Ops per throughput window: whole blocks, at least ``WINDOW_S`` of work."""
    size = block_size(workload)
    return size * max(1, math.ceil(NOMINAL_OPS_PER_S[workload] * WINDOW_S / size))


class Stream:
    """Endless seeded op stream; ``next()`` returns the next op dict.

    The warm-up op is drawn from its own generator, so the timed stream is
    the same with or without it.
    """

    def __init__(self, workload: str, seed: int):
        if workload not in _BLOCKS:
            raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
        self._block = _BLOCKS[workload]
        self._rng = random.Random(f"{workload}/{seed}")
        self._pending: list[dict] = []
        self._count = 0
        warm = self._block(random.Random(f"{workload}/{seed}/warm-up"))
        # the warm-up op is fixed in kind: the CLI route for paper_sweep,
        # the smaller grid for long_horizon
        if workload == "paper_sweep":
            warm = [op for op in warm if op["cli"] and op["regime"] == "endemic"]
        elif workload == "long_horizon":
            warm = [op for op in warm if op["dt"] == "0.05" and op["regime"] == "c>0"]
        self.warm_up = dict(warm[0], id=-1)

    def next(self) -> dict:
        if not self._pending:
            self._pending = self._block(self._rng)
        op = self._pending.pop(0)
        op["id"] = self._count
        self._count += 1
        return op
