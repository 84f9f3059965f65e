"""Oracle checks for every op, run in the parent after the timed loop.

Nothing here imports fracsis: each check recomputes what it compares
against, from the op's inputs alone.

* coefficient tables: where the program returns them (series_stress,
  every alpha fresh), against an independent float64 recursion with a
  cancellation-aware tolerance;
* the series where it reports converged inside its radius, against an
  oracle table summed independently (in paper_sweep, where alphas
  repeat, a table from mpmath at 40 digits, cached per alpha), and the
  radius and its flags;
* the schemes: [0, 1] bounds, agreement with the series where that is
  trusted, the L1 residual (the L1 march satisfies the discrete Caputo
  equation exactly, so its residual is rounding only), PECE against a
  reference march, ``discrete_caputo_l1`` against one convolution, and,
  at alpha = 0.99, distance to the alpha = 1 logistic closed form;
* the regime and I0 the generator intended, decided in exact decimal;
* N(t) = E_alpha((lam - mu) t^alpha): complete monotonicity (positive,
  monotone, convex) and Simon's two-sided bound for lam < mu, and
  mpmath at raised precision where the series is affordable.  The
  mpmath evaluator is itself checked against the closed forms
  E_1(z) = exp(z) and E_1/2(z) = exp(z^2) erfc(-z) before use.

``check(workload, record)`` returns ``(outcome, reason, known)`` where
outcome is ``ok``, ``raised`` or ``wrong`` and ``known`` names the
known seed defect a failure is an instance of (None if it is none of them).
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import mpmath
import numpy as np

import gen

EPS = np.finfo(float).eps

#: |scheme - series| where the series is converged inside its radius
SCHEME_TOL = {"pece": 5e-3, "l1": 6e-2}
#: |program PECE - reference PECE|; a faster history sum must stay within it
PECE_TOL = 1e-9
#: distance of the alpha = 0.99 solutions from the alpha = 1 closed form
ALPHA_ONE_TOL = 3e-2
#: relative agreement with mpmath required of N(t)
ML_RTOL = 1e-8
#: mpmath sums the Mittag-Leffler series only while |z|^(1/alpha) <= this
ML_MP_REACH = 40.0

KNOWN_SIGMA1 = "typed sigma = 1 rates misround to c = +-1e-16 and are refused"
KNOWN_ML = "mittag_leffler raises or is wrong on the negative axis"
KNOWN_OVERFLOW = "MAX_ORDER table overflows binary64 (typed refusal)"


class Wrong(Exception):
    """An output failed its check."""


class WrongPopulation(Wrong):
    """N(t) failed its check."""


def _require(ok, what: str) -> None:
    if not ok:
        raise Wrong(what)


def _require_pop(ok, what: str) -> None:
    if not ok:
        raise WrongPopulation(what)


# ---------------------------------------------------------------------------
# coefficient and series oracles


def _lgammas(alpha: float, K: int) -> np.ndarray:
    return np.array([math.lgamma(alpha * k + 1.0) for k in range(K + 1)])


@lru_cache(maxsize=32)
def mp_table(alpha: float, K: int, c0: float, linear: bool) -> tuple:
    """Coefficient recursion at 40 digits, rounded to binary64 at the end."""
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        g = [mpmath.gamma(a * k + 1) for k in range(K + 1)]
        vals = [mpmath.mpf(c0)]
        for k in range(K):
            conv = mpmath.fsum(g[k] / (g[i] * g[k - i]) * vals[i] * vals[k - i]
                               for i in range(k + 1))
            vals.append(vals[k] - conv if linear else -conv)
        return tuple(float(v) for v in vals)


def float_table(alpha: float, K: int, c0: float, linear: bool):
    """Independent float64 recursion and the per-entry magnitude it cancels."""
    lg = _lgammas(alpha, K)
    vals = np.zeros(K + 1)
    scale = np.zeros(K + 1)
    vals[0], scale[0] = c0, abs(c0)
    for k in range(K):
        i = np.arange(k + 1)
        parts = np.exp(lg[k] - lg[i] - lg[k - i]) * vals[i] * vals[k - i]
        conv = float(np.sum(parts))
        vals[k + 1] = vals[k] - conv if linear else -conv
        scale[k + 1] = float(np.sum(np.abs(parts))) + (abs(vals[k]) if linear else 0.0)
    return vals, scale


def check_table(got, alpha: float, c0: float, linear: bool) -> np.ndarray:
    """Compare a program table with the float64 oracle; returns the oracle values."""
    got = np.asarray(got, dtype=float)
    ref, scale = float_table(alpha, got.size - 1, c0, linear)
    bad = np.nonzero(np.abs(got - ref) > 1e-9 * scale + 1e-300)[0]
    _require(bad.size == 0, f"coefficient {bad[:1]} deviates from the oracle table")
    return ref


def series_values(table: np.ndarray, alpha: float, scale_c: float, arg: float, t: np.ndarray):
    """scale_c * sum_k c_k (arg t^alpha)^k / Gamma(alpha k + 1) and sum of |terms|."""
    K = table.size - 1
    k = np.arange(K + 1)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        logx = np.log(arg * t[None, :] ** alpha)
        log_mag = np.log(np.abs(table))[:, None] - _lgammas(alpha, K)[:, None]
        log_mag = log_mag + np.where(k == 0, 0.0, k * logx)
    terms = np.sign(table)[:, None] * np.exp(log_mag)
    return scale_c * terms.sum(axis=0), abs(scale_c) * np.abs(terms).sum(axis=0)


def radius(alpha: float, b: float | None) -> float:
    """Guaranteed radius: carrying capacity (b given) or zero capacity, A_0 = 1/2."""
    if b is None:
        return 0.5 ** (1.0 / alpha)
    g = math.exp(math.lgamma(alpha + 1) + math.lgamma(3 * alpha + 1) - math.lgamma(2 * alpha + 1))
    return b ** (-1.0 / alpha) * g ** (1.0 / (2.0 * alpha))


def check_series(u, converged, beyond, t, table, alpha, scale_c, arg, r_theo) -> np.ndarray:
    """Flags against the oracle radius; values where converged inside it.

    Returns the mask of nodes at which the series is trusted.
    """
    u = np.asarray(u, dtype=float)
    converged = np.asarray(converged, dtype=bool)
    beyond = np.asarray(beyond, dtype=bool)
    near = np.abs(t - r_theo) <= 1e-9 * r_theo
    _require(np.all((beyond == (t > r_theo)) | near), "beyond-radius flags disagree with the radius")
    trusted = converged & ~beyond
    if trusted.any():
        ref, mag = series_values(table, alpha, scale_c, arg, t[trusted])
        err = np.abs(u[trusted] - ref)
        _require(np.all(err <= 1e-10 * mag + 1e-13), "series value deviates from the oracle sum")
    return trusted


# ---------------------------------------------------------------------------
# scheme oracles


def caputo_l1(u: np.ndarray, alpha: float, dt: float) -> np.ndarray:
    """L1 discrete Caputo derivative at nodes 1..N by one convolution."""
    n = u.size - 1
    r = np.arange(n + 2, dtype=float)
    g = r[1:] ** (1 - alpha) - r[:-1] ** (1 - alpha)  # g[m-1] = g(m), m = 1..n+1
    w = g[:-1] - g[1:]  # weight of u_j at distance m = n - j >= 1
    hist = np.convolve(u, w)[: n]  # sum_{j<n, n-j>=1} w_{n-j} u_j, shifted
    # sum_j C_{n,j} u_j = g(n) u_0 + sum_{j=1}^{n-1} (g(n-j) - g(n-j+1)) u_j
    idx = np.arange(1, n + 1)
    total = hist[idx - 1] - w[idx - 1] * u[0] + g[idx - 1] * u[0]
    return (u[1:] - total) / (math.gamma(2 - alpha) * dt**alpha)


def logistic(op: dict):
    """f(I) = b I - beta I^2 from exact-decimal rates."""
    beta = float(exact_beta(op))
    b = float(exact_beta(op) * exact_c(op))
    return lambda i: b * i - beta * i * i


def pece(op: dict, alpha: float, dt: float, n: int) -> np.ndarray:
    """Reference PECE march with its history kernels built once (they depend on n - j only)."""
    f = logistic(op)
    m = np.arange(n + 2, dtype=float)
    kb = dt**alpha / alpha * (m[1:] ** alpha - m[:-1] ** alpha)  # kb[n - j] = b_{j,n+1}
    k = dt**alpha / (alpha * (alpha + 1))
    ka = k * (m[2:] ** (alpha + 1) - 2 * m[1:-1] ** (alpha + 1) + m[:-2] ** (alpha + 1))
    inv_gamma = 1 / math.gamma(alpha)
    u0 = op["i0"]
    u, fu = np.empty(n + 1), np.empty(n + 1)
    u[0], fu[0] = u0, f(u0)
    for s in range(n):
        pred = u0 + inv_gamma * (kb[s::-1] @ fu[: s + 1])
        a0 = k * (s ** (alpha + 1) - (s - alpha) * (s + 1) ** alpha)
        hist = a0 * fu[0] + (ka[s - 1::-1] @ fu[1 : s + 1] if s else 0.0)
        u[s + 1] = u0 + inv_gamma * (hist + k * f(pred))
        fu[s + 1] = f(u[s + 1])
    return u


def check_pece(u: np.ndarray, op: dict, alpha: float, dt: float) -> None:
    dev = np.max(np.abs(u - pece(op, alpha, dt, u.size - 1)))
    _require(dev <= PECE_TOL, f"pece is {dev:.2e} from the reference march")


def check_l1_residual(u: np.ndarray, op: dict, alpha: float, dt: float) -> None:
    f = logistic(op)
    gain = math.gamma(2 - alpha) * dt**alpha
    res = caputo_l1(u, alpha, dt) - f(u[:-1])
    bound = 1e-9 * (np.max(np.abs(u)) / gain + np.max(np.abs(f(u))))
    _require(np.all(np.abs(res) <= bound), "L1 trajectory fails its own discrete equation")


def check_bounded(u: np.ndarray, name: str) -> None:
    _require(np.all(np.isfinite(u)) and np.all((u >= 0) & (u <= 1)), f"{name} leaves [0, 1]")


def classical(op: dict, t: np.ndarray) -> np.ndarray:
    """alpha = 1 closed form from exact-decimal rates."""
    beta = float(exact_beta(op))
    c = float(exact_c(op))
    i0 = op["i0"]
    if c == 0:
        return i0 / (1 + beta * i0 * t)
    return c / (1 + (c / i0 - 1) * np.exp(-beta * c * t))


def exact_beta(op: dict) -> Fraction:
    return gen.exact(op["beta"])


def exact_c(op: dict) -> Fraction:
    return 1 - (gen.exact(op["gamma"]) + gen.exact(op["mu"])) / gen.exact(op["beta"])


# ---------------------------------------------------------------------------
# paper_sweep


def check_paper(rec: dict):
    op, out = rec["op"], rec["out"]
    c = exact_c(op)
    intended = {"endemic": c > 0, "sigma1": c == 0}[op["regime"]]
    _require(intended, "generator produced the wrong regime")  # never the program's fault
    if rec["error"] is not None:
        return "raised", rec["error"]
    if op["cli"]:
        if out["code"] != 0:
            return "raised", f"exit {out['code']}: {out['stderr'].strip()}"
        out = _read_cli(op, out)
    alpha, dt, T = op["alpha"], float(op["dt"]), float(op["T"])
    t = np.arange(round(T / dt) + 1) * dt
    u = {m: np.asarray(v, dtype=float) for m, v in out["u"].items()}
    _require(set(u) == {"series", "pece", "l1"}, "missing trajectories")
    want_kind = "carrying-capacity" if op["regime"] == "endemic" else "zero-capacity"
    _require(out["kind"] == want_kind, f"series regime {out['kind']} != {want_kind}")
    for m, v in u.items():
        _require(v.shape == t.shape, f"{m} has {v.size} nodes, want {t.size}")
        _require(abs(v[0] - op["i0"]) <= 1e-12 * op["i0"], f"{m} starts off I0")
    check_bounded(u["pece"], "pece")
    check_bounded(u["l1"], "l1")
    endemic = op["regime"] == "endemic"
    table = np.array(mp_table(alpha, op["terms"], 0.5, endemic))
    if endemic:
        b = float(exact_beta(op) * c)
        scales, r = (float(c), b), radius(alpha, b)
    else:
        scales, r = (float(1 / exact_beta(op)), 1.0), radius(alpha, None)
    trusted = check_series(u["series"], out["converged"], out["beyond"], t, table, alpha,
                           *scales, r)
    for m, tol in SCHEME_TOL.items():
        dev = np.max(np.abs(u[m][trusted] - u["series"][trusted]), initial=0.0)
        _require(dev <= tol, f"{m} is {dev:.2e} from the converged series")
    check_l1_residual(u["l1"], op, alpha, dt)
    check_pece(u["pece"], op, alpha, dt)
    if alpha == 0.99:
        ref = classical(op, t)
        for m in ("pece", "l1"):
            dev = np.max(np.abs(u[m] - ref))
            _require(dev <= ALPHA_ONE_TOL, f"{m} is {dev:.2e} from the alpha = 1 closed form")
    pairs = {(ma, mb): d for ma, mb, d in out["pairs"]}
    for (ma, mb), d in pairs.items():
        _require(d == float(np.max(np.abs(u[ma] - u[mb]))), f"reported {ma} vs {mb} distance is wrong")
    _require(len(pairs) == 3, "comparison report lacks a pair")
    return "ok", ""


def _read_cli(op: dict, out: dict) -> dict:
    """Parse what ``fracsis compare --out`` wrote into the direct-route shape."""
    d = Path(out["dir"])
    manifest = json.loads((d / "manifest.json").read_text())
    cfg = manifest["config"]
    for key in ("beta", "gamma", "mu"):
        _require(cfg[key] == float(op[key]), f"manifest {key} differs from the input")
    _require(cfg["alpha"] == op["alpha"] and cfg["i0"] == op["i0"], "manifest alpha/i0 differ")
    _require(abs(manifest["derived"]["c"] - float(exact_c(op))) <= 1e-14, "manifest c is wrong")
    u = {}
    for m in ("series", "pece", "l1"):
        with open(d / f"{m}.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        _require(rows[0] == ["t", "I", "S"], f"{m}.csv header")
        for _, i, s in rows[1:]:
            _require(float(s) == 1.0 - float(i), f"{m}.csv S != 1 - I")
        u[m] = np.array([float(r[1]) for r in rows[1:]])
    with open(d / "comparison.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    pairs = [(a, b, float(x)) for a, b, x in rows[1:]]
    printed = [ln for ln in out["stdout"].splitlines() if " vs " in ln]
    _require(printed == [f"{a} vs {b}: {x:.6e}" for a, b, x in pairs], "printed distances differ")
    s = manifest["trajectories"]["series"]
    kind = "zero-capacity" if manifest["derived"]["c"] == 0 else "carrying-capacity"
    return {"u": u, "kind": kind, "converged": s["converged"],
            "beyond": s["beyond_theoretical_radius"], "pairs": pairs}


def known_paper(rec: dict, outcome: str, err):
    op = rec["op"]
    if outcome == "raised" and op["regime"] == "sigma1" and gen.misrounds(op):
        return KNOWN_SIGMA1
    return None


# ---------------------------------------------------------------------------
# long_horizon


def check_long(rec: dict):
    op, out = rec["op"], rec["out"]
    c = exact_c(op)
    _require({"c>0": c > 0, "c=0": c == 0, "c<0": c < 0}[op["regime"]], "generator regime")
    if rec["error"] is not None:
        return "raised", rec["error"]
    alpha, dt = op["alpha"], float(op["dt"])
    n = round(float(op["T"]) / dt)
    for m in ("pece", "l1"):
        u = np.asarray(out[m], dtype=float)
        _require(u.size == n + 1, f"{m} has {u.size} nodes, want {n + 1}")
        _require(u[0] == op["i0"], f"{m} starts off I0")
        check_bounded(u, m)
        d = np.asarray(out[f"d_{m}"], dtype=float)
        ref = caputo_l1(u, alpha, dt)
        scale = np.max(np.abs(u)) / (math.gamma(2 - alpha) * dt**alpha)
        _require(d.shape == ref.shape and np.all(np.abs(d - ref) <= 1e-9 * scale),
                 f"discrete_caputo_l1 of {m} deviates from the oracle")
        # the solution moves monotonically towards the stable equilibrium
        target = max(float(c), 0.0)
        _require(abs(u[-1] - target) < abs(u[0] - target), f"{m} does not approach {target:.3g}")
    check_l1_residual(np.asarray(out["l1"]), op, alpha, dt)
    check_pece(np.asarray(out["pece"]), op, alpha, dt)
    return "ok", ""


def known_long(rec: dict, outcome: str, err):
    return None


# ---------------------------------------------------------------------------
# series_stress


def ml_mp(alpha: float, z: float) -> float:
    """E_alpha(z) by its series at enough digits to absorb the cancellation."""
    reach = abs(z) ** (1.0 / alpha)
    dps = 25 + int(reach / math.log(10))
    with mpmath.workdps(dps):
        a, x = mpmath.mpf(alpha), mpmath.mpf(z)
        total, k = mpmath.mpf(0), 0
        tiny = mpmath.mpf(10) ** (-dps + 5)
        while True:
            term = x**k * mpmath.rgamma(a * k + 1)
            total += term
            if a * k > reach + 10 and abs(term) <= tiny * abs(total):
                return float(total)
            k += 1


def _selftest_ml() -> None:
    """The mpmath evaluator against the closed forms at alpha = 1 and 1/2."""
    for z in (-8.0, -3.0, -0.5, 1.5):
        with mpmath.workdps(30):
            half = mpmath.exp(mpmath.mpf(z) ** 2) * mpmath.erfc(-mpmath.mpf(z))
        for alpha, ref in ((1.0, math.exp(z)), (0.5, float(half))):
            got = ml_mp(alpha, z)
            if abs(got - ref) > 1e-13 * abs(ref):
                raise RuntimeError(f"mpmath E_{alpha}({z}) = {got}, closed form {ref}")


_selftest_ml()


def check_stress(rec: dict):
    op, out = rec["op"], rec["out"]
    if rec["error"] is not None:
        return "raised", rec["error"]
    alpha = op["alpha"]
    dt, T = float(op["dt"]), float(op["T"])
    t = np.arange(round(T / dt) + 1) * dt
    for part, c0, linear in (("carrying", 0.5, True), ("zero", 0.5, False)):
        if part in out["raised"]:
            continue
        s = out[part]
        table = check_table(s["table"], alpha, c0, linear)
        if part == "carrying":
            c = exact_c(op)
            b = float(exact_beta(op) * c)
            _require(abs(s["scale_c"] - float(c)) <= 1e-14 and abs(s["arg_scale"] - b) <= 1e-14,
                     "carrying-capacity scales differ from c and b")
            r = radius(alpha, b)
        else:
            _require(s["scale_c"] == 1.0 / float(op["beta0"]) and s["arg_scale"] == 1.0,
                     "zero-capacity scales differ from 1/beta and 1")
            r = radius(alpha, None)
        _require(abs(s["radius"] - r) <= 1e-12 * r, f"{part} radius {s['radius']} != {r}")
        _require(len(s["u"]) == t.size, f"{part} has the wrong node count")
        check_series(s["u"], s["converged"], s["beyond"], t, table, alpha,
                     s["scale_c"], s["arg_scale"], r)
    if out["raised"]:
        return "raised", "; ".join(f"{k}: {v}" for k, v in out["raised"].items())
    check_population(np.asarray(out["population"], dtype=float), op, t)
    return "ok", ""


def check_population(n: np.ndarray, op: dict, t: np.ndarray) -> None:
    alpha = op["alpha"]
    rate = float(op["lam"]) - float(op["pop_mu"])
    _require_pop(n.shape == t.shape and n[0] == 1.0, "N(0) != N0")
    _require_pop(np.all(np.isfinite(n)), "N(t) not finite")
    slack = 8 * EPS * np.abs(n)
    if rate == 0:
        _require_pop(np.all(n == 1.0), "N(t) not constant for lam = mu")
        return
    if rate < 0:
        x = -rate * t**alpha
        lower = 1 / (1 + math.gamma(1 - alpha) * x)
        upper = 1 / (1 + x / math.gamma(1 + alpha))
        _require_pop(np.all((n >= lower * (1 - 1e-12)) & (n <= upper * (1 + 1e-12))),
                 "N(t) outside Simon's bounds for E_alpha(-x)")
        _require_pop(np.all(np.diff(n) <= slack[1:]), "N(t) not monotone for lam < mu")
        _require_pop(np.all(np.diff(n, 2) >= -slack[2:]), "N(t) not convex for lam < mu")
    else:
        _require_pop(np.all(np.diff(n) >= -slack[1:]), "N(t) not monotone for lam > mu")
    for j in range(1, 5):
        k = j * (t.size - 1) // 4
        z = rate * t[k] ** alpha
        if abs(z) ** (1 / alpha) <= ML_MP_REACH:
            ref = ml_mp(alpha, z)
            _require_pop(abs(n[k] - ref) <= ML_RTOL * abs(ref),
                     f"N({t[k]:g}) = {n[k]:.6e}, mpmath {ref:.6e}")


def known_stress(rec: dict, outcome: str, err):
    op, out = rec["op"], rec["out"]
    rate = float(op["lam"]) - float(op["pop_mu"])
    raised = out["raised"] if out else {}
    if outcome == "raised" and raised:
        kinds = set()
        for part, msg in raised.items():
            if part == "population" and msg.startswith("NonConvergenceError") and rate < 0:
                kinds.add(KNOWN_ML)
            elif part in ("carrying", "zero") and msg.startswith("NumericOverflowError"):
                kinds.add(KNOWN_OVERFLOW)
            else:
                return None
        return "; ".join(sorted(kinds))
    if outcome == "wrong" and rate < 0 and isinstance(err, WrongPopulation):
        return KNOWN_ML
    return None


CHECKS = {
    "paper_sweep": (check_paper, known_paper),
    "long_horizon": (check_long, known_long),
    "series_stress": (check_stress, known_stress),
}


def check(workload: str, rec: dict):
    """Outcome of one op: (``ok``/``raised``/``wrong``, reason, known defect or None)."""
    run, known = CHECKS[workload]
    err = None
    try:
        outcome, reason = run(rec)
    except Wrong as e:
        outcome, reason, err = "wrong", str(e), e
    return outcome, reason, (known(rec, outcome, err) if outcome != "ok" else None)
