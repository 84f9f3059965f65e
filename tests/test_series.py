"""Series construction and evaluation against closed forms and the schemes."""

import json
import math
from dataclasses import astuple

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsis import _cache, cli, series
from fracsis.coeffs import (
    MAX_ORDER,
    CoeffKind,
    CoeffTable,
    RadiusEstimate,
    a_coeffs,
    empirical_radius,
    euler_alpha,
)
from fracsis.errors import DomainError, HypothesisError
from fracsis.harness import population_curve, trajectory_csv
from fracsis.model import ModelParams, classical_sis, derive, logistic_rhs
from fracsis.series import (
    _ABS_TOL,
    _GROW_MIN_K,
    _GROW_STREAK,
    _STOP_STREAK,
    _WIDE,
    EvalResult,
    SeriesSolution,
    _sum_nodes,
    _unit_scale_sums,
    carrying_capacity_series,
    evaluate,
    rescaled_zero_capacity_series,
    sample_trajectory,
    zero_capacity_series,
)
from fracsis.solvers import TimeGrid, node_powers, solve_pece

ENDEMIC = dict(beta=0.7, gamma=0.05, mu=0.12)
SIGMA1 = dict(beta=0.7, gamma=0.07, mu=0.63)


def endemic_setup(alpha, K=120):
    d = derive(ModelParams(alpha=alpha, i0=0.5, **ENDEMIC))
    table = euler_alpha(alpha, K)
    return d, carrying_capacity_series(d, alpha, table)


def scalar_evaluate(series, t):
    """The per-term loop of the stopping rule: the bit-for-bit reference."""
    d = series.coeffs.d
    theo = series.radius.theoretical
    beyond = theo is not None and t > theo
    if t == 0.0:
        return EvalResult(series.scale_c * d[0], 1, True, beyond)
    x = series.arg_scale * t**series.alpha
    xk = 1.0
    total = d[0]
    terms_used = 1
    converged = False
    below = 0
    grow = 0
    prev_mag = abs(d[0])
    for k in range(1, len(d)):
        xk *= x
        term = d[k] * xk
        total += term
        terms_used += 1
        mag = abs(term)
        if mag < _ABS_TOL:
            below += 1
            if below >= _STOP_STREAK:
                converged = True
                break
        else:
            below = 0
            if mag > prev_mag and k >= _GROW_MIN_K:
                grow += 1
                if grow >= _GROW_STREAK:
                    converged = False
                    break
            else:
                grow = 0
            prev_mag = mag
    return EvalResult(series.scale_c * total, terms_used, converged, beyond)


def table_series(d):
    """A series over a hand-made table; at t = 1 its terms are the d_k."""
    table = CoeffTable(1.0, CoeffKind.A_COEFF, tuple(d))
    return SeriesSolution(1.0, table, 1.0, 1.0, RadiusEstimate())


def assert_same(got, want):
    """Equal bit for bit (nan matching nan), with the same Python types."""
    got, want = astuple(got), astuple(want)
    assert [type(v) for v in got] == [type(v) for v in want]
    assert repr(got) == repr(want)


class TestCarryingCapacitySeries:
    def test_initial_value(self):
        d, sol = endemic_setup(0.7)
        r = evaluate(sol, 0.0)
        assert r.value_i == d.c / 2.0  # ~0.3786
        assert r.value_i == pytest.approx(0.3786, abs=2e-4)
        assert r.terms_used == 1 and r.converged

    def test_alpha_one_matches_classical_logistic(self):
        d, sol = endemic_setup(1.0, K=80)
        p = ModelParams(alpha=1.0, i0=d.c / 2.0, **ENDEMIC)
        for t in np.linspace(0.0, 2.0, 21):
            want, _ = classical_sis(p, float(t))
            assert evaluate(sol, float(t)).value_i == pytest.approx(want, abs=1e-8)

    def test_initial_slope_positive(self):
        d, sol = endemic_setup(0.7)
        assert evaluate(sol, 0.01).value_i > d.c / 2.0

    def test_agrees_with_pece_at_t2(self):
        alpha = 0.7
        d, sol = endemic_setup(alpha)
        p = ModelParams(alpha=alpha, i0=d.c / 2.0, **ENDEMIC)
        grid = TimeGrid(2.0, 0.05)
        traj = solve_pece(logistic_rhs(p, d), p.i0, grid, alpha)
        assert evaluate(sol, 2.0).value_i == pytest.approx(traj.u[-1], abs=2e-3)

    def test_hypothesis_violations(self):
        alpha = 0.7
        table = euler_alpha(alpha, 10)
        d0 = derive(ModelParams(alpha=alpha, i0=0.5, **SIGMA1))  # c = 0
        with pytest.raises(HypothesisError):
            carrying_capacity_series(d0, alpha, table)
        dneg = derive(ModelParams(beta=0.1, gamma=0.2, mu=0.2, alpha=alpha, i0=0.5))
        with pytest.raises(HypothesisError):
            carrying_capacity_series(dneg, alpha, table)
        dbig = derive(ModelParams(beta=3.0, gamma=0.5, mu=0.5, alpha=alpha, i0=0.5))
        assert dbig.b > 1
        with pytest.raises(HypothesisError):
            carrying_capacity_series(dbig, alpha, table)

    def test_wrong_table_kind_or_alpha(self):
        d = derive(ModelParams(alpha=0.7, i0=0.5, **ENDEMIC))
        with pytest.raises(HypothesisError):
            carrying_capacity_series(d, 0.7, a_coeffs(0.7, 10))
        with pytest.raises(HypothesisError):
            carrying_capacity_series(d, 0.7, euler_alpha(0.5, 10))


class TestZeroCapacitySeries:
    def test_initial_value(self):
        sol = zero_capacity_series(0.7, 0.7, a_coeffs(0.7, 60))
        r = evaluate(sol, 0.0)
        assert r.value_i == pytest.approx(1.0 / 1.4, rel=1e-15)  # ~0.7143

    def test_alpha_one_matches_separable_solution(self):
        sol = zero_capacity_series(0.7, 1.0, a_coeffs(1.0, 80))
        i0 = 1.0 / 1.4
        for t in np.linspace(0.0, 0.9, 19):
            want = i0 / (1.0 + 0.7 * i0 * float(t))
            assert evaluate(sol, float(t)).value_i == pytest.approx(want, abs=1e-8)

    def test_decreasing_inside_radius(self):
        sol = zero_capacity_series(0.7, 0.7, a_coeffs(0.7, 120))
        ts = np.linspace(0.0, 0.9, 10)
        vals = [evaluate(sol, float(t)).value_i for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rejects_noncanonical_table(self):
        with pytest.raises(HypothesisError):
            zero_capacity_series(0.7, 0.5, a_coeffs(0.5, 10, a0=0.25))
        with pytest.raises(HypothesisError):
            zero_capacity_series(0.0, 0.5, a_coeffs(0.5, 10))
        with pytest.raises(HypothesisError):
            zero_capacity_series(0.7, 0.5, euler_alpha(0.5, 10))


class TestEvaluate:
    def test_t_zero_exact(self):
        sol = zero_capacity_series(0.7, 0.5, a_coeffs(0.5, 40))
        r = evaluate(sol, 0.0)
        assert r == EvalResult(sol.scale_c * 0.5, 1, True, False)

    def test_blowup_detected_past_radius(self):
        # guaranteed radius at alpha = 0.5 is 0.25; t = 1 lies far outside
        sol = zero_capacity_series(0.7, 0.5, a_coeffs(0.5, 120))
        r = evaluate(sol, 1.0)
        assert not r.converged
        assert r.beyond_theoretical_radius

    def test_beyond_radius_flag_but_converged(self):
        # past the guaranteed bound yet inside the true disc: value is fine
        d, sol = endemic_setup(0.7, K=200)
        assert sol.radius.theoretical < 5.0 < sol.radius.empirical
        r = evaluate(sol, 5.0)
        assert r.beyond_theoretical_radius
        assert r.converged

    def test_s_complements_i_exactly(self):
        # S is not stored: the trajectory CSV writes it as 1 - I
        d, sol = endemic_setup(0.7)
        text = trajectory_csv(sample_trajectory(sol, TimeGrid(4.2, 0.1)))
        for line in text.splitlines()[1:]:
            _, i, s = (float(v) for v in line.split(","))
            assert s == 1.0 - i

    def test_monotone_truncation(self):
        # a deeper table moves a converged value by less than the tolerance
        a = evaluate(endemic_setup(0.7, K=120)[1], 1.5)
        b = evaluate(endemic_setup(0.7, K=200)[1], 1.5)
        assert a.converged and b.converged
        assert abs(a.value_i - b.value_i) <= _ABS_TOL

    def test_negative_time_rejected(self):
        _, sol = endemic_setup(0.7)
        with pytest.raises(DomainError):
            evaluate(sol, -0.5)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, t):
        _, sol = endemic_setup(0.7)
        with pytest.raises(DomainError, match=f"finite t, got t={t}"):
            evaluate(sol, t)

    def test_one_node_takes_the_rule_with_the_grids_bits(self, monkeypatch):
        # evaluate sums its node by the rule alone, with the bits that
        # sample_trajectory gives at the same node: t = 0 and grids inside
        # and past the radius, and one-step grids ending within 2 ulp of the
        # thresholds of every 7th term (at alpha = 1 and arg_scale = 1, x = t)
        cases = [(sol, TimeGrid(5.0, 0.05)) for sol in (
            carrying(0.7, MAX_ORDER), zero_capacity(0.5, MAX_ORDER), rescaled(0.6, 120))]
        for table in (a_coeffs(0.5, MAX_ORDER), euler_alpha(0.7, 120)):
            sol = table_series(table.d)
            for k in range(1, table.order + 1, 7):
                for x in thresholds(table.d, k):
                    ends = [x * (1 + j * 2.0**-52) for j in (-2, 0, 2)]
                    cases += [(sol, TimeGrid(t, t)) for t in ends]
        trajs = [sample_trajectory(sol, grid) for sol, grid in cases]

        def refuse(*args):
            raise AssertionError("evaluate ran the node sum")

        monkeypatch.setattr(series, "_classify", refuse)
        monkeypatch.setattr(series, "_sum_to", refuse)
        for (sol, grid), traj in zip(cases, trajs):
            meta = traj.meta
            for i, t in enumerate(grid.nodes().tolist()):
                assert_same(evaluate(sol, t), EvalResult(
                    float(traj.u[i]), meta["terms_used"][i], meta["converged"][i],
                    meta["beyond_theoretical_radius"][i]))


class TestSampleTrajectory:
    def test_single_node_grid(self):
        sol = zero_capacity_series(0.7, 0.5, a_coeffs(0.5, 40))
        # smallest valid grid: one step; node values I0 then I(dt)
        traj = sample_trajectory(sol, TimeGrid(0.01, 0.01))
        assert traj.u[0] == 1.0 / 1.4
        assert traj.meta["converged"][0] is True

    def test_complement_written_per_node(self):
        d, sol = endemic_setup(0.99)
        traj = sample_trajectory(sol, TimeGrid(5.0, 0.05))
        assert traj.u.shape == (101,)
        assert traj.method.value == "series"
        assert len(traj.meta["converged"]) == 101

    def test_alpha_099_close_to_classical(self):
        d, sol = endemic_setup(0.99)
        p = ModelParams(alpha=0.99, i0=d.c / 2.0, **ENDEMIC)
        grid = TimeGrid(5.0, 0.05)
        ic, _ = classical_sis(p, grid.nodes())
        traj = sample_trajectory(sol, grid)
        assert np.max(np.abs(traj.u - ic)) <= 1e-2

    def test_alpha_one_zero_capacity_deviation(self):
        sol = zero_capacity_series(0.7, 1.0, a_coeffs(1.0, 80))
        grid = TimeGrid(0.9, 0.01)
        i0 = 1.0 / 1.4
        want = i0 / (1.0 + 0.7 * i0 * grid.nodes())
        traj = sample_trajectory(sol, grid)
        assert np.max(np.abs(traj.u - want)) <= 1e-8


def carrying(alpha, K):
    return endemic_setup(alpha, K)[1]


def zero_capacity(alpha, K):
    return zero_capacity_series(0.7, alpha, a_coeffs(alpha, K))


def rescaled(alpha, K):
    return rescaled_zero_capacity_series(0.25, alpha, a_coeffs(alpha, K, a0=0.25))


@pytest.mark.parametrize(
    "build, kind",
    [(carrying, "carrying-capacity"), (zero_capacity, "zero-capacity"),
     (rescaled, "zero-capacity")],
    ids=["carrying", "zero-capacity", "rescaled"],
)
def test_meta_kind_names_the_table_family(build, kind):
    # perfbench/worker.py reads these strings from the meta
    assert sample_trajectory(build(0.7, 40), TimeGrid(1.0, 0.5)).meta["kind"] == kind


# caps on the terms summed, set through the table: a cut lowers the
# order K to at most ``cut - 1``, so the series sums at most ``cut`` terms
CUTS = {"default": None, "one-term": 1, "15-terms": 15}
# the paper grid, N = 1, past the radius, and t = 1e10, where x^k
# overflows in rows past each node's stop
GRIDS = [TimeGrid(5.0, 0.05), TimeGrid(0.3, 0.3), TimeGrid(1e3, 25.0), TimeGrid(1e10, 2.5e9)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestTermMatrixMatchesScalarLoop:
    @pytest.mark.parametrize("build", [carrying, zero_capacity, rescaled])
    @pytest.mark.parametrize("K", [1, 2, 3, 5, 20, MAX_ORDER])
    @pytest.mark.parametrize("cut", CUTS.values(), ids=CUTS.keys())
    def test_every_node(self, build, K, cut):
        for alpha in (0.5, 0.9, 1.0):
            sol = build(alpha, K if cut is None else min(K, cut - 1))
            for grid in GRIDS:
                traj = sample_trajectory(sol, grid)
                meta = traj.meta
                for i, t in enumerate(grid.nodes().tolist()):
                    want = scalar_evaluate(sol, t)
                    assert_same(evaluate(sol, t), want)
                    assert_same(EvalResult(
                        float(traj.u[i]), meta["terms_used"][i], meta["converged"][i],
                        meta["beyond_theoretical_radius"][i]), want)

    def test_cases_include_growth_stops(self):
        # past the radius 0.25 some nodes of the A-series stop by growth,
        # short of the MAX_ORDER + 1 terms of the table
        sol = zero_capacity(0.5, MAX_ORDER)
        meta = sample_trajectory(sol, GRIDS[0]).meta
        grown = [n for n, ok in zip(meta["terms_used"], meta["converged"]) if not ok]
        assert min(grown) <= MAX_ORDER

    def test_growth_compares_across_negligible_terms(self):
        # each live term is compared with the one three rows back, across
        # two zeros: shrinking blocks never grow, so the table runs out
        d = [1.0] * 10 + [v for j in range(8) for v in (10.0 - j, 0.0, 0.0)]
        sol = table_series(d)
        want = scalar_evaluate(sol, 1.0)
        assert want.terms_used == len(d) and not want.converged
        assert_same(evaluate(sol, 1.0), want)

    def test_random_tables(self):
        # magnitudes around abs_tol with zeros mixed in: runs of one and two
        # negligible terms, growth streaks and restarts
        rng = np.random.default_rng(7)
        grid = TimeGrid(1.5, 0.25)
        for _ in range(200):
            d = rng.choice([-1.0, 1.0], 60) * 10.0 ** rng.uniform(-17, 2, 60)
            d[rng.random(60) < 0.3] = 0.0
            d[0] = 1.0
            sol = table_series(d.tolist())
            traj = sample_trajectory(sol, grid)
            for i, t in enumerate(grid.nodes().tolist()):
                want = scalar_evaluate(sol, t)
                assert traj.u[i] == want.value_i
                assert traj.meta["terms_used"][i] == want.terms_used
                assert traj.meta["converged"][i] == want.converged

    @pytest.mark.parametrize("build", [carrying, zero_capacity])
    def test_overflow_inside_the_summed_terms(self, build):
        # x^2 overflows, so the loop itself sums inf and nan terms
        sol = build(1.0, 40)
        want = scalar_evaluate(sol, 1e300)
        assert not want.converged and not math.isfinite(want.value_i)
        assert_same(evaluate(sol, 1e300), want)


TAIL = [1.0] * 8


def rule_cases(near):
    """Tables whose sums at t = 1 stop near term ``near`` by each rule,
    each with its terms used."""
    for s in range(near - 3, near + 3):
        # three zero terms ending at d_s: the negligible streak stops there
        yield "negligible", [1.0] * (s - 2) + [0.0] * 3 + TAIL, s + 1
        # five growing terms ending at d_s
        yield "growth", [1.0] * (s - 4) + [2.0, 3.0, 4.0, 5.0, 6.0] + TAIL, s + 1
        # five growing terms with negligible ones between them, ending at d_s
        grow = [2.0, 0.0, 3.0, 0.0, 0.0, 4.0, 0.0, 5.0, 6.0]
        yield "growth-over-zeros", [1.0] * (s - 8) + grow + TAIL, s + 1
        # a term that does not grow, at d_s, restarts a streak of four
        d = [1.0] * (s - 1) + [100.0, 50.0, 60.0, 70.0, 80.0, 90.0] + TAIL
        yield "restart", d, len(d)
        # one negligible term, then five growing ones ending at d_s: the
        # first of them outgrows the term before the negligible one
        yield "growth-after-a-dip", [1.0] * (s - 5) + [1e-20, 2.0, 3.0, 4.0, 5.0, 6.0] + TAIL, s + 1
        # the same across the dip, with the negligible streak right behind
        d = [1.0] * (s - 5) + [2.0, 3.0, 4.0, 5.0, 1e-20, 6.0] + [0.0] * 3 + TAIL
        yield "growth-across-a-dip", d, s + 1
        # one negligible term, then shrinking ones: no stop and no growth
        d = [1.0] * (s - 1) + [1e-20] + [1.0 / j for j in range(2, 10)]
        yield "dip-to-the-end", d, len(d)


#: stops early (the growth cases' first growing term just past
#: _GROW_MIN_K), mid-table, and near the end of a MAX_ORDER table
RULE_STOPS = [24, 64, MAX_ORDER - 8]


def thresholds(d, k):
    """The x at which term k of the table ``d`` reaches 1e-14, and at which
    it outgrows the previous non-zero term (none for d_k = 0)."""
    if d[k] == 0.0:
        return []
    p = max((j for j in range(k) if d[j] != 0.0), default=0)
    xs = [math.exp((math.log(_ABS_TOL) - math.log(abs(d[k]))) / k)]
    if d[p] != 0.0:
        xs.append(math.exp((math.log(abs(d[p])) - math.log(abs(d[k]))) / (k - p)))
    return xs


def assert_nodes_match(table, xs):
    """``_sum_nodes`` at the nodes x = ``xs`` equals the scalar loop at each."""
    sol = table_series(table.d)  # alpha = 1 and arg_scale = 1: x = t
    u, terms, converged = _sum_nodes(table, 1.0, np.asarray(xs, dtype=float))
    for i, x in enumerate(xs):
        want = scalar_evaluate(sol, x)
        assert_same(EvalResult(float(u[i]), int(terms[i]), bool(converged[i]),
                               want.beyond_theoretical_radius), want)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestStopClasses:
    """A node's stop is read off its table's thresholds where they decide
    it, and found by the rule term by term where they do not; either way
    each sum, terms used and flag is the scalar loop's."""

    @staticmethod
    def classes(table, xs):
        stop, converged, exact = series._classify(xs, series._kernel_table(table), table.order)
        ends = ~exact & ~converged & (stop == table.order)
        return {"settles": ~exact & converged, "grows": ~exact & ~converged & ~ends,
                "ends": ends, "exact": exact}

    def test_each_class_runs_and_matches_the_scalar_loop(self):
        seen = dict.fromkeys(["settles", "grows", "ends", "exact"], 0)
        for table in (a_coeffs(0.5, MAX_ORDER), euler_alpha(0.7, 120), a_coeffs(0.9, 6)):
            # inside and past the radius, and at the thresholds to within 2 ulp
            xs = np.linspace(0.0, 2.0, 301).tolist()
            for k in range(1, table.order + 1, 7):
                for x in thresholds(table.d, k):
                    xs += [x * (1 + j * 2.0**-52) for j in (-2, 0, 2)]
            for name, at in self.classes(table, np.array(xs)).items():
                seen[name] += int(at.sum())
            assert_nodes_match(table, xs)
        assert all(seen.values()), seen

    @pytest.mark.parametrize("d", [
        [1.0, 0.5, 1e295, -0.25] + [0.1] * 10 + [1e295] + [1e-3] * 5,
        [1.0, 0.5, -0.25] + [0.1] * 10 + [1e300] * 20,
        [1.0, 0.5, math.inf, -0.25] + [0.1] * 10 + [math.inf] + [1e-3] * 5,
        [1.0, 0.5, math.nan, -0.25] + [0.1] * 10 + [math.nan] + [1e-3] * 5,
    ], ids=["1e295", "1e300-tail", "inf", "nan"])
    def test_tables_past_the_fast_bound(self, d):
        # an entry past _MAX_FAST_D sends every node to the rule, from stops
        # before a late entry to x^k overflowing; t = 0 is d_0 from one term
        # also where 0 times an early entry is nan
        table = CoeffTable(1.0, CoeffKind.A_COEFF, tuple(d))
        assert series._kernel_table(table).exact
        assert_nodes_match(table, [0.0, 1e-20, 0.3, 1.0, 2.0, 1e10, 1e300])

    @pytest.mark.parametrize("build", [euler_alpha, a_coeffs])
    def test_every_short_order(self, build):
        # orders 0..24 hold from none to a few growth windows of non-zero
        # entries past _GROW_MIN_K (the Euler tables' odd ones)
        for K in range(25):
            table = build(0.6, K)
            xs = np.linspace(0.0, 3.0, 31).tolist()
            for k in range(1, K + 1):
                xs += thresholds(table.d, k)
            assert_nodes_match(table, xs)

    @pytest.mark.parametrize("s", RULE_STOPS)
    def test_stops_by_each_rule(self, s):
        # twice as many nodes x = t <= 1 as a row needs, and one more, on
        # tables that stop near term s by each rule, so that the rows and the
        # block both run; at t = 1 the terms are the d_k, and x^k != 1 at the
        # others
        ts = np.linspace(1.0 - 1e-3, 1.0, 2 * _WIDE + 1)
        for name, d, used in rule_cases(s):
            sol = table_series(d)
            assert scalar_evaluate(sol, 1.0).terms_used == used, name
            assert_nodes_match(sol.coeffs, ts.tolist())

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(0.05, 1.0),
        K=st.one_of(st.integers(1, 24), st.sampled_from([60, 120, MAX_ORDER])),
        build=st.sampled_from([euler_alpha, a_coeffs]),
        free=st.lists(st.floats(0.0, 4.0), max_size=16),
        near=st.lists(st.tuples(st.integers(1, MAX_ORDER), st.integers(-6, 6),
                                st.booleans()), max_size=16),
        size=st.sampled_from([None, _WIDE - 1, _WIDE, _WIDE + 1, 2 * _WIDE + 1]),
        rng=st.randoms(use_true_random=False),
    )
    def test_sums_are_the_scalar_loops(self, alpha, K, build, free, near, size, rng):
        # nodes drawn freely and within a few ulp of a threshold; a drawn
        # size pads the free ones, nearly all of which the thresholds decide,
        # to about _WIDE, so that the rows and the switch to the block run
        table = build(alpha, K)
        xs = list(free)
        while size is not None and len(xs) < size:
            xs.append(rng.uniform(0.0, 4.0))
        for k, ulps, growth in near:
            at = thresholds(table.d, (k - 1) % K + 1)
            if at:
                xs.append(at[growth % len(at)] * (1 + ulps * 2.0**-52))
        assert_nodes_match(table, xs)


class TestNoRebuild:
    """Each node is summed by one pass, the threshold path or the exact
    rule, over as many rows as it uses at least: no term is built twice."""

    @staticmethod
    def passes(monkeypatch, run):
        """The passes over each node value, as (path, rows built) pairs."""
        built = {}
        sum_to, rule = series._sum_to, series._rule

        def spy_sum_to(x, table, stop):
            for v, n in zip(x.tolist(), stop.tolist()):
                built.setdefault(v, []).append(("thresholds", n))
            return sum_to(x, table, stop)

        def spy_rule(x, d):
            out = rule(x, d)
            built.setdefault(x, []).append(("rule", out[1] - 1))
            return out

        monkeypatch.setattr(series, "_sum_to", spy_sum_to)
        monkeypatch.setattr(series, "_rule", spy_rule)
        run()
        return built

    @staticmethod
    def assert_once(built, used):
        """One pass per node, over its terms used, and some by the rule."""
        assert sorted(built) == sorted(used)
        for v, rows in built.items():
            assert len(rows) == 1 and rows[0][1] >= used[v] - 1, (v, rows)
        assert [rows[0][0] for rows in built.values()].count("rule") >= 1

    def test_series_terms_are_built_once(self, monkeypatch):
        # 801 distinct nodes over several groups, inside and past the radius,
        # and nodes within an ulp of the thresholds of every 7th term, some of
        # which only the rule decides
        sol = zero_capacity(0.5, MAX_ORDER)
        grid = TimeGrid(0.4, 0.0005)
        x = [sol.arg_scale * t**sol.alpha for t in grid.nodes().tolist()]
        near = [v * (1 + j * 2.0**-52) for k in range(1, MAX_ORDER + 1, 7)
                for v in thresholds(sol.coeffs.d, k) for j in (-1, 1)]
        used = sample_trajectory(sol, grid).meta["terms_used"]
        used += _sum_nodes(sol.coeffs, 1.0, np.array(near))[1].tolist()
        _unit_scale_sums.cache_clear()  # else the spied call is a cache hit

        def run():
            sample_trajectory(sol, grid)
            _sum_nodes(sol.coeffs, 1.0, np.array(near))

        built = self.passes(monkeypatch, run)
        self.assert_once(built, dict(zip(x + near, used)))


class TestClassicalReductionNearRadius:
    def test_carrying_capacity_inside_90_percent_of_radius(self):
        # deepest table so the truncation tail stays below 1e-8 at the edge
        d, sol = endemic_setup(1.0, K=200)
        p = ModelParams(alpha=1.0, i0=d.c / 2.0, **ENDEMIC)
        for t in np.linspace(0.0, 0.9 * sol.radius.empirical, 40):
            want, _ = classical_sis(p, float(t))
            assert evaluate(sol, float(t)).value_i == pytest.approx(
                want, abs=1e-8
            )

    def test_zero_capacity_inside_90_percent_of_radius(self):
        # K = 196 is the deepest alpha = 1 A-table binary64 admits
        sol = zero_capacity_series(0.7, 1.0, a_coeffs(1.0, 196))
        i0 = 1.0 / 1.4
        for t in np.linspace(0.0, 0.9 * sol.radius.empirical, 40):
            want = i0 / (1.0 + 0.7 * i0 * float(t))
            assert evaluate(sol, float(t)).value_i == pytest.approx(
                want, abs=1e-8
            )


class TestRescaledSeries:
    def test_half_datum_alpha_one(self):
        # u(t) = 1/(t+2) dilated by 2^q with q = 3: v(t) = 1/(t/8 + 2)
        sol = rescaled_zero_capacity_series(0.5, 1.0, a_coeffs(1.0, 60))
        assert sol.radius.theoretical == pytest.approx(4.0, rel=1e-14)
        assert evaluate(sol, 0.0).value_i == 0.5
        for t in (0.25, 1.0, 3.5):
            assert evaluate(sol, t).value_i == pytest.approx(
                1.0 / (t / 8.0 + 2.0), abs=1e-10
            )

    def test_quarter_datum_radius(self):
        sol = rescaled_zero_capacity_series(0.25, 0.5, a_coeffs(0.5, 60, a0=0.25))
        # q = 1/a0 = 4, radius = 2^4 * 0.25^2 = 1
        assert sol.radius.theoretical == pytest.approx(1.0, rel=1e-14)
        assert evaluate(sol, 0.0).value_i == 0.25

    def test_empirical_radius_is_the_undilated_one_times_two_to_the_q(self):
        # q = 4: the root-test radius of the table in t, times 2^4, is the
        # root-test radius of the dilated series
        table = a_coeffs(0.5, 60, a0=0.25)
        sol = rescaled_zero_capacity_series(0.25, 0.5, table)
        for want in (16.0 * empirical_radius(table).empirical,
                     empirical_radius(table, sol.arg_scale).empirical):
            assert sol.radius.empirical == pytest.approx(want, rel=1e-14, abs=0)

    @pytest.mark.parametrize("alpha", [0.05, 0.5])
    def test_dilation_past_binary64(self, alpha):
        # q = 1/a0 = 1e4: 2^q and the radius are past binary64; at alpha = 0.5
        # 2^(-q alpha) underflows too, and the series is the constant a0.
        # The product 1e4 * 0.05 rounds to 500, which would miss by 2e-14
        sol = rescaled_zero_capacity_series(1e-4, alpha, a_coeffs(alpha, 40, a0=1e-4))
        assert sol.radius.theoretical == math.inf and sol.radius.empirical == math.inf
        with mpmath.workdps(40):
            want = float(mpmath.mpf(2) ** (-mpmath.mpf(1e4) * mpmath.mpf(alpha)))
        assert sol.arg_scale == pytest.approx(want, rel=2.3e-16, abs=0)
        assert evaluate(sol, 1e300).value_i == pytest.approx(1e-4, rel=1e-12)

    def test_datum_whose_reciprocal_overflows(self):
        # a0 = 5e-324: q = 1/a0 is inf, so the scale is 0 and the radius inf
        sol = rescaled_zero_capacity_series(5e-324, 0.5, a_coeffs(0.5, 40, a0=5e-324))
        assert sol.arg_scale == 0.0 and sol.radius.theoretical == math.inf

    def test_scale_below_the_least_subnormal_power(self):
        # q = 1500: (2^-q)^alpha would be 0.0, but 2^(-q alpha) = 2^-15; the
        # radius 2^q a0^(1/alpha) is taken in log space, about 2^445
        sol = rescaled_zero_capacity_series(1 / 1500, 0.01, a_coeffs(0.01, 40, a0=1 / 1500))
        assert sol.arg_scale == pytest.approx(2.0**-15, rel=1e-14, abs=0)
        assert math.isfinite(sol.radius.theoretical)
        assert math.log2(sol.radius.theoretical) == pytest.approx(
            1500 - 100 * math.log2(1500), rel=1e-12
        )

    def test_radius_by_logs_where_the_datum_power_underflows(self):
        # q = 1000, alpha = 0.005: a0^(1/alpha) = 1e-600 underflows, but the
        # guaranteed radius 2^1000 * 1e-600 is about 1.1e-299
        a0, alpha = 0.001, 0.005
        sol = rescaled_zero_capacity_series(a0, alpha, a_coeffs(alpha, 40, a0=a0))
        want = 2.0**1000 * 10.0**-300 * 10.0**-300
        assert sol.radius.theoretical == pytest.approx(want, rel=1e-12, abs=0)

    def test_scale_within_an_ulp_while_two_to_the_minus_q_is_normal(self):
        # q = 1000, alpha = 0.7: 2^(-q alpha) would be off by 3e-14, as the
        # product q alpha rounds, where (2^-q)^alpha is within an ulp
        a0, alpha = 1 / 1000, 0.7
        sol = rescaled_zero_capacity_series(a0, alpha, a_coeffs(alpha, 40, a0=a0))
        with mpmath.workdps(40):
            want = mpmath.mpf(2) ** (-mpmath.mpf(1.0 / a0) * mpmath.mpf(alpha))
            assert abs((sol.arg_scale - want) / want) < 2.3e-16

    def test_domain_and_mismatch(self):
        with pytest.raises(DomainError):
            rescaled_zero_capacity_series(0.0, 0.5, a_coeffs(0.5, 10))
        with pytest.raises(DomainError):
            rescaled_zero_capacity_series(1.0, 0.5, a_coeffs(0.5, 10))
        with pytest.raises(HypothesisError):
            rescaled_zero_capacity_series(0.25, 0.5, a_coeffs(0.5, 10, a0=0.5))


class TestZeroCapacityAtMaxOrder:
    def test_compare_near_alpha_one(self, tmp_path):
        # the A-table's c_199 overflows binary64 at alpha = 0.99, but the
        # normalised table the series sums does not
        out = tmp_path / "run"
        argv = ["compare", "--preset", "c-zero", "--alpha", "0.99",
                "--terms", str(MAX_ORDER), "--methods", "series,pece",
                "--out", str(out), "--formats", "csv,json"]
        assert cli.main(argv) == 0
        flags = json.loads((out / "manifest.json").read_text())["trajectories"]["series"]
        trusted = np.array(flags["converged"]) & ~np.array(flags["beyond_theoretical_radius"])
        series, pece = (np.loadtxt(out / f"{m}.csv", delimiter=",", skiprows=1)[:, 1]
                        for m in ("series", "pece"))
        assert trusted.sum() >= 40
        assert np.max(np.abs(series - pece)[trusted]) <= 1e-5


def test_series_and_population_share_one_node_power_table():
    node_powers.cache_clear()
    _unit_scale_sums.cache_clear()
    grid = TimeGrid(5.0, 0.05)
    sample_trajectory(carrying(0.6, 120), grid)
    population_curve(0.6, 0.2, 0.12, 1.0, grid)
    sample_trajectory(zero_capacity(0.6, 120), grid)
    info = node_powers.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def sample_fields(traj):
    """u and the per-node meta flags of a trajectory, as bytes."""
    meta = traj.meta
    return [np.asarray(x).tobytes() for x in (
        traj.u, meta["terms_used"], meta["converged"], meta["beyond_theoretical_radius"])]


def test_kernel_form_is_built_once_per_table():
    # one miss across repeated samples of one table, at a scaled argument
    # that never enters the sum cache, on grids and by node sums; an equal
    # table built apart reads the same entry
    series._kernel_table.cache_clear()
    sol = carrying(0.6, 120)
    for dt in (0.1, 0.05, 0.1):
        sample_trajectory(sol, TimeGrid(1.0, dt))
    twin = CoeffTable(sol.coeffs.alpha, sol.coeffs.kind, sol.coeffs.d)
    _sum_nodes(twin, 0.5, np.array([0.0, 0.5, 2.0]))
    info = series._kernel_table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 3, 1)


class TestSumCache:
    """Zero-capacity node sums: read-only, keyed by table and grid, bounded,
    scaled by each run's 1/beta."""

    @pytest.fixture(autouse=True)
    def cold(self):
        _unit_scale_sums.cache_clear()

    @staticmethod
    def counts():
        """(misses, hits) of the cache: a miss is one kernel call."""
        info = _unit_scale_sums.cache_info()
        return info.misses, info.hits

    def test_cached_arrays_refuse_writes(self):
        for x in _unit_scale_sums(a_coeffs(0.7, 40), TimeGrid(5.0, 0.05)):
            with pytest.raises(ValueError, match="read-only"):
                x[0] = 1

    def test_two_betas_cost_one_kernel_call_and_equal_uncached_runs(self, monkeypatch):
        table, grid = a_coeffs(0.6, 120), TimeGrid(1.0, 0.01)
        betas = (0.7, 1.3, 0.7)
        got = [sample_trajectory(zero_capacity_series(b, 0.6, table), grid) for b in betas]
        assert self.counts() == (1, 2)
        assert got[0].u.tobytes() != got[1].u.tobytes()
        monkeypatch.setattr(_cache, "_CACHE_MAX_N", 0)  # no grid is cached
        want = [sample_trajectory(zero_capacity_series(b, 0.6, table), grid) for b in betas]
        assert self.counts() == (1, 2)  # each uncached run summed past the cache
        assert [sample_fields(t) for t in got] == [sample_fields(t) for t in want]
        assert [t.meta for t in got] == [t.meta for t in want]

    def test_unit_scale_sums_are_the_uncached_build(self):
        table, grid = a_coeffs(0.45, MAX_ORDER), TimeGrid(1.0, 1.0 / 37)
        got = _unit_scale_sums(table, grid)
        want = _unit_scale_sums.__wrapped__(table, grid)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]

    @pytest.mark.parametrize("build", [carrying, rescaled])
    def test_scaled_arguments_never_enter_the_cache(self, build):
        sample_trajectory(zero_capacity(0.6, 40), TimeGrid(5.0, 0.05))
        for _ in range(2):
            sample_trajectory(build(0.6, 40), TimeGrid(5.0, 0.05))
        assert _unit_scale_sums.cache_info().currsize == 1
        assert self.counts() == (1, 0)

    def test_grids_past_the_bound_keep_nothing(self):
        grid = TimeGrid(1.0, 1.0 / (_cache._CACHE_MAX_N + 1))
        for _ in range(2):
            sample_trajectory(zero_capacity(0.6, 40), grid)
        assert _unit_scale_sums.cache_info().currsize == 0
        assert self.counts() == (0, 0)

    def test_bounded_and_equal_after_eviction(self):
        grid = TimeGrid(1.0, 0.01)
        alphas = [0.3 + 0.05 * i for i in range(_cache._CACHE_SIZE + 4)]
        first = sample_fields(sample_trajectory(zero_capacity(alphas[0], 60), grid))
        for alpha in alphas:
            sample_trajectory(zero_capacity(alpha, 60), grid)
        assert _unit_scale_sums.cache_info().currsize == _cache._CACHE_SIZE
        assert sample_fields(sample_trajectory(zero_capacity(alphas[0], 60), grid)) == first

    def test_runs_own_their_meta(self):
        sol, grid = zero_capacity(0.6, 120), TimeGrid(5.0, 0.05)
        first = sample_trajectory(sol, grid)
        flags, terms = list(first.meta["converged"]), list(first.meta["terms_used"])
        first.meta["converged"][0] = "changed"
        first.meta["terms_used"][0] = -1
        first.u[0] = -1.0
        second = sample_trajectory(sol, grid)
        assert second.meta["converged"] == flags and second.meta["terms_used"] == terms
        assert second.u[0] == 1.0 / 1.4
