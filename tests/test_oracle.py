"""Tests for the quadrature oracle and the approximate-vs-exact comparison.

Frozen posterior values come from dense trapezoid integration on a
4001x4001 grid spanning +/- 8 prior standard deviations, implemented
independently of the package.
"""

import math
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drawrating import engine, model, oracle
from drawrating.engine import EngineConfig, PlayerBelief
from drawrating.model import Hyperparameters

H2 = Hyperparameters()
CFG = EngineConfig()


def belief(mu, sigma, pid="x"):
    return PlayerBelief(pid, mu, sigma)


class TestGHRule:
    def test_weights_sum_to_sqrt_pi(self):
        for order in (1, 2, 3, 9, 50):
            rule = oracle.gh_rule(order)
            assert rule.weights.sum() == pytest.approx(math.sqrt(math.pi), abs=1e-12)

    @pytest.mark.parametrize("order", [2, 3, 9])
    def test_polynomial_exactness(self, order):
        """An order-R rule integrates monomials exactly up to degree 2R-1."""
        rule = oracle.gh_rule(order)
        for k in range(2 * order):
            got = float((rule.weights * rule.nodes**k).sum())
            if k % 2 == 1:
                expected = 0.0
            else:
                # Gaussian moment: integral of z^k exp(-z^2) dz
                expected = math.gamma((k + 1) / 2.0)
            assert got == pytest.approx(expected, abs=1e-10)

    def test_rule_is_shared_and_read_only(self):
        rule = oracle.gh_rule(9)
        assert oracle.gh_rule(9) is rule
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0
        with pytest.raises(ValueError):
            rule.weights[0] = 0.0

    def test_order_validation(self):
        with pytest.raises(ValueError):
            oracle.gh_rule(0)
        with pytest.raises(ValueError):
            oracle.gh_rule(51)


class TestOraclePosterior:
    # (focal_mu, focal_sd, opp_mu, opp_sd, outcome, color) -> mean, variance
    FROZEN = [
        ((0.4, 0.8, 1.1, 0.6, 1.0, 1),
         (0.6990179087082075, 0.6046961888094429)),
        ((2.0, 0.5756, 2.0, 0.5756, 0.5, 1),
         (2.009539495130928, 0.32275755189940547)),
        ((-0.5, 1.2, 3.0, 0.3, 0.0, -1),
         (-0.8232083994601874, 1.2918167287597164)),
    ]

    @pytest.mark.parametrize("args,expected", FROZEN)
    def test_frozen_against_grid_integration(self, args, expected):
        mi, si, mj, sj, y, c = args
        post = oracle.oracle_posterior(belief(mi, si), belief(mj, sj), y, c, H2,
                                       order=20)
        assert post.mean == pytest.approx(expected[0], abs=1e-9)
        assert post.variance == pytest.approx(expected[1], abs=1e-9)

    @pytest.mark.parametrize("args,expected", FROZEN)
    def test_default_order_is_accurate(self, args, expected):
        mi, si, mj, sj, y, c = args
        post = oracle.oracle_posterior(belief(mi, si), belief(mj, sj), y, c, H2)
        assert post.mean == pytest.approx(expected[0], abs=1e-5)
        assert post.variance == pytest.approx(expected[1], abs=1e-5)

    def test_self_convergence(self):
        """Order 9 already agrees with order 20 on realistic games."""
        rng = np.random.default_rng(3)
        for _ in range(100):
            focal = belief(rng.uniform(-1, 8), rng.uniform(0.3, 1.2))
            opp = belief(rng.uniform(-1, 8), rng.uniform(0.3, 1.2), "o")
            y = float(rng.choice([1.0, 0.5, 0.0]))
            c = int(rng.choice([1, -1]))
            lo = oracle.oracle_posterior(focal, opp, y, c, H2, order=9)
            hi = oracle.oracle_posterior(focal, opp, y, c, H2, order=20)
            assert lo.mean == pytest.approx(hi.mean, abs=1e-5)
            assert lo.variance == pytest.approx(hi.variance, abs=1e-5)

    def test_posterior_variance_shrinks(self):
        post = oracle.oracle_posterior(belief(1.0, 0.8), belief(1.0, 0.8, "o"),
                                       1.0, 1, H2)
        assert post.variance < 0.8**2

    def test_survives_extreme_draw_propensity(self):
        """Log-space evaluation keeps the oracle finite even where the fast
        two-node update underflows and refuses."""
        h = Hyperparameters(beta0=800.0)
        post = oracle.oracle_posterior(belief(0.0, 0.2), belief(0.0, 0.2, "o"),
                                       1.0, 1, h)
        assert math.isfinite(post.mean) and post.variance > 0
        with pytest.raises(engine.DegenerateUpdateError):
            engine.game_term(belief(0.0, 0.2), belief(0.0, 0.2, "o"), 1.0, 1,
                             h, CFG)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            oracle.oracle_posterior(belief(0, 1), belief(0, 1, "o"), 1.0, 1, H2,
                                    order=1)


class TestR2Identity:
    def test_perfect_agreement(self):
        x = np.array([0.1, -0.5, 2.0])
        assert oracle._r2_identity(x, x) == 1.0

    def test_known_value(self):
        approx = np.array([0.0, 1.0, 2.0])
        reference = np.array([0.1, 1.0, 1.9])
        expected = 1.0 - (0.01 + 0.01) / 2.0
        assert oracle._r2_identity(approx, reference) == pytest.approx(expected)

    def test_constant_array(self):
        x = np.zeros(3)
        assert oracle._r2_identity(x, x) == 1.0
        assert oracle._r2_identity(x, np.ones(3)) == 0.0


def _random_games(n, seed, sd_range=(0.3, 1.2)):
    rng = np.random.default_rng(seed)
    games = []
    for _ in range(n):
        focal = belief(rng.uniform(-1, 8), rng.uniform(*sd_range))
        opp = belief(rng.uniform(-1, 8), rng.uniform(*sd_range), "o")
        p = model.probability_array(focal.mu, opp.mu, 1.0, H2)
        y = [1.0, 0.5, 0.0][int((rng.random() < p.cumsum()).argmax())]
        games.append((focal, opp, y, int(rng.choice([1, -1]))))
    return games


class TestCompareUpdates:
    def test_report_structure(self):
        report = oracle.compare_updates(_random_games(40, 1), H2, CFG)
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.label == "all"
        assert row.n == 40
        assert report.excluded == 0
        assert 0.0 <= row.mean_abs_diff < row.mean_abs_approx

    def test_stratified_rows(self):
        report = oracle.compare_updates(_random_games(60, 2), H2, CFG, stratify=True)
        labels = [r.label for r in report.rows]
        assert labels[0] == "all"
        assert "decisive" in labels and "drawn" in labels
        assert sum(r.n for r in report.rows[3:]) == 60  # terciles partition

    def test_degenerate_games_are_excluded_not_fatal(self):
        """An extreme draw propensity breaks the fast update on decisive
        games; those are skipped and counted while draws survive."""
        games = _random_games(10, 3)
        decisive = sum(1 for _, _, y, _ in games if y != 0.5)
        h = Hyperparameters(beta0=800.0)
        report = oracle.compare_updates(games, h, CFG)
        assert report.excluded == decisive
        assert report.rows[0].n == 10 - decisive

    def test_to_delimited(self):
        report = oracle.compare_updates(_random_games(10, 4), H2, CFG)
        text = report.to_delimited()
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(oracle.ComparisonReport.COLUMNS)
        assert len(lines) == 2
        assert lines[1].startswith("all,10,")

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            oracle.compare_updates([], H2, CFG)

    def test_close_agreement_on_rated_style_priors(self):
        """With production-like prior uncertainty the one-step update tracks
        the exact posterior closely."""
        sd = model.elo_sd_to_latent(100.0)
        games = _random_games(200, 5, sd_range=(sd, sd))
        report = oracle.compare_updates(games, H2, CFG)
        row = report.rows[0]
        assert row.mean_abs_diff < 0.02
        assert row.r2_mean > 0.95


def delta_arrays(focal_mu, opp_mu, opp_sigma, observed, color, h, draw_score_override):
    """``engine._delta_arrays`` of 1-D belief columns, with each game's
    opponent nodes formed by ``engine.node_strengths``."""
    n = len(observed)
    nodes = engine.node_strengths(opp_mu, opp_sigma, engine._NODE_SIGNS, np.empty((2, n)))
    return engine._delta_arrays(focal_mu, nodes, observed, color, h, draw_score_override)


def reference_compare_updates(games, h, cfg, order=9, stratify=False, reasons=None):
    """The per-game ``compare_updates`` loop the array pass replaced, on
    Python floats: one ``engine._newton_step`` and one posterior per game.
    ``reasons`` gets why each excluded game was excluded."""
    reasons = [] if reasons is None else reasons
    focal, opponent, outcome, color = zip(*games)
    index = [oracle._outcome_index_or_none(y) for y in outcome]
    valid = [k is not None and f.sigma > 0 and o.sigma > 0
             for k, f, o in zip(index, focal, opponent)]
    observed = np.array([k or 0 for k in index], dtype=np.intp)
    focal_mu, focal_sigma, opp_mu, opp_sigma = (
        np.array([getattr(b, field) for b in beliefs])
        for beliefs, field in ((focal, "mu"), (focal, "sigma"),
                               (opponent, "mu"), (opponent, "sigma"))
    )
    color = np.array(color, dtype=float)
    d1, d2, p_obs = delta_arrays(
        focal_mu, opp_mu, opp_sigma, observed, color, h, cfg.draw_score_override,
    )
    mean, second = oracle.posterior_moments(
        focal_mu, focal_sigma, opp_mu, opp_sigma, observed, color, h, order
    )

    approx_dmu, oracle_dmu = [], []
    approx_dlogsd, oracle_dlogsd = [], []
    mus, draws = [], []
    for ok, f, y, t1, t2, p, m, m2 in zip(
        valid, focal, outcome, d1.tolist(), d2.tolist(), p_obs.tolist(),
        mean.tolist(), second.tolist(),
    ):
        if not ok:
            reasons.append("invalid game")
            continue
        if not p > 0:
            reasons.append("zero p_observed")
            continue
        stage = "Newton step"
        try:
            mu_post, sigma_post = engine._newton_step([f.player_id], f.mu, f.sigma, t1, t2)
            stage = "posterior"
            if math.isnan(m):
                raise oracle.DegenerateEvidenceError("NaN mean")
            variance = m2 - m**2
            if variance <= 0:
                raise oracle.DegenerateEvidenceError("non-positive variance")
        except ArithmeticError as exc:
            reasons.append(f"{stage}: {type(exc).__name__}: {exc.args[-1]}")
            continue
        approx_dmu.append(mu_post - f.mu)
        oracle_dmu.append(m - f.mu)
        approx_dlogsd.append(math.log(sigma_post) - math.log(f.sigma))
        oracle_dlogsd.append(0.5 * math.log(variance) - math.log(f.sigma))
        mus.append(f.mu)
        draws.append(float(y) == model.DRAW)
        if math.isnan(variance):
            reasons.append("kept: NaN variance")

    approx_dmu, oracle_dmu = np.array(approx_dmu), np.array(oracle_dmu)
    approx_dlogsd, oracle_dlogsd = np.array(approx_dlogsd), np.array(oracle_dlogsd)
    mus, draws = np.array(mus), np.array(draws, dtype=bool)

    def select(label, mask):
        if not np.any(mask):
            return None
        return oracle._summarize(label, approx_dmu[mask], oracle_dmu[mask],
                                 approx_dlogsd[mask], oracle_dlogsd[mask])

    rows = [select("all", np.ones(len(approx_dmu), dtype=bool))]
    if stratify and len(mus):
        lo, hi = np.quantile(mus, [1 / 3, 2 / 3])
        rows.extend(select(label, mask) for label, mask in [
            ("decisive", ~draws),
            ("drawn", draws),
            (f"mu<={lo:.2f}", mus <= lo),
            (f"{lo:.2f}<mu<={hi:.2f}", (mus > lo) & (mus <= hi)),
            (f"mu>{hi:.2f}", mus > hi),
        ])
    excluded = sum(not r.startswith("kept") for r in reasons)
    return oracle.ComparisonReport([r for r in rows if r is not None], excluded)


def _raw_belief(mu, sigma):
    """A belief that skips ``PlayerBelief``'s checks, as a caller's own
    record type may."""
    return types.SimpleNamespace(player_id="x", mu=mu, sigma=sigma)


# games that reach every exclusion of compare_updates at some of the
# hyperparameter points below
EDGE_GAMES = [
    (belief(0.0, 0.5), belief(0.0, 0.5, "o"), 0.7, 1),  # invalid outcome
    (_raw_belief(0.0, 0.0), belief(0.0, 0.5, "o"), 1.0, 1),  # focal sigma 0
    (belief(0.0, 0.5), _raw_belief(0.0, -1.0), 0.0, -1),  # opponent sigma < 0
    (belief(800.0, 0.5), belief(-800.0, 0.5, "o"), 0.0, 1),  # p_observed underflows
    (belief(0.0, 1e-160), belief(0.0, 0.5, "o"), 1.0, 1),  # sigma**-2 overflows
    (belief(1e155, 1.0), belief(0.0, 0.5, "o"), 1.0, 1),  # mean**2 overflows
    (belief(1e308, 1e308), belief(0.0, 0.5, "o"), 1.0, 1),  # precision <= 0
    (belief(0.0, 1e308), belief(0.0, 0.5, "o"), 1.0, -1),  # NaN mean
    (belief(0.0, 1e154), belief(0.0, 0.5, "o"), 0.0, 1),  # NaN variance, kept
    (belief(0.0, 3e153), belief(0.0, 0.5, "o"), 0.0, -1),
] + [
    # a variance at or below 0 from cancellation
    (belief(mu, sd), belief(0.0, 0.5, "o"), y, 1)
    for mu in (3.0, 50.0, 1000.0) for sd in (1e-8, 1e-12) for y in (1.0, 0.5)
]
EDGE_HYPERS = [
    Hyperparameters(),
    Hyperparameters(alpha0=0.3, alpha1=0.2, beta0=-30.0, beta1=0.2),
    Hyperparameters(beta0=40.0),
    # without the draw override the draw coefficient squared overflows: NaN precision
    Hyperparameters(beta1=1e200),
]
EDGE_ORDERS = [2, 9, 20, 50]


class TestCompareUpdatesReference:
    """The array pass against the per-game loop it replaced: the same report
    text and the same exclusion count, over edge beliefs and random games."""

    @pytest.mark.parametrize("order", EDGE_ORDERS)
    @pytest.mark.parametrize("override", [True, False])
    @pytest.mark.parametrize("h", EDGE_HYPERS)
    def test_matches_the_per_game_loop(self, h, override, order):
        cfg = EngineConfig(draw_score_override=override)
        games = _random_games(30, order) + EDGE_GAMES + _random_games(20, 7 * order)
        with np.errstate(all="ignore"):
            for stratify in (False, True):
                want = reference_compare_updates(games, h, cfg, order, stratify)
                got = oracle.compare_updates(games, h, cfg, order, stratify)
                assert got.to_delimited() == want.to_delimited()
                assert got.excluded == want.excluded > 0

    def test_the_edge_games_reach_every_exclusion(self):
        reasons = set()
        with np.errstate(all="ignore"):
            for h in EDGE_HYPERS:
                for override in (True, False):
                    for order in EDGE_ORDERS:
                        found = []
                        reference_compare_updates(
                            EDGE_GAMES, h, EngineConfig(draw_score_override=override),
                            order, reasons=found,
                        )
                        reasons.update(found)
        overflow = "OverflowError: Numerical result out of range"
        assert {r.split(" [")[0] for r in reasons} == {
            "invalid game",
            "zero p_observed",
            f"Newton step: {overflow}",  # sigma**-2
            "Newton step: DegenerateUpdateError: non-positive posterior precision",
            "posterior: DegenerateEvidenceError: NaN mean",
            f"posterior: {overflow}",  # mean**2
            "posterior: DegenerateEvidenceError: non-positive variance",
            "kept: NaN variance",
        }
        assert any("[nan]" in r for r in reasons)  # a NaN precision, not only a negative one

    def test_an_all_excluded_set_reports_no_rows(self):
        games = EDGE_GAMES[:6]
        with np.errstate(all="ignore"):
            want = reference_compare_updates(games, H2, CFG, stratify=True)
            got = oracle.compare_updates(games, H2, CFG, stratify=True)
        assert got.rows == want.rows == []
        assert got.excluded == want.excluded == 6


def columns_of(games):
    """The ``GameColumns`` of (focal, opponent, outcome, color) tuples, with
    the index -1 for an invalid outcome."""
    index = [oracle._outcome_index_or_none(y) for _, _, y, _ in games]
    return oracle.GameColumns(
        np.array([f.mu for f, _, _, _ in games]),
        np.array([f.sigma for f, _, _, _ in games]),
        np.array([o.mu for _, o, _, _ in games]),
        np.array([o.sigma for _, o, _, _ in games]),
        np.array([-1 if k is None else k for k in index], dtype=np.intp),
        np.array([c for _, _, _, c in games], dtype=float),
    )


_sigmas = st.one_of(st.floats(1e-3, 3.0), st.sampled_from([0.0, -1.0, 1e-160, 1e154, 1e308]))
_games = st.lists(
    st.tuples(
        st.builds(_raw_belief, st.floats(-1e3, 1e3), _sigmas),
        st.builds(_raw_belief, st.floats(-1e3, 1e3), _sigmas),
        st.sampled_from([1.0, 0.5, 0.0, 0.7]),
        st.sampled_from([1, -1]),
    ),
    min_size=1, max_size=12,
)


class TestGameColumns:
    """``compare_updates`` on ``GameColumns`` gives the report of the same
    games as tuples."""

    @staticmethod
    def assert_same_reports(games, h, cfg, order, stratify):
        with np.errstate(all="ignore"):
            want = oracle.compare_updates(games, h, cfg, order, stratify)
            got = oracle.compare_updates(columns_of(games), h, cfg, order, stratify)
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("stratify", [False, True])
    @pytest.mark.parametrize("order", [2, 9])
    @pytest.mark.parametrize("override", [True, False])
    @pytest.mark.parametrize("h", EDGE_HYPERS)
    def test_edge_games(self, h, override, order, stratify):
        games = _random_games(20, order) + EDGE_GAMES
        self.assert_same_reports(games, h, EngineConfig(draw_score_override=override),
                                 order, stratify)

    @settings(max_examples=60, deadline=None)
    @given(games=_games, h=st.sampled_from(EDGE_HYPERS), override=st.booleans(),
           order=st.sampled_from([2, 9]), stratify=st.booleans())
    def test_drawn_games(self, games, h, override, order, stratify):
        self.assert_same_reports(games, h, EngineConfig(draw_score_override=override),
                                 order, stratify)

    @pytest.mark.parametrize("bad", [3, -2])
    def test_an_outcome_index_out_of_range_is_excluded(self, bad):
        games = _random_games(12, 8)
        columns = columns_of(games)
        columns.outcome[[2, 7]] = bad
        kept = columns_of(games[:2] + games[3:7] + games[8:])
        report = oracle.compare_updates(columns, H2, CFG, stratify=True)
        assert report.excluded == 2
        assert report.rows == oracle.compare_updates(kept, H2, CFG, stratify=True).rows

    def test_empty_columns_rejected_before_the_order(self):
        empty = oracle.GameColumns(*[np.empty(0)] * 4, np.empty(0, dtype=np.intp), np.empty(0))
        with pytest.raises(ValueError, match="game list must be nonempty"):
            oracle.compare_updates(empty, H2, CFG, order=1)


class TestLog:
    def test_equals_math_log_bit_for_bit(self):
        # with two values where np.log differs in the last bit (numpy 2.4, x86-64)
        values = [5e-324, 1e-300, 0.5, 1e308, math.inf, math.nan,
                  0.9760316524447805, 1.0063603195749762]
        got = oracle._log(np.array(values))
        assert got.dtype == np.float64
        assert got.view(np.uint64).tolist() == \
            np.array([math.log(v) for v in values]).view(np.uint64).tolist()

    def test_no_input(self):
        got = oracle._log(np.array([]))
        assert got.dtype == np.float64 and got.shape == (0,)


class TestDirectReductions:
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 127, 128, 129, 1000])
    def test_the_summary_equals_the_numpy_wrappers_bit_for_bit(self, n):
        """``np.mean`` and ``np.sum`` take the same pairwise sum, whose blocks
        change at 8 and 128 elements."""
        def r2(approx, reference):
            resid = np.sum((approx - reference) ** 2)
            total = np.sum((approx - approx.mean()) ** 2)
            return (1.0 if resid == 0 else 0.0) if total == 0 else float(1.0 - resid / total)

        rng = np.random.default_rng(n)
        a_dmu, o_dmu, a_dlogsd, o_dlogsd = rng.normal(0.0, 1.0, (4, n))
        want = oracle.ComparisonRow(
            "all", n, float(np.mean(np.abs(a_dmu))), float(np.mean(np.abs(o_dmu))),
            r2(a_dmu, o_dmu), float(np.mean(np.abs(a_dmu - o_dmu))), r2(a_dlogsd, o_dlogsd),
        )
        assert repr(oracle._summarize("all", a_dmu, o_dmu, a_dlogsd, o_dlogsd)) == repr(want)


class TestWarmMomentsInAFreshInterpreter:
    @pytest.mark.skipif(sys.platform != "linux", reason="minor page faults as Linux counts them")
    def test_take_no_page_faults(self, fresh_python):
        """500 order-9 games per call, in a process that never loads scipy (so
        its heap was not grown beforehand): warm calls reuse the heap."""
        got = fresh_python("""
            import json, resource, sys
            import numpy as np
            from drawrating import oracle
            from drawrating.model import Hyperparameters

            rng = np.random.default_rng(7)
            n = 500
            args = (rng.normal(0.0, 1.0, n), rng.uniform(0.2, 1.5, n),
                    rng.normal(0.0, 1.0, n), rng.uniform(0.2, 1.5, n),
                    rng.integers(0, 3, n), np.where(rng.random(n) < 0.5, 1.0, -1.0),
                    Hyperparameters(), 9)
            for _ in range(5):
                oracle.posterior_moments(*args)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(50):
                oracle.posterior_moments(*args)
            print(json.dumps({
                "faults": resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before,
                "scipy": sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"),
            }))
        """)
        assert got["scipy"] == []
        assert got["faults"] < 50
