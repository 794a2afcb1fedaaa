import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import omega_brute
from udham import weights as W


FAMILIES = [W.gevrey(1), W.gevrey(2), W.gevrey_log(1, 1), W.gevrey_log(1.5, 2),
            W.exp_log(), W.exp_sqrt()]


def sp_of(fam, L=512):
    return W.ScaleProfile(W.build_sequence(fam, L))


class TestBuild:
    def test_gevrey1_is_analytic(self):
        ws = W.build_sequence(W.gevrey(1), 10)
        assert np.allclose(np.exp(ws.log_M), [math.factorial(l) for l in range(11)])
        assert np.allclose(np.exp(ws.log_mu), np.arange(1, 11))
        assert np.allclose(np.exp(ws.log_N), 1.0)
        assert np.allclose(np.exp(ws.log_nu), 1.0)

    def test_gevrey2_values(self):
        ws = W.build_sequence(W.gevrey(2), 5)
        assert np.allclose(np.exp(ws.log_M), [1, 1, 4, 36, 576, 14400])

    def test_gevrey_log_normalized(self):
        # mu_0 = (0+1)^a (ln e)^b = 1 resolves the (M_{a,b})_0 = 0 anomaly
        ws = W.build_sequence(W.gevrey_log(1, 1), 8)
        assert np.exp(ws.log_M[0]) == 1.0 and np.exp(ws.log_M[1]) == 1.0
        assert np.isclose(np.exp(ws.log_mu[1]), 2.0 * math.log(math.e + 1.0))

    def test_derived_sequence_identities(self):
        for fam in FAMILIES:
            ws = W.build_sequence(fam, 256)
            l = np.arange(len(ws.log_mu))
            assert np.allclose(ws.log_mu, ws.log_nu + np.log1p(l), rtol=1e-12)
            assert np.allclose(ws.log_M[1:], np.cumsum(ws.log_mu), rtol=1e-12)

    def test_log_n_is_log_m_minus_log_factorial(self):
        for fam in FAMILIES:
            ws = W.build_sequence(fam, 300)
            assert np.array_equal(ws.log_N, ws.log_M - W.log_factorial(301))
            assert ws.log_N is ws.log_N  # derived once, then cached
        # mpmath at 200 bits rounds ln l! correctly; scipy's gammaln has the
        # same 3 ulp worst case, so the two agree within 6 ulp
        import mpmath
        from scipy.special import gammaln
        ls = np.unique(np.r_[np.arange(2049), np.geomspace(2049, 65536, 64).astype(int)])
        got = W.log_factorial(65537)[ls]
        with mpmath.workprec(200):
            ref = np.array([float(mpmath.loggamma(int(l) + 1)) for l in ls])
        assert got[0] == got[1] == 0.0
        assert np.all(np.abs(got - ref) <= 3 * np.spacing(ref))
        assert np.all(np.abs(got - gammaln(ls + 1.0)) <= 6 * np.spacing(ref))

    def test_invalid_parameters(self):
        with pytest.raises(W.ParameterError):
            W.build_sequence(W.gevrey(0.5), 16)
        with pytest.raises(W.ParameterError):
            W.build_sequence(W.gevrey(1), 1)
        with pytest.raises(W.ParameterError):
            W.gevrey_log(1, -0.5) and W.build_sequence(W.gevrey_log(1, -0.5), 16)

    def test_log_space_survives_wild_growth(self):
        ws = W.build_sequence(W.exp_log(), 2048)
        assert np.all(np.isfinite(ws.log_M))
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.exp(ws.log_M)[-1])  # linear space overflows, logs do not

    @pytest.mark.parametrize("fam, L", [(W.gevrey(4), 1 << 20), (W.analytic(), 4096)]
                             + [(fam, 4096) for fam in FAMILIES],
                             ids=lambda v: getattr(v, "tag", str(v)))
    def test_in_place_arrays_equal_the_plain_expressions(self, fam, L):
        # build_sequence and ScaleProfile form their arrays with out= and in
        # place; these are the plain expressions, with the same operations
        ws = W.build_sequence(fam, L)
        sp = W.ScaleProfile(ws)
        lm = ws.log_mu
        if fam.name in ("analytic", "gevrey"):
            assert np.array_equal(lm, fam.alpha * np.log1p(np.arange(L, dtype=float)))
        assert np.array_equal(ws.log_M, np.concatenate(([0.0], np.cumsum(lm))))
        assert np.array_equal(ws.log_nu, lm - np.log1p(np.arange(L, dtype=float)))
        rising = np.flatnonzero(np.diff(np.diff(lm)) > 1e-12)
        assert ws.mono_from == (0 if len(rising) == 0 else int(rising[-1] + 1))
        raw = float(np.max(lm[1:] / np.arange(1, L, dtype=float)))
        assert (sp.sigma_bar, sp.sigma_bar_capped) == (min(raw, W.SIGMA_BAR_CAP),
                                                     raw > W.SIGMA_BAR_CAP)
        assert sp.mu_nondecreasing == (not np.any(np.diff(lm) < -1e-12))

    def test_horizon_footprint(self):
        # bessi's horizon: the scans share one scratch before log_M exists and
        # log_nu is formed on first read, so log_mu and log_M (8 MiB each)
        # are the only horizon arrays held; 33 MiB peaked when all were built
        tracemalloc.start()
        try:
            sp = W.ScaleProfile(W.build_sequence(W.gevrey(4.0), 1 << 20))
            sp.omega_value(1e5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 18 << 20, peak / 2**20
        assert "log_nu" not in sp.ws.__dict__
        assert sp.ws.log_nu is sp.ws.__dict__["log_nu"]


class TestConditions:
    def test_h1_exact_for_builtins(self):
        for fam in FAMILIES:
            rep = W.check_conditions(W.build_sequence(fam, 512))
            assert rep.h1_pass, fam.tag

    def test_h1_failure_located(self):
        # M_2 < 1 means nu_1 < nu_0 = 1
        ws = W.from_log_mu(np.diff(np.log([1.0, 1.0, 0.5, 0.25])))
        rep = W.check_conditions(ws)
        assert not rep.h1_pass
        assert rep.h1_first_violation == 1

    def test_h1_implies_factorial_floor(self):
        for fam in FAMILIES:
            ws = W.build_sequence(fam, 256)
            assert np.all(ws.log_N >= -1e-10)  # N_l >= 1 <=> M_l >= l!

    def test_known_h3_verdicts(self):
        assert W.check_conditions(W.build_sequence(W.gevrey(1), 64)).known_verdicts["H3"] is False
        assert W.check_conditions(W.build_sequence(W.gevrey(2), 64)).known_verdicts["H3"] is True
        assert W.check_conditions(W.build_sequence(W.gevrey_log(1, 2), 64)).known_verdicts["H3"] is True
        assert W.check_conditions(W.build_sequence(W.exp_sqrt(), 64)).known_verdicts["MG"] is False

    def test_h3_partial_sum_matches_direct(self):
        ws = W.build_sequence(W.gevrey(2), 512)
        direct = sum(1.0 / (l + 1) ** 2 for l in range(512))
        assert np.isclose(W.check_conditions(ws).h3_partial_sum, direct, rtol=1e-10)

    def test_mg_value_nondecreasing_in_horizon(self):
        ws = W.build_sequence(W.exp_sqrt(), 512)
        v1 = W.check_conditions(ws, mg_horizon=128).mg_value
        v2 = W.check_conditions(ws, mg_horizon=256).mg_value
        assert v2 >= v1 - 1e-12

    def test_product_lemma_scans(self):
        # Banach-algebra constant: never above 4 pi^2/3 for H1 families;
        # pinned are the values the scans gave when N was built eagerly
        pinned = {"Gevrey(1)": (3.517106786434369, 1.4085436656637562),
                  "Gevrey(2)": (2.2962962962962963, 0.6736111111111113),
                  "GevreyLog(1,1)": (2.597882160169339, 0.8226078759634814),
                  "GevreyLog(1.5,2)": (2.2306242546208916, 0.6392731117619485),
                  "ExpLog": (3.0898919753086425, 0.8472222222222224),
                  "ExpSqrt": (2.812635392209588, 0.9696214589198842)}
        for fam in FAMILIES:
            ws = W.build_sequence(fam, 320)
            got = (W.product_lemma_scan(ws), W.composition_lemma_scan(ws))
            assert max(got) <= W.C_NORM + 1e-9, fam.tag
            assert got == pytest.approx(pinned[fam.tag], rel=1e-13), fam.tag

    def test_nj_nk_lemma_scans(self):
        # H1 pass implies N_j N_k <= N_{j+k} and N_j N_k <= N_{j+k-1} (j,k >= 1)
        for fam in FAMILIES:
            ws = W.build_sequence(fam, 200)
            logN = ws.log_N
            J = np.arange(1, 100)
            for j in J:
                k = np.arange(1, 100)
                assert np.all(logN[j] + logN[k] <= logN[j + k] + 1e-10)
                assert np.all(logN[j] + logN[k] <= logN[j + k - 1] + 1e-10)

    def test_mg_mu_bound(self):
        for fam in [W.gevrey(1), W.gevrey(2), W.gevrey_log(1.5, 1)]:
            assert W.mg_mu_bound_scan(W.build_sequence(fam, 400)), fam.tag


class TestCauchy:
    def test_sigma_bar_analytic(self):
        sp = sp_of(W.gevrey(1))
        assert np.isclose(sp.sigma_bar, math.log(2.0))
        assert not sp.sigma_bar_capped
        assert sp.cauchy_c(sp.sigma_bar).value == pytest.approx(1.0)

    def test_sigma_bar_capped_for_steep_mu(self):
        # mu_1 = 4 for Gevrey-2, so the true C = 1 threshold 2 ln 2 exceeds 1
        sp = sp_of(W.gevrey(2))
        assert sp.sigma_bar_capped
        assert sp.sigma_bar == W.SIGMA_BAR_CAP

    def test_known_values_m1(self):
        sp = sp_of(W.gevrey(1))
        r = sp.cauchy_c(0.8)
        assert r.value == pytest.approx(1.0) and r.argmax == 0
        r = sp.cauchy_c(0.1)
        assert r.value == pytest.approx(10.0 * math.exp(-0.9), rel=1e-12)
        assert r.argmax == 9 and r.certified

    def test_lower_bound_e_sigma(self):
        for fam in FAMILIES:
            sp = sp_of(fam)
            for sigma in [0.01, 0.05, 0.2, 0.5, 0.9]:
                assert sp.cauchy_c(sigma).value >= 1.0 / (math.e * sigma) - 1e-12

    def test_monotone_nonincreasing(self):
        sp = sp_of(W.gevrey(2), 2048)
        sigmas = np.linspace(1e-3, sp.sigma_bar, 60)
        vals = [sp.cauchy_c(float(s)).value for s in sigmas]
        assert np.all(np.diff(vals) <= 1e-9)

    def test_inverse_roundtrip(self):
        sp = sp_of(W.gevrey(2), 4096)
        for y in [1.5, 10.0, 1e3, 1e6]:
            s = sp.cauchy_c_inv(y)
            assert sp.cauchy_c(s).value == pytest.approx(y, rel=1e-10)

    def test_inverse_at_one_is_sigma_bar(self):
        for fam in FAMILIES:
            sp = sp_of(fam)
            assert sp.cauchy_c_inv(1.0) == sp.sigma_bar

    def test_inverse_domain_error(self):
        with pytest.raises(W.ParameterError):
            sp_of(W.gevrey(1)).cauchy_c_inv(0.5)

    def test_expsqrt_inverse_log_asymptotics(self):
        # C^-1(y) ~ 1/(4 ln y)
        sp = sp_of(W.exp_sqrt(), 1 << 16)
        prods = [sp.cauchy_c_inv(y) * 4.0 * math.log(y) for y in [1e3, 1e5, 1e8]]
        assert max(prods) < 1.05 and min(prods) > 0.9

    @given(st.floats(min_value=0.01, max_value=0.6))
    @settings(max_examples=25, deadline=None)
    def test_c_brute_force_agrees(self, sigma):
        sp = sp_of(W.gevrey(1.5), 256)
        l = np.arange(256)
        brute = np.max(np.exp(sp.ws.log_mu - sigma * l))
        assert sp.cauchy_c(sigma).value == pytest.approx(float(brute), rel=1e-12)


class TestOmega:
    def test_zero_below_one(self):
        for fam in FAMILIES:
            sp = sp_of(fam)
            assert sp.omega(0.5).value == 0.0
            assert sp.omega(1.0).value == 0.0

    def test_known_value_m1(self):
        sp = sp_of(W.gevrey(1))
        r = sp.omega(math.e)
        assert r.value == pytest.approx(2.0 - math.log(2.0), rel=1e-12)
        assert r.argmax == 2

    def test_argmax_formula_vs_brute_force(self):
        rng = np.random.default_rng(7)
        for fam in FAMILIES:
            sp = sp_of(fam, 512)
            ys = np.exp(rng.uniform(0.0, 6.0, size=100))
            for y in ys:
                assert sp.omega(float(y)).value == pytest.approx(
                    omega_brute(sp, float(y)), rel=1e-12, abs=1e-12)

    def test_strictly_increasing(self):
        sp = sp_of(W.gevrey(2), 2048)
        ys = np.logspace(0.01, 5, 40)
        vals = [sp.omega_value(float(y)) for y in ys]
        assert np.all(np.diff(vals) > 0)

    def test_horizon_error_carries_partial(self):
        sp = sp_of(W.gevrey(1), 64)
        with pytest.raises(W.HorizonError) as exc:
            sp.omega(1e6)
        assert exc.value.partial > 0

    def test_sequence_failing_h1_scans_directly(self):
        # mu dips on l = 10..19, so min{l : mu_l >= y} is not the argmax
        log_mu = 2.0 * np.log1p(np.arange(64.0))
        log_mu[10:20] -= 3.0
        sp = W.ScaleProfile(W.from_log_mu(log_mu))
        assert not sp.mu_nondecreasing
        for y in [5.0, 98.28, 400.0]:
            r = sp.omega(y)
            assert r.value == omega_brute(sp, y)
            assert not r.certified
        assert sp.omega_values([98.28])[0] == omega_brute(sp, 98.28)
        with pytest.raises(W.HorizonError):
            sp.omega(1e4)


def scan_argmaxes(terms, scale=None):
    """The argmax of an O(L) scan, first index on ties.  Given the scale of
    the terms, every index whose term lies within rounding of the max."""
    if scale is None:
        return [int(np.argmax(terms))]
    tol = 64 * np.finfo(float).eps * scale
    return [int(i) for i in np.flatnonzero(terms >= np.max(terms) - tol)]


def outcome(f, *args):
    try:
        return f(*args)
    except W.HorizonError:
        return W.HorizonError


def omega_allowed(sp, y, log_y, near_ties):
    """(value, argmax) of Omega(y) = max_{l <= L_max} l ln y - ln M_l by a
    scan with the given ln y; HorizonError (the class) for an argmax on L_max."""
    if y <= 1.0:
        return [(0.0, 0)]
    L = sp.ws.L_max
    t = np.arange(L + 1) * log_y - sp.ws.log_M
    scale = np.max(np.abs(sp.ws.log_M)) + L * log_y if near_ties else None
    return [W.HorizonError if i == L else (float(t[i]), i)
            for i in scan_argmaxes(t, scale)]


def assert_queries_equal_scans(sp, sigmas, ys, near_ties=False):
    """Hull queries against brute scans.

    Exact (value and argmax bit for bit) unless ``near_ties``: then a query
    may land on any index whose scanned term ties the max within rounding.
    """
    lm, L = sp.ws.log_mu, sp.ws.L_max
    for sigma in map(float, sigmas):
        t = lm - sigma * np.arange(L)
        scale = np.max(np.abs(lm)) + sigma * L if near_ties else None
        r = sp.cauchy_c(sigma)
        assert (r.value, r.argmax) in [(math.exp(t[i]), i) for i in scan_argmaxes(t, scale)]
    for y in map(float, ys):
        # C^-1(y) = max_{l >= 1} (ln mu_l - ln y)/l, clamped to sigma_bar
        scores = (lm[1:] - math.log(y)) / np.arange(1, L, dtype=float)
        scale = np.max(np.abs(lm)) + math.log(y) if near_ties else None
        allowed = []
        for i in scan_argmaxes(scores, scale):
            sigma = float(scores[i])
            allowed.append(sp.sigma_bar if sigma >= sp.sigma_bar else
                           W.HorizonError if sigma <= 0.0 or i == L - 2 else sigma)
        assert outcome(sp.cauchy_c_inv, y) in allowed

        r = outcome(sp.omega, y)
        if r is not W.HorizonError:
            r = (r.value, r.argmax)
            if not near_ties and y > 1.0:
                assert r[0] == omega_brute(sp, y)
        assert r in omega_allowed(sp, y, math.log(y), near_ties)
        v = outcome(sp.omega_values, [y])
        v = v if v is W.HorizonError else v[0]
        assert v in [a if a is W.HorizonError else a[0]
                     for a in omega_allowed(sp, y, np.log([y])[0], near_ties)]


class TestHull:
    """C, C^-1 and Omega answered on hulls equal the O(L) scans exactly."""

    BUILTINS = [W.analytic(), W.gevrey(2), W.gevrey_log(1.5, 2), W.exp_log(),
                W.exp_sqrt()]

    @pytest.mark.parametrize("fam", BUILTINS, ids=lambda f: f.tag)
    def test_builtin_families_equal_scans(self, fam):
        sp = sp_of(fam, 2048)
        sigmas = np.concatenate((np.geomspace(1e-5, 0.999, 150), [sp.sigma_bar]))
        ys = np.concatenate(([1.0], np.geomspace(1.0 + 1e-9, 1e12, 250)))
        assert_queries_equal_scans(sp, sigmas, ys)
        # mu nondecreasing: Omega searches log_mu itself, no copy
        assert sp._omega_slopes is sp.ws.log_mu

    def test_explog_majorant_drops_six_vertices(self):
        sp = sp_of(W.exp_log(), 2048)
        v = W._majorant(sp.ws.log_mu)
        assert len(v) == 2048 - 6 and v[0] == 0 and v[-1] == 2047
        assert_queries_equal_scans(sp, np.geomspace(0.3, 0.999, 100),
                                   np.geomspace(1.0, 50.0, 100))

    def test_flat_stretch_ties_go_to_smallest_index(self):
        sp = W.ScaleProfile(W.from_log_mu([0.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0]))
        assert list(W._majorant(sp.ws.log_mu)) == [0, 2, 6]
        assert sp.cauchy_c(0.5).argmax == 0      # t = 0 on l = 0, 1, 2
        assert sp.cauchy_c(0.25).argmax == 2
        r = sp.omega(math.e)                     # ln y = ln mu_l on l = 2..6
        assert (r.value, r.argmax) == (1.5, 2)
        assert_queries_equal_scans(sp, [0.1, 0.25, 0.5, 0.75],
                                   [1.0, 1.5, math.e, math.exp(0.5), 3.0])


INCREMENTS = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))


@given(st.lists(INCREMENTS, min_size=2, max_size=199),
       st.lists(st.floats(1e-6, 0.999), min_size=1, max_size=6),
       st.lists(st.one_of(st.just(1.0), st.floats(1.0, 1e6)), min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_hull_queries_equal_scans(increments, sigmas, ys):
    # e.g. increments (2.0, 0.42...) with sigma = 0.42...: the terms at l = 1
    # and 2 tie within one rounding, and hull and scan may pick either
    log_mu = np.concatenate(([0.0], np.cumsum(increments)))
    assert_queries_equal_scans(W.ScaleProfile(W.from_log_mu(log_mu)), sigmas, ys,
                               near_ties=True)


class TestAsymptotics:
    @pytest.mark.parametrize("alpha,L", [(1, 4_000_000), (1.5, 200_000), (2, 8192)])
    def test_gevrey_slopes(self, alpha, L):
        sp = W.ScaleProfile(W.build_sequence(W.gevrey(alpha), L))
        ys = np.logspace(2, 6, 17)
        lom = np.log([sp.omega_value(float(y)) for y in ys])
        lci = np.log([sp.cauchy_c_inv(float(y)) for y in ys])
        lo = np.log(ys)
        # top-decade chord of the window: the asymptotic regime estimator
        s_om = (lom[-1] - lom[-5]) / (lo[-1] - lo[-5])
        s_ci = (lci[-1] - lci[-5]) / (lo[-1] - lo[-5])
        assert abs(s_om * alpha - 1.0) < 0.03
        assert abs(-s_ci * alpha - 1.0) < 0.03

    def test_matching_gevrey(self):
        sp = W.ScaleProfile(W.build_sequence(W.gevrey(1.5), 700_000))
        rep = sp.matching_report(np.logspace(4, 8, 9))
        assert 0.9 <= rep["min"] and rep["max"] <= 1.1

    def test_not_matching_expsqrt(self):
        sp = W.ScaleProfile(W.build_sequence(W.exp_sqrt(), 1 << 16))
        rep = sp.matching_report(np.logspace(3, 7, 9))
        # C^-1 ~ 1/ln y while 1/Omega decays polynomially: ratio drifts from 1
        assert rep["min"] < 0.75

    def test_not_matching_explog(self):
        sp = W.ScaleProfile(W.build_sequence(W.exp_log(), 1 << 15))
        rep = sp.matching_report(np.logspace(3, 6, 7))
        assert not (0.9 <= rep["min"] and rep["max"] <= 1.1)


@given(st.lists(st.floats(min_value=0.1, max_value=3.0), min_size=3, max_size=30))
@settings(max_examples=40, deadline=None)
def test_custom_sequences_roundtrip(log_mu_tail):
    log_mu = np.concatenate(([0.0], np.array(log_mu_tail)))
    ws = W.from_log_mu(log_mu)
    assert np.isclose(ws.log_M[-1], np.sum(log_mu))
    l = np.arange(len(log_mu))
    assert np.allclose(np.exp(ws.log_mu), (l + 1) * np.exp(ws.log_nu), rtol=1e-12)
