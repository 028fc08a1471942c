"""Least squares and the t-distribution machinery, cross-checked against scipy."""

import math
import operator
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from catreg import (
    NumericalError,
    ValidationError,
    adjusted_r2,
    ols_fit,
    t_pvalue,
)
from catreg.stats import _GRAM_TOL, BLOCK_ROWS, RANK_DEFICIENT, _inc_beta, fit_rows, gram_solve
from helpers import assert_raises_exactly, count_pvalues, oracle_ols_fit


class TestRegIncBeta:
    # I_x(a, b), as t_pvalue calls it: with 1 - x formed by the caller
    def test_bounds(self):
        assert _inc_beta(2.0, 3.0, 0.0, 1.0) == 0.0
        assert _inc_beta(2.0, 3.0, 1.0, 0.0) == 1.0

    def test_against_scipy_grid(self):
        # independent oracle: scipy's betainc over a broad grid
        for a in (0.5, 1.0, 2.5, 5.0, 40.0, 250.0):
            for b in (0.5, 1.0, 3.5, 12.0, 100.0):
                for x in np.linspace(0.001, 0.999, 23):
                    ours = _inc_beta(a, b, float(x), 1.0 - float(x))
                    oracle = float(scipy.special.betainc(a, b, x))
                    assert abs(ours - oracle) < 1e-10, (a, b, x)

    def test_symmetry_identity(self):
        # I_x(a,b) = 1 - I_{1-x}(b,a) to 1e-12 across a grid
        for a in (0.5, 1.5, 7.0, 33.0):
            for b in (0.5, 2.0, 11.0):
                for x in np.linspace(0.01, 0.99, 33):
                    lhs = _inc_beta(a, b, float(x), 1.0 - float(x))
                    rhs = 1.0 - _inc_beta(b, a, float(1.0 - x), 1.0 - float(1.0 - x))
                    assert abs(lhs - rhs) < 1e-12


class TestTPvalue:
    def test_reference_values(self):
        # classic two-sided 5% points
        assert t_pvalue(2.228, 10) == pytest.approx(0.05, abs=5e-4)
        assert t_pvalue(1.962, 1000) == pytest.approx(0.05, abs=5e-4)

    def test_zero_statistic_is_exactly_one(self):
        for df in (1, 2, 5, 30, 193):
            assert t_pvalue(0.0, df) == 1.0

    def test_symmetry_exact(self):
        for df in (1, 4, 17, 120):
            for t in np.linspace(-6.0, 6.0, 41):
                assert t_pvalue(float(t), df) == t_pvalue(float(-t), df)

    def test_against_scipy(self):
        for df in (1, 2, 7, 29, 180, 1500):
            for t in (-4.2, -1.3, -0.1, 0.4, 2.6, 8.0):
                oracle = 2.0 * float(scipy.stats.t.sf(abs(t), df))
                assert t_pvalue(t, df) == pytest.approx(oracle, abs=1e-12)
        # at large df the beta function's log is taken from Stirling's series
        for df in (2e4, 2e5, 1e6):
            for t in (-4.2, -1.3, -0.1, 0.4, 1.0, 2.6, 3.0, 8.0):
                oracle = 2.0 * float(scipy.stats.t.sf(abs(t), df))
                assert t_pvalue(t, df) == pytest.approx(oracle, rel=5e-11), (df, t)

    def test_near_one_against_scipy(self):
        # a small t makes df/(df+t^2) round to 1; p must keep its digits below 1
        for df in (30, 2e4, 1e7):
            for t in (1e-8, 1e-7, 1e-6, 1.33e-6, 1e-5, 1e-4):
                oracle = 2.0 * float(scipy.stats.t.sf(t, df))
                assert t_pvalue(t, df) == pytest.approx(oracle, rel=1e-12), (df, t)
                assert t_pvalue(t, df) < 1.0

    def test_df_validated(self):
        with pytest.raises(ValidationError):
            t_pvalue(1.0, 0)

    @given(
        st.floats(-50, 50, allow_nan=False),
        st.integers(min_value=1, max_value=500),
    )
    @settings(max_examples=200, deadline=None)
    def test_pvalue_in_unit_interval(self, t, df):
        p = t_pvalue(t, df)
        assert 0.0 <= p <= 1.0

    def test_monotone_decreasing_in_abs_t(self):
        for df in (1, 6, 60):
            grid = [t_pvalue(t, df) for t in np.linspace(0.0, 9.0, 60)]
            assert all(a >= b for a, b in zip(grid, grid[1:]))


class TestAdjustedR2:
    def test_metadata_sized_fit(self):
        # n=194, p=9: R^2 0.548 -> 0.526; 0.546 -> 0.5238 (displays as 0.523)
        assert adjusted_r2(0.548, 194, 9) == pytest.approx(0.526, abs=1e-3)
        assert adjusted_r2(0.546, 194, 9) == pytest.approx(0.5238, abs=1e-3)

    def test_requires_spare_df(self):
        with pytest.raises(ValidationError):
            adjusted_r2(0.5, 10, 9)


class TestOlsFit:
    def test_exact_line(self):
        # y = x exactly: slope 1, intercept 0, R^2 = 1
        fit = ols_fit(np.array([[1.0], [2.0], [3.0]]), np.array([1.0, 2.0, 3.0]))
        assert fit.coef[0] == pytest.approx(1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        # slope of an exact line is overwhelmingly significant
        assert fit.pvalue[0] < 1e-10

    def test_against_scipy_linregress(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=60)
        y = 2.5 * x + 1.0 + rng.normal(scale=0.7, size=60)
        fit = ols_fit(x.reshape(-1, 1), y)
        oracle = scipy.stats.linregress(x, y)
        assert fit.coef[0] == pytest.approx(oracle.slope, abs=1e-10)
        assert fit.intercept == pytest.approx(oracle.intercept, abs=1e-10)
        assert fit.pvalue[0] == pytest.approx(oracle.pvalue, abs=1e-10)
        assert fit.stderr[0] == pytest.approx(oracle.stderr, abs=1e-10)
        assert fit.r2 == pytest.approx(oracle.rvalue**2, abs=1e-10)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(2)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n, p = int(rng.integers(10, 80)), int(rng.integers(1, 6))
            X = rng.normal(size=(n, p))
            y = rng.normal(size=n)
            fit = ols_fit(X, y)
            resid = y - fit.intercept - X @ fit.coef
            # orthogonal to every column and to the intercept
            assert abs(float(resid.sum())) < 1e-8
            for j in range(p):
                assert abs(float(resid @ X[:, j])) < 1e-8

    def test_refit_on_fitted_values_gives_r2_one(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        fit = ols_fit(X, y)
        refit = ols_fit(X, fit.intercept + X @ fit.coef)
        assert refit.r2 == pytest.approx(1.0, abs=1e-10)

    def test_pvalues_are_computed_on_first_read(self, monkeypatch):
        calls = count_pvalues(monkeypatch)
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, 3))
        y = X @ np.array([1.0, 0.0, -0.5]) + rng.normal(size=40)
        fit = ols_fit(X, y)
        assert calls == []
        assert fit.pvalue.tolist() == [t_pvalue(float(t), 40 - 3 - 1) for t in fit.tstat]
        assert calls == [(float(t), 36) for t in fit.tstat]
        fit.pvalue  # read again: kept from the first read
        assert len(calls) == 3

    def test_rank_deficiency_raises_numerical(self):
        x = np.arange(10.0)
        X = np.column_stack([x, 2.0 * x])  # exactly collinear
        with pytest.raises(NumericalError, match="rank"):
            ols_fit(X, x)

    def test_too_few_rows_rejected(self):
        X = np.eye(3)
        with pytest.raises(ValidationError, match="too few rows"):
            ols_fit(X, np.array([1.0, 2.0, 3.0]))

    def test_constant_response_rejected_even_when_its_mean_rounds(self):
        # the mean of fourteen 1.7s is not exactly 1.7, so the sum of squared
        # deviations is a little above 0 while the response has no variance
        y = np.full(14, 1.7)
        assert float(((y - y.mean()) ** 2).sum()) > 0.0
        with pytest.raises(ValidationError, match="zero variance"):
            ols_fit(np.arange(14.0), y)

    @given(
        st.integers(min_value=3, max_value=400),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_single_svd_matches_qr_oracle(self, n, p, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, p)) * rng.uniform(0.1, 10.0, size=p)
        y = X @ rng.normal(size=p) + rng.normal(size=n)
        try:
            old = oracle_ols_fit(X, y)
        except ValidationError:
            with pytest.raises(ValidationError):
                ols_fit(X, y)
            return
        new = ols_fit(X, y)
        assert new.coef == pytest.approx(old.coef, rel=1e-9, abs=1e-12)
        assert new.intercept == pytest.approx(old.intercept, rel=1e-9, abs=1e-12)
        assert new.stderr == pytest.approx(old.stderr, rel=1e-9)
        assert new.pvalue == pytest.approx(old.pvalue, rel=1e-9, abs=1e-300)
        assert new.r2 == pytest.approx(old.r2, rel=1e-9, abs=1e-12)
        assert new.adj_r2 == pytest.approx(old.adj_r2, rel=1e-9, abs=1e-12)


class TestBlockedLeastSquares:
    """Problems taller than BLOCK_ROWS rows are factorized block by block."""

    # 2049, 4097 and 4100 rows leave a last block with fewer rows than [1, X, y]
    # has columns; 6000 leaves a full-width one
    @pytest.mark.parametrize("n, p", [(2049, 5), (4097, 3), (4100, 10), (6000, 20)])
    def test_matches_the_oracle_and_lstsq(self, n, p):
        assert n > BLOCK_ROWS
        rng = np.random.default_rng(n + p)
        X = rng.normal(size=(n, p)) * rng.uniform(0.1, 10.0, size=p)
        y = X @ rng.normal(size=p) + rng.normal(size=n)
        A = np.column_stack([np.ones(n), X])
        b, sse, _, _ = np.linalg.lstsq(A, y, rcond=None)
        new, old = ols_fit(X, y), oracle_ols_fit(X, y)
        for want in (old.coef, b[1:]):
            assert new.coef == pytest.approx(want, rel=1e-10)
        for want in (old.intercept, b[0]):
            assert new.intercept == pytest.approx(want, rel=1e-10)
        assert new.stderr == pytest.approx(old.stderr, rel=1e-10)
        assert new.r2 == pytest.approx(old.r2, rel=1e-10)
        assert fit_rows(np.column_stack([A, y]), n)[3] == pytest.approx(sse[0], rel=1e-10)

    @pytest.mark.parametrize("n", [2049, 4097, 6000])
    @pytest.mark.parametrize("scale", [1.0, 3.0])
    def test_a_copy_or_a_multiple_of_a_column_is_rank_deficient(self, n, scale):
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, 4))
        X[:, 2] = scale * X[:, 0]
        with pytest.raises(NumericalError) as exc:
            ols_fit(X, rng.normal(size=n))
        assert str(exc.value) == RANK_DEFICIENT


def _exact_gram(columns) -> list:
    """The Gram matrix of float columns in exact arithmetic, as Fractions: each
    column is scaled by a power of two to integers."""
    ints, powers = [], []
    for col in columns:
        ratios = [v.as_integer_ratio() for v in col.tolist()]  # denominators are powers of 2
        power = max(den for _, den in ratios).bit_length() - 1
        ints.append([num << (power - den.bit_length() + 1) for num, den in ratios])
        powers.append(power)
    return [[Fraction(sum(map(operator.mul, a, b)), 1 << (pa + pb)) for b, pb in zip(ints, powers)]
            for a, pa in zip(ints, powers)]


def _exact_inverse(A: list) -> list:
    # Gauss-Jordan elimination over Fractions, on a nonsingular matrix
    k = len(A)
    M = [row[:] + [Fraction(i == j) for j in range(k)] for i, row in enumerate(A)]
    for c in range(k):
        pivot = next(r for r in range(c, k) if M[r][c] != 0)
        M[c], M[pivot] = M[pivot], M[c]
        M[c] = [v / M[c][c] for v in M[c]]
        for r in range(k):
            if r != c and M[r][c] != 0:
                M[r] = [a - M[r][c] * b for a, b in zip(M[r], M[c])]
    return [row[k:] for row in M]


def _bound(S, eps: float) -> float:
    """B of the `stats` docstring, recomputed from S in floats; inf where the
    unit-diagonal A is singular or leaves no positive residual."""
    k = len(S) - 1
    d = np.sqrt(S.diagonal())
    unit = S / np.outer(d, d)
    try:
        Ainv = np.linalg.inv(unit[:k, :k])
    except np.linalg.LinAlgError:
        return math.inf
    beta = Ainv @ unit[:k, k]
    rho = 1.0 - float(unit[:k, k] @ beta)
    q = float(np.linalg.norm(Ainv, 2))
    return k * eps * q * (1.0 + float(np.linalg.norm(beta))) ** 2 / rho if rho > 0.0 else math.inf


@st.composite
def gram_problems(draw):
    """Standardized columns [1, X, z] of 50 to 3,000 rows: 1 to 7 columns of X,
    at times a near-collinear pair, each raw column's mean up to 10^3 times its
    spread; and a position and a non-finite value to put into S."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, p = draw(st.integers(50, 3000)), draw(st.integers(1, 7))
    X = rng.normal(size=(n, p))
    if p > 1 and draw(st.booleans()):
        j = draw(st.integers(0, p - 2))
        X[:, j + 1] = X[:, j] + 10.0 ** draw(st.floats(-8.0, 0.0)) * rng.normal(size=n)
    z = X @ rng.normal(size=p) + 10.0 ** draw(st.floats(-3.0, 1.0)) * rng.normal(size=n)
    spread = 10.0 ** rng.uniform(-3.0, 3.0, p + 1)
    mean = spread * 10.0 ** rng.uniform(-1.0, 3.0, p + 1) * rng.choice([-1.0, 1.0], p + 1)
    raw = mean + spread * np.column_stack([X, z])
    std = (raw - raw.mean(axis=0)) / raw.std(axis=0)
    i, j = sorted(draw(st.integers(0, p + 1)) for _ in range(2))
    bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return np.column_stack([np.ones(n), std]), (i, j, bad)


class TestGramSolve:
    """`gram_solve` against the exact least squares of the standardized columns."""

    @given(gram_problems())
    @settings(max_examples=150, deadline=None)
    def test_within_its_bound_of_the_exact_fit_or_refused(self, problem):
        Z, (i, j, bad) = problem
        n, k = Z.shape[0], Z.shape[1] - 1
        S, exact = Z.T @ Z, _exact_gram(Z.T)
        u = np.finfo(float).eps / 2
        eps = n * u / (1.0 - n * u)  # the rounding of an n-term inner product
        for a in range(k + 1):  # the precondition: S within eps of exact, entry by entry
            for b in range(k + 1):
                diff = Fraction(float(S[a, b])) - exact[a][b]
                assert diff * diff <= Fraction(eps) ** 2 * exact[a][a] * exact[b][b]
        B, solved = _bound(S, eps), gram_solve(S, eps, n)
        if B > 4 * _GRAM_TOL:
            assert solved is None
        elif B < _GRAM_TOL / 4:
            assert solved is not None
        S_bad = S.copy()
        S_bad[i, j] = S_bad[j, i] = bad
        assert gram_solve(S_bad, eps, n) is None
        if solved is None:
            return
        b, se, _, sse = solved
        Ainv = _exact_inverse([row[:k] for row in exact[:k]])
        coef = [sum(a * c for a, c in zip(row, (r[k] for r in exact))) for row in Ainv]
        rss = exact[k][k] - sum(c * r[k] for c, r in zip(coef, exact))
        B = Fraction(B)
        for a in range(k):  # in the unit-diagonal scale, b_a sqrt(S_aa / S_kk)
            diff = Fraction(float(b[a])) - coef[a]
            assert diff * diff * exact[a][a] <= B * B * exact[k][k]
        for a in range(1, k):
            want = rss / (n - k) * Ainv[a][a]  # the squared standard error
            assert (1 - B) ** 2 * want <= Fraction(float(se[a - 1])) ** 2 <= (1 + B) ** 2 * want
        assert abs(Fraction(float(sse)) - rss) <= B * rss


# each validation raise that no other test reaches, with its full message
STATS_VALIDATION_CASES = {
    "NaN t": (
        lambda: t_pvalue(math.nan, 5.0),
        "t statistic must not be NaN",
    ),
    "3-d design": (
        lambda: ols_fit(np.ones((4, 1, 1)), np.arange(4.0)),
        "design must be a 2-d array",
    ),
    "short response": (
        lambda: ols_fit(np.arange(4.0), np.arange(3.0)),
        "response length must match the design row count",
    ),
    "non-finite design": (
        lambda: ols_fit([1.0, 2.0, math.inf, 4.0], np.arange(4.0)),
        "design and response must be finite",
    ),
    "no design columns": (
        lambda: ols_fit(np.ones((4, 0)), np.arange(4.0)),
        "design needs at least one column",
    ),
    "names of the wrong length": (
        lambda: ols_fit(np.arange(10.0).reshape(5, 2) ** 2, np.arange(5.0), names=["a"]),
        "names must match the number of design columns",
    ),
}


@pytest.mark.parametrize("case", list(STATS_VALIDATION_CASES))
def test_validation_raises(case):
    call, message = STATS_VALIDATION_CASES[case]
    assert_raises_exactly(call, ValidationError, message)
