"""Least squares with t-based inference, and the stepwise entry and removal scans.

Every least-squares problem here is factorized once, and what follows works on
the small factor instead of the n data rows (Golub & Van Loan, Matrix
Computations, 5.3 and 6.5). One of more than BLOCK_ROWS rows is factorized as
a tall-skinny QR (Demmel, Grigori, Hoemmen & Langou, SIAM J. Sci. Comput.
34(1), 2012): block by block, each in cache, then the stack of their factors.
In the dummy baseline's cross-validation of tall data the blocks are the folds:
each training part's R is that of the other folds' stacked factors.

`fit_rows` takes the rows of [1, X, y] and keeps only R of a Householder QR,
never forming Q. The bottom-right entry of R squared is the residual sum of
squares; the thin SVD U diag(s) V' of the leading (p+1)-column triangle gives
the rank screen (a smallest/largest ratio of at most 1e-10 is rank-deficient),
the coefficients V (U'r / s) from R's last column r, and diag((X'X)^-1) as the
row sums of (V / s)^2. It accepts Q'[1, X, y] as well, for any orthonormal Q
whose span holds those columns: its R agrees with the data's up to the signs
of rows, so every fit is the same. It evaluates no p-value: `ols_fit`
validates its input and hands the rows of [1, X, y] to `_ols`, which checks the
row count, the names, the rank (through `fit_rows`) and the response's variance
(SST from y itself) and builds the `OlsFit`; `OlsFit.pvalue` is computed on
first read. `rotation` forms Z' = Q'[1, X, y] as the product Q'Z, by row
blocks above BLOCK_ROWS rows. Stepwise decides on Z', and on tall data its
reported fit and, in a pipeline round, CATREG's final fit call `_ols` on rows
of Z' instead of the data: one rotation per round, no other n-row pass.

`entry_scan` scores every candidate c to enter next to an included set S from
one QR factorization [1, S] = Q R: one matrix product residualizes all
candidates against Q, and c's coefficient is b = e_c.e_y / e_c.e_c. All
candidates share df = n - |S| - 2, so p is monotone in |t|; p-values are taken
from the largest |t| down until one exceeds the best, and among exactly equal
p (p underflowing to 0 included) the first declared candidate wins. The rank
screen is `ols_fit`'s test on [1, S, c], whose singular values are those of
the triangle [[R, Q'c], [0, |e_c|]]; one batched SVD covers all triangles.
`removal_scan` refits [1, S, y] and scans the other way, from the smallest |t|
up for the largest p, with the same tie rule; it stops at once when the first p
is at most alpha. Stepwise runs both on rows compressed with Q, only where its
cross-product decisions leave a choice open and to report an event's p-value:
rank is decided by its cross-product certificate, else by this SVD screen.

Two-sided p-values come from the Student-t distribution evaluated through a
hand-rolled regularized incomplete beta function, kept dependency-free on
purpose:

    p = I_x(df/2, 1/2),  x = df/(df+t^2),  1 - x = t^2/(df+t^2)

Both x and 1 - x are formed directly, so a p-value near 1 (tiny t, where x
rounds to 1) keeps its digits. The continued fraction follows the classical
Lentz scheme and must shrink its correction term below 1e-12 within 300
iterations, else NumericalError.

Everything here is a pure function over immutable inputs, and every p-value
the package needs is evaluated here, through `t_pvalue`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import NumericalError, ValidationError

_BETA_EPS = 1e-12
_BETA_MAX_ITER = 300
_FPMIN = 1e-300
_RANK_TOL = 1e-10
BLOCK_ROWS = 2048  # rows per factorized block; [1, X, y] at 68 columns is 1.1 MB


def _beta_cf(a: float, b: float, x: float) -> float:
    # Lentz continued fraction for the incomplete beta; see _inc_beta.
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        # even step
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        # odd step
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            return h
    raise NumericalError(
        f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})"
    )


def _stirling_tail(x: float) -> float:
    # lgamma(x) - ((x - 1/2) log x - x + log(2 pi) / 2), to about 1e-17 for x >= 100
    return 1.0 / (12.0 * x) - 1.0 / (360.0 * x**3) + 1.0 / (1260.0 * x**5)


def _inc_beta(a: float, b: float, x: float, xc: float) -> float:
    # I_x(a, b) with xc = 1 - x from the caller: the log of whichever of x and
    # xc lies near 1 is taken as log1p of the other, and the symmetric branch
    # uses xc itself, so neither side cancels
    if x == 0.0:
        return 0.0
    if xc == 0.0:
        return 1.0
    ln_x = math.log(x) if x < 0.5 else math.log1p(-xc)
    ln_xc = math.log1p(-x) if x < 0.5 else math.log(xc)
    if max(a, b) < 100.0:
        log_front = a * ln_x + b * ln_xc + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    else:
        # lgamma(big + small) - lgamma(big) from Stirling's series, which
        # avoids subtracting two nearly equal large lgamma values
        big, small = max(a, b), min(a, b)
        log_front = (
            a * ln_x + b * ln_xc + (big - 0.5) * math.log1p(small / big)
            + small * math.log(big + small) - small
            + _stirling_tail(big + small) - _stirling_tail(big) - math.lgamma(small)
        )
    front = math.exp(log_front)
    # use the expansion on the side where it converges fast, the symmetry
    # I_x(a,b) = 1 - I_{1-x}(b,a) on the other
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, xc) / b


def t_pvalue(t: float, df: float) -> float:
    """Two-sided p-value for a t statistic with df residual degrees of freedom."""
    if not math.isfinite(df) or df < 1:
        raise ValidationError(f"degrees of freedom must be >= 1, got {df}")
    if math.isnan(t):
        raise ValidationError("t statistic must not be NaN")
    if math.isinf(t):
        return 0.0
    # t = 0 gives 1 - x = 0 and an exact p of 1.0; symmetry in t holds exactly
    # because t enters only through t*t. 1 - x is formed directly: for small t
    # x rounds to 1 and 1.0 - x would keep none of its digits. (A t*t that
    # overflows gives x = 0 and p = 0 before the NaN 1 - x is read.)
    t2 = t * t
    return _inc_beta(0.5 * df, 0.5, df / (df + t2), t2 / (df + t2))


def adjusted_r2(r2: float, n: int, p: int) -> float:
    """Adjusted R^2 = 1 - (1 - R^2)(n - 1)/(n - p - 1)."""
    if n <= p + 1:
        raise ValidationError(f"adjusted R^2 needs n > p + 1 (n={n}, p={p})")
    return 1.0 - (1.0 - r2) * (n - 1) / (n - p - 1)


# shared by ols_fit and stepwise, whose diagnostics quote ols_fit's words
NONFINITE = "design and response must be finite"
RANK_DEFICIENT = "design matrix is rank-deficient (singular value ratio below 1e-10)"
FLAT_RESPONSE = "response has zero variance"
TOO_FEW_ROWS = "too few rows for inference: n={} must exceed {} fitted parameters"


def _rank_deficient(singular: np.ndarray):
    # singular values descend along the last axis; all 0s, NaN or inf fail
    return ~(singular[..., -1] > singular[..., 0] * _RANK_TOL)


def _tstat(coef: np.ndarray, se: np.ndarray) -> np.ndarray:
    # zero residual variance degenerates the statistic to 0 (coef 0) or +-inf
    out = np.where(coef == 0.0, 0.0, np.copysign(np.inf, coef))
    return np.divide(coef, se, out=out, where=se > 0.0)


def blockwise(rows, reduce):
    """reduce(rows); for more than BLOCK_ROWS rows, reduce of the stacked
    reduce of each BLOCK_ROWS-row block, top to bottom."""
    if len(rows) > BLOCK_ROWS:
        rows = np.vstack([reduce(rows[i:i + BLOCK_ROWS]) for i in range(0, len(rows), BLOCK_ROWS)])
    return reduce(rows)


def rotation(columns, response) -> np.ndarray:
    """Z' = Q'Z for Z = [1, columns, response] = QR over n rows, formed as the
    product Q'Z; above BLOCK_ROWS rows, Q_S'S for S the stack of each block's
    Q_i'Z_i. Both are left products, so an exact copy or a +-2^k multiple of a
    column stays one in Z' (see `stepwise`)."""
    Z = np.array([np.ones(len(response)), *columns, response]).T  # column-major
    return blockwise(Z, lambda rows: np.linalg.qr(rows)[0].T @ rows)


def fit_rows(rows, n: int):
    """Least squares of the last column of `rows` on the others, from R alone.

    rows is [1, X, y] over n finite rows, or Q'[1, X, y] for an orthonormal Q
    whose span holds those columns: fewer rows with the same coefficients and
    residual sum of squares. Its row count and n are at least its column
    count; R is taken by row blocks above BLOCK_ROWS rows. Returns (b, stderr,
    tstat, sse): b starts with the intercept, the others cover the columns of
    X. Raises NumericalError when [1, X] fails the rank screen.
    """
    R = blockwise(rows, partial(np.linalg.qr, mode="r"))
    k = R.shape[1] - 1
    U, s, Vt = np.linalg.svd(R[:k, :k])
    if _rank_deficient(s):
        raise NumericalError(RANK_DEFICIENT)
    b = Vt.T @ ((U.T @ R[:k, k]) / s)
    sse = float(R[k, k] ** 2)
    df = n - k
    se = np.sqrt(np.maximum(sse / df * ((Vt[:, 1:] / s[:, None]) ** 2).sum(axis=0), 0.0))
    return b, se, _tstat(b[1:], se), sse


@dataclass(frozen=True)
class OlsFit:
    """Ordinary least squares fit (with intercept) and per-coefficient inference.

    Arrays are aligned with `names` (predictors only; the intercept is kept
    separate). The p-values are computed on first read, from tstat at
    n - p - 1 degrees of freedom.
    """

    names: tuple[str, ...]
    coef: np.ndarray
    intercept: float
    stderr: np.ndarray
    tstat: np.ndarray
    r2: float
    adj_r2: float
    n: int
    p: int

    @cached_property
    def pvalue(self) -> np.ndarray:
        return np.array([t_pvalue(float(t), self.n - self.p - 1) for t in self.tstat])


def ols_fit(design, response, names=None) -> OlsFit:
    """Least squares of `response` on an intercept and the columns of `design`.

    A rank-deficient design raises NumericalError. Requires n > p + 1 so that
    at least one residual degree of freedom remains.
    """
    X0 = np.asarray(design, dtype=float)
    if X0.ndim == 1:
        X0 = X0.reshape(-1, 1)
    if X0.ndim != 2:
        raise ValidationError("design must be a 2-d array")
    y = np.asarray(response, dtype=float)
    if y.ndim != 1 or y.size != X0.shape[0]:
        raise ValidationError("response length must match the design row count")
    if not np.all(np.isfinite(X0)) or not np.all(np.isfinite(y)):
        raise ValidationError(NONFINITE)
    n, p = X0.shape
    if p < 1:
        raise ValidationError("design needs at least one column")
    rows = np.empty((n, p + 2), order="F")  # column-major, as LAPACK takes it
    rows[:, 0] = 1.0
    rows[:, 1:-1] = X0
    rows[:, -1] = y
    return _ols(rows, y, names)


def _ols(rows, y: np.ndarray, names=None) -> OlsFit:
    """`ols_fit` of the finite response y on the rows of [1, X, y], or of
    Q'[1, X, y] as `fit_rows` takes them: its checks on the row count, the
    names, the rank and y's variance, and its result. SST is taken from y."""
    n, p = y.size, rows.shape[1] - 2
    if n <= p + 1:
        raise ValidationError(TOO_FEW_ROWS.format(n, p + 1))
    if names is None:
        names = tuple(f"x{j + 1}" for j in range(p))
    else:
        names = tuple(names)
        if len(names) != p:
            raise ValidationError("names must match the number of design columns")
    b, se, tstat, sse = fit_rows(rows, n)
    sst = float(((y - y.mean()) ** 2).sum())
    # the mean of a constant response can round, leaving sst just above 0
    if sst <= 0.0 or np.ptp(y) == 0.0:
        raise ValidationError(FLAT_RESPONSE)
    r2 = min(1.0, max(0.0, 1.0 - sse / sst))
    return OlsFit(
        names=names,
        coef=b[1:],
        intercept=float(b[0]),
        stderr=se,
        tstat=tstat,
        r2=r2,
        adj_r2=adjusted_r2(r2, n, p),
        n=n,
        p=p,
    )


def entry_scan(base, candidates, response, n: int) -> tuple[int | None, float, np.ndarray]:
    """The candidate that enters next to `base` with the smallest p-value.

    base (its first column the intercept's), candidates and response are the
    rows of a least-squares problem over n rows, as in `fit_rows`: the data
    themselves or their rotation by Q'. All are finite, candidates has at least
    one column, base has full rank and n exceeds base's column count plus one.
    Returns (winner, p, deficient): the winner's index and p-value (None and
    NaN when every candidate fails the rank screen) and, per candidate, whether
    [base, candidate] fails `ols_fit`'s rank screen. The winner means nothing
    when the response has no variance; the caller screens for that.
    """
    y = np.asarray(response, dtype=float)
    C = np.array(candidates, dtype=float)
    Q, R = np.linalg.qr(base)
    k = R.shape[0]
    P = Q.T @ C
    C -= Q @ P
    ecc = np.einsum("ij,ij->j", C, C)
    triangles = np.zeros((C.shape[1], k + 1, k + 1))
    triangles[:, :k, :k] = R
    triangles[:, :k, k] = P.T
    triangles[:, k, k] = np.sqrt(ecc)
    deficient = _rank_deficient(np.linalg.svd(triangles, compute_uv=False))
    if deficient.all():
        return None, math.nan, deficient

    scored = np.flatnonzero(~deficient)
    C, ecc = C[:, scored], ecc[scored]
    e_y = y - Q @ (Q.T @ y)
    b = (e_y @ C) / ecc
    C *= -b
    C += e_y[:, None]  # each candidate's residual e_y - b e_c
    df = n - k - 1
    t = _tstat(b, np.sqrt(np.maximum(np.einsum("ij,ij->j", C, C) / df / ecc, 0.0)))
    best, best_p = None, math.inf
    for j in np.argsort(-np.abs(t), kind="stable"):
        p = t_pvalue(float(t[j]), df)
        if p > best_p:
            break
        if p < best_p or scored[j] < best:
            best, best_p = int(scored[j]), p
    return best, best_p, deficient


def removal_scan(rows, n: int, rank, alpha: float) -> tuple[int | None, float]:
    """(index, p) of the column of X with the largest p-value, or (None, p) when
    that p is at most alpha. rows and n are as in `fit_rows`, whose
    NumericalError this raises; rank gives each column of X its declared place,
    and the smallest rank wins among equal p."""
    t = fit_rows(rows, n)[2]
    worst, worst_p = None, -math.inf
    for j in np.argsort(np.abs(t), kind="stable"):
        p = t_pvalue(float(t[j]), n - t.size - 1)
        if p < worst_p:
            break
        if worst is None and p <= alpha:
            return None, p
        if p > worst_p or rank[j] < rank[worst]:
            worst, worst_p = int(j), p
    return worst, worst_p
