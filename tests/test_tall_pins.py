"""Pins of tall fits: `catreg_fit` and `run_pipeline` on the planted and mixed
datasets at n = 2,500 and 5,000, above `stats.BLOCK_ROWS`.

The values were recorded from the implementation whose ALS sweeps ran on
n-length columns at every n. Counts, flags and selections are pinned exactly;
coefficients, intercepts, R^2 and quantifications within 1e-10 relative.
"""

import pytest

from catreg import catreg_fit, run_pipeline
from catreg.stats import BLOCK_ROWS
from helpers import LETTERS, mixed_dataset, planted_pipeline_dataset

SEED = 7
CASES = [(maker, n) for maker in (planted_pipeline_dataset, mixed_dataset) for n in (2500, 5000)]
REL = 1e-10

FIT_PINS = {
    ("planted_pipeline_dataset", 2500): dict(
        iterations=3, converged=True, degenerate=(),
        coef=(0.4864507371911866, 0.5572498556810691, 0.009337330209637253, 0.6487948281092873,
              -0.0019603126986615024),
        r2_trace=(0.9254909585617154, 0.9270478512806894, 0.9270487082539264),
        quantifications={
            "ord1": (-1.3749307434777656, -0.4820295709650247, 0.4194444816943237,
                     1.2891375819933464),
            "nom1": (-0.18522805458409336, 1.2957015189058292, -1.1606455292421662),
            "ord2": (-1.1771235896555747, -0.09960469972728797, 1.2589083152353693),
        },
    ),
    ("planted_pipeline_dataset", 5000): dict(
        iterations=3, converged=True, degenerate=(),
        coef=(0.4836661512770247, 0.5551468636009912, 0.003068285872227794, 0.641051276436247,
              0.001146576146935389),
        r2_trace=(0.9256433313627443, 0.9263012803947295, 0.9263013849851245),
        quantifications={
            "ord1": (-1.3558118470046256, -0.4630995494306674, 0.4081639472967551,
                     1.3402335329207884),
            "nom1": (-0.15265334230033442, 1.311354022278654, -1.1283493981172676),
            "ord2": (-1.468524993510719, 0.6809553834077806, 0.6809553834077806),
        },
    ),
    ("mixed_dataset", 2500): dict(
        iterations=3, converged=True, degenerate=(),
        coef=(0.5318811019890008, 0.5380995591143087, 0.5723622113694773, 0.0065487519193704975),
        r2_trace=(0.8891423840959867, 0.8899601496257994, 0.8899602028197928),
        quantifications={
            "ord1": (-1.3866127290953278, -0.4970501081912523, 0.49202884098054467,
                     1.249661106783537),
            "nom1": (-0.21286844962406687, 1.3069091047902128, -1.14205272941695),
        },
    ),
    ("mixed_dataset", 5000): dict(
        iterations=3, converged=True, degenerate=(),
        coef=(0.5112207092322891, 0.5320993653001185, 0.5661267753107923, -0.002884569326247618),
        r2_trace=(0.8939915050148539, 0.8949120435122957, 0.8949120505518056),
        quantifications={
            "ord1": (-1.3807444869543395, -0.48272959198052495, 0.5319757787278643,
                     1.2668822437187104),
            "nom1": (-0.1615564478452172, 1.3149716985305628, -1.1229852865217465),
        },
    ),
}

PIPELINE_PINS = {
    ("planted_pipeline_dataset", 2500): dict(
        selected=(("num1", "nom1", "ord1"), ("num1", "nom1", "ord1")),
        converged=True,
        catreg_r2=(0.9270487082544124, 0.9269592449498585),
        coef=(1.1813588701154483, 1.0243414563930975, 0.8942965780607285),
        intercept=1.4203832213710017,
        quantifications={
            "nom1": (-0.18473882480917922, 1.2954985572333553, -1.1609697856951418),
            "ord1": (-1.3747094362844254, -0.4819399632190541, 0.41857387907351573,
                     1.289624643700276),
        },
    ),
    ("planted_pipeline_dataset", 5000): dict(
        selected=(("nom1", "ord1", "num1"), ("nom1", "ord1", "num1")),
        converged=True,
        catreg_r2=(0.9263013849879077, 0.9262906105168875),
        coef=(1.0275833610128586, 0.895316097800671, 1.2043970943685764),
        intercept=1.3635430277819023,
        quantifications={
            "nom1": (-0.15262953713021776, 1.3113442813807759, -1.1283636743477485),
            "ord1": (-1.3560676383867356, -0.4629162622159049, 0.40851447483530523,
                     1.3399570569552355),
        },
    ),
    ("mixed_dataset", 2500): dict(
        selected=(("num1", "nom1", "ord1"), ("num1", "nom1", "ord1")),
        converged=True,
        catreg_r2=(0.8899602028198127, 0.8899173481653764),
        coef=(0.902329554732114, 0.8140653491639421, 0.8044347264272554),
        intercept=1.2445695299169353,
        quantifications={
            "nom1": (-0.21302371592459596, 1.3069706182196699, -1.1419467666168683),
            "ord1": (-1.3865628690788363, -0.49696360074623186, 0.4916432635717114,
                     1.24987522198046),
        },
    ),
    ("mixed_dataset", 5000): dict(
        selected=(("ord1", "nom1", "num1"), ("ord1", "nom1", "num1")),
        converged=True,
        catreg_r2=(0.8949120505518743, 0.8949037434353267),
        coef=(0.7916372080280607, 0.8240376736631542, 0.8902660603188107),
        intercept=1.2118626814894387,
        quantifications={
            "ord1": (-1.3806469179851075, -0.48288933149524704, 0.5320365562601264,
                     1.266895573651992),
            "nom1": (-0.16176401670964086, 1.3150554367836615, -1.1228596355395843),
        },
    ),
}


def _assert_quantifications(got: dict, want: dict) -> None:
    assert list(got) == list(want)
    for name, values in want.items():
        assert tuple(got[name]) == tuple(LETTERS[:len(values)])
        assert tuple(got[name].values()) == pytest.approx(values, rel=REL)


@pytest.mark.parametrize("maker, n", CASES, ids=lambda x: getattr(x, "__name__", x))
def test_tall_catreg_fit(maker, n):
    assert n > BLOCK_ROWS
    want = FIT_PINS[(maker.__name__, n)]
    fit = catreg_fit(maker(SEED, n))
    assert (fit.iterations, fit.converged, fit.degenerate) == (
        want["iterations"], want["converged"], want["degenerate"])
    assert tuple(fit.coef.values()) == pytest.approx(want["coef"], rel=REL)
    assert fit.r2_trace == pytest.approx(want["r2_trace"], rel=REL)
    _assert_quantifications(fit.quantifications.categorical, want["quantifications"])


@pytest.mark.parametrize("maker, n", CASES, ids=lambda x: getattr(x, "__name__", x))
def test_tall_pipeline(maker, n):
    want = PIPELINE_PINS[(maker.__name__, n)]
    result = run_pipeline(maker(SEED, n))
    assert tuple(r.selected for r in result.rounds) == want["selected"]
    assert result.converged == want["converged"]
    assert tuple(r.catreg_r2 for r in result.rounds) == pytest.approx(want["catreg_r2"], rel=REL)
    model = result.model
    assert tuple(model.coefficients) == want["selected"][-1]
    assert tuple(model.coefficients.values()) == pytest.approx(want["coef"], rel=REL)
    assert model.intercept == pytest.approx(want["intercept"], rel=REL)
    _assert_quantifications(model.quantifications, want["quantifications"])
