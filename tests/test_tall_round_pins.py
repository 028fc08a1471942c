"""Pins of the final fits of tall pipeline rounds: `run_pipeline` on the planted
and mixed datasets at n = 2,500 and 5,000, above `stats.BLOCK_ROWS`.

The values were recorded from the implementation whose final fits (CATREG's
joint fit and stepwise's reported fit) ran `ols_fit` on the n data rows. Per
round: the CATREG adjusted R^2 and every CATREG p-value, and every stepwise
event's p-value; for the final stepwise fit: coefficients, intercept, standard
errors, t statistics, R^2 and adjusted R^2. All within 1e-10 relative.
"""

import pytest

from catreg import pipeline, run_pipeline
from catreg.stats import BLOCK_ROWS
from helpers import mixed_dataset, planted_pipeline_dataset

SEED = 7
CASES = [(maker, n) for maker in (planted_pipeline_dataset, mixed_dataset) for n in (2500, 5000)]
REL = 1e-10

PINS = {
    ("planted_pipeline_dataset", 2500): dict(
        catreg_adj_r2=(0.9267850288866573, 0.9267834549256704),
        catreg_pvalues=((0.0, 0.0, 0.08466496275852264, 0.0, 0.7174571901396818),
                        (0.0, 0.0, 0.0)),
        event_pvalues=((1.820660523675675e-265, 0.0, 0.0), (1.820660523686866e-265, 0.0, 0.0)),
        coef=(1.1813588701154492, 1.0243414563930981, 0.8942965780607288),
        intercept=1.4203832213710013,
        stderr=(0.009861045641260363, 0.009951217927868457, 0.009942930210328847),
        tstat=(119.8005681235704, 102.9362901926228, 89.94296038925444),
        r2=0.9269592449498585, adj_r2=0.9268714555808079,
    ),
    ("planted_pipeline_dataset", 5000): dict(
        catreg_adj_r2=(0.9261832545691345, 0.9262020352441259),
        catreg_pvalues=((0.0, 0.0, 0.42464715613097515, 0.0, 0.7654567617259296),
                        (0.0, 0.0, 0.0)),
        event_pvalues=((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
        coef=(1.0275833610128582, 0.8953160978006709, 1.2043970943685762),
        intercept=1.3635430277819018,
        stderr=(0.007112008557713745, 0.007112435295873932, 0.007221302216502374),
        tstat=(144.4856755548097, 125.88038562826179, 166.78392044252706),
        r2=0.9262906105168875, adj_r2=0.9262463494743637,
    ),
    ("mixed_dataset", 2500): dict(
        catreg_adj_r2=(0.8896511022659358, 0.8896524079684218),
        catreg_pvalues=((0.0, 0.0, 0.0, 0.32425822213380684), (0.0, 0.0, 0.0)),
        event_pvalues=((6.594729739975183e-213, 1.888724769308914e-298, 0.0),
                       (6.594729739993957e-213, 1.8824114882492689e-298, 0.0)),
        coef=(0.9023295547321145, 0.814065349163942, 0.8044347264272554),
        intercept=1.2445695299169361,
        stderr=(0.010473939068325664, 0.010048829723228387, 0.010047157860850538),
        tstat=(86.14997173898573, 81.01096063775347, 80.0658989903794),
        r2=0.8899173481653764, adj_r2=0.8897850372857674,
    ),
    ("mixed_dataset", 5000): dict(
        catreg_adj_r2=(0.8947646916484013, 0.8947774511182053),
        catreg_pvalues=((0.0, 0.0, 0.0, 0.5295747337514094), (0.0, 0.0, 0.0)),
        event_pvalues=((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
        coef=(0.7916372080280601, 0.8240376736631537, 0.8902660603188102),
        intercept=1.211862681489439,
        stderr=(0.007107279882373353, 0.007102711125373218, 0.007216896641170191),
        tstat=(111.38399234725318, 116.01734311274753, 123.35857150012572),
        r2=0.8949037434353267, adj_r2=0.8948406351947955,
    ),
}


@pytest.mark.parametrize("maker, n", CASES, ids=lambda x: getattr(x, "__name__", x))
def test_tall_round_final_fits(maker, n, monkeypatch):
    assert n > BLOCK_ROWS
    want = PINS[(maker.__name__, n)]
    fits = []
    catreg_fit = pipeline.catreg_fit

    def keep(*args, **kwargs):
        fits.append(catreg_fit(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(pipeline, "catreg_fit", keep)
    result = run_pipeline(maker(SEED, n))
    rounds = result.rounds
    assert len(fits) == len(rounds) == len(want["catreg_pvalues"])
    assert tuple(r.catreg_adj_r2 for r in rounds) == pytest.approx(want["catreg_adj_r2"], rel=REL)
    for fit, pvalues in zip(fits, want["catreg_pvalues"]):
        assert tuple(fit.pvalues.values()) == pytest.approx(pvalues, rel=REL)
    for r, pvalues in zip(rounds, want["event_pvalues"]):
        assert tuple(e.pvalue for e in r.trace.events) == pytest.approx(pvalues, rel=REL)
    final = rounds[-1].trace.fit
    for key in ("coef", "stderr", "tstat"):
        assert tuple(getattr(final, key).tolist()) == pytest.approx(want[key], rel=REL)
    assert (final.intercept, final.r2, final.adj_r2) == pytest.approx(
        (want["intercept"], want["r2"], want["adj_r2"]), rel=REL)
