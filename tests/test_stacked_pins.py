"""Every row's report at its default trials, pinned exactly, at master seeds 42 and 0.

The rows serve each round's requests in stacked calls: the draws, channels
and channel applications of one shape, the closed forms of one
``(dims, cond)`` whatever their alpha, and the divergence pairs of one
dimension whatever their f.  Each row is one property's report from
``run_suite(PropertyConfig(seed=master), [property_id])``: the number of
margins, the number of violations and the worst margin, all compared with
``==``.  The seed-42 divergence rows (``dpi`` to ``orthogonal-additivity``
and ``extension-independence``) were recorded when every pair was still its
own call; ``extension-independence`` reads the Tsallis closed form, and its
pin was recorded again when that form moved to the ``expm1`` evaluation.
Every other row was recorded when the closed forms were stacked per
``(dims, alpha, cond)`` and the pairs per ``(f, d)``, so a stack that mixes
alphas or fs must give each request the bits of its own call.  Together the
rows are the suite's JSON report apart from ``elapsed_ms``.
"""

import pytest

from qfdiv.propsuite import REGISTRY, PropertyConfig, run_suite

PINS = {
    42: [
        ("dpi", 1000, 0, 0.0021279153274845215),
        ("nonnegativity", 500, 0, 0.0012803272328886194),
        ("homogeneity", 180, 0, -1.0436096431476471e-14),
        ("orthogonal-additivity", 45, 0, -1.7053025658242404e-13),
        ("thm2-bounds", 400, 0, 0.0016781325778230105),
        ("chain-rule", 300, 0, 0.023155605202465734),
        ("mixture-exact", 12, 0, -5.852263118555356e-14),
        ("mixture-lower", 40, 0, -2.7755575615628914e-16),
        ("pure-bounds", 200, 0, -5.551115123125784e-16),
        ("product-identity", 50, 0, -3.885780586188052e-15),
        ("extension-independence", 350, 0, -6.658562590189376e-14),
        ("thm3-data-processing", 100, 0, 0.03081954156204801),
        ("conditioning-reduces", 100, 0, 0.09492292353505812),
        ("alpha-continuity", 100, 0, -7.34548101556376e-05),
        ("closed-form-vs-optimizer", 100, 0, -7.791269296397729e-10),
    ],
    0: [
        ("dpi", 1000, 0, 0.007155604915773418),
        ("nonnegativity", 500, 0, 0.10388262976970913),
        ("homogeneity", 180, 0, -1.3322676295501878e-14),
        ("orthogonal-additivity", 45, 0, -1.1368683772161603e-13),
        ("thm2-bounds", 400, 0, 0.0029565891939824507),
        ("chain-rule", 300, 0, 0.022550052340032045),
        ("mixture-exact", 12, 0, -2.7840577065951777e-13),
        ("mixture-lower", 40, 0, -4.3021142204224816e-16),
        ("pure-bounds", 200, 0, -6.661338147750935e-16),
        ("product-identity", 50, 0, -7.271960811294761e-15),
        ("extension-independence", 350, 0, -2.0394796962364126e-13),
        ("thm3-data-processing", 100, 0, 0.022673524340350543),
        ("conditioning-reduces", 100, 0, 0.1622056305299564),
        ("alpha-continuity", 100, 0, -6.81687956444188e-05),
        ("closed-form-vs-optimizer", 100, 0, -1.8556464876848255e-07),
    ],
}


def check(master, property_id, trials, violations, worst_margin):
    (report,) = run_suite(PropertyConfig(seed=master), [property_id])
    assert report.trials == trials
    assert report.violations == violations
    assert report.worst_margin == worst_margin


@pytest.mark.parametrize("master", sorted(PINS))
def test_every_property_is_pinned(master):
    assert [row[0] for row in PINS[master]] == list(REGISTRY)


@pytest.mark.parametrize("property_id, trials, violations, worst_margin", PINS[42])
def test_report_is_pinned(property_id, trials, violations, worst_margin):
    check(42, property_id, trials, violations, worst_margin)


@pytest.mark.parametrize("property_id, trials, violations, worst_margin", PINS[0])
def test_seed_0_report_is_pinned(property_id, trials, violations, worst_margin):
    check(0, property_id, trials, violations, worst_margin)
