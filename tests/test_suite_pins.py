"""The property suite's reports, pinned: a change to how the package computes
must not change what the suite finds.

Each row is one property's report from ``run_suite(PropertyConfig(seed=42,
trials=10))``: the property id, then the number of margins recorded and the
number of violations, both exact, and the worst margin, to 1e-12.  A change to
an ensemble (what a trial draws, its dims, ranks or alphas) must update these
rows and say which ones moved.
"""

import pytest

from qfdiv.propsuite import REGISTRY, PropertyConfig, run_suite

PINS = [
    ("dpi", 10, 0, 0.2750681115496785),
    ("nonnegativity", 10, 0, 0.15527925952534832),
    ("homogeneity", 40, 0, -4.218847493575595e-15),
    ("orthogonal-additivity", 10, 0, -8.881784197001252e-15),
    ("thm2-bounds", 20, 0, 0.030825380302458072),
    ("chain-rule", 10, 0, 0.04843300581132104),
    ("mixture-exact", 10, 0, -5.896672039540363e-14),
    ("mixture-lower", 10, 0, -1.1102230246251565e-16),
    ("pure-bounds", 20, 0, -3.1086244689504383e-15),
    ("product-identity", 10, 0, -3.3306690738754696e-15),
    ("extension-independence", 70, 0, -1.8318679906315083e-15),
    ("thm3-data-processing", 10, 0, 0.13421120187854363),
    ("conditioning-reduces", 10, 0, 0.0949229235350581),
    ("alpha-continuity", 20, 0, -5.3952968690818004e-05),
    ("closed-form-vs-optimizer", 10, 0, -7.79126707595168e-10),
]


@pytest.fixture(scope="module")
def reports():
    return {r.property_id: r for r in run_suite(PropertyConfig(seed=42, trials=10))}


def test_every_property_is_pinned():
    assert [row[0] for row in PINS] == list(REGISTRY)


@pytest.mark.parametrize("property_id, trials, violations, worst_margin", PINS)
def test_report_is_pinned(reports, property_id, trials, violations, worst_margin):
    report = reports[property_id]
    assert report.trials == trials
    assert report.violations == violations
    assert report.worst_margin == pytest.approx(worst_margin, abs=1e-12)
