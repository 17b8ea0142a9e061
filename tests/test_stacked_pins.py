"""The divergence rows' reports at their default trials, pinned exactly.

These rows evaluate every trial's pairs in stacked calls.  Each row is one
property's report from ``run_suite(PropertyConfig(seed=42), [property_id])``,
recorded when every pair was still its own call: the number of margins, the
number of violations and the worst margin, all compared with ``==``.
``extension-independence`` reads the Tsallis closed form; its pin was
recorded again when that form moved to the ``expm1`` evaluation, and per-pair
evaluation of the row (every stacked call made to fail) gives the same bits.
"""

import pytest

from qfdiv.propsuite import PropertyConfig, run_suite

PINS = [
    ("dpi", 1000, 0, 0.0021279153274845215),
    ("nonnegativity", 500, 0, 0.0012803272328886194),
    ("homogeneity", 180, 0, -1.0436096431476471e-14),
    ("orthogonal-additivity", 45, 0, -1.7053025658242404e-13),
    ("extension-independence", 350, 0, -6.658562590189376e-14),
]


@pytest.mark.parametrize("property_id, trials, violations, worst_margin", PINS)
def test_report_is_pinned(property_id, trials, violations, worst_margin):
    (report,) = run_suite(PropertyConfig(seed=42), [property_id])
    assert report.trials == trials
    assert report.violations == violations
    assert report.worst_margin == worst_margin
