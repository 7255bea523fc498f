from fractions import Fraction

import pytest

from oscoal import wigner3d
from oscoal.selftest import _CHECKS, _check_closed_form_audit, _check_low_order_coefficients


def test_at_least_ten_invariant_groups():
    assert len(_CHECKS) >= 10


def test_fault_injection_fails_the_table_group():
    assert _check_low_order_coefficients(inject_fault=False).passed
    assert not _check_low_order_coefficients(inject_fault=True).passed


def test_result_lines_have_status_and_deviation():
    res = _check_low_order_coefficients()
    line = res.line()
    assert line.startswith("PASS") and "max dev" in line and "tol" in line


@pytest.mark.parametrize("level, key", [((1, 0), (0, 0, 1)), ((0, 3), (0, 1, 1)), ((1, 1), (0, 3, 0))])
def test_audit_fails_when_a_derived_coefficient_changes(level, key, monkeypatch):
    derive = wigner3d.derive_invariant_poly

    def shifted(k, l):
        poly = dict(derive(k, l))
        if (k, l) == level:
            poly[key] += Fraction(1, 7)
        return poly

    assert _check_closed_form_audit().passed
    monkeypatch.setattr(wigner3d, "derive_invariant_poly", shifted)
    res = _check_closed_form_audit()
    assert not res.passed
    assert any("unexpected deviation" in note for note in res.notes)
