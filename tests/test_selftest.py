from fractions import Fraction

import pytest

from oscoal import wigner3d
from oscoal.cli import EXIT_INVARIANT, main
from oscoal.selftest import (REFERENCE_COEFFICIENTS, _CHECKS, _check_closed_form_audit,
                             _check_low_order_coefficients)


def test_at_least_ten_invariant_groups():
    assert len(_CHECKS) >= 10


def _shift_first_reference(monkeypatch):
    key, (real, imag) = next(iter(REFERENCE_COEFFICIENTS.items()))
    monkeypatch.setitem(REFERENCE_COEFFICIENTS, key, (real + Fraction(1, 1000), imag))


def test_fault_injection_fails_the_table_group(monkeypatch):
    assert _check_low_order_coefficients().passed
    _shift_first_reference(monkeypatch)
    assert not _check_low_order_coefficients().passed


def test_cli_selftest_exits_2_on_a_failed_group(monkeypatch, capsys):
    _shift_first_reference(monkeypatch)
    assert main(["selftest"]) == EXIT_INVARIANT
    out = capsys.readouterr().out
    assert any(line.startswith("FAIL low-order coefficient table") for line in out.splitlines())


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
