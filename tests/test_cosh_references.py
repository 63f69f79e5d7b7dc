"""Beta and beta-prime quadrature answers against independent high-precision references."""

import json

import pytest

from sylvester.cli import main

# mpmath values of the real-line cosh-kernel integral at 80 and 110 digits, with exact
# gamma-ratio constants; printed by tests/cosh_references.py
COSH_REFERENCE = {
    ("beta", 20, 0.3): 8.248953898656257e-20,
    ("beta", 30, 3.0): 3.243221286314495e-31,
    ("beta", 3, -0.7): 0.033657317331770964,
    ("beta", 12, 4.2): 1.3182196947580036e-09,
    ("beta", 10, 100.0): 4.3910765172633453e-07,
    ("beta", 10, -0.99): 1.2277315358173018e-10,
    ("beta", 25, -0.9): 6.453187820496897e-28,
    ("betaprime", 2, 1.13): 0.48441287753259055,
    ("betaprime", 15, 7.8): 2.968856616820972e-06,
    ("betaprime", 5, 500.0): 0.004788260260431552,
    ("betaprime", 20, 10.05): 1.0443411809476414e-06,
    ("betaprime", 30, 15.2): 1.217163627047348e-11,
}


@pytest.mark.parametrize("tol", ["1e-8", "1e-10", "1e-12"])
@pytest.mark.parametrize("family, d, beta", sorted(COSH_REFERENCE))
def test_quadrature_lies_within_three_bars_of_the_reference(capsys, family, d, beta, tol):
    # an answer, or a typed non-convergence; an answer within 3x its own error bar
    # (some far-tail ones, such as beta d = 30, beta = 3, are unresolved but honest)
    code = main(["compute", "--family", family, "--dim", str(d), "--beta", repr(beta),
                 "--method", "quadrature", "--tol", tol])
    out = capsys.readouterr().out
    assert code in (0, 3)
    if code == 0:
        (record,) = [json.loads(line) for line in out.strip().splitlines()]
        assert abs(record["value"] - COSH_REFERENCE[family, d, beta]) <= 3.0 * record["abs_error"]
