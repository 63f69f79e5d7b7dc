"""Print the beta and beta-prime simplex probabilities pinned in ``test_cosh_references.py``.

    python tests/cosh_references.py

Both families go through the real-line cosh-kernel integral of the
quadrature route (``sylvester.anglesums``).  For n = d + 2 points the
probability is twice an expected angle sum,

    p = 2 * 2n * integral_0^inf c_out * cosh(x)^(-e_out) * Re[(1/2 + i*I(x))^(n-1)] dx,
    I(x) = c_in * integral_0^x cosh(y)^q dy = c_in * sinh(x) * 2F1(1/2, (1-q)/2; 3/2; -sinh(x)^2),

with, for the beta family at parameter b = beta - 1/2 and alpha = 2b + n - 1,
c_out = c(alpha*n/2), e_out = alpha*n + 2, c_in = c((alpha-1)/2), q = alpha,
where c(a) = Gamma(a + 3/2) / (sqrt(pi) Gamma(a + 1)); and for the beta-prime
family at b = beta + 1/2 and alpha = 2b - n + 1, c_out = ct(alpha*n/2),
e_out = alpha*n - 1, c_in = ct((alpha+1)/2), q = alpha - 1, where
ct(a) = Gamma(a) / (sqrt(pi) Gamma(a - 1/2)).  The constants are exact
gamma ratios here, with none of the float cancellation the package avoids
by its own route.

The integral runs in mpmath over the breakpoints 0, 0.05, ..., 20, inf at
80 digits and again at 110; the script stops if the two disagree beyond
1e-30 relative.  A point takes from seconds to a few minutes; beta-prime at
d = 38 and beta = 25 runs out of memory inside hyp2f1, so the table leaves
it out.  Not collected by pytest (mpmath is a test extra, and the run is slow).
"""

import sys

import mpmath

# (family, d, beta) as the CLI takes them
POINTS = (
    ("beta", 20, 0.3), ("beta", 30, 3.0), ("beta", 3, -0.7), ("beta", 12, 4.2), ("beta", 10, 100.0),
    ("beta", 10, -0.99), ("beta", 25, -0.9),
    ("betaprime", 2, 1.13), ("betaprime", 15, 7.8), ("betaprime", 5, 500.0), ("betaprime", 20, 10.05),
    ("betaprime", 30, 15.2),
)


def _kernel(family: str, d: int, beta: float):
    """(n, c_out, e_out, c_in, q) of the angle-sum integral, in the working precision."""
    n = d + 2
    half = mpmath.mpf(1) / 2
    root_pi = mpmath.sqrt(mpmath.pi)
    if family == "beta":
        b = mpmath.mpf(beta) - half
        alpha = 2 * b + n - 1
        c = lambda a: mpmath.gamma(a + 3 * half) / (root_pi * mpmath.gamma(a + 1))
        return n, c(alpha * n / 2), alpha * n + 2, c((alpha - 1) / 2), alpha
    b = mpmath.mpf(beta) + half
    alpha = 2 * b - n + 1
    c = lambda a: mpmath.gamma(a) / (root_pi * mpmath.gamma(a - half))
    return n, c(alpha * n / 2), alpha * n - 1, c((alpha + 1) / 2), alpha - 1


def simplex_probability(family: str, d: int, beta: float, dps: int) -> mpmath.mpf:
    with mpmath.workdps(dps):
        n, c_out, e_out, c_in, q = _kernel(family, d, beta)
        half = mpmath.mpf(1) / 2

        def integrand(x):
            sinh = mpmath.sinh(x)
            inner = c_in * sinh * mpmath.hyp2f1(half, (1 - q) / 2, 3 * half, -sinh * sinh)
            return c_out * mpmath.cosh(x) ** (-e_out) * mpmath.re((half + 1j * inner) ** (n - 1))

        breakpoints = [mpmath.mpf(k) / 20 for k in range(401)] + [mpmath.inf]
        return 2 * 2 * n * mpmath.quad(integrand, breakpoints)


def main(points=POINTS) -> None:
    print("COSH_REFERENCE = {")
    for family, d, beta in points:
        low, high = simplex_probability(family, d, beta, 80), simplex_probability(family, d, beta, 110)
        if abs(low - high) > mpmath.mpf("1e-30") * abs(high):
            raise SystemExit(f"{family} d = {d}, beta = {beta}: 80 and 110 digits disagree: {low} vs {high}")
        print(f"    ({family!r}, {d}, {beta!r}): {float(high)!r},", flush=True)
    print("}")


if __name__ == "__main__":
    # optional arguments pick points by their index in POINTS
    main([POINTS[int(i)] for i in sys.argv[1:]] or POINTS)
