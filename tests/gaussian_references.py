"""Print the Gaussian simplex probabilities pinned in ``test_cli.py``.

    python tests/gaussian_references.py

For n = d + 2 points the probability is twice the angle sum of the regular
simplex,

    p_d = 4 * n^(3/2) / sqrt(2*pi) * integral_0^inf Re[(1/2 + i*h(u))^(n-1)] * exp(-n*u^2/2) du,

with h(u) = erfi(u/sqrt(2))/2.  For d >= 16 the integrand is about 1e-5
while p_d is 1e-12 or less (about 1e-36 at d = 38), so the integral runs in
mpmath at 90 digits and again at 120; the script stops if the two disagree
beyond 1e-40 relative.  It takes about five seconds per dimension.  Not
collected by pytest (mpmath is a test extra, and the run is slow).
"""

import mpmath

DIMENSIONS = range(4, 39)


def gaussian_probability(d: int, dps: int) -> mpmath.mpf:
    with mpmath.workdps(dps):
        n = d + 2
        half = mpmath.mpf(1) / 2
        root2 = mpmath.sqrt(2)

        def integrand(u):
            h = mpmath.erfi(u / root2) / 2
            return mpmath.re((half + 1j * h) ** (n - 1)) * mpmath.exp(-n * u * u / 2)

        # breakpoints keep the oscillation near 0 apart from the Gaussian tail
        integral = mpmath.quad(integrand, [0, 1, 2, 3, 4, 6, 8, mpmath.inf])
        return 4 * n * mpmath.sqrt(n) / mpmath.sqrt(2 * mpmath.pi) * integral


def main() -> None:
    print("GAUSSIAN_REFERENCE = {")
    for d in DIMENSIONS:
        low, high = gaussian_probability(d, 90), gaussian_probability(d, 120)
        if abs(low - high) > mpmath.mpf("1e-40") * abs(high):
            raise SystemExit(f"d = {d}: 90 and 120 digits disagree: {low} vs {high}")
        print(f"    {d}: {float(high)!r},")
    print("}")


if __name__ == "__main__":
    main()
