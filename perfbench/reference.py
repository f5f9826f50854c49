"""Independent mpmath reference for radii of starlikeness.

Each radius is the first positive zero of a defining combination of the
classical function F (Bessel J, Struve H or Lommel s_(mu-1/2,1/2)) and its
weighted derivative x F', the same equations that ``radii.roots`` documents
for ``equation_residual``.  Nothing here calls into the package: the root is
found by ``mpmath.findroot`` started inside an Euler-Rayleigh bracket of
order 5 that is computed here from exact series coefficients in 40-digit
arithmetic, so the reference cannot inherit the package's bracket or series
code, and landing inside that bracket proves it is the first zero.
"""

from __future__ import annotations

import mpmath

ORDER = 5
DPS = 40


def _coefficients(family: str, p, upto: int) -> list:
    """c_0..c_upto of the transformed derivative sum (-1)^n c_n w^n."""
    base, kind = family.split("-")
    if base == "bessel":
        a, b = mpmath.mpf(1), p + 1
    elif base == "struve":
        a, b = mpmath.mpf(3) / 2, p + mpmath.mpf(3) / 2
    else:
        a, b = (p + 2) / 2, (p + 3) / 2
    out = []
    for n in range(upto + 1):
        u = 1 / (mpmath.rf(a, n) * mpmath.rf(b, n))
        out.append((2 * n + 1) * u if kind == "circle" else (n + 1) * u)
    return out


def _bracket(family: str, p) -> tuple:
    """Order-5 Euler-Rayleigh bracket for the radius, from Newton's identities."""
    c = _coefficients(family, p, ORDER + 1)
    sums: list = []
    for k in range(1, ORDER + 2):
        acc = (-1) ** (k - 1) * k * c[k]
        for i in range(1, k):
            acc += (-1) ** (i - 1) * c[i] * sums[k - i - 1]
        sums.append(acc)
    pk, pk1 = sums[ORDER - 1], sums[ORDER]
    lo_w, hi_w = pk ** (-mpmath.mpf(1) / ORDER), pk / pk1
    if family.endswith("circle"):
        return 2 * mpmath.sqrt(lo_w), 2 * mpmath.sqrt(hi_w)
    return 4 * lo_w, 4 * hi_w


def _equation(family: str, p):
    """The defining combination as a function of the family's own variable."""
    base, kind = family.split("-")
    if base == "bessel":
        shift = (1 - p) if kind == "circle" else (2 - p)

        def combo(x):
            return x * mpmath.besselj(p, x, 1) + shift * mpmath.besselj(p, x)
    elif base == "struve":
        def combo(x):
            # x H'_nu = x H_(nu-1) - nu H_nu
            h = mpmath.struveh(p, x)
            xdh = x * mpmath.struveh(p - 1, x) - p * h
            return xdh - (p if kind == "circle" else p - 1) * h
    else:
        m = p - mpmath.mpf(1) / 2
        half = mpmath.mpf(1) / 2

        def combo(x):
            s = mpmath.lommels1(m, half, x)
            xds = x * mpmath.diff(lambda t: mpmath.lommels1(m, half, t), x)
            if kind == "circle":
                return xds - (p - half) * s
            return 2 * xds - (2 * p - 3) * s
    if kind == "circle":
        return combo
    return lambda z: combo(mpmath.sqrt(z))


def reference_radius(family: str, parameter: float) -> float:
    """First positive zero of the defining equation, to binary64 precision.

    Raises ``ValueError`` when the root found is not inside the independent
    bracket, i.e. when it cannot be shown to be the first zero.
    """
    with mpmath.workdps(DPS):
        p = mpmath.mpf(parameter)
        lo, hi = _bracket(family, p)
        root = mpmath.findroot(_equation(family, p), (lo + hi) / 2, solver="secant")
        slack = (hi - lo) * mpmath.mpf(10) ** -6 + abs(root) * mpmath.mpf(10) ** -30
        if not lo - slack <= root <= hi + slack:
            raise ValueError(f"{family} at {parameter!r}: root {root} outside [{lo}, {hi}]")
        return float(root)
