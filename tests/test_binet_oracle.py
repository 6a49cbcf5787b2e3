"""mpmath root finders as an independent oracle for ``sequences.binet_roots``.

The library finds the roots of t^3 - t^2 - t - 1 in fixed-point integers
only.  Here the same roots come from mpmath twice, by complex root-finding
(``polyroots``) and by the nested radicals, and the fixed-point roots must
agree with both.  The module is skipped where mpmath is not installed.
"""

from fractions import Fraction

import pytest

from triblucas.sequences import binet_roots

mpmath = pytest.importorskip("mpmath")


def _polyroots(precision: int):
    """alpha, beta, gamma by complex root-finding; beta has Im > 0."""
    with mpmath.workprec(precision + 16):
        roots = [mpmath.mpc(r)
                 for r in mpmath.polyroots([1, -1, -1, -1], extraprec=precision)]
        # one real root, one conjugate pair
        roots.sort(key=lambda r: abs(mpmath.im(r)))
        beta, gamma = sorted(roots[1:], key=lambda r: mpmath.im(r), reverse=True)
        return roots[0], beta, gamma


def _radicals(precision: int):
    """alpha, beta, gamma by the nested-radical expressions."""
    with mpmath.workprec(precision + 16):
        s33 = mpmath.sqrt(33)
        a_cube = mpmath.cbrt(19 + 3 * s33)
        b_cube = mpmath.cbrt(19 - 3 * s33)
        w = mpmath.mpc(-1, mpmath.sqrt(3)) / 2
        alpha = (1 + a_cube + b_cube) / 3
        beta = (1 + w * a_cube + w ** 2 * b_cube) / 3
        gamma = (1 + w ** 2 * a_cube + w * b_cube) / 3
        return mpmath.mpc(alpha), beta, gamma


def _exact(x) -> Fraction:
    # man_exp holds |x| = man·2^exp; the sign is read separately.
    man, exp = x.man_exp
    return (-1 if x < 0 else 1) * Fraction(man) * Fraction(2) ** exp


@pytest.mark.parametrize("precision", [64, 80, 128])
def test_fixed_point_roots_match_both_mpmath_paths(precision):
    fixed = binet_roots(precision)
    bound = Fraction(1, 2 ** (precision // 2))
    for found in (_polyroots(precision), _radicals(precision)):
        for (re, im), root in zip(fixed, found):
            d_re = Fraction(re, 2 ** precision) - _exact(root.real)
            d_im = Fraction(im, 2 ** precision) - _exact(root.imag)
            assert d_re ** 2 + d_im ** 2 <= bound ** 2
