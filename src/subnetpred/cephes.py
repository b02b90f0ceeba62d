"""Two special functions from S. L. Moshier's Cephes library, ported with
the coefficients and the operation order of scipy.special, so each result
equals scipy's bit for bit (tests/test_ra.py, tests/test_scenario.py) with
numpy alone.

ndtri is the inverse of the standard normal CDF; j0 is the Bessel function
of the first kind of order zero on [0, 5], Cephes' rational branch.
"""

from __future__ import annotations

import math

# ndtri: P0/Q0 for |y - 1/2| <= 3/8; P1/Q1 for z = sqrt(-2 log y) in [2, 8),
# P2/Q2 for z >= 8.  Every Q lists its coefficients after a leading 1.
_NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
             -5.66762857469070293439E1, 1.39312609387279679503E1,
             -1.23916583867381258016E0)
_NDTRI_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0,
             8.63602421390890590575E1, -2.25462687854119370527E2,
             2.00260212380060660359E2, -8.20372256168333339912E1,
             1.59056225126211695515E1, -1.18331621121330003142E0)
_NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
             5.71628192246421288162E1, 4.40805073893200834700E1,
             1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2,
             -8.57456785154685413611E-4)
_NDTRI_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1,
             4.13172038254672030440E1, 1.50425385692907503408E1,
             2.50464946208309415979E0, -1.42182922854787788574E-1,
             -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_NDTRI_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
             3.93881025292474443415E0, 1.33303460815807542389E0,
             2.01485389549179081538E-1, 1.23716634817820021358E-2,
             3.01581553508235416007E-4, 2.65806974686737550832E-6,
             6.23974539184983293730E-9)
_NDTRI_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0,
             1.37702099489081330271E0, 2.16236993594496635890E-1,
             1.34204006088543189037E-2, 3.28014464682127739104E-4,
             2.89247864745380683936E-6, 6.79019408009981274425E-9)
_EXP_M2 = 0.13533528323661269189           # exp(-2)
_SQRT_2PI = 2.50662827463100050242E0

# j0 on [0, 5]: (z - DR1)(z - DR2) RP(z) / RQ(z) at z = x^2, DR1 and DR2 the
# squares of the first two zeros; RQ after a leading 1
_J0_RP = (-4.79443220978201773821E9, 1.95617491946556577543E12,
          -2.49248344360967716204E14, 9.70862251047306323952E15)
_J0_RQ = (4.99563147152651017219E2, 1.73785401676374683123E5,
          4.84409658339962045305E7, 1.11855537045356834862E10,
          2.11277520115489217587E12, 3.10518229857422583814E14,
          3.18121955943204943306E16, 1.71086294081043136091E18)
_J0_DR1 = 5.78318596294678452118E0
_J0_DR2 = 3.04712623436620863991E1


def _polevl(x, coef):
    """The polynomial with coefficients coef, highest degree first, at x by
    Horner's rule; with coef = (1, *c) it is Cephes' p1evl(x, c)."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def ndtri(y):
    """x with Phi(x) = y, for a float y in (0, 1)."""
    lower = y <= 1.0 - _EXP_M2
    if not lower:
        y = 1.0 - y
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, (1.0, *_NDTRI_Q0)))
        return x * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    p, q = (_NDTRI_P1, _NDTRI_Q1) if x < 8.0 else (_NDTRI_P2, _NDTRI_Q2)
    x = x - math.log(x) / x - z * _polevl(z, p) / _polevl(z, (1.0, *q))
    return -x if lower else x


def j0(x):
    """J0(x) for a float x in [0, 5]."""
    z = x * x
    if x < 1.0e-5:
        return 1.0 - z / 4.0
    p = (z - _J0_DR1) * (z - _J0_DR2)
    return p * _polevl(z, _J0_RP) / _polevl(z, (1.0, *_J0_RQ))
