"""Indoor-factory channel pieces: InF-DL path loss, exponentially correlated
shadowing advanced along trajectories, AR(1) small-scale fading with a
Doppler-matched coefficient, and the soft LOS/NLOS mixing gain.  The
AR(1) processes of a link advance as one row of floats (Ar1Field): the
real fields, then the fading, which is complex in law and held as the
(re, im) floats it is drawn as (ComplexAr1).

Formulas and their sources, one a line:
- InF-DL path loss (pathloss_inf_db): 3GPP TR 38.901, Table 7.4.1-1.
- shadowing correlation exp(-dd / d_corr) over a move dd: Gudmundson, Electron. Lett. 1991.
- fading coefficient J0(2 pi f_d dt): Clarke's autocorrelation, Bell Syst. Tech. J. 1968.
- Rician sqrt(K/(K+1)) e^(j phi) + sqrt(1/(K+1)) h: the K-factor split of TR 38.901 7.5.
- soft-LOS mix of powers psi G_LOS + sqrt(1 - psi^2) G_NLOS: ROADMAP item 23 decides it.
"""

from __future__ import annotations

import math

import numpy as np

from ..config import J0_FIRST_ZERO


def pathloss_inf_db(dist_m, freq_hz):
    """3GPP InF-DL path loss in dB, (pl_los, pl_nlos), from one log10 of
    the distance, clamped to the 1 m model floor.

    pl_los : 31.84 + 21.5 log10(d) + 19 log10(f_GHz)
    pl_nlos: max(pl_los, 18.6 + 35.7 log10(d) + 20 log10(f_GHz))
    """
    log_d = np.log10(np.maximum(np.asarray(dist_m, dtype=float), 1.0))
    log_f = np.log10(freq_hz / 1e9)
    pl_los = 31.84 + 21.5 * log_d + 19.0 * log_f
    return pl_los, np.maximum(pl_los, 18.6 + 35.7 * log_d + 20.0 * log_f)


def planar_norm(v):
    """Lengths of planar vectors v [... x 2]; the same bits as
    np.linalg.norm(v, axis=-1), several times faster on large stacks."""
    x, y = v[..., 0], v[..., 1]
    return np.sqrt(x * x + y * y)


def db_to_linear(db):
    return 10.0 ** (np.asarray(db, dtype=float) / 10.0)


def linear_to_db(lin, floor):
    return 10.0 * np.log10(np.maximum(np.asarray(lin, dtype=float), floor))


def watts_to_dbm(watts, floor=1e-20):
    return linear_to_db(watts, floor) + 30.0


def dbm_to_watts(dbm):
    return 10.0 ** (np.asarray(dbm) / 10.0) * 1e-3


def noise_power_w(bandwidth_hz, n_subbands, noise_figure_db):
    """Thermal noise over one sub-band: -174 dBm/Hz + 10log10(B/Omega) + NF."""
    n_dbm = -174.0 + 10.0 * np.log10(bandwidth_hz / n_subbands) + noise_figure_db
    return 10.0 ** (n_dbm / 10.0) * 1e-3


def fading_coefficient(doppler_hz, dt):
    """Per-cycle AR(1) coefficient from the Clarke model: J0(2 pi f_d dt).

    J0(x) is its power series, sum over k of (-x^2/4)^k / (k!)^2, summed
    until a term falls below 1e-18; on [0, config.J0_FIRST_ZERO] it lies
    within 1e-15 of scipy.special.j0.  J0 is positive below that first
    zero, the bound the configuration keeps x under; outside [0,
    J0_FIRST_ZERO] this raises ValueError.
    """
    x = 2.0 * math.pi * doppler_hz * dt
    if not 0.0 <= x <= J0_FIRST_ZERO:
        raise ValueError(f"2 pi doppler_hz dt = {x:g} lies outside [0, {J0_FIRST_ZERO:.4f}]")
    step = -x * x / 4.0
    term = total = 1.0
    k = 0
    while abs(term) >= 1e-18:
        k += 1
        term *= step / (k * k)
        total += term
    return total


def _recur(coef, drive, values):
    """Rows values_t = coef_t * values_(t-1) + drive_t of a block of cycles,
    from the values before it, written over the drive [b x ...], which is
    returned; coef holds one coefficient row per cycle.  d + c v rounds
    as c v + d does, so the states equal those of a separate output."""
    scaled = np.empty_like(values)
    for c, row in zip(coef, drive):
        np.multiply(c, values, out=scaled)
        values = np.add(row, scaled, out=row)
    return drive


class Ar1Field:
    """One row of Gaussian AR(1) values, advanced by one recursion.

    The row's leading columns are real values per link, correlated along
    the trajectory: each advance uses coefficient exp(-displacement /
    decorrelation), the exponential (Gudmundson-style) correlation
    evaluated at the distance the link endpoints moved since the previous
    cycle.  std holds one standard deviation per such column, so fields of
    different spread advance as one.  The columns after them hold the
    (re, im) floats of a ComplexAr1, whose coefficient the caller presets
    and whose drive ComplexAr1.advance forms.
    """

    def __init__(self, std, decorrelation, values):
        """values: standard normals, one per column of the row; the leading
        std.size become the fields, std times them, in place."""
        self.std = std
        self.decorrelation = decorrelation
        n = std.size
        np.multiply(std, values[:n], out=values[:n])
        self.values = values

    def advance(self, displacement, row, coef):
        """The row's values after each cycle of a block, written over row
        [b x columns] and returned.  row holds per cycle one standard
        normal per real field, then the drive of the columns after them;
        displacement [b x std.size] is the distance each link moved; coef
        [b x columns] holds the later columns' coefficients and takes the
        real fields' in front of them.  values takes the last row in place,
        so a view of it (ComplexAr1.values) follows."""
        n = self.std.size
        a = np.exp(-displacement / self.decorrelation, out=coef[:, :n])
        np.multiply(np.sqrt(1.0 - a**2) * self.std, row[:, :n], out=row[:, :n])
        _recur(coef, row, self.values)
        self.values[...] = row[-1]
        return row


class ComplexAr1:
    """Unit-power complex Gaussian AR(1) processes (Rayleigh envelope) of one
    coefficient rho; values [shape] in law.  In storage they are the floats
    they are drawn as: the real parts and then the imaginary parts of each
    index of the leading axis, [shape[0] x 2 x shape[1:]], so processes
    drawn one after another advance as one.  A real rho times a complex
    state is rho re + 1j rho im, so the floats, advanced as columns of an
    Ar1Field's row with coefficient rho, keep the complex recursion's bits.
    """

    def __init__(self, shape, rho, values, n_lead):
        """values: standard normals in the draw layout, turned in place into
        the initial values (re + 1j im) / sqrt(2) and held as a view; in the
        rows that advance scales, n_lead columns come before them."""
        values *= 1.0 / np.sqrt(2.0)
        self.values = values.reshape((shape[0], 2) + shape[1:])
        # advance's two per-column factors; 1.0 keeps a leading column's bits
        self.scales = np.ones((2, n_lead + values.size))
        self.scales[0, n_lead:] = 1.0 / np.sqrt(2.0)
        self.scales[1, n_lead:] = np.sqrt(1.0 - rho**2)

    def advance(self, row):
        """Turn the standard normals in a block's rows [b x (n_lead + ...)],
        after the n_lead leading columns, in place into the drive sqrt(1 -
        rho^2) (re + 1j im) / sqrt(2) of the next values, and return row.
        numpy divides a complex by a real sqrt(2) as a product with 1 /
        sqrt(2), so the two products round as the complex drive does; each
        runs over the whole contiguous row, and the leading columns are
        multiplied by 1.0."""
        row *= self.scales[0]
        row *= self.scales[1]
        return row


def los_specular(k_linear, los_phase):
    """Fixed specular term sqrt(K/(K+1)) exp(j los_phase) of Rician fading."""
    return np.sqrt(k_linear / (k_linear + 1.0)) * np.exp(1j * los_phase)


def soft_los_weight(latent):
    """Logistic squash of the spatially correlated latent into psi in [0, 1]."""
    return 1.0 / (1.0 + np.exp(-np.asarray(latent, dtype=float)))


def channel_gain(psi, h_los_sq, h_nlos_sq, pl_los_lin, pl_nlos_lin,
                 sh_los_lin, sh_nlos_lin):
    """Linear power gain of one link at its current soft LOS state.

    gain = psi*|H_LOS|^2 + sqrt(1-psi^2)*|H_NLOS|^2 where each |H|^2 is the
    product of fading power, linear path gain, and linear shadowing.
    """
    psi = np.asarray(psi, dtype=float)
    g_los = h_los_sq * pl_los_lin * sh_los_lin
    g_nlos = h_nlos_sq * pl_nlos_lin * sh_nlos_lin
    return psi * g_los + np.sqrt(1.0 - psi**2) * g_nlos
