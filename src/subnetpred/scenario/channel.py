"""Indoor-factory channel pieces: InF-DL path loss, exponentially correlated
shadowing advanced along trajectories, AR(1) small-scale fading with a
Doppler-matched coefficient, and the soft LOS/NLOS mixing gain."""

from __future__ import annotations

import numpy as np

from ..cephes import j0


def pathloss_inf_db(dist_m, freq_hz, los=True):
    """3GPP InF-DL path loss in dB; distance clamped to the 1 m model floor.

    LOS : 31.84 + 21.5 log10(d) + 19 log10(f_GHz)
    NLOS: max(LOS, 18.6 + 35.7 log10(d) + 20 log10(f_GHz))
    """
    d = np.maximum(np.asarray(dist_m, dtype=float), 1.0)
    f_ghz = freq_hz / 1e9
    pl_los = 31.84 + 21.5 * np.log10(d) + 19.0 * np.log10(f_ghz)
    if los:
        return pl_los
    pl_nlos = 18.6 + 35.7 * np.log10(d) + 20.0 * np.log10(f_ghz)
    return np.maximum(pl_los, pl_nlos)


def planar_norm(v):
    """Lengths of planar vectors v [... x 2]; the same bits as
    np.linalg.norm(v, axis=-1), several times faster on large stacks."""
    x, y = v[..., 0], v[..., 1]
    return np.sqrt(x * x + y * y)


def db_to_linear(db):
    return 10.0 ** (np.asarray(db, dtype=float) / 10.0)


def linear_to_db(lin, floor=1e-20):
    return 10.0 * np.log10(np.maximum(np.asarray(lin, dtype=float), floor))


def watts_to_dbm(watts, floor=1e-20):
    return linear_to_db(watts, floor) + 30.0


def noise_power_w(bandwidth_hz, n_subbands, noise_figure_db):
    """Thermal noise over one sub-band: -174 dBm/Hz + 10log10(B/Omega) + NF."""
    n_dbm = -174.0 + 10.0 * np.log10(bandwidth_hz / n_subbands) + noise_figure_db
    return 10.0 ** (n_dbm / 10.0) * 1e-3


def fading_coefficient(doppler_hz, dt):
    """Per-cycle AR(1) coefficient from the Clarke model: J0(2 pi f_d dt).

    cephes.j0 covers 2 pi f_d dt in [0, 5]; outside it this raises
    ValueError.  The configuration keeps it below J0's first zero
    (config.J0_FIRST_ZERO), where the coefficient is positive.
    """
    x = 2.0 * np.pi * doppler_hz * dt
    if not 0.0 <= x <= 5.0:
        raise ValueError(f"2 pi doppler_hz dt = {x:g} lies outside [0, 5]")
    return float(j0(x))


def _complex_normal(re, im):
    """Unit-power complex normals from standard normal real and imaginary
    parts."""
    return (re + 1j * im) / np.sqrt(2.0)


def _recur(coef, drive, values):
    """Rows values_t = coef_t * values_(t-1) + drive_t of a block of cycles,
    from the values before it; coef holds one coefficient (row) per cycle."""
    out = np.empty_like(drive)
    for c, row, d in zip(coef, out, drive):
        values = np.multiply(c, values, out=row)
        row += d
    return out


class Ar1Field:
    """Gaussian value per link, correlated along the trajectory.

    Each advance uses coefficient exp(-displacement / decorrelation), the
    exponential (Gudmundson-style) correlation evaluated at the distance the
    link endpoints moved since the previous cycle.  std holds one standard
    deviation per link, so fields of different spread advance as one.
    """

    def __init__(self, std, decorrelation, rng):
        self.std = std
        self.decorrelation = decorrelation
        self.values = std * rng.standard_normal(std.shape)

    def advance(self, displacement, noise):
        """Values after each cycle of a block, given the distance each link
        moved [b x n] and one standard normal per link [b x n] per cycle."""
        a = np.exp(-np.asarray(displacement, dtype=float) / self.decorrelation)
        out = _recur(a, np.sqrt(1.0 - a**2) * self.std * noise, self.values)
        self.values = out[-1].copy()
        return out


class ComplexAr1:
    """Unit-power complex Gaussian AR(1) processes (Rayleigh envelope) of one
    coefficient; values [shape].  The normals of each index of the leading
    axis are its real parts and then its imaginary parts, laid out
    [shape[0] x 2 x shape[1:]], so processes drawn one after another
    advance as one."""

    def __init__(self, shape, rho, rng):
        self.rho = rho
        z = rng.standard_normal((shape[0], 2) + shape[1:])
        self.values = _complex_normal(z[:, 0], z[:, 1])

    def advance(self, noise):
        """Values after each cycle of a block, given per cycle the standard
        normals in the draw layout [b x shape[0] x 2 x shape[1:]]."""
        out = _recur([self.rho] * len(noise), np.sqrt(1.0 - self.rho**2)
                     * _complex_normal(noise[:, :, 0], noise[:, :, 1]), self.values)
        self.values = out[-1].copy()
        return out


def los_specular(k_linear, los_phase):
    """Fixed specular term sqrt(K/(K+1)) exp(j los_phase) of Rician fading."""
    return np.sqrt(k_linear / (k_linear + 1.0)) * np.exp(1j * los_phase)


def rician(scatter, k_linear, specular):
    """Rician fading sample: the fixed specular term (los_specular, computed
    once per link) plus the scattered component."""
    return specular + np.sqrt(1.0 / (k_linear + 1.0)) * scatter


def soft_los_weight(latent):
    """Logistic squash of the spatially correlated latent into psi in [0, 1]."""
    return 1.0 / (1.0 + np.exp(-np.asarray(latent, dtype=float)))


def channel_gain(psi, h_los_sq, h_nlos_sq, pl_los_lin, pl_nlos_lin,
                 sh_los_lin=1.0, sh_nlos_lin=1.0):
    """Linear power gain of one link at its current soft LOS state.

    gain = psi*|H_LOS|^2 + sqrt(1-psi^2)*|H_NLOS|^2 where each |H|^2 is the
    product of fading power, linear path gain, and linear shadowing.
    """
    psi = np.asarray(psi, dtype=float)
    g_los = h_los_sq * pl_los_lin * sh_los_lin
    g_nlos = h_nlos_sq * pl_nlos_lin * sh_nlos_lin
    return psi * g_los + np.sqrt(1.0 - psi**2) * g_nlos
