"""Two-scale rough-surface backscatter model and its parameter gradients.

The monostatic backscatter coefficient blends a small-perturbation
(SPM, diffuse) term and a Kirchhoff (KA, specular) term:

    sigma = (1 - tau) * sigma_spm + tau * sigma_ka

SPM (first order, backscatter, k_dx = 2 k sin(theta), k_dy = 0):

    sigma_spm = 8 k^4 cos^4(theta) W(2 k sin(theta), 0) f_pq(theta, eps_r)

with W the Gaussian or exponential roughness power spectral density and
f_pq the squared Fresnel factor of the requested co-polarization.
Cross-pol channels are identically zero at this order and are rejected
when the wave configuration is parsed.

KA (geometric-optics limit, Gaussian correlation C(xi) = exp(-xi^2/l^2),
so the mean-square slope is msq = h^2 |C''(0)| = 2 h^2 / l^2):

    sigma_ka = |R(0)|^2 / (cos^4(theta) 2 msq) * exp(-tan^2(theta) / (2 msq))

identical for HH and VV.  All partial derivatives w.r.t. (h, l, eps_r,
tau) are analytic and are validated against central finite differences
in the test suite.

eval_bsdf_batch(theta, values, wave) is the composition of two parts.
bsdf_angles computes the terms of the incidence angles alone into a
BsdfAngles record: cos, cos^2, sin^2 and cos^4 of theta, the SPM
frequency q = 2 k sin(theta) and its factor in dlog(W)/dl, tan^2 and the
SPM prefactor 8 k^4 cos^4.  eval_bsdf_at evaluates sigma and its
partials from a record and the parameter rows.  A caller that shades
fixed hits under many parameter tables (learn) builds the record once.

Each branch holds only inside its own roughness region.  validity_mask
reports these seven conditions per hit, one column each in this order
(VALIDITY_CONDITIONS); "much less than one" reads as < 0.3, the scale
of the explicit slope bound:

    spm_kh              k h < 0.3
    spm_k3h2l           k^3 h^2 l < 0.3
    spm_slope           sqrt(2) h / l < 0.3
    ka_kl               k l > 6
    ka_rayleigh         k h > sqrt(10) / (2 cos(theta))
    ka_curvature        l^2 / (h sqrt(24 / pi)) > lambda
    ka_gauss_curvature  l^2 > 2.76 h lambda

The Rayleigh condition uses the backscatter convention
|cos(theta_i) + cos(theta_s)| = 2 cos(theta); the curvature radius uses
the Gaussian correlation fourth derivative C''''(0) = 12 / l^4.  The
mask is a report, not a gate: hits outside the region still evaluate.

Units: angles rad, lengths meters, frequency Hz; sigma is a
dimensionless per-ray intensity weight (no absolute radiometric
calibration).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s

_POLARIZATIONS = ("HH", "VV")
_PSD_KINDS = ("gaussian", "exponential")


@dataclass(frozen=True)
class WaveConfig:
    """Radar wave description: frequency, co-polarization, PSD family."""

    frequency: float
    polarization: str = "HH"
    psd_kind: str = "gaussian"

    def __post_init__(self):
        if not self.frequency > 0:
            raise ValueError("frequency must be positive")
        pol = self.polarization.upper()
        if pol in ("HV", "VH"):
            raise ValueError(
                "cross-polarized channels are identically zero in this model; "
                "only HH and VV are supported")
        if pol not in _POLARIZATIONS:
            raise ValueError(f"unknown polarization {self.polarization!r}")
        kind = self.psd_kind.lower()
        if kind not in _PSD_KINDS:
            raise ValueError(f"unknown PSD kind {self.psd_kind!r}")
        object.__setattr__(self, "polarization", pol)
        object.__setattr__(self, "psd_kind", kind)

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.frequency

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi * self.frequency / SPEED_OF_LIGHT


class BsdfAngles(NamedTuple):
    """eval_bsdf_batch's angle part for a batch of hits under one wave:
    every term the kernel computes from the incidence angles alone.  A
    caller that shades the same hits under many parameter tables builds it
    once and calls eval_bsdf_at per table."""

    wave: WaveConfig
    theta: np.ndarray   # (n,) local incidence angles
    ct: np.ndarray      # cos(theta)
    cc: np.ndarray      # cos^2(theta)
    s2: np.ndarray      # sin^2(theta)
    c4: np.ndarray      # cos^4(theta)
    q: np.ndarray       # 2 k sin(theta), the backscatter spatial frequency
    qq: np.ndarray      # the factor of l in dlog(W)/dl: q^2 (gaussian) or 2 q^2 (exponential)
    tan2: np.ndarray    # tan^2(theta)
    pref: np.ndarray    # 8 k^4 cos^4(theta), the SPM prefactor


def bsdf_angles(theta, wave: WaveConfig) -> BsdfAngles:
    """The angle terms of hits at local incidence angles theta (n,)."""
    theta = np.asarray(theta, dtype=np.float64)
    k = wave.wavenumber
    ct = np.cos(theta)
    st = np.sin(theta)
    c4 = ct ** 4
    q = 2.0 * k * st
    return BsdfAngles(wave=wave, theta=theta, ct=ct, cc=ct * ct, s2=st * st, c4=c4, q=q,
                      qq=q * q if wave.psd_kind == "gaussian" else 2.0 * q * q,
                      tan2=(st / ct) ** 2, pref=8.0 * k ** 4 * c4)


def eval_bsdf_batch(theta, values, wave: WaveConfig):
    """Blended sigma and analytic gradients for a batch of hits.

    theta: (n,) local incidence angles; values: (n, 4) parameter rows
    (h, l, eps_r, tau).  Returns (sigma (n,), grads (n, 4)).
    """
    return eval_bsdf_at(bsdf_angles(theta, wave), values)


def eval_bsdf_at(angles: BsdfAngles, values):
    """eval_bsdf_batch's parameter part: (sigma (n,), grads (n, 4)) of the
    hits whose angle terms are `angles`, at parameter rows values (n, 4).
    grads is the transpose of a (4, n) array: each channel is contiguous."""
    values = np.asarray(values, dtype=np.float64)
    h = values[:, 0]
    l = values[:, 1]
    eps = values[:, 2]
    tau = values[:, 3]
    ct, c4, q, qq, pref = angles.ct, angles.c4, angles.q, angles.qq, angles.pref

    # --- SPM branch ------------------------------------------------
    if angles.wave.psd_kind == "gaussian":
        w = (h * h * l * l / (4.0 * math.pi)) * np.exp(-(q * l) ** 2 / 4.0)
        dw_dl_over_w = 2.0 / l - qq * l / 2.0
    else:
        denom = 1.0 + (q * l) ** 2
        w = h * h * l * l / (math.pi ** 2 * denom)
        dw_dl_over_w = 2.0 / l - qq * l / denom

    # eps - sin^2 written as (eps - 1) + cos^2: exactly cos(theta) at eps = 1,
    # where eps - s2 rounds to 0 within ~1e-9 of grazing
    root = np.sqrt((eps - 1.0) + angles.cc)
    if angles.wave.polarization == "HH":
        r = (ct - root) / (ct + root)
        f = r * r
        # dr/deps = -ct / (root (ct + root)^2)
        df_deps = 2.0 * r * (-ct / (root * (ct + root) ** 2))
    else:
        s2 = angles.s2
        a_num = (eps - 1.0) * (s2 - eps * ct * ct)
        b_den = (eps * ct + root) ** 2
        g = a_num / b_den
        f = g * g
        da = s2 - (2.0 * eps - 1.0) * ct * ct
        db = 2.0 * (eps * ct + root) * (ct + 1.0 / (2.0 * root))
        df_deps = 2.0 * g * (da * b_den - a_num * db) / b_den ** 2

    sig_s = pref * w * f
    ds_dh = 2.0 * sig_s / h
    ds_dl = sig_s * dw_dl_over_w
    ds_deps = pref * w * df_deps

    # --- KA branch (Gaussian correlation slope) --------------------
    a = 4.0 * h * h / (l * l)            # 2 * mean-square slope
    rt = np.sqrt(eps)
    r0 = (1.0 - rt) / (1.0 + rt)
    tan2 = angles.tan2
    g_geom = np.exp(-tan2 / a) / (c4 * a)
    sig_k = r0 * r0 * g_geom
    dk_da = sig_k * (tan2 / a - 1.0) / a
    dk_dh = dk_da * 8.0 * h / (l * l)
    dk_dl = dk_da * (-8.0 * h * h / l ** 3)
    dr0_deps = -1.0 / (rt * (1.0 + rt) ** 2)
    dk_deps = 2.0 * r0 * dr0_deps * g_geom

    # --- tau blend --------------------------------------------------
    sigma = (1.0 - tau) * sig_s + tau * sig_k
    grads = np.stack([
        (1.0 - tau) * ds_dh + tau * dk_dh,
        (1.0 - tau) * ds_dl + tau * dk_dl,
        (1.0 - tau) * ds_deps + tau * dk_deps,
        sig_k - sig_s,
    ])
    return sigma, grads.T


VALIDITY_CONDITIONS = ("spm_kh", "spm_k3h2l", "spm_slope", "ka_kl", "ka_rayleigh",
                       "ka_curvature", "ka_gauss_curvature")


def validity_mask(theta, values, wave: WaveConfig):
    """Which validity conditions hold at each hit -> (n, 7) bool.

    Same inputs as eval_bsdf_batch (h and l positive); the columns
    follow VALIDITY_CONDITIONS.  SPM applies where columns 0-2 all hold,
    KA where columns 3-6 all hold.
    """
    values = np.asarray(values, dtype=np.float64)
    h = values[:, 0]
    l = values[:, 1]
    k = wave.wavenumber
    lam = wave.wavelength
    return np.stack([
        k * h < 0.3,
        k ** 3 * h * h * l < 0.3,
        math.sqrt(2.0) * h / l < 0.3,
        k * l > 6.0,
        k * h > math.sqrt(10.0) / (2.0 * np.cos(theta)),
        l * l / (h * math.sqrt(24.0 / math.pi)) > lam,
        l * l > 2.76 * h * lam,
    ], axis=1)
