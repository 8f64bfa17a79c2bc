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
eval_bsdf_at computes each term the formulas share once (1 - tau, l^2,
the SPM prefactor times W, the Fresnel denominators, 1 + sqrt(eps_r),
tan^2 / a) and writes a temporary in place (out=, *=) once one of its
operands is used up.  Every output keeps the bits of the formulas as
written: their operations in their order, up to exact rewrites (x / 2
as x * 0.5, -x / 4 as x * -0.25, a sign moved from one factor or
dividend to another, which can change only a NaN's sign bit).

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
    grads is the transpose of a (4, n) array: each channel is contiguous.
    values and the angle arrays are only read."""
    values = np.asarray(values, dtype=np.float64)
    h, l, eps, tau = values[:, 0], values[:, 1], values[:, 2], values[:, 3]
    ct, c4, q, qq, pref, tan2 = angles.ct, angles.c4, angles.q, angles.qq, angles.pref, angles.tan2
    grads = np.empty((4, h.size))

    # --- SPM branch ------------------------------------------------
    w = h * h * l
    w *= l
    ql2 = np.square(q * l)
    if angles.wave.psd_kind == "gaussian":
        w /= 4.0 * math.pi
        w *= np.exp(np.multiply(ql2, -0.25, out=ql2), out=ql2)     # -(q l)^2 / 4, exactly
        dw_dl_over_w = qq * l * 0.5
    else:
        ql2 += 1.0                                                  # the PSD's denominator
        dw_dl_over_w = qq * l / ql2
        w /= np.multiply(ql2, math.pi ** 2, out=ql2)
    np.subtract(2.0 / l, dw_dl_over_w, out=dw_dl_over_w)

    # eps - sin^2 written as (eps - 1) + cos^2: exactly cos(theta) at eps = 1,
    # where eps - s2 rounds to 0 within ~1e-9 of grazing
    em1 = eps - 1.0
    root = np.sqrt(em1 + angles.cc)
    if angles.wave.polarization == "HH":
        ctr = ct + root
        f = (ct - root) / ctr                                       # r
        # dr/deps = -ct / (root (ct + root)^2)
        df_deps = -2.0 * f * (ct / (root * np.multiply(ctr, ctr, out=ctr)))
        f *= f
    else:
        s2 = angles.s2
        ect = eps * ct
        b_den = ect + root
        db = 2.0 * b_den * (ct + 1.0 / (2.0 * root))
        a_num = em1 * (s2 - np.multiply(ect, ct, out=ect))
        b_den *= b_den
        f = a_num / b_den                                           # g
        da = s2 - (2.0 * eps - 1.0) * ct * ct
        df_deps = 2.0 * f * (da * b_den - a_num * db)
        df_deps /= np.multiply(b_den, b_den, out=b_den)
        f *= f

    pw = pref * w
    sig_s = np.multiply(pw, f, out=f)
    ds_dh = 2.0 * sig_s / h
    ds_dl = np.multiply(sig_s, dw_dl_over_w, out=dw_dl_over_w)
    ds_deps = np.multiply(pw, df_deps, out=df_deps)

    # --- KA branch (Gaussian correlation slope) --------------------
    ll = l * l
    a = 4.0 * h * h / ll                 # 2 * mean-square slope
    rt = np.sqrt(eps)
    opr = 1.0 + rt
    r0 = (1.0 - rt) / opr
    ta = tan2 / a
    g_geom = np.exp(-ta) / (c4 * a)
    sig_k = r0 * r0 * g_geom
    np.subtract(sig_k, sig_s, out=grads[3])
    dk_da = sig_k * (ta - 1.0) / a
    dk_dh = dk_da * 8.0 * h / ll
    dk_dl = dk_da * (-8.0 * h * h / l ** 3)
    dr0_deps = -1.0 / (rt * np.multiply(opr, opr, out=opr))
    dk_deps = 2.0 * r0 * dr0_deps * g_geom

    # --- tau blend --------------------------------------------------
    omt = 1.0 - tau
    sigma = omt * sig_s + np.multiply(tau, sig_k, out=sig_k)
    for row, ds, dk in zip(grads, (ds_dh, ds_dl, ds_deps), (dk_dh, dk_dl, dk_deps)):
        np.add(np.multiply(omt, ds, out=ds), np.multiply(tau, dk, out=dk), out=row)
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
