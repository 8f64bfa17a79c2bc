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

Units: angles rad, lengths meters, frequency Hz; sigma is a
dimensionless per-ray intensity weight (no absolute radiometric
calibration).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sartrace.scene import BsdfParams

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


def eval_bsdf_batch(theta, values, wave: WaveConfig):
    """Blended sigma and analytic gradients for a batch of hits.

    theta: (n,) local incidence angles; values: (n, 4) parameter rows
    (h, l, eps_r, tau).  Returns (sigma (n,), grads (n, 4)).
    """
    theta = np.asarray(theta, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    h = values[:, 0]
    l = values[:, 1]
    eps = values[:, 2]
    tau = values[:, 3]

    k = wave.wavenumber
    ct = np.cos(theta)
    st = np.sin(theta)
    c4 = ct ** 4

    # --- SPM branch ------------------------------------------------
    q = 2.0 * k * st                      # backscatter spatial frequency
    if wave.psd_kind == "gaussian":
        w = (h * h * l * l / (4.0 * math.pi)) * np.exp(-(q * l) ** 2 / 4.0)
        dw_dl_over_w = 2.0 / l - q * q * l / 2.0
    else:
        denom = 1.0 + (q * l) ** 2
        w = h * h * l * l / (math.pi ** 2 * denom)
        dw_dl_over_w = 2.0 / l - 2.0 * q * q * l / denom

    s2 = st * st
    # eps - sin^2 written as (eps - 1) + cos^2: exactly cos(theta) at eps = 1,
    # where eps - s2 rounds to 0 within ~1e-9 of grazing
    root = np.sqrt((eps - 1.0) + ct * ct)
    if wave.polarization == "HH":
        r = (ct - root) / (ct + root)
        f = r * r
        # dr/deps = -ct / (root (ct + root)^2)
        df_deps = 2.0 * r * (-ct / (root * (ct + root) ** 2))
    else:
        a_num = (eps - 1.0) * (s2 - eps * ct * ct)
        b_den = (eps * ct + root) ** 2
        g = a_num / b_den
        f = g * g
        da = s2 - (2.0 * eps - 1.0) * ct * ct
        db = 2.0 * (eps * ct + root) * (ct + 1.0 / (2.0 * root))
        df_deps = 2.0 * g * (da * b_den - a_num * db) / b_den ** 2

    pref = 8.0 * k ** 4 * c4
    sig_s = pref * w * f
    ds_dh = 2.0 * sig_s / h
    ds_dl = sig_s * dw_dl_over_w
    ds_deps = pref * w * df_deps

    # --- KA branch (Gaussian correlation slope) --------------------
    a = 4.0 * h * h / (l * l)            # 2 * mean-square slope
    rt = np.sqrt(eps)
    r0 = (1.0 - rt) / (1.0 + rt)
    tan2 = (st / ct) ** 2
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
    ], axis=1)
    return sigma, grads


@dataclass(frozen=True)
class ValidityCondition:
    name: str
    model: str        # "spm" or "ka"
    value: float      # left-hand side as evaluated
    bound: float      # right-hand side
    satisfied: bool


@dataclass(frozen=True)
class ValidityReport:
    spm_ok: bool
    ka_ok: bool
    conditions: tuple[ValidityCondition, ...]

    @property
    def violated(self) -> tuple[ValidityCondition, ...]:
        return tuple(c for c in self.conditions if not c.satisfied)


def check_validity(params: BsdfParams, theta: float, wave: WaveConfig,
                   small_threshold: float = 0.3) -> ValidityReport:
    """Evaluate SPM and KA applicability for one parameter set.

    "Much less than one" conditions are operationalized as
    `< small_threshold` (default 0.3, the scale of the explicit slope
    bound).  The KA Rayleigh condition uses the backscatter convention
    |cos(theta_i) + cos(theta_s)| = 2 cos(theta); the curvature radius
    uses the Gaussian correlation fourth derivative C''''(0) = 12 / l^4.
    This is a report, not a gate: parameters outside the region still
    evaluate.
    """
    if params.h <= 0 or params.l <= 0:
        raise ValueError("h and l must be positive")
    k = wave.wavenumber
    lam = wave.wavelength
    h, l = params.h, params.l
    ct = math.cos(theta)

    curvature_radius = l * l / (h * math.sqrt(24.0 / math.pi))
    conds = (
        ValidityCondition("spm_kh", "spm", k * h, small_threshold,
                          k * h < small_threshold),
        ValidityCondition("spm_k3h2l", "spm", k ** 3 * h * h * l, small_threshold,
                          k ** 3 * h * h * l < small_threshold),
        ValidityCondition("spm_slope", "spm", math.sqrt(2.0) * h / l, 0.3,
                          math.sqrt(2.0) * h / l < 0.3),
        ValidityCondition("ka_kl", "ka", k * l, 6.0, k * l > 6.0),
        ValidityCondition("ka_rayleigh", "ka", k * h, math.sqrt(10.0) / (2.0 * ct),
                          k * h > math.sqrt(10.0) / (2.0 * ct)),
        ValidityCondition("ka_curvature", "ka", curvature_radius, lam,
                          curvature_radius > lam),
        ValidityCondition("ka_gauss_curvature", "ka", l * l, 2.76 * h * lam,
                          l * l > 2.76 * h * lam),
    )
    spm_ok = all(c.satisfied for c in conds if c.model == "spm")
    ka_ok = all(c.satisfied for c in conds if c.model == "ka")
    return ValidityReport(spm_ok=spm_ok, ka_ok=ka_ok, conditions=conds)
