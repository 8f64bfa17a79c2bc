import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sartrace.experiments import building_recovery_protocol, cube_recovery_protocol
from sartrace.imaging import shade_views, trace_views
from sartrace.scatter import (VALIDITY_CONDITIONS, WaveConfig, bsdf_angles,
                              eval_bsdf_at, eval_bsdf_batch, validity_mask)
from sartrace.scene import PARAM_LOWER, PARAM_UPPER, ParamMap

WAVE = WaveConfig(9.6e9, "HH", "gaussian")
K = WAVE.wavenumber
BOX = [(float(lo), float(hi)) for lo, hi in zip(PARAM_LOWER, PARAM_UPPER)]  # per channel


def bsdf(theta, h, l, eps_r, tau, wave=WAVE):
    """eval_bsdf_batch at one hit -> (sigma, grads (4,))."""
    sigma, grads = eval_bsdf_batch(np.array([theta]), np.array([[h, l, eps_r, tau]]), wave)
    return float(sigma[0]), grads[0]


def spm(theta, h, l, eps_r, wave=WAVE):
    """Diffuse branch: the blend at tau = 0."""
    return bsdf(theta, h, l, eps_r, 0.0, wave)[0]


def ka(theta, h, l, eps_r):
    """Specular branch: the blend at tau = 1."""
    return bsdf(theta, h, l, eps_r, 1.0)[0]


def transcribe_sigma_spm(theta, h, l, eps_r, frequency, pol="HH", kind="gaussian"):
    """Straight-line independent transcription of the diffuse branch."""
    k = 2.0 * math.pi * frequency / 299792458.0
    kdx = 2.0 * k * math.sin(theta)
    if kind == "gaussian":
        w = h ** 2 * l ** 2 / (4 * math.pi) * math.exp(-(kdx ** 2) * l ** 2 / 4)
    else:
        w = h ** 2 * l ** 2 / (math.pi ** 2 * (1 + kdx ** 2 * l ** 2))
    c, s2 = math.cos(theta), math.sin(theta) ** 2
    if pol == "HH":
        f = ((c - math.sqrt(eps_r - s2)) / (c + math.sqrt(eps_r - s2))) ** 2
    else:
        f = ((eps_r - 1) * (s2 - eps_r * c * c)
             / (eps_r * c + math.sqrt(eps_r - s2)) ** 2) ** 2
    return 8 * k ** 4 * c ** 4 * w * f


def transcribe_sigma_ka(theta, h, l, eps_r):
    """Straight-line independent transcription of the specular branch."""
    r0 = (1 - math.sqrt(eps_r)) / (1 + math.sqrt(eps_r))
    two_msq = 2.0 * (2.0 * h ** 2 / l ** 2)
    return (r0 ** 2 / (math.cos(theta) ** 4 * two_msq)
            * math.exp(-math.tan(theta) ** 2 / two_msq))


class TestWaveConfig:
    def test_wavenumber_wavelength_consistency(self):
        assert WAVE.wavenumber * WAVE.wavelength == pytest.approx(2 * math.pi, rel=1e-12)

    @pytest.mark.parametrize("pol", ["HV", "VH", "hv"])
    def test_cross_pol_rejected(self, pol):
        with pytest.raises(ValueError, match="cross-pol"):
            WaveConfig(9.6e9, pol)

    def test_unknown_psd_rejected(self):
        with pytest.raises(ValueError):
            WaveConfig(9.6e9, "HH", "lorentzian")

    def test_case_normalization(self):
        wave = WaveConfig(9.6e9, "vv", "Gaussian")
        assert wave.polarization == "VV"
        assert wave.psd_kind == "gaussian"


class TestFresnel:
    """Fresnel factors read back through the branches at normal incidence:
    sigma_ka(0) = r0^2 l^2 / (4 h^2) and sigma_spm(0) = 8 k^4 W(0) f(0)."""

    H, L = 0.02, 0.1

    def r0_squared(self, eps_r):
        return ka(0.0, self.H, self.L, eps_r) * 4 * self.H ** 2 / self.L ** 2

    def fresnel_sq_normal(self, eps_r, pol):
        w0 = self.H ** 2 * self.L ** 2 / (4 * math.pi)
        return spm(0.0, self.H, self.L, eps_r, WaveConfig(9.6e9, pol)) / (8 * K ** 4 * w0)

    def test_matched_medium_is_zero(self):
        assert ka(0.0, self.H, self.L, 1.0) == 0.0

    def test_hand_value_eps4(self):
        # r0(4) = -1/3; the sign shows in d sigma_ka / d eps_r = 2 r0 r0'(eps_r) G,
        # with r0'(4) = -1 / (2 (1 + 2)^2) = -1/18 and G = l^2 / (4 h^2)
        assert self.r0_squared(4.0) == pytest.approx(1.0 / 9.0, rel=1e-14)
        _, grads = bsdf(0.0, self.H, self.L, 4.0, 1.0)
        g_geom = self.L ** 2 / (4 * self.H ** 2)
        assert grads[2] == pytest.approx(2 * (-1 / 3) * (-1 / 18) * g_geom, rel=1e-14)

    def test_hand_value_eps75(self):
        expected = (1 - math.sqrt(75)) / (1 + math.sqrt(75))
        assert self.r0_squared(75.0) == pytest.approx(expected ** 2, rel=1e-14)
        assert math.sqrt(self.r0_squared(75.0)) == pytest.approx(0.79297, abs=5e-5)

    def test_fresnel_sq_hh_normal_incidence(self):
        assert self.fresnel_sq_normal(4.0, "HH") == pytest.approx(1.0 / 9.0, rel=1e-13)

    def test_fresnel_sq_no_contrast(self):
        assert spm(0.7, self.H, self.L, 1.0) == pytest.approx(0.0, abs=1e-14)
        assert self.fresnel_sq_normal(1.0, "VV") == 0.0

    @given(st.floats(1.0, 500.0))
    def test_normal_incidence_relation(self, eps_r):
        assert self.fresnel_sq_normal(eps_r, "HH") == pytest.approx(
            self.r0_squared(eps_r), rel=1e-12, abs=1e-15)


class TestPsd:
    """W read back through the diffuse branch, sigma_spm / (8 k^4 cos^4 f)."""

    H, L = 0.003, 0.04

    def w_from_spm(self, theta, kind):
        f = ((math.cos(theta) - math.sqrt(4 - math.sin(theta) ** 2))
             / (math.cos(theta) + math.sqrt(4 - math.sin(theta) ** 2))) ** 2
        sigma = spm(theta, self.H, self.L, 4.0, WaveConfig(9.6e9, "HH", kind))
        return sigma / (8 * K ** 4 * math.cos(theta) ** 4 * f)

    def test_gaussian_at_origin(self):
        assert self.w_from_spm(0.0, "gaussian") == pytest.approx(
            self.H ** 2 * self.L ** 2 / (4 * math.pi), rel=1e-13)

    def test_exponential_at_origin(self):
        assert self.w_from_spm(0.0, "exponential") == pytest.approx(
            self.H ** 2 * self.L ** 2 / math.pi ** 2, rel=1e-13)

    def test_gaussian_decay_one_over_e(self):
        # backscatter frequency 2 k sin(theta) = 2 / l
        theta = math.asin(1 / (K * self.L))
        ratio = self.w_from_spm(theta, "gaussian") / self.w_from_spm(0.0, "gaussian")
        assert ratio == pytest.approx(math.exp(-1), rel=1e-12)


class TestSigmaSpm:
    def test_scales_with_h_squared(self):
        r = spm(0.5, 0.002, 0.01, 25.0) / spm(0.5, 0.001, 0.01, 25.0)
        assert r == pytest.approx(4.0, rel=1e-12)

    def test_no_dielectric_contrast_gives_zero(self):
        assert spm(0.5, 0.002, 0.01, 1.0) == pytest.approx(0.0, abs=1e-18)

    def test_golden_transcription_value(self):
        # frozen from the straight-line transcription above
        theta = math.radians(30)
        got = spm(theta, 0.002, 0.01, 25.0)
        assert got == pytest.approx(0.0422223563710428, rel=1e-12)
        assert got == pytest.approx(
            transcribe_sigma_spm(theta, 0.002, 0.01, 25.0, 9.6e9), rel=1e-12)

    def test_golden_transcription_vv_exponential(self):
        wave = WaveConfig(9.6e9, "VV", "exponential")
        theta = math.radians(40)
        got = spm(theta, 0.003, 0.02, 12.0, wave)
        assert got == pytest.approx(
            transcribe_sigma_spm(theta, 0.003, 0.02, 12.0, 9.6e9, "VV", "exponential"),
            rel=1e-12)


class TestSigmaKa:
    def test_normal_incidence_closed_form(self):
        h, l, eps = 0.02, 0.1, 6.885
        r0 = (1 - math.sqrt(eps)) / (1 + math.sqrt(eps))
        expected = r0 ** 2 * l * l / (4 * h * h)
        assert ka(0.0, h, l, eps) == pytest.approx(expected, rel=1e-12)

    def test_no_contrast_gives_zero(self):
        assert ka(0.5, 0.02, 0.1, 1.0) == 0.0

    def test_golden_transcription_value(self):
        got = ka(math.radians(45), 0.02, 0.1, 6.885)
        assert got == pytest.approx(0.009691121085032842, rel=1e-12)
        assert got == pytest.approx(
            transcribe_sigma_ka(math.radians(45), 0.02, 0.1, 6.885), rel=1e-12)


class TestBlend:
    def test_tau_zero_is_spm(self):
        sigma, grads = bsdf(0.6, 0.002, 0.01, 25.0, 0.0)
        s_spm = transcribe_sigma_spm(0.6, 0.002, 0.01, 25.0, 9.6e9)
        assert sigma == pytest.approx(s_spm, rel=1e-12)
        assert grads[3] == pytest.approx(
            transcribe_sigma_ka(0.6, 0.002, 0.01, 25.0) - s_spm, rel=1e-12)

    def test_tau_one_is_ka(self):
        sigma, _ = bsdf(0.6, 0.002, 0.01, 25.0, 1.0)
        assert sigma == pytest.approx(transcribe_sigma_ka(0.6, 0.002, 0.01, 25.0), rel=1e-12)

    def test_tau_half_is_midpoint(self):
        lo = bsdf(0.6, 0.002, 0.01, 25.0, 0.0)[0]
        hi = bsdf(0.6, 0.002, 0.01, 25.0, 1.0)[0]
        mid = bsdf(0.6, 0.002, 0.01, 25.0, 0.5)[0]
        assert mid == pytest.approx(0.5 * (lo + hi), rel=1e-12)


def fd_partials(theta, vals, wave):
    steps = [1e-5 * vals[0], 1e-5 * vals[1], 1e-4, 1e-5]
    out = []
    for ci in range(4):
        up = list(vals)
        dn = list(vals)
        up[ci] += steps[ci]
        dn[ci] -= steps[ci]
        su, _ = eval_bsdf_batch(np.array([theta]), np.array([up]), wave)
        sd, _ = eval_bsdf_batch(np.array([theta]), np.array([dn]), wave)
        out.append((su[0] - sd[0]) / (2 * steps[ci]))
    return out


@pytest.mark.parametrize("pol,kind", [("HH", "gaussian"), ("VV", "gaussian"),
                                      ("HH", "exponential"), ("VV", "exponential")])
def test_gradients_match_finite_differences(pol, kind):
    wave = WaveConfig(9.6e9, pol, kind)
    rng = np.random.default_rng(42)
    for _ in range(100):
        theta = rng.uniform(0.02, 1.5)
        vals = [10 ** rng.uniform(-4, -1.5), 10 ** rng.uniform(-3, -0.8),
                rng.uniform(1.05, 90.0), rng.uniform(0.05, 0.95)]
        _, grads = eval_bsdf_batch(np.array([theta]), np.array([vals]), wave)
        fd = fd_partials(theta, vals, wave)
        for analytic, numeric in zip(grads[0], fd):
            if abs(numeric) > 1e-12:
                assert abs(analytic - numeric) / abs(numeric) < 1e-4
            else:
                assert abs(analytic - numeric) < 1e-10


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 1.53), st.floats(-4, -1.4), st.floats(-3, -0.8),
       st.floats(1.0, 200.0), st.floats(0.0, 1.0),
       st.sampled_from(["HH", "VV"]), st.sampled_from(["gaussian", "exponential"]))
def test_sigma_nonnegative_and_tau_affine(theta, log_h, log_l, eps_r, tau, pol, kind):
    wave = WaveConfig(9.6e9, pol, kind)
    vals = np.array([[10 ** log_h, 10 ** log_l, eps_r, tau]])
    th = np.array([theta])
    sigma, _ = eval_bsdf_batch(th, vals, wave)
    assert sigma[0] >= 0.0
    lo, _ = eval_bsdf_batch(th, np.array([[vals[0, 0], vals[0, 1], eps_r, 0.0]]), wave)
    hi, _ = eval_bsdf_batch(th, np.array([[vals[0, 0], vals[0, 1], eps_r, 1.0]]), wave)
    blend = (1 - tau) * lo[0] + tau * hi[0]
    assert sigma[0] == pytest.approx(blend, rel=1e-12, abs=1e-300)
    assert min(lo[0], hi[0]) - 1e-12 <= sigma[0] <= max(lo[0], hi[0]) + 1e-12


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 1.53), st.floats(*BOX[0]), st.floats(*BOX[1]),
       st.floats(1.0, BOX[2][1]), st.floats(*BOX[3]),
       st.sampled_from(["HH", "VV"]), st.sampled_from(["gaussian", "exponential"]))
def test_finite_over_parameter_box(theta, h, l, eps_r, tau, pol, kind):
    """sigma >= 0 and every partial finite, from the box edges to grazing
    1.53 rad; eps_r from 1, below the box, where the contrast vanishes."""
    sigma, grads = bsdf(theta, h, l, eps_r, tau, WaveConfig(9.6e9, pol, kind))
    assert math.isfinite(sigma) and sigma >= 0.0
    assert np.all(np.isfinite(grads))


@functools.cache
def protocol_views():
    """(vertex count, HitSets) of the cube and building protocols' views, traced once."""
    protocols = (cube_recovery_protocol(), building_recovery_protocol())
    return [(proto.mesh.num_vertices, trace_views(proto.mesh, proto.radars))
            for proto in protocols]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), corner_share=st.sampled_from([0.0, 0.5, 1.0]))
@example(seed=0, corner_share=1.0)
def test_every_valid_table_shades_finite(seed, corner_share):
    """A table that ParamMap.validate accepts shades to finite sigma, partials
    and images on both protocols' views: h, l and eps_r log-uniform over
    the box, tau uniform, and that share of the cells moved to an end."""
    rng = np.random.default_rng(seed)
    lower, upper = np.log(PARAM_LOWER[:3]), np.log(PARAM_UPPER[:3])
    for num_vertices, hitsets in protocol_views():
        values = np.column_stack([np.exp(rng.uniform(lower, upper, (num_vertices, 3))),
                                  rng.uniform(0.0, 1.0, num_vertices)])
        values = np.clip(values, PARAM_LOWER, PARAM_UPPER)
        ends = rng.random(values.shape) < corner_share
        values[ends] = np.where(rng.random(values.shape) < 0.5, PARAM_LOWER, PARAM_UPPER)[ends]
        params = ParamMap(values)
        params.validate()
        for image, ledger in shade_views(hitsets, params):
            assert ledger.num_entries > 0
            assert np.isfinite(ledger.sigma).all() and np.isfinite(ledger.dsigma).all()
            assert np.isfinite(image.intensities).all()


def test_no_contrast_near_grazing_partials_finite():
    # eps_r = 1 within 1e-9 of grazing, where eps_r - sin^2(theta) rounds to 0
    theta = math.pi / 2 - 1e-9
    with np.errstate(divide="raise", invalid="raise"):
        out = [bsdf(theta, 0.002, 0.01, 1.0, 0.0, WaveConfig(9.6e9, pol))
               for pol in ("HH", "VV")]
    assert np.all(np.isfinite([grads for _, grads in out]))
    assert [sigma for sigma, _ in out] == [0.0, 0.0]


def oracle_validity(theta, h, l, frequency):
    """Scalar transcription of the seven validity conditions, in column order."""
    k = 2.0 * math.pi * frequency / 299792458.0
    lam = 299792458.0 / frequency
    return (
        k * h < 0.3,
        k ** 3 * h * h * l < 0.3,
        math.sqrt(2.0) * h / l < 0.3,
        k * l > 6.0,
        k * h > math.sqrt(10.0) / (2.0 * math.cos(theta)),
        l * l / (h * math.sqrt(24.0 / math.pi)) > lam,
        l * l > 2.76 * h * lam,
    )


def conditions(theta, h, l, wave=WAVE):
    """validity_mask at one hit -> {condition name: bool}."""
    row = validity_mask(np.array([theta]), np.array([[h, l, 9.0, 0.0]]), wave)[0]
    return dict(zip(VALIDITY_CONDITIONS, row.tolist()))


def spm_ok(theta, h, l):
    return all(v for name, v in conditions(theta, h, l).items() if name.startswith("spm"))


class TestValidity:
    def test_column_names(self):
        assert VALIDITY_CONDITIONS == ("spm_kh", "spm_k3h2l", "spm_slope", "ka_kl",
                                       "ka_rayleigh", "ka_curvature", "ka_gauss_curvature")

    def test_smooth_surface_spm_ok(self):
        # k = 201.2011 rad/m at 9.6 GHz: k h = 0.3 at h = 1.49105e-3 m
        assert spm_ok(math.radians(45), 0.0005, 0.05)
        below = conditions(math.radians(45), 1.49105e-3 * (1 - 1e-4), 0.05)
        above = conditions(math.radians(45), 1.49105e-3 * (1 + 1e-4), 0.05)
        assert below["spm_kh"] and not above["spm_kh"]

    def test_steep_slope_violates_spm(self):
        assert not spm_ok(math.radians(45), 0.002, 0.001)
        # sqrt(2) h / l = 0.3 at h = 2.12132e-4 m for l = 1 mm
        below = conditions(math.radians(45), 2.12132e-4 * (1 - 1e-4), 0.001)
        above = conditions(math.radians(45), 2.12132e-4 * (1 + 1e-4), 0.001)
        assert below["spm_slope"] and not above["spm_slope"]

    def test_long_correlation_flat_surface(self):
        got = conditions(math.radians(30), 0.001, 10.0)
        assert got["ka_kl"] and got["ka_curvature"] and got["ka_gauss_curvature"]

    def test_report_is_not_a_gate(self):
        assert not spm_ok(math.radians(45), 0.002, 0.001)
        assert spm(math.radians(45), 0.002, 0.001, 75.0) > 0.0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, math.pi / 2, exclude_max=True),
                          st.floats(1e-7, 1.0), st.floats(1e-7, 10.0)), max_size=20),
       st.integers(0, 2 ** 32 - 1),
       st.sampled_from([1.2e9, 9.6e9, 35e9]), st.sampled_from(["HH", "VV"]))
def test_validity_mask_matches_scalar_oracle(draws, seed, frequency, pol):
    """Column by column over the box: hypothesis's draws reach the box
    edges, and 500 log-uniform (h, l) draws per example cross every
    threshold often enough to catch a bound that is off by 1 %."""
    rng = np.random.default_rng(seed)
    n = 500
    rows = draws + list(zip(rng.uniform(0.0, math.pi / 2, n).tolist(),
                            (10.0 ** rng.uniform(-7.0, 0.0, n)).tolist(),
                            (10.0 ** rng.uniform(-7.0, 1.0, n)).tolist()))
    theta = np.array([th for th, _, _ in rows])
    values = np.array([[h, l, 9.0, 0.5] for _, h, l in rows])
    mask = validity_mask(theta, values, WaveConfig(frequency, pol))
    assert mask.shape == (len(rows), len(VALIDITY_CONDITIONS)) and mask.dtype == bool
    for got, (th, h, l) in zip(mask.tolist(), rows):
        assert tuple(got) == oracle_validity(th, h, l, frequency)


@pytest.mark.parametrize("pol", ["HH", "VV"])
@pytest.mark.parametrize("kind", ["gaussian", "exponential"])
def test_box_corners_at_grazing_and_normal_incidence(pol, kind):
    """Tiny slopes at grazing drive the KA exp to underflow; nothing may
    divide by zero, overflow or turn invalid."""
    corners = [(1e-7, 10.0, 1.0 + 1e-6), (1.0, 1e-7, 1.0), (1e-7, 1e-7, 75.0)]
    # arccos(0) is the angle trace reports when cos(theta) clips to 0
    theta = np.repeat([np.arccos(0.0), 0.0], len(corners))
    values = np.array([[h, l, eps_r, 0.5] for h, l, eps_r in corners] * 2)
    wave = WaveConfig(9.6e9, pol, kind)
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        sigma, grads = eval_bsdf_batch(theta, values, wave)
        mask = validity_mask(theta, values, wave)
    assert np.all(np.isfinite(sigma)) and np.all(np.isfinite(grads))
    assert mask.dtype == bool and mask.shape == (len(theta), 7)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 30),
       st.sampled_from(["HH", "VV"]), st.sampled_from(["gaussian", "exponential"]))
def test_angle_record_serves_many_tables_and_any_split(seed, n, pol, kind):
    """One angle record shades the same hits under several tables, and
    records of a split of the hits (learn's per-wave groups) shade their
    rows, bitwise as eval_bsdf_batch; the record is left as it was and each
    gradient channel is contiguous."""
    rng = np.random.default_rng(seed)
    wave = WaveConfig(9.6e9, pol, kind)
    theta = rng.uniform(0.0, 1.53, n)
    angles = bsdf_angles(theta, wave)
    before = {name: getattr(angles, name).copy() for name in angles._fields if name != "wave"}
    rows = rng.random(n) < 0.5
    for _ in range(3):
        values = np.column_stack([10.0 ** rng.uniform(-7, 0, n), 10.0 ** rng.uniform(-7, 1, n),
                                  1.0 + 10.0 ** rng.uniform(-6, 4, n), rng.random(n)])
        sigma, grads = eval_bsdf_batch(theta, values, wave)
        got_sigma, got_grads = eval_bsdf_at(angles, values)
        assert got_sigma.tobytes() == sigma.tobytes() and got_grads.tobytes() == grads.tobytes()
        assert got_grads.shape == (n, 4) and got_grads.T.flags.c_contiguous
        for part in (rows, ~rows):
            part_sigma, part_grads = eval_bsdf_at(bsdf_angles(theta[part], wave), values[part])
            assert part_sigma.tobytes() == sigma[part].tobytes()
            assert part_grads.tobytes() == grads[part].tobytes()
    assert all(getattr(angles, name).tobytes() == v.tobytes() for name, v in before.items())
