"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Budgets: the whole suite stays well under the stated
per-criterion runtime limits on a laptop-class machine.
"""

import math
import time

import numpy as np

from sartrace.accel import build_bvh, intersect_rays
from sartrace.experiments import (building_recovery_protocol,
                                  cube_recovery_protocol, recovered_errors,
                                  render_references, run_recovery)
from sartrace.imaging import MapFrame, bin_ranges_fast, range_bin_of, render, trace
from sartrace.learn import (LossConfig, OptimState, backward, grad_check, learn,
                            loss_sim, rmse_normalized)
from sartrace.scatter import WaveConfig, eval_bsdf_batch
from sartrace.scene import Mesh, ParamMap
from sartrace.scenes import merge_meshes, multiview_radars, plane_mesh, side_looking_radar

from conftest import load_script, rotated_radar


def _report(num, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\n[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    return ok


def test_01_bsdf_gradient_suite():
    """>= 1000 random inputs: analytic partials vs central differences."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    total = 0
    for pol in ("HH", "VV"):
        for kind in ("gaussian", "exponential"):
            wave = WaveConfig(9.6e9, pol, kind)
            n = 250
            theta = rng.uniform(0.02, 1.5, n)
            vals = np.column_stack([
                10 ** rng.uniform(-4, -1.5, n),
                10 ** rng.uniform(-3, -0.8, n),
                rng.uniform(1.05, 90.0, n),
                rng.uniform(0.05, 0.95, n),
            ])
            _, grads = eval_bsdf_batch(theta, vals, wave)
            steps = np.column_stack([1e-5 * vals[:, 0], 1e-5 * vals[:, 1],
                                     np.full(n, 1e-4), 1e-5 * vals[:, 3]])
            for ci in range(4):
                up = vals.copy()
                up[:, ci] += steps[:, ci]
                dn = vals.copy()
                dn[:, ci] -= steps[:, ci]
                su, _ = eval_bsdf_batch(theta, up, wave)
                sd, _ = eval_bsdf_batch(theta, dn, wave)
                fd = (su - sd) / (2.0 * steps[:, ci])
                big = np.abs(fd) > 1e-12
                rel = np.abs(grads[big, ci] - fd[big]) / np.abs(fd[big])
                assert np.all(rel < 1e-4), (pol, kind, ci, rel.max())
                assert np.all(np.abs(grads[~big, ci] - fd[~big]) < 1e-10)
                worst = max(worst, float(rel.max()) if rel.size else 0.0)
            total += n
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 10.0
    assert _report(1, "analytic BSDF partials vs finite differences", ok,
                   f"{total} inputs, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_02_end_to_end_gradient(two_facet_mesh, small_radar):
    """20 probes of the full render+loss pipeline on a 2-facet scene."""
    t0 = time.perf_counter()
    params = ParamMap.constant(two_facet_mesh.num_vertices, 0.004, 0.02, 9.0, 0.3)
    ref_params = params.copy()
    ref_params.values[:, 0] *= 1.5
    ref_params.values[:, 2] += 4.0
    hits = trace(two_facet_mesh, small_radar)
    ref = render(two_facet_mesh, ref_params, small_radar)[0].intensities
    cfg = LossConfig(lambda_sim=1.0, lambda_mat=1e-4, normalize=True)
    report = grad_check(params, [(hits, ref)], cfg, num_probes=20, seed=5)
    elapsed = time.perf_counter() - t0
    ok = report.max_rel_err < 1e-3 and elapsed < 60.0
    assert _report(2, "end-to-end gradient vs finite differences", ok,
                   f"max rel err {report.max_rel_err:.2e}, {elapsed:.1f}s")


def test_03_binning_oracle_equivalence():
    """Whole-view bincount binning vs per-hit scatter-add on 1e6 random hits."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    n = 1_000_000
    ranges = rng.uniform(0.0, 500.0, n)
    intensities = rng.uniform(0.0, 2.0, n)
    num_rows = 16
    rows = rng.integers(0, num_rows, n)
    origin = float(ranges.max())
    res = 0.75
    bins = range_bin_of(ranges, res, origin)
    bins_direct = np.floor((origin - ranges) / res).astype(np.int64)
    assert np.array_equal(bins, bins_direct)
    num_bins = int(bins.max()) + 1
    fast, fast_bins = bin_ranges_fast(rows, ranges, intensities, res, origin,
                                      (num_rows, num_bins))
    assert np.array_equal(fast_bins, bins_direct)
    naive = np.zeros((num_rows, num_bins))
    np.add.at(naive, (rows, bins_direct), intensities)
    denom = np.maximum(np.abs(naive), 1e-300)
    max_rel = float(np.max(np.abs(fast - naive) / denom))
    elapsed = time.perf_counter() - t0
    ok = max_rel < 1e-12 and elapsed < 10.0
    assert _report(3, "bincount binning vs scatter-add oracle", ok,
                   f"1e6 hits, max rel diff {max_rel:.2e}, {elapsed:.1f}s")


def test_04_bvh_oracle_equivalence():
    """BVH nearest hits vs vectorized linear scan, 10k rays x 10k facets."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    n_tri, n_ray = 10_000, 10_000
    base = rng.uniform(-5, 5, size=(n_tri, 3))
    edges = rng.uniform(-0.4, 0.4, size=(n_tri, 2, 3))
    vertices = np.concatenate([base, base + edges[:, 0], base + edges[:, 1]])
    facets = np.stack([np.arange(n_tri), np.arange(n_tri) + n_tri,
                       np.arange(n_tri) + 2 * n_tri], axis=1)
    mesh = Mesh.from_arrays(vertices, facets)
    bvh = build_bvh(mesh)
    origins = rng.uniform(-8, 8, size=(n_ray, 3))
    targets = rng.uniform(-4, 4, size=(n_ray, 3))
    dirs = targets - origins
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    fid_scan, t_scan, _, _, _ = intersect_rays(mesh, origins, dirs)
    fid_bvh, t_bvh, _, _, _ = intersect_rays(mesh, origins, dirs, bvh=bvh)

    ids_equal = np.array_equal(fid_scan, fid_bvh)
    hit = fid_scan >= 0
    max_rel_t = float(np.max(np.abs(t_scan[hit] - t_bvh[hit])
                             / np.abs(t_scan[hit]))) if hit.any() else 0.0
    elapsed = time.perf_counter() - t0
    ok = ids_equal and max_rel_t <= 1e-9 and elapsed < 60.0
    assert _report(4, "BVH vs linear-scan nearest hits", ok,
                   f"{int(hit.sum())} hits, ids equal: {ids_equal}, "
                   f"max t rel diff {max_rel_t:.1e}, {elapsed:.1f}s")


def test_05_cube_closed_loop_recovery():
    """Cube on plane, 9.6 GHz, 45 deg, HH, 3 views: recover (75, 0.002, 0.001)."""
    t0 = time.perf_counter()
    proto = cube_recovery_protocol()
    refs = render_references(proto)
    params, results, used = run_recovery(proto, refs)
    elapsed = time.perf_counter() - t0
    err_h, err_l, err_e = recovered_errors(proto, params)
    losses = np.concatenate([r.total_loss for r in results])
    loss_drop = float(losses.min() / losses[0])
    ok = (err_e < 0.03 and err_h < 0.10 and err_l < 0.10 and used <= 500
          and elapsed < 600.0 and loss_drop < 0.05)
    got = params.values[proto.target_ids[0]]
    assert _report(5, "cube parameter recovery", ok,
                   f"eps_r {got[2]:.2f} ({err_e * 100:.2f}%), h {got[0]:.5f} "
                   f"({err_h * 100:.2f}%), l {got[1]:.5f} ({err_l * 100:.2f}%), "
                   f"{used} iters, best/initial loss {loss_drop:.1e}, {elapsed:.0f}s")


def test_06_building_closed_loop_recovery():
    """Building from black init (1, 1e-4, 1e-4): recover (6.885, 0.02, 0.01)."""
    t0 = time.perf_counter()
    proto = building_recovery_protocol()
    refs = render_references(proto)
    params, _, used = run_recovery(proto, refs)
    elapsed = time.perf_counter() - t0
    err_h, err_l, err_e = recovered_errors(proto, params)
    ok = err_e < 0.10 and err_h < 0.15 and err_l < 0.15 and elapsed < 600.0
    got = params.values[proto.target_ids[0]]
    assert _report(6, "building parameter recovery", ok,
                   f"eps_r {got[2]:.3f} ({err_e * 100:.2f}%), h {got[0]:.5f} "
                   f"({err_h * 100:.2f}%), l {got[1]:.5f} ({err_l * 100:.2f}%), "
                   f"{used} iters, {elapsed:.0f}s")


def test_07_model_properties():
    """sigma >= 0 and tau-affine (1e5 draws); frame orthonormality; energy."""
    rng = np.random.default_rng(11)
    n = 100_000
    theta = rng.uniform(0.0, 1.53, n)
    vals = np.column_stack([
        10 ** rng.uniform(-4, -1.3, n), 10 ** rng.uniform(-3, -0.7, n),
        rng.uniform(1.0, 200.0, n), rng.uniform(0.0, 1.0, n)])
    wave = WaveConfig(9.6e9, "HH", "gaussian")
    sigma, _ = eval_bsdf_batch(theta, vals, wave)
    nonneg = bool(np.all(sigma >= 0.0))
    lo, _ = eval_bsdf_batch(theta, np.column_stack([vals[:, :3], np.zeros(n)]), wave)
    hi, _ = eval_bsdf_batch(theta, np.column_stack([vals[:, :3], np.ones(n)]), wave)
    blend = (1.0 - vals[:, 3]) * lo + vals[:, 3] * hi
    scale = np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1e-300)
    affine = bool(np.all(np.abs(sigma - blend) <= 1e-12 * scale))

    worst_ortho = 0.0
    for _ in range(1000):
        radar = rotated_radar(wave, rng.uniform(-math.pi, math.pi), rng.uniform(-1.5, 1.5),
                              rng.uniform(0.05, 1.5))
        rot = MapFrame.from_radar(radar).rotation
        worst_ortho = max(worst_ortho, float(np.abs(rot @ rot.T - np.eye(3)).max()))

    proto = cube_recovery_protocol()
    image, ledger = render(proto.mesh, proto.truth, proto.radars[0])
    pix = image.intensities.sum()
    led = (ledger.weight * ledger.sigma).sum()
    energy_rel = abs(pix - led) / abs(led)

    ok = nonneg and affine and worst_ortho < 1e-12 and energy_rel < 1e-9
    assert _report(7, "sigma/map-frame/energy properties", ok,
                   f"nonneg {nonneg}, tau-affine {affine}, "
                   f"orthonormality {worst_ortho:.1e}, energy {energy_rel:.1e}")


def test_08_visibility_and_multiview_benefit():
    """Never-lit vertices get exactly zero data gradient; 3 training views
    beat 1 on a held-out view."""
    # part 1: hidden plate receives exactly zero gradient in every view
    top = plane_mesh(4.0, 4.0, z=1.0)
    bottom = plane_mesh(1.0, 1.0, z=0.0)
    mesh = merge_meshes([top, bottom])
    params = ParamMap.constant(mesh.num_vertices, 0.004, 0.02, 9.0, 0.3)
    wave = WaveConfig(9.6e9, "HH", "gaussian")
    base = side_looking_radar(wave, distance=7.0, incidence=math.radians(45),
                              track_length=3.0, num_azimuth=6,
                              fan_halfwidth=math.radians(10), num_angles=16,
                              range_res=0.1, spua=2, seed=5)
    zero_grad = True
    for radar in multiview_radars(base, [0.0, 120.0, 240.0]):
        image, ledger = render(mesh, params, radar)
        _, dLdI = loss_sim(image, 0.5 * image.intensities,
                           LossConfig(1.0, 0.0, False))
        grad = backward(ledger, dLdI)
        zero_grad &= bool(np.all(grad[4:8] == 0.0)) and bool(np.any(grad[:4] != 0.0))

    # part 2: held-out view RMSE, 3 training views vs 1 (per-vertex learning)
    proto = cube_recovery_protocol()
    radars = {a: r for a, r in zip((0, 60, 120, 240),
                                   multiview_radars(proto.radars[0], (0, 60, 120, 240)))}
    refs = {a: render(proto.mesh, proto.truth, r)[0].intensities
            for a, r in radars.items()}
    hits = {a: trace(proto.mesh, radars[a]) for a in (0, 120, 240)}

    def train(azimuths):
        params = proto.truth.copy()
        params.values[proto.target_ids, :3] = [0.005, 0.01, 25.0]
        opt = OptimState.create(params.num_vertices, lr=0.05, beta2=0.99,
                                freeze_channels=("tau",),
                                freeze_vertices=proto.frozen_ids)
        res = learn(params, [(hits[a], refs[a]) for a in azimuths],
                    opt, LossConfig(1.0, 1e-4, True), iters=150)
        held, _ = render(proto.mesh, params, radars[60])
        return rmse_normalized(held.intensities, refs[60])

    rmse3 = train((0, 120, 240))
    rmse1 = train((0,))
    ok = zero_grad and rmse3 <= rmse1
    assert _report(8, "visibility gradient + multi-view benefit", ok,
                   f"hidden-plate grads zero: {zero_grad}, held-out RMSE "
                   f"3 views {rmse3:.4f} <= 1 view {rmse1:.4f}")


def test_09_sampling_convergence():
    """Doubling-distance RMSE decreases with ray density (median of 5 seeds),
    as scripts/sampling_convergence.py computes it."""
    table = load_script("sampling_convergence.py").doubling_rmse()
    assert [s for s, _, _ in table] == [8, 16, 32, 64]
    medians = [m for _, m, _ in table]
    ok = all(a > b for a, b in zip(medians, medians[1:]))
    detail = ", ".join(f"s={s}: {m:.4f}" for s, m, _ in table)
    assert _report(9, "sampling doubling-distance decreases", ok, detail)


def test_10_determinism():
    """Same seed: bitwise-identical images and identical ledgers."""
    proto = cube_recovery_protocol()
    a, la = render(proto.mesh, proto.truth, proto.radars[0])
    b, lb = render(proto.mesh, proto.truth, proto.radars[0])
    bitwise = np.array_equal(a.intensities, b.intensities)
    ledger_ok = (np.array_equal(la.range_bin, lb.range_bin)
                 and np.array_equal(la.facet_id, lb.facet_id))
    ok = bitwise and ledger_ok
    assert _report(10, "seeded determinism", ok,
                   f"bitwise {bitwise}, ledger identical {ledger_ok}")
