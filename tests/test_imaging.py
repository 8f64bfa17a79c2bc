import collections
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sartrace.imaging as imaging
from sartrace import cli
from sartrace.accel import build_bvh, uses_bvh
from sartrace.imaging import (HitSet, MapFrame, RadarConfig, _cross, bin_ranges_fast,
                              generate_rays, range_bin_of, read_raster, render,
                              shade, shade_views, trace, trace_views, vertex_range_window,
                              write_pgm, write_raster)
from sartrace.scatter import WaveConfig
from sartrace.scene import Mesh, ParamMap
from sartrace.scenes import plane_mesh, merge_meshes, rotate_radar, side_looking_radar

from conftest import grid_mesh, load_script, map_frame_from_angles, rotated_radar


def count_stages(monkeypatch):
    """Count imaging's calls of each tracing and shading stage: calls[name]
    for generate_rays, intersect_rays, interpolate and eval_bsdf_at, and
    calls["bincount"] for the np.bincount calls that sum an image (the
    ones given weights)."""
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if name != "bincount" or len(args) > 1 or kwargs.get("weights") is not None:
                calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("generate_rays", "intersect_rays", "interpolate", "eval_bsdf_at"):
        monkeypatch.setattr(imaging, name, counted(name, getattr(imaging, name)))

    class Numpy:
        """imaging's numpy, with bincount counted."""
        bincount = staticmethod(counted("bincount", np.bincount))

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(imaging, "np", Numpy())
    return calls


def bin_ranges_naive(ranges, intensities, range_res, range_origin, num_bins):
    """Per-hit scatter-add oracle, original hit order."""
    profile = np.zeros(num_bins)
    for r, w in zip(ranges, intensities):
        b = int(math.floor((range_origin - r) / range_res))
        assert b >= 0
        profile[b] += w
    return profile


class TestGenerateRays:
    def test_spua_one_hits_bin_centers(self, small_radar):
        radar = dataclasses.replace(small_radar, spua=1)
        fan = generate_rays(radar, 0)
        assert len(fan.angles) == radar.num_angles
        width = (radar.alpha1 - radar.alpha0) / radar.num_angles
        expected = radar.alpha0 + width * (np.arange(radar.num_angles) + 0.5)
        np.testing.assert_allclose(fan.angles, expected, rtol=1e-12)

    def test_same_seed_bitwise_identical(self, small_radar):
        a = generate_rays(small_radar, 2)
        b = generate_rays(small_radar, 2)
        np.testing.assert_array_equal(a.directions, b.directions)
        np.testing.assert_array_equal(a.angles, b.angles)

    def test_different_rows_differ(self, small_radar):
        a = generate_rays(small_radar, 0)
        b = generate_rays(small_radar, 1)
        assert not np.array_equal(a.angles, b.angles)

    def test_stratification_bounds(self, wave_hh):
        radar = RadarConfig(
            wave=wave_hh, start_pos=[0, 4, 4], end_pos=[1, 4, 4], num_azimuth=2,
            alpha0=0.5, alpha1=0.9, num_angles=10, range_res=0.1, azimuth_res=0.5,
            spua=128, seed=9)
        fan = generate_rays(radar, 1)
        assert len(fan.angles) == 1280
        width = 0.4 / 10
        bins = ((fan.angles - 0.5) // width).astype(int)
        np.testing.assert_array_equal(bins, np.repeat(np.arange(10), 128))

    def test_unit_directions_and_weights(self, small_radar):
        fan = generate_rays(small_radar, 0)
        np.testing.assert_allclose(np.linalg.norm(fan.directions, axis=1), 1.0,
                                   atol=1e-12)
        width = (small_radar.alpha1 - small_radar.alpha0) / small_radar.num_angles
        np.testing.assert_allclose(fan.weights, width / small_radar.spua)

    def test_out_of_range_row(self, small_radar):
        with pytest.raises(ValueError):
            generate_rays(small_radar, 6)

    @pytest.mark.parametrize("spua", [1, 3])
    def test_row_batch_is_concatenation_of_rows(self, small_radar, spua):
        radar = dataclasses.replace(small_radar, spua=spua)
        n = radar.num_azimuth
        batch = generate_rays(radar, np.arange(n))
        rows = [generate_rays(radar, r) for r in range(n)]
        for name in ("origins", "directions", "weights", "angles"):
            expect = np.concatenate([getattr(f, name) for f in rows])
            got = getattr(batch, name)
            assert got.shape == expect.shape
            assert got.tobytes() == expect.tobytes(), name
        # a row's rays do not depend on the batch it comes in
        pair = generate_rays(radar, np.array([4, 1]))
        assert pair.angles.tobytes() == np.concatenate([rows[4].angles, rows[1].angles]).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 20), st.sampled_from([2, 3]),
           st.one_of(st.just(0), st.integers(0, 2 ** 63 - 1), st.just(np.uint64(2 ** 63))))
    def test_any_rows_are_slices_of_the_view(self, data, num_azimuth, spua, seed):
        radar = RadarConfig(
            wave=WaveConfig(9.6e9), start_pos=[-0.5, 4.0, 4.0], end_pos=[2.5, 4.0, 4.0],
            num_azimuth=num_azimuth, alpha0=0.6, alpha1=0.95, num_angles=7, range_res=0.1,
            azimuth_res=0.5, spua=spua, seed=seed)
        rows = np.array(data.draw(st.lists(st.integers(0, num_azimuth - 1), min_size=1,
                                           max_size=30)))
        batch = generate_rays(radar, rows)
        singles = [generate_rays(radar, int(r)) for r in rows]
        view = generate_rays(radar, np.arange(num_azimuth))
        per_row = radar.num_angles * spua
        picked = (rows[:, None] * per_row + np.arange(per_row)).ravel()
        for name in ("origins", "directions", "weights", "angles"):
            got = getattr(batch, name)
            for expect in (np.concatenate([getattr(f, name) for f in singles]),
                           getattr(view, name)[picked]):
                assert got.shape == expect.shape
                assert got.tobytes() == expect.tobytes(), name

    @pytest.mark.parametrize("spua", [1, 3])
    def test_no_rows_give_an_empty_fan(self, small_radar, spua):
        fan = generate_rays(dataclasses.replace(small_radar, spua=spua), np.array([], dtype=int))
        assert fan.origins.shape == fan.directions.shape == (0, 3)
        assert fan.weights.shape == fan.angles.shape == (0,)

    @pytest.mark.parametrize("spua, built", [(1, 0), (3, 1)])
    def test_one_generator_per_call(self, small_radar, monkeypatch, spua, built):
        seeds = []
        default_rng = np.random.default_rng

        def counting_rng(seed=None):
            seeds.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        generate_rays(dataclasses.replace(small_radar, spua=spua), np.arange(6))
        assert seeds == [small_radar.seed] * built

    @pytest.mark.parametrize("index", [True, 1.7, np.array([[0, 1]]), np.array([0.0, 1.0]),
                                       np.array([2, 6]), -1],
                             ids=["bool", "float", "2-d", "float-array", "array-out-of-range",
                                  "negative"])
    def test_bad_index_named(self, small_radar, index):
        with pytest.raises(ValueError, match=r"azimuth index .*(not an int|out of range)"):
            generate_rays(small_radar, index)


class TestRadarConfig:
    def test_rejects_bad_fan(self, wave_hh):
        with pytest.raises(ValueError):
            RadarConfig(wave=wave_hh, start_pos=[0, 0, 1], end_pos=[1, 0, 1],
                        num_azimuth=1, alpha0=0.9, alpha1=0.5, num_angles=4,
                        range_res=0.1, azimuth_res=0.1)

    def test_rejects_vertical_track(self, wave_hh):
        with pytest.raises(ValueError, match="vertical"):
            RadarConfig(wave=wave_hh, start_pos=[0, 0, 0], end_pos=[0, 0, 2],
                        num_azimuth=2, alpha0=0.5, alpha1=0.9, num_angles=4,
                        range_res=0.1, azimuth_res=0.1)

    @pytest.mark.parametrize("field, bad", [
        ("range_res", math.nan), ("range_res", math.inf), ("range_res", 0.0),
        ("azimuth_res", math.nan), ("azimuth_res", math.inf), ("azimuth_res", -0.5),
        ("start_pos", [-0.5, math.nan, 4.0]), ("end_pos", [2.5, 4.0, math.inf]),
        ("num_azimuth", 6.0), ("num_azimuth", True), ("num_angles", 2.5), ("spua", 2.0),
        ("spua", "2"), ("spua", 0), ("seed", -1), ("seed", 1.5), ("seed", 2.0), ("seed", True),
        ("seed", None),
    ])
    def test_bad_field_named(self, small_radar, field, bad):
        with pytest.raises(ValueError, match=f"^{field} "):
            dataclasses.replace(small_radar, **{field: bad})

    def test_numpy_integer_counts_accepted(self, small_radar):
        radar = dataclasses.replace(small_radar, num_azimuth=np.int64(6), spua=np.int32(2))
        assert generate_rays(radar, np.arange(6)).origins.shape == (6 * 10 * 2, 3)

    @pytest.mark.parametrize("spua", [1, 2])
    def test_seed_checked_whatever_spua(self, small_radar, spua):
        """The seed only draws jitter when spua > 1; it is checked either way."""
        with pytest.raises(ValueError, match="^seed -1 is not an integer >= 0$"):
            dataclasses.replace(small_radar, spua=spua, seed=-1)
        radar = dataclasses.replace(small_radar, spua=spua, seed=np.uint64(2 ** 63))
        assert generate_rays(radar, 0).origins.shape == (10 * spua, 3)

    @pytest.mark.parametrize("alphas, shape", [(0.5, (1, 3)), (np.float64(0.5), (1, 3)),
                                               (np.array(0.5), (1, 3)), ([0.4, 0.5, 0.6], (3, 3)),
                                               (np.zeros(0), (0, 3))],
                             ids=["float", "float64", "0-d", "1-d", "empty"])
    def test_ray_directions_of_a_scalar_or_1d_array(self, small_radar, alphas, shape):
        directions = small_radar.ray_directions(alphas)
        assert directions.shape == shape and directions.dtype == np.float64
        np.testing.assert_allclose(np.linalg.norm(directions, axis=1), 1.0, rtol=1e-15)

    @pytest.mark.parametrize("shape", [(2, 1), (2, 2), (1, 1, 3)], ids=["2x1", "2x2", "1x1x3"])
    def test_ray_directions_name_any_other_shape(self, small_radar, shape):
        """A (2, 2) angle array used to fail in numpy's broadcasting, with
        the shapes (2,1,2) (1,3) of its products, and a (2, 1) one to give
        (2, 1, 3) directions."""
        with pytest.raises(ValueError, match=rf"^incidence angles of shape {re.escape(str(shape))}, "
                                             "not a scalar or 1-D$"):
            small_radar.ray_directions(np.full(shape, 0.5))

    def test_cross_is_np_cross_bitwise(self):
        rng = np.random.default_rng(21)
        vectors = rng.normal(size=(500, 2, 3)) * 10.0 ** rng.uniform(-8, 8, (500, 2, 1))
        vectors[:50, 1] = [0.0, 0.0, 1.0]
        for a, b in vectors:
            assert _cross(a, b).tobytes() == np.cross(a, b).tobytes()

    def test_unit_axes_derived_once(self, small_radar):
        track = small_radar.end_pos - small_radar.start_pos
        track_dir = track / np.linalg.norm(track)
        side = np.cross(track_dir, [0.0, 0.0, 1.0])
        assert small_radar.track_dir.tobytes() == track_dir.tobytes()
        assert small_radar.side_dir.tobytes() == (side / np.linalg.norm(side)).tobytes()
        assert small_radar.side_dir is small_radar.side_dir
        with pytest.raises(ValueError):
            small_radar.track_dir[0] = 0.0
        moved = dataclasses.replace(small_radar, end_pos=small_radar.end_pos + [0.0, 1.0, 0.0])
        assert not np.array_equal(moved.track_dir, small_radar.track_dir)

    def test_positions_interpolate(self, small_radar):
        pos = small_radar.platform_positions()
        np.testing.assert_allclose(pos[0], small_radar.start_pos)
        np.testing.assert_allclose(pos[-1], small_radar.end_pos)
        steps = np.diff(pos, axis=0)
        np.testing.assert_allclose(steps, np.tile(steps[0], (len(steps), 1)), atol=1e-12)


def product_form_directions(radar, alphas):
    """The form of RadarConfig.ray_directions that multiplied by every
    component of up: sin(a) side - cos(a) up, angles made at least 1-D."""
    alphas = np.atleast_1d(np.asarray(alphas, dtype=np.float64))
    up = np.array([0.0, 0.0, 1.0])
    return np.sin(alphas)[:, None] * radar.side_dir[None, :] - np.cos(alphas)[:, None] * up[None, :]


def stacked_frame(radar):
    """MapFrame.from_radar's rotation and translation by np.linalg.norm,
    np.cross and np.stack, from the product-form fan-top ray."""
    r_axis = product_form_directions(radar, radar.alpha1)[0]
    track = radar.track_dir
    u_axis = track - np.dot(track, r_axis) * r_axis
    u_axis = -u_axis / np.linalg.norm(u_axis)
    rotation = np.stack([u_axis, np.cross(r_axis, u_axis), r_axis])
    return rotation, -rotation @ radar.start_pos


class TestRayGenerationOracles:
    """Ray generation, the mapping frame and the traced incidence angles,
    bitwise the broadcast products, np.linalg.norm, np.stack, np.repeat of
    fancy-indexed rows and np.clip they were computed with, on tracks
    rotated so that side_dir has x and y components."""

    @pytest.fixture(params=[(spua, azimuth) for spua in (1, 2) for azimuth in (0, 120, 240)],
                    ids=lambda p: f"spua{p[0]}-az{p[1]}")
    def radar(self, request, small_radar):
        spua, azimuth = request.param
        radar = rotate_radar(dataclasses.replace(small_radar, spua=spua), math.radians(azimuth))
        assert (radar.side_dir[:2] != 0.0).all() or azimuth == 0
        return radar

    def test_directions(self, radar):
        fan = generate_rays(radar, np.arange(radar.num_azimuth))
        assert_bitwise(fan.directions, product_form_directions(radar, fan.angles))
        for alpha in (radar.alpha1, np.float64(radar.alpha0), np.array(0.61), [0.61]):
            assert_bitwise(radar.ray_directions(alpha), product_form_directions(radar, alpha))

    def test_origins(self, radar):
        rays = radar.num_angles * radar.spua
        for rows in (np.arange(radar.num_azimuth), np.array([3, 0, 3]), 4):
            expect = np.repeat(radar.platform_positions()[np.atleast_1d(rows)], rays, axis=0)
            assert_bitwise(generate_rays(radar, rows).origins, expect)

    def test_frame(self, radar):
        frame, (rotation, translation) = MapFrame.from_radar(radar), stacked_frame(radar)
        assert_bitwise(frame.rotation, rotation)
        assert_bitwise(frame.translation, translation)

    @pytest.mark.parametrize("path", ["scan", "bvh"])
    def test_traced_theta(self, radar, path, monkeypatch):
        """theta is arccos of the clipped cos_theta of each hit, also where
        cos_theta is set to 1 + 2**-52, 1, 0 or NaN."""
        grid = grid_mesh(12)
        mesh = Mesh.from_arrays(grid.vertices - [5.0, 5.0, 0.0], grid.facets)
        bvh = build_bvh(mesh) if path == "bvh" else None
        assert uses_bvh(mesh)
        seen, intersect_rays = [], imaging.intersect_rays

        def edited(*args, **kwargs):
            out = intersect_rays(*args, **kwargs)
            hit = np.flatnonzero(out[0] >= 0)
            out[4][hit[:4]] = [1.0 + 2.0 ** -52, 1.0, 0.0, np.nan]
            seen.append(out)
            return out

        monkeypatch.setattr(imaging, "intersect_rays", edited)
        hits = trace(mesh, radar, bvh=bvh)
        fid, cos_theta = seen[0][0], seen[0][4]
        assert hits.num_entries > 4
        assert_bitwise(hits.theta, np.arccos(np.clip(cos_theta[fid >= 0], 0.0, 1.0)))
        assert hits.theta[0] == hits.theta[1] == 0.0 and np.isnan(hits.theta[3])


radar_poses = st.tuples(st.floats(-math.pi, math.pi), st.floats(-1.5, 1.5),
                        st.floats(0.05, 1.5))


class TestMapFrame:
    def test_zero_angles_hand_value(self, wave_hh):
        # flight along +X, fan-top ray at 45 deg toward -Y: the rows are
        # U = (-1, 0, 0), V = R x U = (0, s, -s), R = (0, -s, -s), s = 1/sqrt(2)
        frame = MapFrame.from_radar(rotated_radar(wave_hh, 0.0, 0.0, math.pi / 4))
        s = math.sqrt(0.5)
        np.testing.assert_allclose(frame.apply(np.array([1.0, 2.0, 3.0])),
                                   [-1.0, -s, -5 * s], atol=1e-15)

    def test_origin_maps_to_zero(self, wave_hh):
        radar = rotated_radar(wave_hh, 1.1, 0.3, 0.7, start=(5.0, -2.0, 7.0))
        np.testing.assert_allclose(MapFrame.from_radar(radar).apply(radar.start_pos),
                                   np.zeros(3), atol=1e-12)

    @settings(max_examples=200)
    @given(radar_poses)
    def test_orthonormal_for_any_angles(self, pose):
        wave = WaveConfig(9.6e9)
        rot = MapFrame.from_radar(rotated_radar(wave, *pose)).rotation
        np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-12)

    @given(radar_poses, st.lists(st.floats(-10, 10), min_size=3, max_size=3))
    def test_norm_preserved(self, pose, point):
        wave = WaveConfig(9.6e9)
        frame = MapFrame.from_radar(rotated_radar(wave, *pose))
        out = frame.apply(np.asarray(point))
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(point), abs=1e-9)

    def test_from_radar_matches_canonical_angles(self, wave_hh):
        # flight along +X looks toward -Y; with gamma = depression of the
        # fan-top ray this reproduces the (gamma, beta=0) canonical pose
        radar = RadarConfig(
            wave=wave_hh, start_pos=[-2, 0, 3], end_pos=[2, 0, 3], num_azimuth=4,
            alpha0=0.4, alpha1=0.8, num_angles=4, range_res=0.1, azimuth_res=1.0)
        frame = MapFrame.from_radar(radar)
        gamma = math.pi / 2 - radar.alpha1     # depression of the fan-top ray
        rotation, translation = map_frame_from_angles(gamma, 0.0, origin=radar.start_pos)
        np.testing.assert_allclose(frame.rotation, rotation, atol=1e-12)
        np.testing.assert_allclose(frame.translation, translation, atol=1e-12)

    def test_from_radar_orthonormal(self, small_radar):
        rot = MapFrame.from_radar(small_radar).rotation
        np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-12)


def one_row(n):
    return np.zeros(n, dtype=np.int64)


class TestBinRanges:
    def test_hand_example(self):
        image, bins = bin_ranges_fast(one_row(3), [10.0, 9.4, 8.2], [1.0, 2.0, 3.0],
                                      1.0, 10.0, (1, 2))
        np.testing.assert_allclose(image, [[3.0, 3.0]])
        np.testing.assert_array_equal(bins, [0, 0, 1])

    def test_single_hit(self):
        image, _ = bin_ranges_fast(one_row(1), [5.0], [2.5], 0.5, 6.0, (1, 3))
        assert image[0, 2] == 2.5
        assert image.sum() == 2.5

    def test_all_equal_ranges(self):
        image, _ = bin_ranges_fast(one_row(7), [4.0] * 7, np.arange(7.0), 1.0, 4.0, (1, 1))
        np.testing.assert_allclose(image, [[21.0]])

    def test_negative_bin_rejected(self):
        with pytest.raises(ValueError, match="negative bin"):
            bin_ranges_fast(one_row(1), [11.0], [1.0], 1.0, 10.0, (1, 1))

    def test_fixed_width_overflow_rejected(self):
        with pytest.raises(ValueError, match="bin 9 outside"):
            bin_ranges_fast(one_row(1), [1.0], [1.0], 1.0, 10.0, (1, 3))

    def test_empty(self):
        image, bins = bin_ranges_fast(one_row(0), [], [], 1.0, 10.0, (1, 4))
        np.testing.assert_array_equal(image, np.zeros((1, 4)))
        assert bins.size == 0

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 400), st.integers(0, 2 ** 32 - 1))
    def test_matches_naive_scatter_add(self, n, seed):
        rng = np.random.default_rng(seed)
        ranges = rng.uniform(-30.0, 50.0, n)
        intensities = rng.uniform(0.0, 5.0, n)
        origin = ranges.max()
        res = rng.uniform(0.05, 3.0)
        num_bins = int(math.floor((origin - ranges.min()) / res)) + 1
        fast, bins = bin_ranges_fast(one_row(n), ranges, intensities, res, origin,
                                     (1, num_bins))
        naive = bin_ranges_naive(ranges, intensities, res, origin, num_bins)
        np.testing.assert_allclose(fast[0], naive, rtol=1e-12, atol=1e-300)
        np.testing.assert_array_equal(bins, range_bin_of(ranges, res, origin))
        assert bins.min() >= 0 and bins.max() < num_bins


@pytest.fixture
def plate_scene():
    """Ground patch plus a raised plate that shadows part of it."""
    ground = plane_mesh(6.0, 6.0, z=0.0)
    plate = plane_mesh(2.0, 2.0, z=1.0)
    mesh = merge_meshes([ground, plate])
    params = ParamMap.constant(mesh.num_vertices, 0.004, 0.02, 9.0, 0.1)
    return mesh, params


def assert_bitwise(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.fixture
def plate_radar(wave_hh):
    return side_looking_radar(wave_hh, distance=7.0, incidence=math.radians(45),
                              track_length=3.0, num_azimuth=8,
                              fan_halfwidth=math.radians(12), num_angles=12,
                              range_res=0.1, spua=3, seed=5)


class TestRender:
    def test_zero_hits_gives_zero_image(self, plate_scene, wave_hh):
        mesh, params = plate_scene
        radar = RadarConfig(
            wave=wave_hh, start_pos=[100, 50, 5], end_pos=[103, 50, 5],
            num_azimuth=4, alpha0=0.6, alpha1=0.9, num_angles=8,
            range_res=0.1, azimuth_res=0.75, seed=1)
        image, ledger = render(mesh, params, radar)
        assert image.intensities.shape[0] == 4
        assert np.all(image.intensities == 0.0)
        assert ledger.num_entries == 0

    def test_mesh_without_facets_gives_zero_image(self, plate_scene, plate_radar):
        mesh, params = plate_scene
        bare = Mesh.from_arrays(mesh.vertices, np.zeros((0, 3), dtype=np.int64))
        image, ledger = render(bare, params, plate_radar)
        origin, num_bins = vertex_range_window(bare, plate_radar)
        assert image.range_origin == origin
        assert_bitwise(image.intensities, np.zeros((plate_radar.num_azimuth, num_bins)))
        assert ledger.num_entries == 0
        hits = trace(bare, plate_radar)
        assert hits.facet_id.size == 0 and hits.image_shape == image.shape

    def test_energy_bookkeeping(self, plate_scene, plate_radar):
        mesh, params = plate_scene
        image, ledger = render(mesh, params, plate_radar)
        pixel_sum = image.intensities.sum()
        ledger_sum = (ledger.weight * ledger.sigma).sum()
        assert pixel_sum == pytest.approx(ledger_sum, rel=1e-9)
        assert np.all(image.intensities >= 0.0)
        assert np.isfinite(image.intensities).all()

    def test_occluded_plate_never_hit(self, plate_scene, plate_radar):
        mesh, params = plate_scene
        # shrink the ground patch so it hides fully under the plate
        small_ground = plane_mesh(0.8, 0.8, z=0.0)
        plate = plane_mesh(4.0, 4.0, z=1.0)
        mesh2 = merge_meshes([plate, small_ground])   # plate facets 0-1
        params2 = ParamMap.constant(8, 0.004, 0.02, 9.0, 0.1)
        _, ledger = render(mesh2, params2, plate_radar)
        assert ledger.num_entries > 0
        assert not np.any(np.isin(ledger.facet_id, [2, 3]))

    def test_deterministic_same_seed(self, plate_scene, plate_radar):
        mesh, params = plate_scene
        a, _ = render(mesh, params, plate_radar)
        b, _ = render(mesh, params, plate_radar)
        np.testing.assert_array_equal(a.intensities, b.intensities)

    def test_image_is_ledger_scatter_add(self, plate_scene, plate_radar):
        mesh, params = plate_scene
        image, ledger = render(mesh, params, plate_radar)
        assert np.all(np.diff(ledger.row) >= 0)
        expect = np.zeros(ledger.image_shape)
        np.add.at(expect, (ledger.row, ledger.range_bin), ledger.weight * ledger.sigma)
        np.testing.assert_allclose(image.intensities, expect, rtol=1e-12, atol=0.0)

    def test_one_batch_per_view(self, plate_scene, plate_radar, monkeypatch):
        mesh, params = plate_scene
        calls = count_stages(monkeypatch)
        render(mesh, params, plate_radar)
        assert calls == {"generate_rays": 1, "intersect_rays": 1, "interpolate": 1,
                         "eval_bsdf_at": 1, "bincount": 1}

    def test_range_window_excluding_hits_names_bin(self, plate_scene, plate_radar):
        """A pinned window is checked when the view is traced: the first hit
        outside it is named by its bin, past either end."""
        mesh, params = plate_scene
        image, ledger = render(mesh, params, plate_radar)
        for window in ((image.range_origin, int(ledger.range_bin.max())),
                       (image.range_origin - 1.0, image.shape[1])):
            bins = range_bin_of(ledger.ranges, plate_radar.range_res, window[0])
            bad = bins[(bins < 0) | (bins >= window[1])]
            assert 0 < bad.size < bins.size
            message = f"^view 0: bin {bad[0]} outside profile of {window[1]} bins$"
            with pytest.raises(ValueError, match=message):
                trace(mesh, plate_radar, range_window=window)
            with pytest.raises(ValueError, match=message):
                render(mesh, params, plate_radar, range_window=window)

    @pytest.mark.parametrize("field, bad", [("origin", math.nan), ("origin", math.inf),
                                            ("num_bins", 2.5), ("num_bins", 0),
                                            ("num_bins", -1), ("num_bins", None),
                                            ("num_bins", True)])
    def test_bad_range_window_named_up_front(self, plate_scene, plate_radar, field, bad):
        """trace names range_window and the bad field before it traces;
        bad=None is a valid np.int64 count, and a bool is no count."""
        mesh, _ = plate_scene
        origin, num_bins = vertex_range_window(mesh, plate_radar)
        if bad is None:
            hits = trace(mesh, plate_radar, range_window=(origin, np.int64(num_bins)))
            assert hits.image_shape == (plate_radar.num_azimuth, num_bins)
            return
        window = (bad, num_bins) if field == "origin" else (origin, bad)
        with pytest.raises(ValueError, match=f"^range_window {field} {re.escape(repr(bad))} "):
            trace(mesh, plate_radar, range_window=window)

    @pytest.mark.parametrize("pinned", [False, True])
    def test_shade_of_trace_is_render_bitwise(self, plate_scene, plate_radar, pinned):
        mesh, params = plate_scene
        window = vertex_range_window(mesh, plate_radar) if pinned else None
        hits = trace(mesh, plate_radar, range_window=window)
        other = params.copy()
        other.values[:, 0] *= np.linspace(0.5, 2.0, mesh.num_vertices)
        other.values[:, 2] += 4.0
        # one HitSet serves every table: shading it is exactly a new render
        for table in (params, other, params):
            image, ledger = shade(hits, table)
            ref_image, ref_ledger = render(mesh, table, plate_radar, range_window=window)
            assert image.range_origin == ref_image.range_origin
            assert ledger.image_shape == ref_ledger.image_shape == image.shape
            assert_bitwise(image.intensities, ref_image.intensities)
            for name in ("row", "range_bin", "facet_id", "m1", "m2", "weight", "sigma",
                         "dsigma"):
                assert_bitwise(getattr(ledger, name), getattr(ref_ledger, name))

    def test_ledger_is_its_hitset_shaded(self, plate_scene, plate_radar):
        mesh, params = plate_scene
        hits = trace(mesh, plate_radar)
        image, ledger = shade(hits, params)
        assert isinstance(ledger, HitSet) and ledger.num_entries == hits.num_entries > 0
        for name in ("mesh", "radar", "image_shape", "row", "facet_id", "m1", "m2", "theta",
                     "weight", "ranges", "range_bin"):
            assert getattr(ledger, name) is getattr(hits, name), name
        assert image.radar is hits.radar and image.range_origin == ledger.range_origin
        with pytest.raises(dataclasses.FrozenInstanceError):
            ledger.sigma = ledger.sigma
        # a ledger is a HitSet: shading it again gives the same image and arrays
        again_image, again = shade(ledger, params)
        assert_bitwise(again_image.intensities, image.intensities)
        assert again.row is hits.row and again.range_bin is hits.range_bin
        for name in ("sigma", "dsigma"):
            assert_bitwise(getattr(again, name), getattr(ledger, name))

    def test_intensity_linearity_in_sigma(self, plate_scene, plate_radar, monkeypatch):
        from sartrace.scatter import eval_bsdf_at
        mesh, params = plate_scene
        base, _ = render(mesh, params, plate_radar)

        def scaled(angles, values):
            sigma, grads = eval_bsdf_at(angles, values)
            return 3.0 * sigma, grads

        monkeypatch.setattr(imaging, "eval_bsdf_at", scaled)
        tripled, _ = render(mesh, params, plate_radar)
        np.testing.assert_allclose(tripled.intensities, 3.0 * base.intensities,
                                   rtol=1e-12)

    def test_facet_translated_in_range_advances_bins(self, wave_hh):
        radar = side_looking_radar(wave_hh, distance=7.0, incidence=math.radians(45),
                                   track_length=0.5, num_azimuth=2,
                                   fan_halfwidth=math.radians(12), num_angles=64,
                                   range_res=0.1, spua=1, seed=0)
        frame = MapFrame.from_radar(radar)
        u_axis, v_axis, r_axis = frame.rotation
        # movable facet lies in the plane normal to the range axis, so all
        # its hits share one range coordinate; the anchor pins the window
        anchor = np.array([[-0.4, -1.2, 0.0], [0.4, -1.2, 0.0], [0.0, -1.25, 0.0]])
        p0 = np.array([0.0, 0.5, 0.3])
        movable0 = np.array([p0 - 0.4 * u_axis, p0 + 0.4 * u_axis, p0 + 0.2 * v_axis])
        params = ParamMap.constant(6, 0.004, 0.02, 9.0, 0.1)
        bins_seen = []
        for k in range(4):
            movable = movable0 - k * radar.range_res * r_axis
            mesh = Mesh.from_arrays(np.vstack([anchor, movable]),
                                    [[0, 1, 2], [3, 4, 5]])
            image, ledger = render(mesh, params, radar)
            movable_bins = np.unique(ledger.range_bin[ledger.facet_id == 1])
            assert len(movable_bins) == 1
            bins_seen.append(int(movable_bins[0]))
        assert bins_seen == [bins_seen[0] + k for k in range(4)]

    def test_ledger_pixels_inside_image(self, plate_scene, plate_radar):
        mesh, params = plate_scene
        image, ledger = render(mesh, params, plate_radar)
        assert ledger.image_shape == image.intensities.shape
        assert ledger.range_bin.max() < image.shape[1]
        assert ledger.row.max() < image.intensities.shape[0]


def batch_radars(center, distance):
    """Four views of a scene around center: two waves, three fan widths
    (12 x 3, 7 x 2 and 12 x 1 rays a row) and one view that hits nothing."""
    hh, vv = WaveConfig(9.6e9, "HH", "gaussian"), WaveConfig(5.4e9, "VV", "exponential")
    base = side_looking_radar(hh, distance=distance, incidence=math.radians(45),
                              track_length=3.0, num_azimuth=6,
                              fan_halfwidth=math.radians(12), num_angles=12,
                              range_res=0.1, spua=3, seed=5, center=center)
    away = np.array([100.0, 50.0, 0.0])
    return [
        base,
        rotate_radar(dataclasses.replace(base, wave=vv, num_angles=7, spua=2, seed=6),
                     2.0 * math.pi / 3.0, center),
        dataclasses.replace(base, start_pos=base.start_pos + away, end_pos=base.end_pos + away),
        rotate_radar(dataclasses.replace(base, spua=1, seed=7), 4.0 * math.pi / 3.0, center),
    ]


HIT_ARRAYS = ("row", "facet_id", "m1", "m2", "theta", "weight", "ranges", "range_bin")


class TestViewBatch:
    """trace_views and shade_views give each view bitwise what tracing and
    shading it alone gives."""

    @pytest.fixture(params=["plate scan", "grid scan", "grid bvh"])
    def scene(self, request, plate_scene):
        if request.param == "plate scan":
            (mesh, params), center, bvh = plate_scene, (0.0, 0.0, 0.0), None
        else:
            # 1,800 facets: a BVH is traversed, and a scan batch holds 9 rays,
            # fewer than a row's 36
            mesh, center = grid_mesh(30), (5.0, 5.0, 0.0)
            assert uses_bvh(mesh)
            rng = np.random.default_rng(3)
            params = ParamMap(np.column_stack([
                rng.uniform(0.002, 0.008, mesh.num_vertices),
                rng.uniform(0.005, 0.02, mesh.num_vertices),
                rng.uniform(3.0, 30.0, mesh.num_vertices),
                rng.uniform(0.0, 0.3, mesh.num_vertices)]))
            bvh = build_bvh(mesh) if request.param == "grid bvh" else None
        return mesh, params, bvh, batch_radars(center, distance=7.0)

    def test_batch_equals_one_view_at_a_time(self, scene):
        mesh, params, bvh, radars = scene
        windows = [None, vertex_range_window(mesh, radars[1]), None, None]
        hitsets = trace_views(mesh, radars, bvh=bvh, range_windows=windows)
        shaded = shade_views(hitsets, params)
        assert len(hitsets) == len(shaded) == len(radars)
        assert [hits.num_entries > 0 for hits in hitsets] == [True, True, False, True]
        for radar, window, hits, (image, ledger) in zip(radars, windows, hitsets, shaded):
            one = trace(mesh, radar, bvh=bvh, range_window=window)
            one_image, one_ledger = shade(one, params)
            assert hits.radar is radar and hits.mesh is mesh and ledger.radar is radar
            assert (hits.range_origin, hits.image_shape) == (one.range_origin, one.image_shape)
            assert image.range_origin == one_image.range_origin
            assert_bitwise(image.intensities, one_image.intensities)
            for name in HIT_ARRAYS:
                assert_bitwise(getattr(hits, name), getattr(one, name))
            for name in HIT_ARRAYS + ("sigma", "dsigma"):
                assert_bitwise(getattr(ledger, name), getattr(one_ledger, name))

    def test_unpinned_window_spans_the_hits_bins(self, scene):
        """A window trace_views takes from the hits is [min, max] of their
        ranges under the same floor as their bins, so every bin lies in
        [0, num_bins): the nearest hit's bin is 0 and the farthest one's
        num_bins - 1.  trace_views checks the bins of pinned windows only."""
        mesh, _, bvh, radars = scene
        traced = [hits for hits in trace_views(mesh, radars, bvh=bvh) if hits.num_entries]
        assert len(traced) == 3
        for hits in traced:
            bins, num_bins = hits.range_bin, hits.image_shape[1]
            assert bins.min() >= 0 and bins.max() < num_bins
            assert bins[np.argmax(hits.ranges)] == 0
            assert bins[np.argmin(hits.ranges)] == num_bins - 1

    def test_one_call_per_stage(self, scene, monkeypatch):
        """One intersect_rays and one interpolate call for all views, one
        eval_bsdf_at call per wave and one image bincount for every view."""
        mesh, params, bvh, radars = scene
        calls = count_stages(monkeypatch)
        shade_views(trace_views(mesh, radars, bvh=bvh), params)
        assert calls == {"generate_rays": 4, "intersect_rays": 1, "interpolate": 1,
                         "eval_bsdf_at": 2, "bincount": 1}

    def test_no_views(self, plate_scene):
        mesh, params = plate_scene
        assert trace_views(mesh, []) == [] and shade_views([], params) == []

    def test_window_count_named(self, plate_scene, plate_radar):
        mesh, _ = plate_scene
        with pytest.raises(ValueError, match="^1 range windows for 2 views$"):
            trace_views(mesh, [plate_radar, plate_radar], range_windows=[None])

    def test_views_of_other_meshes_rejected(self, plate_scene, plate_radar):
        """Views of one mesh share its facets: reordered facets make another mesh."""
        mesh, params = plate_scene
        other = Mesh.from_arrays(mesh.vertices, mesh.facets[::-1])
        hitsets = [trace(mesh, plate_radar), trace(other, plate_radar)]
        with pytest.raises(ValueError, match="^view 1: traced over a different mesh than view 0$"):
            shade_views(hitsets, params)
        with pytest.raises(ValueError, match="^view 2: traced over a different mesh than view 0$"):
            shade_views([hitsets[0], hitsets[0], hitsets[1]], params)
        # apart, each is shaded as before: the same image, from renumbered facets
        images = [shade(hits, params)[0].intensities for hits in hitsets]
        assert images[0].sum() > 0.0
        assert_bitwise(images[1], images[0])

    def test_equal_mesh_built_apart_is_one_mesh(self, plate_scene, plate_radar):
        mesh, params = plate_scene
        copy = Mesh.from_arrays(mesh.vertices.copy(), mesh.facets.copy())
        hitsets = [trace(mesh, plate_radar), trace(copy, plate_radar)]
        (image, ledger), (copy_image, copy_ledger) = shade_views(hitsets, params)
        assert ledger.mesh is mesh and copy_ledger.mesh is copy
        assert_bitwise(copy_image.intensities, image.intensities)
        for name in HIT_ARRAYS + ("sigma", "dsigma"):
            assert_bitwise(getattr(copy_ledger, name), getattr(ledger, name))

    def test_table_size_names_the_view(self, plate_scene, plate_radar):
        mesh, params = plate_scene
        wider = ParamMap(np.vstack([params.values, params.values[:1]]))
        hits = trace(mesh, plate_radar)
        n = mesh.num_vertices
        with pytest.raises(ValueError, match=f"^view 0: parameter table size {n + 1} does not "
                                             f"match the mesh's {n} vertices$"):
            shade(hits, wider)
        ground = Mesh.from_arrays(mesh.vertices[:4], mesh.facets[:2])
        with pytest.raises(ValueError, match=f"^view 1: parameter table size 4 does not "
                                             f"match the mesh's {n} vertices$"):
            shade_views([trace(ground, plate_radar), hits], ParamMap(params.values[:4]))

    def test_ledger_range_bin_is_the_hitsets(self, plate_scene, plate_radar):
        """A hit's range bin is traced once: shading keeps the HitSet's array."""
        mesh, params = plate_scene
        hits = trace(mesh, plate_radar)
        assert_bitwise(hits.range_bin,
                       range_bin_of(hits.ranges, plate_radar.range_res, hits.range_origin))
        ledger = shade(hits, params)[1]
        assert ledger.range_bin is hits.range_bin
        assert shade_views([hits, ledger], params)[1][1].range_bin is hits.range_bin


class TestImageFiles:
    def test_raster_round_trip(self, plate_scene, plate_radar, tmp_path):
        mesh, params = plate_scene
        image, _ = render(mesh, params, plate_radar)
        path = tmp_path / "view.sarf"
        write_raster(image, path)
        data, meta = read_raster(path)
        np.testing.assert_array_equal(data, image.intensities.astype("<f4").astype(np.float64))
        assert meta["range_res"] == image.radar.range_res
        assert meta["range_origin"] == pytest.approx(image.range_origin)

    def test_raster_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.sarf"
        path.write_bytes(b"NOPE 1 1 0.1 0.1 0.0\n" + b"\x00" * 4)
        with pytest.raises(ValueError, match="SARF1"):
            read_raster(path)

    def test_raster_rejects_truncated(self, tmp_path):
        path = tmp_path / "short.sarf"
        path.write_bytes(b"SARF1 2 3 0.1 0.1 0.0\n" + b"\x00" * 8)
        with pytest.raises(ValueError, match="truncated"):
            read_raster(path)

    def test_raster_rejects_trailing_bytes(self, plate_scene, plate_radar, tmp_path):
        """A whole raster with 4 bytes appended is named by file and both
        payload sizes, as a truncated one is."""
        mesh, params = plate_scene
        image, _ = render(mesh, params, plate_radar)
        path = tmp_path / "long.sarf"
        write_raster(image, path)
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 4)
        size = image.intensities.size * 4
        with pytest.raises(ValueError) as info:
            read_raster(path)
        assert str(info.value) == (
            f"{path}: raster payload too long: needs {size} bytes, has {size + 4}")

    def test_raster_rejects_payload_larger_than_file(self, tmp_path):
        """The payload size is checked against the file before any read, so a
        header asking for 4e20 bytes raises ValueError, not OverflowError."""
        path = tmp_path / "huge.sarf"
        path.write_bytes(b"SARF1 10000000000 10000000000 0.1 0.1 0.0\n")
        with pytest.raises(ValueError) as info:
            read_raster(path)
        assert str(info.value) == (
            f"{path}: truncated raster payload: needs 400000000000000000000 bytes, has 0")

    @pytest.mark.parametrize("header, field", [
        ("SARF1 x 3 0.1 0.1 0.0", "rows"),
        ("SARF1 2.5 3 0.1 0.1 0.0", "rows"),
        ("SARF1 -2 -3 0.1 0.1 0.0", "rows"),
        ("SARF1 2 -3 0.1 0.1 0.0", "cols"),
        ("SARF1 2 3 0.0 0.1 0.0", "azimuth_res"),
        ("SARF1 2 3 inf 0.1 0.0", "azimuth_res"),
        ("SARF1 2 3 0.1 -0.1 0.0", "range_res"),
        ("SARF1 2 3 0.1 nan 0.0", "range_res"),
        ("SARF1 2 3 0.1 0.1 nan", "range_origin"),
        ("SARF1 2 3 0.1 0.1 -inf", "range_origin"),
    ])
    def test_raster_names_malformed_header_field(self, tmp_path, header, field):
        path = tmp_path / "bad.sarf"
        path.write_bytes(header.encode() + b"\n" + b"\x00" * 24)
        with pytest.raises(ValueError, match=rf"bad\.sarf: SARF1 header field {field} "):
            read_raster(path)

    def test_pgm_header_and_size(self, plate_scene, plate_radar, tmp_path):
        mesh, params = plate_scene
        image, _ = render(mesh, params, plate_radar)
        path = tmp_path / "view.pgm"
        write_pgm(image, path)
        blob = path.read_bytes()
        rows, cols = image.intensities.shape
        header = f"P5\n{cols} {rows}\n65535\n".encode()
        assert blob.startswith(header)
        assert len(blob) == len(header) + rows * cols * 2
        pixels = np.frombuffer(blob[len(header):], dtype=">u2").reshape(rows, cols)
        assert pixels.max() == 65535


# numpy functions that run Python-level code around their C work
NUMPY_WRAPPERS = ("flatnonzero", "diff", "clip", "stack", "cumsum", "atleast_1d", "iinfo")


def test_a_view_calls_no_numpy_python_wrappers(monkeypatch, tmp_path, wave_hh):
    """Render one BVH view of a 40 x 40 grid and one scanned view of the
    demo scene with the numpy functions that wrap their C work in Python
    (NUMPY_WRAPPERS and np.linalg.norm) replaced by counting ones: the
    view path calls none of them.  Each such call costs 2-8 us, on a path
    whose fixed cost, the intercept of a view's time over its rays, is
    about 0.6 ms; the ndarray methods and ufuncs the path calls instead
    compute the same values, bitwise."""
    config, _ = load_script("make_demo_scene.py").write_demo(tmp_path)
    demo_mesh, demo_params, demo_radars = cli.build_scene(cli.parse_config(config), tmp_path)
    grid = grid_mesh(40)
    assert uses_bvh(grid) and not uses_bvh(demo_mesh)
    grid_params = ParamMap.constant(grid.num_vertices, 0.004, 0.02, 9.0, 0.1)
    grid_radar = side_looking_radar(wave_hh, distance=8.0, incidence=math.radians(40),
                                    track_length=4.0, num_azimuth=16, center=(5.0, 5.0, 0.0),
                                    fan_halfwidth=math.radians(10), num_angles=8,
                                    range_res=0.1, spua=2, seed=3)
    bvh = build_bvh(grid)

    def views():
        return [render(grid, grid_params, grid_radar, bvh=bvh),
                render(demo_mesh, demo_params, demo_radars[0])]

    views()         # numpy imports some modules on first use, which call iinfo
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in NUMPY_WRAPPERS:
        monkeypatch.setattr(np, name, counted(name, getattr(np, name)))
    monkeypatch.setattr(np.linalg, "norm", counted("linalg.norm", np.linalg.norm))
    rendered = views()
    assert not calls
    assert all(ledger.num_entries > 200 for _, ledger in rendered)
    np.diff(np.arange(3))           # the counters count
    assert calls == {"diff": 1}
