import json
import re

import numpy as np
import pytest

import sartrace.cli
from sartrace.accel import build_bvh
from sartrace.cli import (ConfigError, build_scene, main, parse_config,
                          serialize_config)
from sartrace.imaging import read_raster, render
from sartrace.scene import Mesh, ParamMap, load_param_map, save_param_map, write_obj
from sartrace.scenes import merge_meshes, plane_mesh

CONFIG = """\
[scene]
mesh = scene.obj
init = 0.004 0.02 9.0 0.3

[radar]
frequency_hz = 9.6e9
polarization = HH
psd = gaussian
start = -1.5 4.0 4.0
end = 1.5 4.0 4.0
num_azimuth = 6
alpha_start_deg = 35
alpha_stop_deg = 55
num_angles = 10
range_res = 0.1
azimuth_res = 0.6
spua = 2
seed = 3
view_azimuths_deg = 0 180
scene_center = 0 0 0

[loss]
lambda_sim = 1.0
lambda_mat = 0.0
normalize = true

[optim]
lr = 0.05
iters = 4
tie = true

[output]
dir = out
"""


@pytest.fixture
def workdir(tmp_path):
    mesh = merge_meshes([plane_mesh(4.0, 4.0, z=0.0), plane_mesh(1.0, 1.0, z=0.5)])
    write_obj(mesh, tmp_path / "scene.obj")
    (tmp_path / "run.ini").write_text(CONFIG)
    return tmp_path


class TestConfig:
    def test_round_trip(self, workdir):
        cfg = parse_config(workdir / "run.ini")
        text = serialize_config(cfg)
        again = workdir / "again.ini"
        again.write_text(text)
        assert parse_config(again) == cfg

    def test_alpha_order_error_names_field(self, workdir):
        bad = CONFIG.replace("alpha_start_deg = 35", "alpha_start_deg = 75")
        path = workdir / "bad.ini"
        path.write_text(bad)
        with pytest.raises(ConfigError, match="alpha_start_deg"):
            parse_config(path)

    def test_missing_section(self, workdir):
        path = workdir / "bad.ini"
        path.write_text(CONFIG.replace("[radar]", "[raddar]"))
        with pytest.raises(ConfigError, match=r"\[radar\]"):
            parse_config(path)

    def test_bad_number_names_field(self, workdir):
        path = workdir / "bad.ini"
        path.write_text(CONFIG.replace("spua = 2", "spua = two"))
        with pytest.raises(ConfigError, match="radar.spua"):
            parse_config(path)

    def test_cross_pol_rejected_at_parse(self, workdir):
        path = workdir / "bad.ini"
        path.write_text(CONFIG.replace("polarization = HH", "polarization = HV"))
        with pytest.raises(ConfigError, match="wave"):
            parse_config(path)

    def test_init_or_csv_required(self, workdir):
        path = workdir / "bad.ini"
        path.write_text(CONFIG.replace("init = 0.004 0.02 9.0 0.3", ""))
        with pytest.raises(ConfigError, match="init"):
            parse_config(path)

    def test_build_scene_counts(self, workdir):
        cfg = parse_config(workdir / "run.ini")
        mesh, params, radars = build_scene(cfg, str(workdir))
        assert mesh.num_facets == 4
        assert params.num_vertices == 8
        assert len(radars) == 2
        np.testing.assert_allclose(params.values[0], [0.004, 0.02, 9.0, 0.3])

    def test_init_csv_size_checked(self, workdir):
        from sartrace.scene import save_param_map
        save_param_map(ParamMap.constant(3, 0.004, 0.02, 9.0, 0.3),
                       workdir / "init.csv")
        text = CONFIG.replace("init = 0.004 0.02 9.0 0.3", "init_csv = init.csv")
        path = workdir / "csv.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match="rows"):
            build_scene(parse_config(path), str(workdir))


class TestSimulate:
    def test_writes_views_and_manifest(self, workdir):
        rc = main(["simulate", "--config", str(workdir / "run.ini")])
        assert rc == 0
        out = workdir / "out"
        for vi in range(2):
            assert (out / f"view_{vi:03d}.sarf").exists()
            assert (out / f"view_{vi:03d}.pgm").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert "scene.obj" in manifest["inputs"]
        assert "view_000.sarf" in manifest["outputs"]

    def test_rerun_same_seed_identical(self, workdir):
        main(["simulate", "--config", str(workdir / "run.ini"), "--out", "a"])
        main(["simulate", "--config", str(workdir / "run.ini"), "--out", "b"])
        a = json.loads((workdir / "a" / "manifest.json").read_text())["outputs"]
        b = json.loads((workdir / "b" / "manifest.json").read_text())["outputs"]
        assert a == b

    def test_seed_changes_hashes(self, workdir):
        main(["simulate", "--config", str(workdir / "run.ini"), "--out", "a"])
        main(["simulate", "--config", str(workdir / "run.ini"), "--out", "c",
              "--seed", "99"])
        a = json.loads((workdir / "a" / "manifest.json").read_text())["outputs"]
        c = json.loads((workdir / "c" / "manifest.json").read_text())["outputs"]
        assert a["view_000.sarf"] != c["view_000.sarf"]

    def test_manifest_input_hash_tracks_mesh(self, workdir):
        main(["simulate", "--config", str(workdir / "run.ini"), "--out", "a"])
        mesh = merge_meshes([plane_mesh(4.0, 4.0, z=0.0), plane_mesh(1.0, 1.0, z=0.4)])
        write_obj(mesh, workdir / "scene.obj")
        main(["simulate", "--config", str(workdir / "run.ini"), "--out", "b"])
        a = json.loads((workdir / "a" / "manifest.json").read_text())["inputs"]
        b = json.loads((workdir / "b" / "manifest.json").read_text())["inputs"]
        assert a["scene.obj"] != b["scene.obj"]

    def test_large_mesh_raster_matches_bvh_render(self, workdir):
        # a bumpy 12 x 12 grid: 288 facets, above the BVH threshold of 256
        n = 12
        xs = np.linspace(-2.0, 2.0, n + 1)
        x, y = np.meshgrid(xs, xs, indexing="ij")
        z = 0.1 * np.sin(2.0 * x) * np.cos(3.0 * y)
        vertices = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
        corner = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)[:n, :n].ravel()
        facets = np.concatenate([
            np.stack([corner, corner + n + 1, corner + n + 2], axis=1),
            np.stack([corner, corner + n + 2, corner + 1], axis=1)])
        write_obj(Mesh.from_arrays(vertices, facets), workdir / "scene.obj")
        assert main(["simulate", "--config", str(workdir / "run.ini")]) == 0
        mesh, params, radars = build_scene(parse_config(workdir / "run.ini"), str(workdir))
        assert mesh.num_facets == 288
        bvh = build_bvh(mesh)
        for vi, radar in enumerate(radars):
            image, ledger = render(mesh, params, radar, bvh=bvh)
            assert ledger.num_entries > 0
            data, meta = read_raster(workdir / "out" / f"view_{vi:03d}.sarf")
            np.testing.assert_array_equal(
                data, image.intensities.astype("<f4").astype(np.float64))
            assert meta["range_origin"] == image.range_origin

    def test_parse_error_exit_code(self, workdir):
        path = workdir / "bad.ini"
        path.write_text(CONFIG.replace("alpha_start_deg = 35", "alpha_start_deg = 75"))
        assert main(["simulate", "--config", str(path)]) == 2


class TestLearnCommand:
    def render_refs(self, workdir):
        main(["simulate", "--config", str(workdir / "run.ini"), "--out", "refs"])
        return [str(workdir / "refs" / f"view_{vi:03d}.sarf") for vi in range(2)]

    def test_zero_iterations_returns_projected_init(self, workdir):
        refs = self.render_refs(workdir)
        text = CONFIG.replace("iters = 4", "iters = 0")
        (workdir / "zero.ini").write_text(text)
        rc = main(["learn", "--config", str(workdir / "zero.ini"), "--refs"] + refs
                  + ["--out", "learned"])
        assert rc == 0
        got = load_param_map(workdir / "learned" / "params_final.csv")
        np.testing.assert_allclose(got.values,
                                   np.tile([0.004, 0.02, 9.0, 0.3], (8, 1)))

    def test_learning_writes_history_and_images(self, workdir):
        refs = self.render_refs(workdir)
        rc = main(["learn", "--config", str(workdir / "run.ini"), "--refs"] + refs
                  + ["--out", "learned"])
        assert rc == 0
        out = workdir / "learned"
        history = (out / "history.csv").read_text().splitlines()
        assert history[0].startswith("iter,total_loss,sim_loss,tv_loss,view_rmse_0")
        assert len(history) == 1 + 4
        assert (out / "final_view_000.sarf").exists()
        assert (out / "final_view_001.pgm").exists()

    def test_ref_count_mismatch(self, workdir):
        refs = self.render_refs(workdir)
        rc = main(["learn", "--config", str(workdir / "run.ini"),
                   "--refs", refs[0], "--out", "learned"])
        assert rc == 2
        assert not (workdir / "learned").exists()

    def test_bad_raster_magic(self, workdir):
        bad = workdir / "bad.sarf"
        bad.write_bytes(b"JUNK 1 1 0.1 0.1 0.0\n\x00\x00\x00\x00")
        rc = main(["learn", "--config", str(workdir / "run.ini"),
                   "--refs", str(bad), str(bad), "--out", "learned"])
        assert rc == 2
        assert not (workdir / "learned").exists()

    def test_reference_shape_mismatch_writes_nothing(self, workdir):
        refs = self.render_refs(workdir)
        (workdir / "wide.ini").write_text(CONFIG.replace("range_res = 0.1", "range_res = 0.05"))
        rc = main(["learn", "--config", str(workdir / "wide.ini"), "--refs"] + refs
                  + ["--out", "learned"])
        assert rc == 2
        assert not (workdir / "learned").exists()


class TestOneBvhPerCommand:
    @pytest.fixture
    def built(self, monkeypatch):
        meshes = []

        def counting_build_bvh(mesh, *args, **kwargs):
            meshes.append(mesh)
            return build_bvh(mesh, *args, **kwargs)

        monkeypatch.setattr(sartrace.cli, "build_bvh", counting_build_bvh)
        return meshes

    def test_simulate(self, workdir, built):
        assert main(["simulate", "--config", str(workdir / "run.ini")]) == 0
        assert len(built) == 1

    def test_learn(self, workdir, built):
        refs = TestLearnCommand().render_refs(workdir)
        built.clear()
        assert main(["learn", "--config", str(workdir / "run.ini"), "--refs"] + refs
                    + ["--out", "learned"]) == 0
        assert len(built) == 1

    def test_gradcheck(self, workdir, built):
        assert main(["gradcheck", "--config", str(workdir / "run.ini"),
                     "--probes", "2"]) == 0
        assert len(built) == 1


class TestGradcheckCommand:
    def test_clean_exit(self, workdir):
        assert main(["gradcheck", "--config", str(workdir / "run.ini"),
                     "--probes", "8"]) == 0

    def test_corrupted_adjoint_fails(self, workdir):
        assert main(["gradcheck", "--config", str(workdir / "run.ini"),
                     "--probes", "8", "--corrupt-adjoint"]) == 1

    def test_zero_probes_exit_zero(self, workdir):
        assert main(["gradcheck", "--config", str(workdir / "run.ini"),
                     "--probes", "0"]) == 0


class TestNonFiniteInitTable:
    """Every command rejects a NaN init_csv before any work, names the
    vertex and channel, and leaves no output directory behind."""

    @pytest.fixture
    def nan_config(self, workdir):
        params = ParamMap.constant(8, 0.004, 0.02, 9.0, 0.3)
        params.values[5, 2] = np.nan
        save_param_map(params, workdir / "init.csv")
        path = workdir / "nan.ini"
        path.write_text(CONFIG.replace("init = 0.004 0.02 9.0 0.3", "init_csv = init.csv"))
        return str(path)

    def test_simulate(self, workdir, nan_config, capsys):
        assert main(["simulate", "--config", nan_config]) == 2
        err = capsys.readouterr().err
        assert "non-finite parameter value" in err
        assert "vertex 5, eps_r" in err
        assert not (workdir / "out").exists()

    def test_learn(self, workdir, nan_config, capsys):
        refs = TestLearnCommand().render_refs(workdir)
        capsys.readouterr()
        assert main(["learn", "--config", nan_config, "--refs"] + refs
                    + ["--out", "learned"]) == 2
        assert "non-finite parameter value" in capsys.readouterr().err
        assert not (workdir / "learned").exists()

    def test_gradcheck(self, nan_config, capsys):
        assert main(["gradcheck", "--config", nan_config, "--probes", "2"]) == 2
        captured = capsys.readouterr()
        assert "non-finite parameter value" in captured.err
        assert "relative error" not in captured.out


class TestSweepCommand:
    def sweep_argv(self, out, **kw):
        args = {"h": "0.002", "l": "0.01", "eps-r": "25.0", "tau": "0.5",
                "theta-start": "10", "theta-stop": "70", "num": "13"}
        args.update({k.replace("_", "-"): v for k, v in kw.items()})
        argv = ["sweep", "--out", str(out)]
        for key, val in args.items():
            argv += [f"--{key}", val]
        return argv

    def run_sweep(self, tmp_path, **kw):
        out = tmp_path / "sweep.csv"
        assert main(self.sweep_argv(out, **kw)) == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        return header, rows

    def test_header_and_shape(self, tmp_path):
        header, rows = self.run_sweep(tmp_path)
        assert header == ["theta_deg", "sigma_spm", "sigma_ka", "sigma",
                          "spm_ok", "ka_ok"]
        assert rows.shape == (13, 6)

    def test_no_contrast_curves_are_zero(self, tmp_path):
        _, rows = self.run_sweep(tmp_path, eps_r="1.0")
        np.testing.assert_allclose(rows[:, 1:4], 0.0, atol=1e-18)

    def test_blend_is_convex_combination_of_endpoint_columns(self, tmp_path):
        for tau in ("0.0", "0.25", "0.5", "0.75", "1.0"):
            _, rows = self.run_sweep(tmp_path, tau=tau)
            t = float(tau)
            expected = (1 - t) * rows[:, 1] + t * rows[:, 2]
            np.testing.assert_allclose(rows[:, 3], expected, rtol=1e-12)

    def test_validity_flags_are_booleans(self, tmp_path):
        _, rows = self.run_sweep(tmp_path)
        assert set(np.unique(rows[:, 4])) <= {0.0, 1.0}
        assert set(np.unique(rows[:, 5])) <= {0.0, 1.0}

    @pytest.mark.parametrize("flag,value,cause", [
        ("tau", "1.5", r"tau must lie in \[0, 1\]"),
        ("eps_r", "0.5", r"eps_r must be >= 1"),
        ("h", "0", r"h and l must be positive"),
        ("theta_stop", "90", r"theta-stop must lie in \[0, 90\) degrees"),
    ], ids=["tau", "eps_r", "h", "theta_stop"])
    def test_rejects_out_of_domain(self, tmp_path, capsys, flag, value, cause):
        out = tmp_path / "sweep.csv"
        assert main(self.sweep_argv(out, **{flag: value})) == 2
        assert re.search(cause, capsys.readouterr().err)
        assert not out.exists()
