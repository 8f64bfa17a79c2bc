import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import sartrace.cli
from sartrace.accel import build_bvh, uses_bvh
from sartrace.cli import (ConfigError, SceneConfig, build_scene, main, make_optimizer,
                          parse_config, serialize_config)
from sartrace.imaging import read_raster, render, trace_views
from sartrace.scene import Mesh, ParamMap, load_param_map, save_param_map, write_obj
from sartrace.scenes import merge_meshes, plane_mesh

from conftest import CONFIG, DEMO_CONFIG, SCRIPTS, run_script


def bumpy_grid(n=12):
    """A bumpy n x n grid: 2 n^2 facets, 288 by default, so intersect_rays uses a BVH."""
    xs = np.linspace(-2.0, 2.0, n + 1)
    x, y = np.meshgrid(xs, xs, indexing="ij")
    z = 0.1 * np.sin(2.0 * x) * np.cos(3.0 * y)
    vertices = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
    corner = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)[:n, :n].ravel()
    facets = np.concatenate([
        np.stack([corner, corner + n + 1, corner + n + 2], axis=1),
        np.stack([corner, corner + n + 2, corner + 1], axis=1)])
    mesh = Mesh.from_arrays(vertices, facets)
    assert uses_bvh(mesh)
    return mesh


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

    @pytest.mark.parametrize("line,cause", [
        ("freeze_channels = tua", r"optim\.freeze_channels: unknown channel 'tua'; "
                                  r"valid channels are h, l, eps_r, tau"),
        ("train_vertices = 1:2:3", r"optim\.train_vertices: bad token '1:2:3'"),
        ("train_vertices = 0 a", r"optim\.train_vertices: bad token 'a'"),
        ("train_vertices = 2:", r"optim\.train_vertices: bad token '2:'"),
        ("train_vertices = 5:3", r"optim\.train_vertices: bad token '5:3'"),
        ("train_vertices = 0 4:4", r"optim\.train_vertices: bad token '4:4'"),
    ], ids=["channel", "three_bounds", "not_int", "open_range", "reversed_range",
            "empty_range"])
    def test_optim_error_names_field_and_token(self, workdir, capsys, line, cause):
        path = workdir / "bad.ini"
        path.write_text(CONFIG.replace("tie = true", f"tie = true\n{line}"))
        with pytest.raises(ConfigError, match=cause):
            parse_config(path)
        assert main(["gradcheck", "--config", str(path), "--probes", "1"]) == 2
        assert re.search(cause, capsys.readouterr().err)

    def test_train_vertices_bounds_checked_before_expanding(self, tmp_path):
        """A huge lo:hi range is checked against the mesh as a pair, never
        expanded into a list of ids."""
        path = tmp_path / "huge.ini"
        path.write_text(DEMO_CONFIG.replace("train_vertices = 4:12",
                                            "train_vertices = 0:2000000"))
        tracemalloc.start()
        try:
            cfg = parse_config(path)
            with pytest.raises(ConfigError, match=r"optim\.train_vertices outside \[0, 12\)"):
                make_optimizer(cfg, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_train_vertices_ranges_and_ids(self, workdir):
        path = workdir / "ids.ini"
        path.write_text(CONFIG.replace("tie = true", "tie = false\ntrain_vertices = 1:3, 6 2"))
        opt = make_optimizer(parse_config(path), 8)
        np.testing.assert_array_equal(np.unique(opt.entries // 4), [1, 2, 6])
        for token in ("7:9", "8", "-1"):
            path.write_text(CONFIG.replace("tie = true", f"train_vertices = {token}"))
            with pytest.raises(ConfigError, match=r"outside \[0, 8\)"):
                make_optimizer(parse_config(path), 8)

    def test_empty_view_azimuths_exit_2(self, workdir, capsys):
        """No view is no image: simulate would write a manifest of nothing."""
        path = workdir / "bad.ini"
        path.write_text(CONFIG.replace("view_azimuths_deg = 0 180", "view_azimuths_deg ="))
        message = "radar.view_azimuths_deg needs at least one azimuth"
        with pytest.raises(ConfigError, match=f"^{message}$"):
            parse_config(path)
        assert main(["simulate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("word, value", [
        ("1", True), ("yes", True), ("true", True), ("on", True), ("TRUE", True), ("Yes", True),
        ("0", False), ("no", False), ("false", False), ("off", False), ("OFF", False)])
    def test_boolean_words(self, workdir, word, value):
        """configparser's boolean words, in any case."""
        path = workdir / "bool.ini"
        path.write_text(CONFIG.replace("tie = true", f"tie = {word}"))
        assert parse_config(path).tie is value

    def test_bad_boolean_names_field(self, workdir):
        path = workdir / "bad.ini"
        path.write_text(CONFIG.replace("tie = true", "tie = maybe"))
        with pytest.raises(ConfigError, match=r"^bad value for optim\.tie: 'maybe'$"):
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


# serialize_config of conftest.CONFIG; the line "freeze_channels = " ends in a space
CONFIG_TEXT = """\
[scene]
mesh = scene.obj
init = 0.004 0.02 9.0 0.3

[radar]
frequency_hz = 9600000000.0
polarization = HH
psd = gaussian
start = -1.5 4.0 4.0
end = 1.5 4.0 4.0
num_azimuth = 6
alpha_start_deg = 35.0
alpha_stop_deg = 55.0
num_angles = 10
range_res = 0.1
azimuth_res = 0.6
spua = 2
seed = 3
view_azimuths_deg = 0.0 180.0
scene_center = 0.0 0.0 0.0

[loss]
lambda_sim = 1.0
lambda_mat = 0.0
normalize = true

[optim]
lr = 0.05
iters = 4
beta1 = 0.9
beta2 = 0.999
eps_adam = 1e-08
lr_decay = 1.0
train_vertices = all
tie = true
freeze_channels =\x20

[output]
dir = out
"""

# (field, section, key) of every key without a default
REQUIRED_KEYS = [
    ("mesh_path", "scene", "mesh"), ("frequency", "radar", "frequency_hz"),
    ("start", "radar", "start"), ("end", "radar", "end"),
    ("num_azimuth", "radar", "num_azimuth"), ("alpha_start_deg", "radar", "alpha_start_deg"),
    ("alpha_stop_deg", "radar", "alpha_stop_deg"), ("num_angles", "radar", "num_angles"),
    ("range_res", "radar", "range_res"), ("azimuth_res", "radar", "azimuth_res"),
    ("out_dir", "output", "dir"),
]
# (field, key, default) of every optional key; init and init_csv need one another
OPTIONAL_KEYS = [
    ("init", "init", None), ("init_csv", "init_csv", None),
    ("polarization", "polarization", "HH"), ("psd", "psd", "gaussian"), ("spua", "spua", 1),
    ("seed", "seed", 0), ("view_azimuths_deg", "view_azimuths_deg", (0.0,)),
    ("scene_center", "scene_center", None), ("lambda_sim", "lambda_sim", 1.0),
    ("lambda_mat", "lambda_mat", 1e-3), ("normalize", "normalize", True), ("lr", "lr", 0.02),
    ("iters", "iters", 200), ("beta1", "beta1", 0.9), ("beta2", "beta2", 0.999),
    ("eps_adam", "eps_adam", 1e-8), ("lr_decay", "lr_decay", 1.0),
    ("train_vertices", "train_vertices", "all"), ("tie", "tie", False),
    ("freeze_channels", "freeze_channels", ()),
]
# the demo config with every key set off its default; parse does not read init_csv
FULL_CONFIG = DEMO_CONFIG
for _old, _new in [
        ("init = 0.005 0.01 25.0 0.05", "init = 0.005 0.01 25.0 0.05\ninit_csv = p.csv"),
        ("polarization = HH", "polarization = VV"), ("lambda_sim = 1.0", "lambda_sim = 2.0"),
        ("normalize = true", "normalize = false"), ("beta1 = 0.9", "beta1 = 0.8"),
        ("eps_adam = 1e-08", "eps_adam = 1e-07"), ("lr_decay = 1.0", "lr_decay = 0.99")]:
    FULL_CONFIG = FULL_CONFIG.replace(_old, _new)


def without_key(text, key):
    lines = text.splitlines(keepends=True)
    kept = [line for line in lines if not line.startswith(key + " = ")]
    assert len(kept) == len(lines) - 1, key
    return "".join(kept)


class TestSchema:
    """The INI schema of SceneConfig: its text, its required keys and its defaults."""

    def test_demo_script_writes_pinned_text(self, tmp_path, monkeypatch):
        run_script(monkeypatch, "make_demo_scene.py", tmp_path)
        assert (tmp_path / "run.ini").read_text() == DEMO_CONFIG
        assert serialize_config(parse_config(tmp_path / "run.ini")) == DEMO_CONFIG

    def test_conftest_config_text(self, workdir):
        assert serialize_config(parse_config(workdir / "run.ini")) == CONFIG_TEXT

    def test_every_field_is_listed(self):
        listed = [f for f, _, _ in REQUIRED_KEYS] + [f for f, _, _ in OPTIONAL_KEYS]
        assert sorted(listed) == sorted(f.name for f in dataclasses.fields(SceneConfig))

    @pytest.mark.parametrize("field, section, key", REQUIRED_KEYS,
                             ids=[f for f, _, _ in REQUIRED_KEYS])
    def test_missing_required_key_is_named(self, tmp_path, field, section, key):
        path = tmp_path / "run.ini"
        path.write_text(without_key(FULL_CONFIG, key))
        with pytest.raises(ConfigError, match=f"^missing field {section}.{key}$"):
            parse_config(path)

    @pytest.mark.parametrize("field, key, default", OPTIONAL_KEYS,
                             ids=[f for f, _, _ in OPTIONAL_KEYS])
    def test_missing_optional_key_takes_default(self, tmp_path, field, key, default):
        (tmp_path / "full.ini").write_text(FULL_CONFIG)
        full = parse_config(tmp_path / "full.ini")
        path = tmp_path / "run.ini"
        path.write_text(without_key(FULL_CONFIG, key))
        assert getattr(full, field) != default
        assert parse_config(path) == dataclasses.replace(full, **{field: default})


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

    def test_manifest_digests_and_config(self, workdir):
        """Every output digest is the SHA-256 of the file on disk, and the
        config block is the JSON of the parsed config."""
        path = workdir / "run.ini"
        assert main(["simulate", "--config", str(path)]) == 0
        out = workdir / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        names = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert sorted(manifest["outputs"]) == names
        for name, digest in manifest["outputs"].items():
            assert digest == hashlib.sha256((out / name).read_bytes()).hexdigest(), name
        cfg = parse_config(path)
        assert manifest["config"] == json.loads(json.dumps(dataclasses.asdict(cfg)))

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
        write_obj(bumpy_grid(), workdir / "scene.obj")
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

    def test_demo_rasters_are_one_view_renders(self, tmp_path, monkeypatch):
        """`sartrace simulate` on the README demo writes, per configured view,
        the float32 of that view rendered alone, with its range origin."""
        run_script(monkeypatch, "make_demo_scene.py", tmp_path)
        assert main(["simulate", "--config", str(tmp_path / "run.ini")]) == 0
        mesh, params, radars = build_scene(parse_config(tmp_path / "run.ini"), str(tmp_path))
        assert len(radars) == 3 and not uses_bvh(mesh)
        for vi, radar in enumerate(radars):
            image, ledger = render(mesh, params, radar)
            assert ledger.num_entries > 0
            path = tmp_path / "out" / f"view_{vi:03d}.sarf"
            data, meta = read_raster(path)
            assert meta["range_origin"] == image.range_origin
            payload = path.read_bytes().split(b"\n", 1)[1]
            assert payload == image.intensities.astype("<f4").tobytes()

    def test_failing_view_writes_nothing(self, workdir, capsys, monkeypatch):
        """Every view is rendered before anything is written: a second view
        that fails (here in range binning, which trace_views runs per view)
        leaves no output directory."""
        import sartrace.imaging as imaging
        range_bin_of, calls = imaging.range_bin_of, []

        def second_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise ValueError("view 1 failed on purpose")
            return range_bin_of(*args, **kwargs)

        monkeypatch.setattr(imaging, "range_bin_of", second_fails)
        assert main(["simulate", "--config", str(workdir / "run.ini")]) == 2
        assert "view 1 failed on purpose" in capsys.readouterr().err
        assert len(calls) == 2 and not (workdir / "out").exists()

    def test_table_that_would_shade_nan_exits_2_and_writes_nothing(
            self, tmp_path, monkeypatch, capsys):
        """h = 1e-200 underflows the KA term's 4 h^2 / l^2 to 0, so it would
        shade NaN: the demo rejects it at validate, naming vertex and channel,
        before anything is traced or written."""
        run_script(monkeypatch, "make_demo_scene.py", tmp_path)
        config = tmp_path / "run.ini"
        config.write_text(DEMO_CONFIG.replace("init = 0.005 0.01 25.0 0.05",
                                              "init = 1e-200 0.01 25.0 0.05"))
        capsys.readouterr()
        assert main(["simulate", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            "error: vertex 0, h: parameter value 1e-200 outside [1e-07, 1.0]\n")
        assert not (tmp_path / "out").exists()

    def test_non_finite_view_exits_2_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        """A kernel that shades NaN (eval_bsdf_at patched here, as the
        gradcheck tests patch it) leaves NaN pixels in the demo's views:
        simulate names the first one and writes nothing."""
        run_script(monkeypatch, "make_demo_scene.py", tmp_path)
        eval_bsdf_at = sartrace.imaging.eval_bsdf_at

        def nan_sigma(angles, values):
            sigma, grads = eval_bsdf_at(angles, values)
            return sigma * np.nan, grads

        monkeypatch.setattr(sartrace.imaging, "eval_bsdf_at", nan_sigma)
        capsys.readouterr()
        assert main(["simulate", "--config", str(tmp_path / "run.ini")]) == 2
        assert re.fullmatch(r"error: view 0: pixel \(row \d+, bin \d+\) is nan, "
                            r"not a finite intensity\n", capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_relative_out_is_taken_from_the_working_directory(self, workdir, monkeypatch):
        """Run from the config's parent directory: --config and --out are both
        taken from there, output.dir from the config file's directory."""
        monkeypatch.chdir(workdir.parent)
        config = f"{workdir.name}/run.ini"
        assert main(["simulate", "--config", config, "--out", f"{workdir.name}/x"]) == 0
        assert main(["simulate", "--config", config]) == 0
        assert sorted(p.name for p in workdir.iterdir() if p.is_dir()) == ["out", "x"]
        assert (workdir / "x" / "view_001.sarf").read_bytes() == \
            (workdir / "out" / "view_001.sarf").read_bytes()
        refs = [f"{workdir.name}/x/view_{vi:03d}.sarf" for vi in range(2)]
        assert main(["learn", "--config", config, "--refs"] + refs
                    + ["--out", f"{workdir.name}/learned"]) == 0
        assert (workdir / "learned" / "final_view_001.pgm").exists()

    def test_parse_error_exit_code(self, workdir):
        path = workdir / "bad.ini"
        path.write_text(CONFIG.replace("alpha_start_deg = 35", "alpha_start_deg = 75"))
        assert main(["simulate", "--config", str(path)]) == 2

    def test_percent_is_a_literal(self, workdir):
        """A "%" in a value is read raw, round-trips through serialize_config
        and names the output directory as written."""
        path = workdir / "pct.ini"
        path.write_text(CONFIG.replace("dir = out", "dir = out_100%"))
        cfg = parse_config(path)
        assert cfg.out_dir == "out_100%"
        (workdir / "again.ini").write_text(serialize_config(cfg))
        assert parse_config(workdir / "again.ini") == cfg
        assert main(["simulate", "--config", str(path)]) == 0
        assert (workdir / "out_100%" / "view_000.sarf").exists()

    @pytest.mark.parametrize("edit, cause", [
        (lambda text: "seed = 3\n" + text, "no section headers"),
        (lambda text: text.replace("spua = 2", "spua = 2\nspua = 3"),
         "option 'spua' in section 'radar' already exists"),
        (lambda text: text + "\n[radar]\nseed = 4\n", "section 'radar' already exists"),
    ], ids=["missing_section_header", "duplicate_key", "duplicate_section"])
    def test_unparsable_ini_exit_code(self, workdir, capsys, edit, cause):
        """configparser's own errors exit 2 with a message that names the
        file and the cause, and write nothing."""
        path = workdir / "bad.ini"
        path.write_text(edit(CONFIG))
        with pytest.raises(ConfigError, match=re.escape(cause)):
            parse_config(path)
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot parse config file {path}: ") and cause in err
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("line, field", [
        ("range_res = nan", "range_res"),
        ("range_res = inf", "range_res"),
        ("azimuth_res = nan", "azimuth_res"),
        ("start = -1.5 nan 4.0", "start_pos"),
    ])
    def test_non_finite_radar_field_exit_code(self, workdir, capsys, line, field):
        key = line.split()[0]
        old = next(row for row in CONFIG.splitlines() if row.startswith(key + " "))
        path = workdir / "bad.ini"
        path.write_text(CONFIG.replace(old, line))
        assert main(["simulate", "--config", str(path)]) == 2
        assert field in capsys.readouterr().err
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("by_flag", [False, True], ids=["config", "flag"])
    def test_negative_seed_exit_code(self, workdir, capsys, by_flag):
        argv = ["simulate", "--config", str(workdir / "run.ini"), "--seed", "-1"]
        if not by_flag:
            (workdir / "bad.ini").write_text(CONFIG.replace("seed = 3", "seed = -1"))
            argv = ["simulate", "--config", str(workdir / "bad.ini")]
        assert main(argv) == 2
        assert "seed -1" in capsys.readouterr().err
        assert not (workdir / "out").exists()


class TestParserPerProcess:
    """main builds its argument parser once per process, on first use."""

    def test_built_on_first_use_not_at_import(self):
        env = dict(os.environ, PYTHONPATH=str(SCRIPTS.parent / "src"))
        code = "import sartrace.cli; print(sartrace.cli._parser.cache_info())"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        assert "currsize=0" in proc.stdout
        assert sartrace.cli._parser() is sartrace.cli._parser()

    def test_commands_share_no_state(self, workdir, capsys):
        """simulate, sweep, then simulate with an unknown flag, in one process:
        the first two write what separate processes write, and the last one
        exits 2 with its usage message."""
        config = str(workdir / "run.ini")
        sweep = ["sweep", "--h", "0.002", "--l", "0.01", "--eps-r", "25.0", "--num", "7"]
        env = dict(os.environ, PYTHONPATH=str(SCRIPTS.parent / "src"))
        for argv in (["simulate", "--config", config, "--out", "alone"],
                     sweep + ["--out", str(workdir / "alone.csv")]):
            subprocess.run([sys.executable, "-m", "sartrace.cli", *argv], env=env,
                           capture_output=True, timeout=120, check=True)

        assert main(["simulate", "--config", config, "--out", "shared"]) == 0
        assert main(sweep + ["--out", str(workdir / "shared.csv")]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "--config", config, "--out", "bogus", "--bogus"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: sartrace ") and "unrecognized arguments: --bogus" in err
        assert not (workdir / "bogus").exists()

        names = sorted(os.listdir(workdir / "alone"))
        assert len(names) == 5 and names == sorted(os.listdir(workdir / "shared"))
        for name in names:
            assert ((workdir / "alone" / name).read_bytes()
                    == (workdir / "shared" / name).read_bytes()), name
        assert (workdir / "alone.csv").read_bytes() == (workdir / "shared.csv").read_bytes()


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

    def test_zero_iterations_on_the_demo_writes_the_full_header(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_script(monkeypatch, "make_demo_scene.py", tmp_path)
        config = tmp_path / "run.ini"
        assert main(["simulate", "--config", str(config), "--out", "refs"]) == 0
        config.write_text(DEMO_CONFIG.replace("iters = 150", "iters = 0"))
        refs = [str(tmp_path / "refs" / f"view_{vi:03d}.sarf") for vi in range(3)]
        assert main(["learn", "--config", str(config), "--refs"] + refs
                    + ["--out", "learned"]) == 0
        assert (tmp_path / "learned" / "history.csv").read_text().splitlines() == [
            "iter,total_loss,sim_loss,tv_loss,view_rmse_0,view_rmse_1,view_rmse_2"]

    def test_negative_iters_exits_2_and_writes_nothing(self, workdir, capsys):
        refs = self.render_refs(workdir)
        (workdir / "neg.ini").write_text(CONFIG.replace("iters = 4", "iters = -3"))
        capsys.readouterr()
        assert main(["learn", "--config", str(workdir / "neg.ini"), "--refs"] + refs
                    + ["--out", "learned"]) == 2
        assert capsys.readouterr().err == "error: iters must be >= 0, got -3\n"
        assert not (workdir / "learned").exists()

    def test_demo_writes_its_init_table(self, tmp_path, monkeypatch, capsys):
        """The demo's references are renders of its init table, so the table of
        least loss is the init table: learn runs all 150 iterations, writes that
        table and reports the RMSE of its history row."""
        monkeypatch.chdir(tmp_path)
        run_script(monkeypatch, "make_demo_scene.py", tmp_path)
        config = tmp_path / "run.ini"
        assert main(["simulate", "--config", str(config), "--out", "refs"]) == 0
        refs = [str(tmp_path / "refs" / f"view_{vi:03d}.sarf") for vi in range(3)]
        capsys.readouterr()
        assert main(["learn", "--config", str(config), "--refs"] + refs
                    + ["--out", "learned"]) == 0
        _, init, _ = build_scene(parse_config(config), str(tmp_path))
        got = load_param_map(tmp_path / "learned" / "params_final.csv")
        assert got.values.tobytes() == init.values.tobytes()
        history = np.loadtxt(tmp_path / "learned" / "history.csv", delimiter=",", skiprows=1)
        assert history.shape == (150, 7)
        best = history[np.argmin(history[:, 1]), 4:]
        assert capsys.readouterr().out.endswith(
            "finished after 150 iterations; per-view RMSE of the written table: "
            f"{[f'{r:.4g}' for r in best]}\n")

    def test_demo_learns_the_cube(self, tmp_path, monkeypatch):
        """learn.ini starts the cube off the truth that run.ini renders; the
        150 iterations bring h, l and eps_r within 2 % of it."""
        run_script(monkeypatch, "make_demo_scene.py", tmp_path)
        assert main(["simulate", "--config", str(tmp_path / "run.ini")]) == 0
        refs = [str(tmp_path / "out" / f"view_{vi:03d}.sarf") for vi in range(3)]
        start = load_param_map(tmp_path / "start.csv")
        assert not np.array_equal(start.values[-1], [0.005, 0.01, 25.0, 0.05])
        assert main(["learn", "--config", str(tmp_path / "learn.ini"), "--refs"] + refs) == 0
        got = load_param_map(tmp_path / "learned" / "params_final.csv")
        np.testing.assert_array_equal(got.values[:4], start.values[:4])     # the plane is frozen
        np.testing.assert_allclose(got.values[4:, :3], np.tile([0.005, 0.01, 25.0], (8, 1)),
                                   rtol=0.02)

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

    def test_unequal_tied_start_exits_2(self, workdir, capsys):
        """tie = true trains one record: trained rows that differ are rejected
        before any output exists."""
        refs = self.render_refs(workdir)
        params = ParamMap.constant(8, 0.004, 0.02, 9.0, 0.3)
        params.values[5, 0] = 0.006
        save_param_map(params, workdir / "init.csv")
        (workdir / "tied.ini").write_text(
            CONFIG.replace("init = 0.004 0.02 9.0 0.3", "init_csv = init.csv"))
        capsys.readouterr()
        assert main(["learn", "--config", str(workdir / "tied.ini"), "--refs"] + refs
                    + ["--out", "learned"]) == 2
        assert ("tied vertices 0 and 5 start with different h values (0.004 != 0.006)"
                in capsys.readouterr().err)
        assert not (workdir / "learned").exists()

    def test_all_channels_frozen_leaves_table(self, workdir):
        """No unknown to train: the run writes its history and the start table."""
        refs = self.render_refs(workdir)
        (workdir / "frozen.ini").write_text(
            CONFIG.replace("tie = true", "tie = true\nfreeze_channels = h l eps_r tau"))
        rc = main(["learn", "--config", str(workdir / "frozen.ini"), "--refs"] + refs
                  + ["--out", "learned"])
        assert rc == 0
        out = workdir / "learned"
        assert len((out / "history.csv").read_text().splitlines()) == 1 + 4
        got = load_param_map(out / "params_final.csv")
        np.testing.assert_array_equal(got.values, np.tile([0.004, 0.02, 9.0, 0.3], (8, 1)))

    def test_ref_count_mismatch(self, workdir, capsys):
        refs = self.render_refs(workdir)
        capsys.readouterr()
        rc = main(["learn", "--config", str(workdir / "run.ini"),
                   "--refs", refs[0], "--out", "learned"])
        assert rc == 2
        assert capsys.readouterr().err == "error: 1 reference rasters for 2 configured views\n"
        assert not (workdir / "learned").exists()

    def test_bad_raster_magic(self, workdir):
        bad = workdir / "bad.sarf"
        bad.write_bytes(b"JUNK 1 1 0.1 0.1 0.0\n\x00\x00\x00\x00")
        rc = main(["learn", "--config", str(workdir / "run.ini"),
                   "--refs", str(bad), str(bad), "--out", "learned"])
        assert rc == 2
        assert not (workdir / "learned").exists()

    def test_oversized_raster_header_exits_2(self, workdir, capsys):
        huge = workdir / "huge.sarf"
        huge.write_bytes(b"SARF1 10000000000 10000000000 0.1 0.1 0.0\n")
        capsys.readouterr()
        rc = main(["learn", "--config", str(workdir / "run.ini"),
                   "--refs", str(huge), str(huge), "--out", "learned"])
        assert rc == 2
        assert f"{huge}: truncated raster payload" in capsys.readouterr().err
        assert not (workdir / "learned").exists()

    def test_raster_with_trailing_bytes_exits_2(self, workdir, capsys):
        refs = self.render_refs(workdir)
        with open(refs[1], "ab") as fh:
            fh.write(b"\x00" * 4)
        capsys.readouterr()
        rc = main(["learn", "--config", str(workdir / "run.ini"), "--refs"] + refs
                  + ["--out", "learned"])
        assert rc == 2
        assert f"{refs[1]}: raster payload too long: needs " in capsys.readouterr().err
        assert not (workdir / "learned").exists()

    @pytest.mark.parametrize("line,other,field", [
        ("seed = 3", "seed = 9", "range_origin"),       # same shape, shifted range grid
        ("range_res = 0.1", "range_res = 0.1000001", "range_res"),
        ("azimuth_res = 0.6", "azimuth_res = 0.5", "azimuth_res"),   # same pixels and ranges
    ])
    def test_reference_grid_mismatch_writes_nothing(self, workdir, capsys, line, other,
                                                    field):
        (workdir / "other.ini").write_text(CONFIG.replace(line, other))
        main(["simulate", "--config", str(workdir / "other.ini"), "--out", "refs"])
        refs = [str(workdir / "refs" / f"view_{vi:03d}.sarf") for vi in range(2)]
        data, meta = read_raster(refs[0])
        mesh, params, radars = build_scene(parse_config(workdir / "run.ini"), str(workdir))
        image, _ = render(mesh, params, radars[0])
        assert data.shape == image.shape            # only the header tells them apart
        want = {"range_origin": image.range_origin, "range_res": 0.1, "azimuth_res": 0.6}[field]
        assert meta[field] != want
        capsys.readouterr()
        rc = main(["learn", "--config", str(workdir / "run.ini"), "--refs"] + refs
                  + ["--out", "learned"])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"view 0: reference {refs[0]} has {field} {meta[field]!r}" in err
        assert f"the configured view has {want!r}" in err
        assert not (workdir / "learned").exists()

    @pytest.mark.parametrize("line, bad, message", [
        ("lambda_mat = 0.0", "lambda_mat = nan", "lambda_mat must lie in [0, inf), got nan"),
        ("lr = 0.05", "lr = nan", "lr must lie in (0, inf), got nan"),
        ("lr = 0.05", "lr = 0.05\nbeta1 = 1.0", "beta1 must lie in [0, 1), got 1.0"),
    ], ids=["lambda_mat", "lr", "beta1"])
    def test_bad_hyperparameter_exits_2_and_writes_nothing(self, workdir, capsys, line, bad,
                                                            message):
        refs = self.render_refs(workdir)
        (workdir / "bad.ini").write_text(CONFIG.replace(line, bad))
        capsys.readouterr()
        assert main(["learn", "--config", str(workdir / "bad.ini"), "--refs"] + refs
                    + ["--out", "learned"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (workdir / "learned").exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_reference_pixel_exits_2_and_writes_nothing(self, workdir, capsys,
                                                                     value):
        refs = self.render_refs(workdir)
        raw = bytearray(open(refs[1], "rb").read())
        data, _ = read_raster(refs[1])
        start = raw.index(b"\n") + 1 + (1 * data.shape[1] + 2) * 4     # row 1, bin 2
        raw[start:start + 4] = np.array([value], dtype="<f4").tobytes()
        open(refs[1], "wb").write(bytes(raw))
        capsys.readouterr()
        rc = main(["learn", "--config", str(workdir / "run.ini"), "--refs"] + refs
                  + ["--out", "learned"])
        assert rc == 2
        assert capsys.readouterr().err == (f"error: view 1: reference pixel (row 1, bin 2) "
                                           f"is {value}, not a finite intensity\n")
        assert not (workdir / "learned").exists()

    def test_reference_shape_mismatch_writes_nothing(self, workdir):
        refs = self.render_refs(workdir)
        (workdir / "wide.ini").write_text(CONFIG.replace("range_res = 0.1", "range_res = 0.05"))
        rc = main(["learn", "--config", str(workdir / "wide.ini"), "--refs"] + refs
                  + ["--out", "learned"])
        assert rc == 2
        assert not (workdir / "learned").exists()


class TestOneBvhPerCommand:
    """A command builds one BVH when intersect_rays would traverse it, and
    none on a mesh it scans."""

    @pytest.fixture
    def built(self, monkeypatch):
        meshes = []

        def counting_build_bvh(mesh, *args, **kwargs):
            meshes.append(mesh)
            return build_bvh(mesh, *args, **kwargs)

        monkeypatch.setattr(sartrace.cli, "build_bvh", counting_build_bvh)
        return meshes

    @pytest.fixture
    def large(self, workdir):
        write_obj(bumpy_grid(), workdir / "scene.obj")
        return workdir

    def test_simulate(self, large, built):
        assert main(["simulate", "--config", str(large / "run.ini")]) == 0
        assert len(built) == 1

    def test_learn(self, large, built):
        refs = TestLearnCommand().render_refs(large)
        built.clear()
        assert main(["learn", "--config", str(large / "run.ini"), "--refs"] + refs
                    + ["--out", "learned"]) == 0
        assert len(built) == 1

    def test_gradcheck(self, large, built):
        assert main(["gradcheck", "--config", str(large / "run.ini"),
                     "--probes", "2"]) == 0
        assert len(built) == 1

    def test_gradcheck_over_ten_thousand_facets(self, workdir, built):
        """gradcheck has no facet cap: a 10,368-facet grid is checked."""
        write_obj(bumpy_grid(72), workdir / "scene.obj")
        assert main(["gradcheck", "--config", str(workdir / "run.ini"),
                     "--probes", "2"]) == 0
        assert len(built) == 1

    @pytest.mark.parametrize("command", ["simulate", "learn", "gradcheck"])
    def test_views_traced_once(self, workdir, monkeypatch, command):
        """Each command traces its configured views in one trace_views call."""
        argv = ["--probes", "2"] if command == "gradcheck" else []
        if command == "learn":
            argv = ["--refs"] + TestLearnCommand().render_refs(workdir) + ["--out", "learned"]
        calls = []

        def counting_trace_views(*args, **kwargs):
            calls.append(1)
            return trace_views(*args, **kwargs)

        monkeypatch.setattr(sartrace.cli, "trace_views", counting_trace_views)
        assert main([command, "--config", str(workdir / "run.ini")] + argv) == 0
        assert len(calls) == 1

    def test_small_mesh_builds_none(self, workdir, built):
        refs = TestLearnCommand().render_refs(workdir)
        assert main(["learn", "--config", str(workdir / "run.ini"), "--refs"] + refs
                    + ["--out", "learned"]) == 0
        assert main(["gradcheck", "--config", str(workdir / "run.ini"),
                     "--probes", "2"]) == 0
        assert built == []


class TestGradcheckCommand:
    def test_clean_exit(self, workdir):
        assert main(["gradcheck", "--config", str(workdir / "run.ini"),
                     "--probes", "8"]) == 0

    def test_corrupted_adjoint_fails(self, workdir, monkeypatch):
        """Partials scaled by 1.37 and sigma left alone: the check fails."""
        eval_bsdf_at = sartrace.imaging.eval_bsdf_at

        def corrupted(angles, values):
            sigma, grads = eval_bsdf_at(angles, values)
            return sigma, grads * 1.37

        monkeypatch.setattr(sartrace.imaging, "eval_bsdf_at", corrupted)
        assert main(["gradcheck", "--config", str(workdir / "run.ini"),
                     "--probes", "8"]) == 1

    @pytest.mark.parametrize("argv", [["--probes", "0"], ["--probes", "-3"]], ids=["0", "-3"])
    def test_probes_below_one_exit_2(self, workdir, capsys, argv):
        """A check of no probe checks nothing, so it neither passes nor fails."""
        assert main(["gradcheck", "--config", str(workdir / "run.ini")] + argv) == 2
        captured = capsys.readouterr()
        assert "--probes must be at least 1" in captured.err
        assert "relative error" not in captured.out


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
        ("tau", "1.5", r"vertex 0, tau: parameter value 1\.5 outside \[0\.0, 1\.0\]"),
        ("eps_r", "0.5", r"vertex 0, eps_r: parameter value 0\.5 outside \[1\.000001, 10000\.0\]"),
        ("h", "0", r"vertex 0, h: parameter value 0\.0 outside \[1e-07, 1\.0\]"),
        ("theta_stop", "90", r"theta-stop must lie in \[0, 90\) degrees"),
        # no contrast: sigma and every partial are exactly 0 at eps_r = 1
        ("eps_r", "1.0", r"vertex 0, eps_r: parameter value 1\.0 outside \[1\.000001, "),
        ("eps_r", "2e4", r"vertex 0, eps_r: parameter value 20000\.0 outside "),
        ("h", "1.5", r"vertex 0, h: parameter value 1\.5 outside \[1e-07, 1\.0\]"),
        ("l", "20", r"vertex 0, l: parameter value 20\.0 outside \[1e-07, 10\.0\]"),
    ], ids=["tau", "eps_r", "h", "theta_stop", "eps_r_1", "eps_r_above", "h_above", "l_above"])
    def test_rejects_out_of_domain(self, tmp_path, capsys, flag, value, cause):
        out = tmp_path / "sweep.csv"
        assert main(self.sweep_argv(out, **{flag: value})) == 2
        assert re.search(cause, capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("num", ["0", "-1"])
    def test_num_below_one_exit_2(self, tmp_path, capsys, num):
        """A sweep of no angle would write a header and nothing else."""
        out = tmp_path / "sweep.csv"
        assert main(self.sweep_argv(out, num=num)) == 2
        assert capsys.readouterr().err == f"error: --num must be at least 1, got {num}\n"
        assert not out.exists()
