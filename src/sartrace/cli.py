"""Command-line driver: simulate, learn, gradcheck, sweep.

Experiment configs are flat INI files (sections: scene, radar, loss,
optim, output).  Angles are degrees in configs and converted at parse;
lengths are meters, frequency Hz.  Multi-view observation sets are
described by view_azimuths_deg: each entry rotates the base trajectory
about the vertical axis through the scene center.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, asdict, replace

import numpy as np

from sartrace.accel import build_bvh, uses_bvh
from sartrace.imaging import (RadarConfig, SarImage, read_raster, render, shade,
                              trace, write_pgm, write_raster)
from sartrace.learn import (LossConfig, OptimState, grad_check, learn,
                            loss_sim, rmse_normalized, write_history_csv)
from sartrace.scatter import WaveConfig, eval_bsdf_batch, validity_mask
from sartrace.scene import (PARAM_CHANNELS, ParamMap, load_mesh, load_param_map,
                            save_param_map)
from sartrace.scenes import multiview_radars


class ConfigError(ValueError):
    """Configuration file problem, message names the offending field."""


@dataclass(frozen=True)
class SceneConfig:
    """Parsed experiment description (plain types, round-trip stable)."""

    mesh_path: str
    init: tuple[float, float, float, float] | None
    init_csv: str | None
    frequency: float
    polarization: str
    psd: str
    start: tuple[float, float, float]
    end: tuple[float, float, float]
    num_azimuth: int
    alpha_start_deg: float
    alpha_stop_deg: float
    num_angles: int
    range_res: float
    azimuth_res: float
    spua: int
    seed: int
    view_azimuths_deg: tuple[float, ...]
    scene_center: tuple[float, float, float] | None
    lambda_sim: float
    lambda_mat: float
    normalize: bool
    lr: float
    iters: int
    beta1: float
    beta2: float
    eps_adam: float
    lr_decay: float
    train_vertices: str
    tie: bool
    freeze_channels: tuple[str, ...]
    out_dir: str


def _get(section, key, cast, default=None, required=False):
    if key not in section:
        if required:
            raise ConfigError(f"missing field {section.name}.{key}")
        return default
    raw = section[key]
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {section.name}.{key}: {raw!r}") from exc


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(t) for t in raw.replace(",", " ").split())


def _bool(raw: str) -> bool:
    val = raw.strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def parse_config(path) -> SceneConfig:
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ConfigError(f"cannot read config file {path}")
    for name in ("scene", "radar", "optim", "output"):
        if name not in parser:
            raise ConfigError(f"missing section [{name}]")
    scene = parser["scene"]
    radar = parser["radar"]
    loss = parser["loss"] if "loss" in parser else parser["DEFAULT"]
    optim = parser["optim"]
    output = parser["output"]

    init = None
    if "init" in scene:
        init = _get(scene, "init", _floats, required=True)
        if len(init) != 4:
            raise ConfigError("scene.init needs 4 values: h l eps_r tau")
    init_csv = _get(scene, "init_csv", str)
    if init is None and init_csv is None:
        raise ConfigError("scene needs either init or init_csv")

    start = _get(radar, "start", _floats, required=True)
    end = _get(radar, "end", _floats, required=True)
    if len(start) != 3 or len(end) != 3:
        raise ConfigError("radar.start and radar.end need 3 coordinates")
    a0 = _get(radar, "alpha_start_deg", float, required=True)
    a1 = _get(radar, "alpha_stop_deg", float, required=True)
    if not a0 < a1:
        raise ConfigError("radar.alpha_start_deg must be < radar.alpha_stop_deg")
    center = _get(radar, "scene_center", _floats)
    if center is not None and len(center) != 3:
        raise ConfigError("radar.scene_center needs 3 coordinates")

    cfg = SceneConfig(
        mesh_path=_get(scene, "mesh", str, required=True),
        init=init, init_csv=init_csv,
        frequency=_get(radar, "frequency_hz", float, required=True),
        polarization=_get(radar, "polarization", str, "HH"),
        psd=_get(radar, "psd", str, "gaussian"),
        start=start, end=end,
        num_azimuth=_get(radar, "num_azimuth", int, required=True),
        alpha_start_deg=a0, alpha_stop_deg=a1,
        num_angles=_get(radar, "num_angles", int, required=True),
        range_res=_get(radar, "range_res", float, required=True),
        azimuth_res=_get(radar, "azimuth_res", float, required=True),
        spua=_get(radar, "spua", int, 1),
        seed=_get(radar, "seed", int, 0),
        view_azimuths_deg=_get(radar, "view_azimuths_deg", _floats, (0.0,)),
        scene_center=center,
        lambda_sim=_get(loss, "lambda_sim", float, 1.0),
        lambda_mat=_get(loss, "lambda_mat", float, 1e-3),
        normalize=_get(loss, "normalize", _bool, True),
        lr=_get(optim, "lr", float, 0.02),
        iters=_get(optim, "iters", int, 200),
        beta1=_get(optim, "beta1", float, 0.9),
        beta2=_get(optim, "beta2", float, 0.999),
        eps_adam=_get(optim, "eps_adam", float, 1e-8),
        lr_decay=_get(optim, "lr_decay", float, 1.0),
        train_vertices=_get(optim, "train_vertices", str, "all"),
        tie=_get(optim, "tie", _bool, False),
        freeze_channels=tuple(
            t for t in _get(optim, "freeze_channels", str, "").replace(",", " ").split()),
        out_dir=_get(output, "dir", str, required=True),
    )
    try:
        WaveConfig(cfg.frequency, cfg.polarization, cfg.psd)
    except ValueError as exc:
        raise ConfigError(f"radar wave configuration: {exc}") from exc
    unknown = [c for c in cfg.freeze_channels if c not in PARAM_CHANNELS]
    if unknown:
        raise ConfigError(f"optim.freeze_channels: unknown channel {unknown[0]!r}; "
                          f"valid channels are {', '.join(PARAM_CHANNELS)}")
    _vertex_ids(cfg.train_vertices)
    return cfg


def serialize_config(cfg: SceneConfig) -> str:
    def fmt(value):
        if isinstance(value, tuple):
            return " ".join(repr(v) if isinstance(v, float) else str(v) for v in value)
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return repr(value)
        return str(value)

    lines = ["[scene]", f"mesh = {cfg.mesh_path}"]
    if cfg.init is not None:
        lines.append(f"init = {fmt(cfg.init)}")
    if cfg.init_csv is not None:
        lines.append(f"init_csv = {cfg.init_csv}")
    lines += [
        "", "[radar]",
        f"frequency_hz = {fmt(cfg.frequency)}",
        f"polarization = {cfg.polarization}",
        f"psd = {cfg.psd}",
        f"start = {fmt(cfg.start)}",
        f"end = {fmt(cfg.end)}",
        f"num_azimuth = {cfg.num_azimuth}",
        f"alpha_start_deg = {fmt(cfg.alpha_start_deg)}",
        f"alpha_stop_deg = {fmt(cfg.alpha_stop_deg)}",
        f"num_angles = {cfg.num_angles}",
        f"range_res = {fmt(cfg.range_res)}",
        f"azimuth_res = {fmt(cfg.azimuth_res)}",
        f"spua = {cfg.spua}",
        f"seed = {cfg.seed}",
        f"view_azimuths_deg = {fmt(cfg.view_azimuths_deg)}",
    ]
    if cfg.scene_center is not None:
        lines.append(f"scene_center = {fmt(cfg.scene_center)}")
    lines += [
        "", "[loss]",
        f"lambda_sim = {fmt(cfg.lambda_sim)}",
        f"lambda_mat = {fmt(cfg.lambda_mat)}",
        f"normalize = {fmt(cfg.normalize)}",
        "", "[optim]",
        f"lr = {fmt(cfg.lr)}",
        f"iters = {cfg.iters}",
        f"beta1 = {fmt(cfg.beta1)}",
        f"beta2 = {fmt(cfg.beta2)}",
        f"eps_adam = {fmt(cfg.eps_adam)}",
        f"lr_decay = {fmt(cfg.lr_decay)}",
        f"train_vertices = {cfg.train_vertices}",
        f"tie = {fmt(cfg.tie)}",
        f"freeze_channels = {' '.join(cfg.freeze_channels)}",
        "", "[output]",
        f"dir = {cfg.out_dir}",
        "",
    ]
    return "\n".join(lines)


def _vertex_ids(spec: str) -> list[int] | None:
    """Vertex ids of optim.train_vertices ("id" and "lo:hi" tokens); None for all."""
    if spec.strip().lower() == "all":
        return None
    ids = []
    for part in spec.replace(",", " ").split():
        try:
            bounds = [int(t) for t in part.split(":")]
        except ValueError:
            bounds = []
        if not 1 <= len(bounds) <= 2:
            raise ConfigError(f"optim.train_vertices: bad token {part!r}, "
                              "want a vertex id or lo:hi")
        ids.extend(range(*bounds) if len(bounds) == 2 else bounds)
    return ids


def _parse_vertex_ranges(spec: str, num_vertices: int) -> np.ndarray:
    ids = _vertex_ids(spec)
    if ids is None:
        return np.arange(num_vertices)
    arr = np.unique(np.asarray(ids, dtype=np.int64))
    if arr.size and (arr[0] < 0 or arr[-1] >= num_vertices):
        raise ConfigError(f"optim.train_vertices outside [0, {num_vertices})")
    return arr


def build_scene(cfg: SceneConfig, base_dir="."):
    """Instantiate mesh, parameter table and per-view radar configs."""
    mesh_path = os.path.join(base_dir, cfg.mesh_path)
    mesh = load_mesh(mesh_path)
    if cfg.init_csv is not None:
        params = load_param_map(os.path.join(base_dir, cfg.init_csv))
        if params.num_vertices != mesh.num_vertices:
            raise ConfigError(
                f"init_csv has {params.num_vertices} rows, mesh has {mesh.num_vertices} vertices")
    else:
        params = ParamMap.constant(mesh.num_vertices, *cfg.init)
    wave = WaveConfig(cfg.frequency, cfg.polarization, cfg.psd)
    base = RadarConfig(
        wave=wave, start_pos=np.asarray(cfg.start), end_pos=np.asarray(cfg.end),
        num_azimuth=cfg.num_azimuth,
        alpha0=math.radians(cfg.alpha_start_deg), alpha1=math.radians(cfg.alpha_stop_deg),
        num_angles=cfg.num_angles, range_res=cfg.range_res, azimuth_res=cfg.azimuth_res,
        spua=cfg.spua, seed=cfg.seed)
    if cfg.scene_center is not None:
        center = np.asarray(cfg.scene_center)
    else:
        lo, hi = mesh.bbox()
        center = (lo + hi) / 2.0
    radars = multiview_radars(base, cfg.view_azimuths_deg, center=center)
    return mesh, params, radars


def make_optimizer(cfg: SceneConfig, num_vertices: int) -> OptimState:
    trained = _parse_vertex_ranges(cfg.train_vertices, num_vertices)
    mask = np.ones(num_vertices, dtype=bool)
    mask[trained] = False
    frozen_vertices = np.nonzero(mask)[0]
    tie_groups = [trained] if cfg.tie and trained.size else None
    return OptimState.create(
        num_vertices, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
        eps_adam=cfg.eps_adam, lr_decay=cfg.lr_decay,
        freeze_channels=cfg.freeze_channels, freeze_vertices=frozen_vertices,
        tie_groups=tie_groups)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_dir, cfg: SceneConfig, inputs, outputs) -> None:
    manifest = {
        "config": asdict(cfg),
        "inputs": {os.path.basename(p): _sha256(p) for p in inputs},
        "outputs": {os.path.basename(p): _sha256(p) for p in outputs},
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def cmd_simulate(config_path, out_dir=None, seed=None) -> int:
    cfg = parse_config(config_path)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    base_dir = os.path.dirname(os.path.abspath(config_path))
    out = os.path.join(base_dir, out_dir or cfg.out_dir)
    mesh, params, radars = build_scene(cfg, base_dir)
    params.validate()
    bvh = build_bvh(mesh) if uses_bvh(mesh) else None
    os.makedirs(out, exist_ok=True)
    written = []
    for vi, radar in enumerate(radars):
        image, _ = render(mesh, params, radar, bvh=bvh)
        raster = os.path.join(out, f"view_{vi:03d}.sarf")
        write_raster(image, raster)
        write_pgm(image, os.path.join(out, f"view_{vi:03d}.pgm"))
        written += [raster, os.path.join(out, f"view_{vi:03d}.pgm")]
        print(f"view {vi}: {image.shape[0]} x {image.shape[1]} px -> {raster}")
    inputs = [os.path.join(base_dir, cfg.mesh_path)]
    if cfg.init_csv:
        inputs.append(os.path.join(base_dir, cfg.init_csv))
    _write_manifest(out, cfg, inputs, written)
    return 0


def cmd_learn(config_path, ref_paths, out_dir=None) -> int:
    cfg = parse_config(config_path)
    base_dir = os.path.dirname(os.path.abspath(config_path))
    out = os.path.join(base_dir, out_dir or cfg.out_dir)
    mesh, params, radars = build_scene(cfg, base_dir)
    params.validate()
    if len(ref_paths) != len(radars):
        raise ConfigError(
            f"{len(ref_paths)} reference rasters for {len(radars)} configured views")
    rasters = [read_raster(path) for path in ref_paths]
    opt = make_optimizer(cfg, mesh.num_vertices)
    loss_cfg = LossConfig(lambda_sim=cfg.lambda_sim, lambda_mat=cfg.lambda_mat,
                          normalize=cfg.normalize)
    bvh = build_bvh(mesh) if uses_bvh(mesh) else None
    views = []
    for vi, (radar, path, (data, meta)) in enumerate(zip(radars, ref_paths, rasters)):
        hits = trace(mesh, radar, bvh=bvh)
        for name, want in (("range_res", cfg.range_res), ("range_origin", hits.range_origin)):
            if meta[name] != want:
                raise ConfigError(f"view {vi}: reference {path} has {name} {meta[name]!r}, "
                                  f"the configured view has {want!r}")
        views.append((hits, data))
    result = learn(params, views, opt, loss_cfg, iters=cfg.iters)
    os.makedirs(out, exist_ok=True)  # only now: learn checks the reference shapes on entry
    save_param_map(result.params, os.path.join(out, "params_final.csv"))
    write_history_csv(result, os.path.join(out, "history.csv"))
    for vi, (hits, _) in enumerate(views):
        image, _ = shade(hits, result.params)
        write_raster(image, os.path.join(out, f"final_view_{vi:03d}.sarf"))
        write_pgm(image, os.path.join(out, f"final_view_{vi:03d}.pgm"))
    if result.aborted:
        print("non-finite loss: stopped early, wrote last finite-loss parameters",
              file=sys.stderr)
        return 1
    final_rmse = result.view_rmse[-1] if result.view_rmse.size else []
    print(f"finished after {result.iterations} iterations; "
          f"final per-view RMSE: {[f'{r:.4g}' for r in final_rmse]}")
    return 0


def _perturbed_reference_params(params: ParamMap) -> ParamMap:
    """Deterministic off-truth table so gradcheck sees nonzero gradients."""
    ref = params.copy()
    ref.values[:, 0] *= 1.6
    ref.values[:, 1] *= 0.7
    ref.values[:, 2] = 1.0 + (ref.values[:, 2] - 1.0) * 1.8 + 0.5
    return ref


def cmd_gradcheck(config_path, probes=20, seed=0, corrupt_adjoint=False,
                  threshold=1e-3) -> int:
    cfg = parse_config(config_path)
    base_dir = os.path.dirname(os.path.abspath(config_path))
    mesh, params, radars = build_scene(cfg, base_dir)
    params.validate()
    if mesh.num_facets > 10_000:
        raise ConfigError("gradcheck wants a small scene (<= 10k facets)")
    loss_cfg = LossConfig(lambda_sim=cfg.lambda_sim, lambda_mat=cfg.lambda_mat,
                          normalize=cfg.normalize)
    ref_params = _perturbed_reference_params(params)
    bvh = build_bvh(mesh) if uses_bvh(mesh) else None
    hitsets = [trace(mesh, radar, bvh=bvh) for radar in radars]
    views = [(hits, shade(hits, ref_params)[0].intensities) for hits in hitsets]

    bsdf_fn = None
    if corrupt_adjoint:
        def bsdf_fn(theta, values, wave):
            sigma, grads = eval_bsdf_batch(theta, values, wave)
            return sigma, grads * 1.37
    report = grad_check(params, views, loss_cfg, num_probes=probes, seed=seed,
                        bsdf_fn=bsdf_fn)
    for p in report.probes:
        print(f"vertex {p.vertex:4d} {p.channel:6s} analytic {p.analytic: .6e} "
              f"fd {p.finite_diff: .6e} rel {p.rel_err:.3e}")
    print(f"max relative error:    {report.max_rel_err:.3e}")
    print(f"median relative error: {report.median_rel_err:.3e}")
    return 0 if report.max_rel_err <= threshold else 1


def cmd_sweep(h, l, eps_r, tau, frequency, polarization, psd,
              theta_start_deg, theta_stop_deg, num, out_path) -> int:
    wave = WaveConfig(frequency, polarization, psd)
    ParamMap.constant(1, h, l, eps_r, tau).validate()
    for name, deg in (("theta-start", theta_start_deg), ("theta-stop", theta_stop_deg)):
        if not 0.0 <= deg < 90.0:
            raise ValueError(f"{name} must lie in [0, 90) degrees, got {deg!r}")
    thetas = np.linspace(math.radians(theta_start_deg), math.radians(theta_stop_deg), num)
    # the diffuse and specular columns are the blend at tau = 0 and tau = 1
    columns = [eval_bsdf_batch(thetas, np.tile([h, l, eps_r, t], (thetas.size, 1)), wave)[0]
               for t in (0.0, 1.0, tau)]
    mask = validity_mask(thetas, np.tile([h, l, eps_r, tau], (thetas.size, 1)), wave)
    flags = zip(mask[:, :3].all(axis=1), mask[:, 3:].all(axis=1))  # SPM, KA
    lines = ["theta_deg,sigma_spm,sigma_ka,sigma,spm_ok,ka_ok"]
    for th, s_spm, s_ka, blend, (spm_ok, ka_ok) in zip(thetas, *columns, flags):
        lines.append(f"{math.degrees(th)!r},{float(s_spm)!r},{float(s_ka)!r},{float(blend)!r},"
                     f"{int(spm_ok)},{int(ka_ok)}")
    text = "\n".join(lines) + "\n"
    if out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sartrace",
        description="Ray-traced SAR intensity simulation and scattering-parameter recovery")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="render the configured views")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", default=None)
    p_sim.add_argument("--seed", type=int, default=None)

    p_learn = sub.add_parser("learn", help="recover parameters from reference rasters")
    p_learn.add_argument("--config", required=True)
    p_learn.add_argument("--refs", nargs="+", required=True)
    p_learn.add_argument("--out", default=None)

    p_gc = sub.add_parser("gradcheck", help="finite-difference check of the gradient path")
    p_gc.add_argument("--config", required=True)
    p_gc.add_argument("--probes", type=int, default=20)
    p_gc.add_argument("--seed", type=int, default=0)
    p_gc.add_argument("--corrupt-adjoint", action="store_true",
                      help="negative control: break the adjoint on purpose")

    p_sweep = sub.add_parser("sweep", help="backscatter vs incidence angle curves")
    p_sweep.add_argument("--h", type=float, required=True)
    p_sweep.add_argument("--l", type=float, required=True)
    p_sweep.add_argument("--eps-r", type=float, required=True)
    p_sweep.add_argument("--tau", type=float, default=0.0)
    p_sweep.add_argument("--frequency", type=float, default=9.6e9)
    p_sweep.add_argument("--polarization", default="HH")
    p_sweep.add_argument("--psd", default="gaussian")
    p_sweep.add_argument("--theta-start", type=float, default=5.0)
    p_sweep.add_argument("--theta-stop", type=float, default=85.0)
    p_sweep.add_argument("--num", type=int, default=81)
    p_sweep.add_argument("--out", default="-")

    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(args.config, args.out, args.seed)
        if args.command == "learn":
            return cmd_learn(args.config, args.refs, args.out)
        if args.command == "gradcheck":
            return cmd_gradcheck(args.config, args.probes, args.seed,
                                 corrupt_adjoint=args.corrupt_adjoint)
        if args.command == "sweep":
            return cmd_sweep(args.h, args.l, args.eps_r, args.tau, args.frequency,
                             args.polarization, args.psd, args.theta_start,
                             args.theta_stop, args.num, args.out)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
