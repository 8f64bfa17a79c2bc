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
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from sartrace.accel import build_bvh, uses_bvh
from sartrace.imaging import (RadarConfig, read_raster, shade_views, trace_views, write_pgm,
                              write_raster)
# the benchmark's traced run wraps this module's `render` by name
from sartrace.imaging import render  # noqa: F401
from sartrace.learn import LossConfig, OptimState, grad_check, learn, write_history_csv
from sartrace.scatter import WaveConfig, eval_bsdf_batch, validity_mask
from sartrace.scene import (PARAM_CHANNELS, ParamMap, load_mesh, load_param_map,
                            save_param_map)
from sartrace.scenes import multiview_radars

_GRADCHECK_TOL = 1e-3   # gradcheck exits 1 when a probe's relative error exceeds it


class ConfigError(ValueError):
    """Configuration file problem, message names the offending field."""


def _words(raw: str) -> tuple[str, ...]:
    return tuple(raw.replace(",", " ").split())


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(t) for t in _words(raw))


def _bool(raw: str) -> bool:
    return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]


def _ini(section: str, key: str, parse=str, default=MISSING):
    """A SceneConfig field read from `key` in `[section]` by `parse`; a
    field without a default is required."""
    return field(metadata={"ini": (section, key, parse, default)})


@dataclass(frozen=True)
class SceneConfig:
    """Parsed experiment description (plain types, round-trip stable).

    Each field declares its INI section, key, parser and default;
    parse_config and serialize_config go through the fields in order.
    """

    mesh_path: str = _ini("scene", "mesh")
    init: tuple[float, float, float, float] | None = _ini("scene", "init", _floats, None)
    init_csv: str | None = _ini("scene", "init_csv", str, None)
    frequency: float = _ini("radar", "frequency_hz", float)
    polarization: str = _ini("radar", "polarization", str, "HH")
    psd: str = _ini("radar", "psd", str, "gaussian")
    start: tuple[float, float, float] = _ini("radar", "start", _floats)
    end: tuple[float, float, float] = _ini("radar", "end", _floats)
    num_azimuth: int = _ini("radar", "num_azimuth", int)
    alpha_start_deg: float = _ini("radar", "alpha_start_deg", float)
    alpha_stop_deg: float = _ini("radar", "alpha_stop_deg", float)
    num_angles: int = _ini("radar", "num_angles", int)
    range_res: float = _ini("radar", "range_res", float)
    azimuth_res: float = _ini("radar", "azimuth_res", float)
    spua: int = _ini("radar", "spua", int, 1)
    seed: int = _ini("radar", "seed", int, 0)
    view_azimuths_deg: tuple[float, ...] = _ini("radar", "view_azimuths_deg", _floats, (0.0,))
    scene_center: tuple[float, float, float] | None = _ini("radar", "scene_center", _floats, None)
    lambda_sim: float = _ini("loss", "lambda_sim", float, 1.0)
    lambda_mat: float = _ini("loss", "lambda_mat", float, 1e-3)
    normalize: bool = _ini("loss", "normalize", _bool, True)
    lr: float = _ini("optim", "lr", float, 0.02)
    iters: int = _ini("optim", "iters", int, 200)
    beta1: float = _ini("optim", "beta1", float, 0.9)
    beta2: float = _ini("optim", "beta2", float, 0.999)
    eps_adam: float = _ini("optim", "eps_adam", float, 1e-8)
    lr_decay: float = _ini("optim", "lr_decay", float, 1.0)
    train_vertices: str = _ini("optim", "train_vertices", str, "all")
    tie: bool = _ini("optim", "tie", _bool, False)
    freeze_channels: tuple[str, ...] = _ini("optim", "freeze_channels", _words, ())
    out_dir: str = _ini("output", "dir")


def parse_config(path) -> SceneConfig:
    # raw values: a "%" is a literal, as serialize_config writes it
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        found = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    if not found:
        raise ConfigError(f"cannot read config file {path}")
    for name in ("scene", "radar", "optim", "output"):
        if name not in parser:
            raise ConfigError(f"missing section [{name}]")
    sections = {name: parser[name] for name in parser}
    values = {}
    for f in fields(SceneConfig):
        name, key, parse, default = f.metadata["ini"]
        section = sections.get(name, sections["DEFAULT"])  # [loss] is optional
        if key not in section:
            if default is MISSING:
                raise ConfigError(f"missing field {name}.{key}")
            values[f.name] = default
            continue
        raw = section[key]
        try:
            values[f.name] = parse(raw)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {section.name}.{key}: {raw!r}") from exc
    cfg = SceneConfig(**values)

    if cfg.init is not None and len(cfg.init) != 4:
        raise ConfigError("scene.init needs 4 values: h l eps_r tau")
    if cfg.init is None and cfg.init_csv is None:
        raise ConfigError("scene needs either init or init_csv")
    if len(cfg.start) != 3 or len(cfg.end) != 3:
        raise ConfigError("radar.start and radar.end need 3 coordinates")
    if not cfg.view_azimuths_deg:
        raise ConfigError("radar.view_azimuths_deg needs at least one azimuth")
    if not cfg.alpha_start_deg < cfg.alpha_stop_deg:
        raise ConfigError("radar.alpha_start_deg must be < radar.alpha_stop_deg")
    if cfg.scene_center is not None and len(cfg.scene_center) != 3:
        raise ConfigError("radar.scene_center needs 3 coordinates")
    try:
        WaveConfig(cfg.frequency, cfg.polarization, cfg.psd)
    except ValueError as exc:
        raise ConfigError(f"radar wave configuration: {exc}") from exc
    unknown = [c for c in cfg.freeze_channels if c not in PARAM_CHANNELS]
    if unknown:
        raise ConfigError(f"optim.freeze_channels: unknown channel {unknown[0]!r}; "
                          f"valid channels are {', '.join(PARAM_CHANNELS)}")
    _vertex_ranges(cfg.train_vertices)
    return cfg


def _format(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return " ".join(_format(v) for v in value)
    return str(value)


def serialize_config(cfg: SceneConfig) -> str:
    """INI text that parse_config reads back to cfg; None fields are left out."""
    lines, section = [], None
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        name, key = f.metadata["ini"][:2]
        if name != section:
            lines += ["", f"[{name}]"]
            section = name
        lines.append(f"{key} = {_format(value)}")
    return "\n".join(lines[1:] + [""])


def _vertex_ranges(spec: str) -> list[tuple[int, int]] | None:
    """optim.train_vertices as (lo, hi) ranges, unexpanded: "id" and
    "lo:hi" tokens (lo < hi); None for all."""
    if spec.strip().lower() == "all":
        return None
    ranges = []
    for part in spec.replace(",", " ").split():
        try:
            bounds = [int(t) for t in part.split(":")]
        except ValueError:
            bounds = []
        if not (len(bounds) == 1 or len(bounds) == 2 and bounds[0] < bounds[1]):
            raise ConfigError(f"optim.train_vertices: bad token {part!r}, "
                              "want a vertex id or lo:hi")
        ranges.append((bounds[0], bounds[0] + 1) if len(bounds) == 1 else tuple(bounds))
    return ranges


def build_scene(cfg: SceneConfig, base_dir="."):
    """Instantiate mesh, parameter table and per-view radar configs."""
    mesh = load_mesh(os.path.join(base_dir, cfg.mesh_path))
    if cfg.init_csv is not None:
        params = load_param_map(os.path.join(base_dir, cfg.init_csv))
        if params.num_vertices != mesh.num_vertices:
            raise ConfigError(
                f"init_csv has {params.num_vertices} rows, mesh has {mesh.num_vertices} vertices")
    else:
        params = ParamMap.constant(mesh.num_vertices, *cfg.init)
    base = RadarConfig(
        wave=WaveConfig(cfg.frequency, cfg.polarization, cfg.psd),
        start_pos=np.asarray(cfg.start), end_pos=np.asarray(cfg.end), num_azimuth=cfg.num_azimuth,
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
    ranges = _vertex_ranges(cfg.train_vertices)
    frozen = np.full(num_vertices, ranges is not None)   # None: train all
    for lo, hi in ranges or ():
        if lo < 0 or hi > num_vertices:
            raise ConfigError(f"optim.train_vertices outside [0, {num_vertices})")
        frozen[lo:hi] = False
    trained, frozen_vertices = np.flatnonzero(~frozen), np.flatnonzero(frozen)
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
    """outputs maps each written file's name to its SHA-256 hex digest."""
    manifest = {
        "config": {f.name: getattr(cfg, f.name) for f in fields(cfg)},
        "inputs": {os.path.basename(p): _sha256(p) for p in inputs},
        "outputs": outputs,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True))


def _write_views(out, stem, rendered) -> dict:
    """Write the image of each (SarImage, ledger) in rendered as out/{stem}_NNN.sarf
    and .pgm; returns {file name: SHA-256 hex digest}.  A non-finite pixel
    raises a ValueError naming the view, (row, bin) and value before out is made."""
    for vi, (image, _) in enumerate(rendered):
        data = image.intensities
        if not np.isfinite(data).all():
            row, col = divmod(int(np.flatnonzero(~np.isfinite(data))[0]), data.shape[1])
            raise ValueError(f"view {vi}: pixel (row {row}, bin {col}) is "
                             f"{float(data[row, col])}, not a finite intensity")
    os.makedirs(out, exist_ok=True)
    return {f"{stem}_{vi:03d}.{ext}": write(image, os.path.join(out, f"{stem}_{vi:03d}.{ext}"))
            for vi, (image, _) in enumerate(rendered)
            for ext, write in (("sarf", write_raster), ("pgm", write_pgm))}


def _load(config_path, seed=None):
    """A command's experiment: (cfg, base_dir, params, hitsets), the
    configured views traced once.

    seed overrides radar.seed; the table is validated, and the BVH is
    built once, when intersect_rays would traverse it.
    """
    cfg = parse_config(config_path)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    base_dir = os.path.dirname(os.path.abspath(config_path))
    mesh, params, radars = build_scene(cfg, base_dir)
    params.validate()
    bvh = build_bvh(mesh) if uses_bvh(mesh) else None
    return cfg, base_dir, params, trace_views(mesh, radars, bvh=bvh)


def _loss_config(cfg: SceneConfig) -> LossConfig:
    return LossConfig(cfg.lambda_sim, cfg.lambda_mat, cfg.normalize)


def cmd_simulate(args) -> int:
    cfg, base_dir, params, hitsets = _load(args.config, args.seed)
    rendered = shade_views(hitsets, params)
    out = args.out or os.path.join(base_dir, cfg.out_dir)
    outputs = _write_views(out, "view", rendered)
    for vi, (image, _) in enumerate(rendered):
        print(f"view {vi}: {image.shape[0]} x {image.shape[1]} px -> "
              f"{os.path.join(out, f'view_{vi:03d}.sarf')}")
    inputs = [os.path.join(base_dir, p) for p in (cfg.mesh_path, cfg.init_csv) if p]
    _write_manifest(out, cfg, inputs, outputs)
    return 0


def cmd_learn(args) -> int:
    cfg, base_dir, params, hitsets = _load(args.config)
    if len(args.refs) != len(hitsets):
        raise ConfigError(
            f"{len(args.refs)} reference rasters for {len(hitsets)} configured views")
    rasters = [read_raster(path) for path in args.refs]
    opt = make_optimizer(cfg, params.num_vertices)
    for vi, (hits, path, (_, meta)) in enumerate(zip(hitsets, args.refs, rasters)):
        for name, want in (("azimuth_res", cfg.azimuth_res), ("range_res", cfg.range_res),
                           ("range_origin", hits.range_origin)):
            if meta[name] != want:
                raise ConfigError(f"view {vi}: reference {path} has {name} {meta[name]!r}, "
                                  f"the configured view has {want!r}")
    views = [(hits, data) for hits, (data, _) in zip(hitsets, rasters)]
    result = learn(params, views, opt, _loss_config(cfg), iters=cfg.iters)  # tunes params in place
    out = args.out or os.path.join(base_dir, cfg.out_dir)
    _write_views(out, "final_view", shade_views(hitsets, params))
    save_param_map(params, os.path.join(out, "params_final.csv"))
    write_history_csv(result, os.path.join(out, "history.csv"))
    if result.aborted:
        print("non-finite loss: stopped early, wrote best finite-loss parameters",
              file=sys.stderr)
        return 1
    best = result.view_rmse[np.argmin(result.total_loss)] if result.iterations else []
    print(f"finished after {result.iterations} iterations; "
          f"per-view RMSE of the written table: {[f'{r:.4g}' for r in best]}")
    return 0


def _perturbed_reference_params(params: ParamMap) -> ParamMap:
    """Deterministic off-truth table so gradcheck sees nonzero gradients."""
    ref = params.copy()
    ref.values[:, 0] *= 1.6
    ref.values[:, 1] *= 0.7
    ref.values[:, 2] = 1.0 + (ref.values[:, 2] - 1.0) * 1.8 + 0.5
    return ref


def cmd_gradcheck(args) -> int:
    if args.probes < 1:
        raise ConfigError(f"--probes must be at least 1, got {args.probes}")
    cfg, _, params, hitsets = _load(args.config)
    views = [(hits, image.intensities) for hits, (image, _)
             in zip(hitsets, shade_views(hitsets, _perturbed_reference_params(params)))]
    report = grad_check(params, views, _loss_config(cfg), num_probes=args.probes, seed=args.seed)
    for p in report.probes:
        print(f"vertex {p.vertex:4d} {p.channel:6s} analytic {p.analytic: .6e} "
              f"fd {p.finite_diff: .6e} rel {p.rel_err:.3e}")
    print(f"max relative error:    {report.max_rel_err:.3e}")
    print(f"median relative error: {report.median_rel_err:.3e}")
    return 0 if report.max_rel_err <= _GRADCHECK_TOL else 1


def cmd_sweep(args) -> int:
    if args.num < 1:
        raise ConfigError(f"--num must be at least 1, got {args.num}")
    h, l, eps_r, tau = args.h, args.l, args.eps_r, args.tau
    wave = WaveConfig(args.frequency, args.polarization, args.psd)
    ParamMap.constant(1, h, l, eps_r, tau).validate()
    for name, deg in (("theta-start", args.theta_start), ("theta-stop", args.theta_stop)):
        if not 0.0 <= deg < 90.0:
            raise ValueError(f"{name} must lie in [0, 90) degrees, got {deg!r}")
    thetas = np.linspace(math.radians(args.theta_start), math.radians(args.theta_stop), args.num)
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
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="sartrace",
        description="Ray-traced SAR intensity simulation and scattering-parameter recovery")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="render the configured views")
    p_sim.set_defaults(run=cmd_simulate)
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", default=None)
    p_sim.add_argument("--seed", type=int, default=None)

    p_learn = sub.add_parser("learn", help="recover parameters from reference rasters")
    p_learn.set_defaults(run=cmd_learn)
    p_learn.add_argument("--config", required=True)
    p_learn.add_argument("--refs", nargs="+", required=True)
    p_learn.add_argument("--out", default=None)

    p_gc = sub.add_parser("gradcheck", help="finite-difference check of the gradient path")
    p_gc.set_defaults(run=cmd_gradcheck)
    p_gc.add_argument("--config", required=True)
    p_gc.add_argument("--probes", type=int, default=20)
    p_gc.add_argument("--seed", type=int, default=0)

    p_sweep = sub.add_parser("sweep", help="backscatter vs incidence angle curves")
    p_sweep.set_defaults(run=cmd_sweep)
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
