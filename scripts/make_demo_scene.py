#!/usr/bin/env python3
"""Write a ready-to-run demo: cube-on-plane OBJ plus two CLI configs.

run.ini renders references from the demo truth; learn.ini recovers the
cube from start.csv, which holds the plane at the truth and the cube at
(h, l, eps_r, tau) = (0.004, 0.012, 20.0, 0.05).

    python scripts/make_demo_scene.py demo/
    sartrace simulate --config demo/run.ini
    sartrace learn --config demo/learn.ini --refs demo/out/view_*.sarf
"""

import argparse
import os
from dataclasses import replace

from sartrace.cli import SceneConfig, serialize_config
from sartrace.scene import ParamMap, save_param_map, write_obj
from sartrace.scenes import cube_plane_scene


def write_demo(directory):
    """Write scene.obj, run.ini, start.csv and learn.ini into directory;
    returns (run.ini's path, mesh)."""
    os.makedirs(directory, exist_ok=True)
    mesh, plane_ids, cube_ids = cube_plane_scene(plane_size=8.0, cube_size=2.0)
    write_obj(mesh, os.path.join(directory, "scene.obj"))

    cfg = SceneConfig(
        mesh_path="scene.obj", init=(0.005, 0.01, 25.0, 0.05), init_csv=None,
        frequency=9.6e9, polarization="HH", psd="exponential",
        start=(-1.25, 4.243, 4.243), end=(1.25, 4.243, 4.243),
        num_azimuth=16, alpha_start_deg=25.0, alpha_stop_deg=65.0, num_angles=24,
        range_res=0.05, azimuth_res=0.1667, spua=2, seed=7,
        view_azimuths_deg=(0.0, 120.0, 240.0), scene_center=(0.0, 0.0, 0.0),
        lambda_sim=1.0, lambda_mat=0.0, normalize=True,
        lr=0.05, iters=150, beta1=0.9, beta2=0.99, eps_adam=1e-8, lr_decay=1.0,
        train_vertices=f"{plane_ids.size}:{mesh.num_vertices}", tie=True,
        freeze_channels=("tau",), out_dir="out")
    start = ParamMap.constant(mesh.num_vertices, *cfg.init)
    start.values[cube_ids] = (0.004, 0.012, 20.0, 0.05)
    save_param_map(start, os.path.join(directory, "start.csv"))
    learn_cfg = replace(cfg, init=None, init_csv="start.csv", out_dir="learned")
    for name, config in (("run.ini", cfg), ("learn.ini", learn_cfg)):
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(serialize_config(config))
    return os.path.join(directory, "run.ini"), mesh


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("directory", nargs="?", default="demo")
    args = ap.parse_args()
    path, mesh = write_demo(args.directory)
    print(f"wrote {path}, learn.ini, start.csv and scene.obj ({mesh.num_facets} facets); try:")
    print(f"  sartrace simulate --config {path}")
    print(f"  sartrace learn --config {os.path.join(args.directory, 'learn.ini')} "
          f"--refs {os.path.join(args.directory, 'out', 'view_*.sarf')}")


if __name__ == "__main__":
    main()
