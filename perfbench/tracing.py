"""Per-layer spans for the traced benchmark run, recorded from outside the package.

Each layer boundary is a public function that a caller module looks up
by a name bound in its own namespace: ``sartrace.imaging`` calls
``intersect_rays``, ``sartrace.learn`` calls ``render``, and so on.  The
tracer replaces exactly those bindings with timing wrappers, so the
program runs unchanged apart from the wrappers.  Modules are reached with
``importlib.import_module`` because the attribute ``sartrace.learn`` is the
function ``learn``, not the module.

Spans are aggregated in memory into one bucket per operation (the
workload calls ``cut`` at each operation boundary).  For every span label
a bucket holds calls, total time and self time (total minus the time of
child spans on the same thread), plus counts taken from return values.
Spans that run on a worker thread of the program's own pool have no
parent on that thread; they count as busy time, not as children.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import threading
import time

# (caller module, name the caller looks the callee up by, span label)
BOUNDARIES = (
    ("sartrace.accel", "build_bvh", "accel.build_bvh"),
    ("sartrace.imaging", "generate_rays", "imaging.generate_rays"),
    ("sartrace.imaging", "intersect_rays", "accel.intersect_rays"),
    ("sartrace.imaging", "interpolate_at_hits", "scene.interpolate_at_hits"),
    ("sartrace.imaging", "eval_bsdf_batch", "scatter.eval_bsdf_batch"),
    ("sartrace.imaging", "bin_ranges_fast", "imaging.bin_ranges_fast"),
    ("sartrace.imaging", "range_bin_of", "imaging.range_bin_of"),
    ("sartrace.imaging", "render", "imaging.render"),
    ("sartrace.learn", "render", "learn.render"),
    ("sartrace.learn", "loss_sim", "learn.loss_sim"),
    ("sartrace.learn", "loss_tv", "learn.loss_tv"),
    ("sartrace.learn", "rmse_normalized", "learn.rmse_normalized"),
    ("sartrace.learn", "backward", "learn.backward"),
    ("sartrace.learn", "adam_step", "learn.adam_step"),
    ("sartrace.experiments", "render_references", "experiments.render_references"),
    ("sartrace.experiments", "render", "experiments.render"),
    ("sartrace.cli", "parse_config", "cli.parse_config"),
    ("sartrace.cli", "build_scene", "cli.build_scene"),
    ("sartrace.cli", "load_mesh", "scene.load_mesh"),
    ("sartrace.cli", "render", "cli.render"),
    ("sartrace.cli", "write_raster", "imaging.write_raster"),
    ("sartrace.cli", "write_pgm", "imaging.write_pgm"),
    # the manifest has no public entry point; cmd_simulate calls this one
    ("sartrace.cli", "_write_manifest", "cli.write_manifest"),
)

INTERSECT = ("accel.intersect_rays",)
RENDER = ("imaging.render", "learn.render", "cli.render", "experiments.render")
ROW_STAGES = ("imaging.generate_rays", "accel.intersect_rays", "scene.interpolate_at_hits",
              "scatter.eval_bsdf_batch", "imaging.bin_ranges_fast", "imaging.range_bin_of")
BIN = ("imaging.bin_ranges_fast", "imaging.range_bin_of")
LOSS = ("learn.loss_sim", "learn.loss_tv", "learn.rmse_normalized")
WRITE = ("imaging.write_raster", "imaging.write_pgm")


def _count_hits(out):
    fid = out[0]
    return (("rays", int(fid.shape[0])), ("hits", int((fid >= 0).sum())))


COUNTERS = {
    "accel.intersect_rays": _count_hits,
    "accel.build_bvh": lambda bvh: (("bvh_nodes", int(bvh.num_nodes)),),
}


def _new_bucket():
    return {"spans": {}, "top_s": 0.0, "counts": {}}


class Tracer:
    """Installs span wrappers at every boundary and aggregates per operation."""

    def __init__(self):
        self.enabled = True
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._bucket = _new_bucket()
        self._installed = []

    def install(self) -> None:
        for module_name, attr, label in BOUNDARIES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, label))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def cut(self) -> dict:
        """Close the current bucket and return it."""
        with self._lock:
            bucket, self._bucket = self._bucket, _new_bucket()
        return bucket

    def _wrap(self, fn, label):
        counter = COUNTERS.get(label)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._local.__dict__.setdefault("stack", [])
            frame = [0.0]                       # time of this span's children
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
            if stack:
                stack[-1][0] += dur
            top = not stack and threading.get_ident() == self._main
            counts = counter(out) if counter else ()
            with self._lock:
                bucket = self._bucket
                rec = bucket["spans"].setdefault(label, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
                if top:
                    bucket["top_s"] += dur
                for key, value in counts:
                    bucket["counts"][key] = bucket["counts"].get(key, 0) + value
            return out

        return span


def scale(bucket, factor):
    """Scale every time in a bucket, in place (see CAL_REF_S in run.py)."""
    for rec in bucket["spans"].values():
        rec[1] *= factor
        rec[2] *= factor
    bucket["top_s"] *= factor


def _calls(bucket, labels):
    return sum(bucket["spans"][lb][0] for lb in labels if lb in bucket["spans"])


def _ms(bucket, labels, col=1):
    return 1e3 * sum(bucket["spans"][lb][col] for lb in labels if lb in bucket["spans"])


def _fired(buckets, labels):
    return any(lb in b["spans"] for b in buckets for lb in labels)


# per-layer metric -> (unit, "ops" or "setup", span labels it needs, value from buckets);
# "ops" values are medians over operations, "setup" values medians over set-ups
def _metric_table(op_ms):
    def per_op(fn):
        return lambda ops: statistics.median(fn(b, i) for i, b in enumerate(ops))

    def ms(*labels, col=1):
        return "ms", "ops", labels, per_op(lambda b, i: _ms(b, labels, col))

    def calls(*labels):
        return "count", "ops", labels, per_op(lambda b, i: _calls(b, labels))

    def count(key):
        return "count", "ops", INTERSECT, per_op(lambda b, i: b["counts"].get(key, 0))

    def setup_ms(label):
        return "ms", "setup", (label,), lambda setups: statistics.median(
            _ms(b, (label,)) for b in setups)

    def us_per_ray(b, i):
        rays = b["counts"].get("rays", 0)
        return 1e3 * _ms(b, INTERSECT) / rays if rays else 0.0

    def hit_ratio(ops):
        rays = sum(b["counts"].get("rays", 0) for b in ops)
        return sum(b["counts"].get("hits", 0) for b in ops) / rays if rays else 0.0

    def self_ms(owner):
        # the operation is a call of the owner's layer: its time minus the
        # top-level spans inside it; `owner` is a span only that layer fires
        return "ms", "ops", (owner,), per_op(lambda b, i: op_ms[i] - 1e3 * b["top_s"])

    return {
        "accel.build_bvh_ms": setup_ms("accel.build_bvh"),
        "accel.bvh_nodes": ("count", "setup", ("accel.build_bvh",),
                            lambda setups: setups[-1]["counts"].get("bvh_nodes", 0)),
        "accel.intersect_ms": ms(*INTERSECT),
        "accel.us_per_ray": ("us", "ops", INTERSECT, per_op(us_per_ray)),
        "accel.intersect_calls": calls(*INTERSECT),
        "accel.rays": count("rays"),
        "accel.hits": count("hits"),
        "accel.hit_ratio": ("ratio", "ops", INTERSECT, hit_ratio),
        "scene.interpolate_ms": ms("scene.interpolate_at_hits"),
        "scatter.bsdf_ms": ms("scatter.eval_bsdf_batch"),
        "scatter.bsdf_calls": calls("scatter.eval_bsdf_batch"),
        "imaging.generate_rays_ms": ms("imaging.generate_rays"),
        "imaging.bin_ms": ms(*BIN),
        "imaging.bin_calls": calls(*BIN),
        "imaging.render_ms": ms(*RENDER),
        "imaging.render_self_ms": ms(*RENDER, col=2),
        "imaging.render_busy_ms": ms(*ROW_STAGES),
        "learn.render_calls": calls("learn.render"),
        "learn.render_ms": ms("learn.render"),
        "learn.loss_ms": ms(*LOSS),
        "learn.backward_ms": ms("learn.backward"),
        "learn.adam_ms": ms("learn.adam_step"),
        "learn.self_ms": self_ms("learn.adam_step"),
        "experiments.references_ms": setup_ms("experiments.render_references"),
        "scene.load_mesh_ms": ms("scene.load_mesh"),
        "imaging.write_ms": ms(*WRITE),
        "cli.parse_config_ms": ms("cli.parse_config"),
        "cli.build_scene_ms": ms("cli.build_scene"),
        "cli.manifest_ms": ms("cli.write_manifest"),
        "cli.self_ms": self_ms("cli.parse_config"),
    }


def layer_metrics(ops, op_ms, setups, expected, not_defined=()):
    """Per-layer metrics of one traced run.

    ops/setups are the buckets cut at operation and set-up boundaries,
    op_ms the traced operations' wall times, scaled like the spans, which
    are wall times too (a span on the pool's threads has no CPU time of
    its own to read).  expected names the span labels the
    workload's path must fire.  Returns (values, missing, off_path): a
    metric whose spans never fired is listed in missing when one of its
    spans was expected and in off_path otherwise, and its value is 0.
    Metrics in not_defined (for example a self time whose children ran on
    a pool) are listed in off_path as well.
    """
    values, missing, off_path = {}, [], []
    for name, (unit, where, labels, fn) in _metric_table(op_ms).items():
        buckets = ops if where == "ops" else setups
        if name in not_defined or not _fired(buckets, labels):
            (missing if set(labels) & set(expected) and name not in not_defined
             else off_path).append(name)
            values[name] = (0.0, unit)
        else:
            values[name] = (float(fn(buckets)), unit)
    return values, missing, off_path
