import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

import sartrace.imaging as imaging
import sartrace.learn as learn_mod
from sartrace.cli import main
from sartrace.experiments import (RECOVERY_LOSS, building_recovery_protocol,
                                  cube_recovery_protocol, render_references, run_recovery)
from sartrace.imaging import HitLedger, RadarConfig, render, trace
from sartrace.learn import (LossConfig, OptimState, adam_step, backward, grad_check, learn,
                            loss_sim, loss_tv, rmse_normalized, write_history_csv)
from sartrace.scatter import WaveConfig, eval_bsdf_at
from sartrace.scene import PARAM_CHANNELS, PARAM_LOWER, PARAM_UPPER, Mesh, ParamMap, mesh_edges
from sartrace.scenes import (building_scene, cube_plane_scene, merge_meshes, multiview_radars,
                             plane_mesh, side_looking_radar)

from conftest import CONFIG

CFG_RAW = LossConfig(lambda_sim=1.0, lambda_mat=0.0, normalize=False)


def traced(mesh, refs):
    """(HitSet, reference) views of (RadarConfig, reference) pairs."""
    return [(trace(mesh, radar), ref) for radar, ref in refs]


def unknowns(opt, table):
    """An (n, 4) gradient table as the (k,) vector adam_step takes: each
    unknown's entries summed in table order, as learn assembles them."""
    return np.bincount(opt.unknown, table.take(opt.entries), opt.m.size).astype(np.float64)


def table_of(opt, g):
    """The (k,) gradient of an untied optimizer over every entry (k = 4n)
    as its (n, 4) table."""
    assert opt.entries.size == opt.head.size == np.size(g)
    return np.asarray(g).take(opt.unknown).reshape(-1, 4)


class TestLossSim:
    def test_identical_images(self):
        img = np.arange(6.0).reshape(2, 3)
        loss, grad = loss_sim(img, img.copy(), CFG_RAW)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros_like(img))

    def test_hand_mse(self):
        loss, grad = loss_sim(np.array([[1.0, 3.0]]), np.array([[0.0, 0.0]]), CFG_RAW)
        assert loss == pytest.approx(5.0)
        np.testing.assert_allclose(grad, [[1.0, 3.0]])

    def test_scaling_homogeneity(self):
        a = np.array([[1.0, 2.0], [0.5, 4.0]])
        b = np.array([[0.2, 1.0], [0.0, 3.0]])
        base, _ = loss_sim(a, b, CFG_RAW)
        scaled, _ = loss_sim(3 * a, 3 * b, CFG_RAW)
        assert scaled == pytest.approx(9.0 * base, rel=1e-12)

    def test_normalization_divides_by_ref_peak(self):
        cfg = LossConfig(lambda_sim=1.0, lambda_mat=0.0, normalize=True)
        a = np.array([[2.0, 0.0]])
        b = np.array([[4.0, 0.0]])
        loss, grad = loss_sim(a, b, cfg)
        assert loss == pytest.approx(((2.0 - 4.0) / 4.0) ** 2 / 2)
        assert grad[0, 0] == pytest.approx(2 * (2.0 - 4.0) / (2 * 16.0))

    def test_num_views_in_normalization(self):
        a = np.array([[1.0, 3.0]])
        b = np.array([[0.0, 0.0]])
        single, _ = loss_sim(a, b, CFG_RAW, num_views=1)
        multi, _ = loss_sim(a, b, CFG_RAW, num_views=4)
        assert multi == pytest.approx(single / 4.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            loss_sim(np.zeros((2, 2)), np.zeros((2, 3)), CFG_RAW)

    @pytest.mark.parametrize("name", ["lambda_sim", "lambda_mat"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1e-3])
    def test_weights_must_be_finite_and_nonnegative(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must lie in \[0, inf\), got "):
            LossConfig(**{name: value})
        assert getattr(LossConfig(**{name: 0.0}), name) == 0.0


class TestLossTv:
    def test_constant_map_is_zero(self):
        """Constant on each object of the cube scene: TV pairs only mesh
        edges, and the plane and the cube share no vertex."""
        mesh, plane_ids, cube_ids = cube_plane_scene(8.0, 2.0)
        values = np.empty((mesh.num_vertices, 4))
        values[plane_ids] = [0.005, 0.01, 25.0, 0.05]
        values[cube_ids] = [0.002, 0.03, 4.0, 0.6]
        loss, grad = loss_tv(values, mesh_edges(mesh), 1.0)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros_like(values))

    def test_hand_two_facet_mesh(self, two_facet_mesh):
        # channel 0 = [1, 2, 4 | 0, 0, 3]: |2-1|+|4-1|+|4-2| + |0-0|+|3-0|+|3-0| = 12
        values = np.zeros((6, 4))
        values[:, 0] = [1.0, 2.0, 4.0, 0.0, 0.0, 3.0]
        loss, grad = loss_tv(values, mesh_edges(two_facet_mesh), 0.5)
        assert loss == 6.0
        # vertex 0 sits below both neighbours, vertex 5 above both, 3 and 4 tie
        np.testing.assert_array_equal(grad[:, 0], [-1.0, 0.0, 1.0, -0.5, -0.5, 1.0])
        assert not grad[:, 1:].any()

    def test_lambda_scaling(self):
        mesh = cube_plane_scene(8.0, 2.0)[0]
        values = np.random.default_rng(0).uniform(0.1, 1.0, (mesh.num_vertices, 4))
        l1, g1 = loss_tv(values, mesh_edges(mesh), 1.0)
        l2, g2 = loss_tv(values, mesh_edges(mesh), 2.0)
        assert l1 > 0.0
        assert l2 == pytest.approx(2 * l1, rel=1e-12)
        np.testing.assert_allclose(g2, 2 * g1, rtol=1e-12)

    def test_zero_weight_short_circuits(self):
        mesh = cube_plane_scene(8.0, 2.0)[0]
        values = np.random.default_rng(1).uniform(0.1, 1.0, (mesh.num_vertices, 4))
        loss, grad = loss_tv(values, mesh_edges(mesh), 0.0)
        assert loss == 0.0
        assert grad.shape == values.shape and not grad.any()

    def test_no_edges_give_a_float_subgradient(self):
        """A mesh without facets has no edges: np.bincount of no weights is
        int64, and the subgradient must still be a float table."""
        values = np.random.default_rng(2).uniform(0.1, 1.0, (5, 4))
        loss, grad = loss_tv(values, np.zeros((0, 2), dtype=np.int64), 0.5)
        assert loss == 0.0
        assert grad.dtype == np.float64 and grad.shape == values.shape and not grad.any()

    def test_subgradient_matches_finite_difference(self):
        mesh = building_scene()[0]
        rng = np.random.default_rng(3)
        values = rng.uniform(0.5, 2.0, (mesh.num_vertices, 4))    # generic: no ties, no kinks
        edges, lam = mesh_edges(mesh), 0.7
        _, grad = loss_tv(values, edges, lam)
        step = 1e-6
        for vid, ci in [(0, 0), (3, 2), (5, 1), (9, 3), (17, 0), (19, 2)]:
            up = values.copy()
            up[vid, ci] += step
            dn = values.copy()
            dn[vid, ci] -= step
            fd = (loss_tv(up, edges, lam)[0] - loss_tv(dn, edges, lam)[0]) / (2 * step)
            # abs floor covers central-difference roundoff, ~eps/step
            assert grad[vid, ci] == pytest.approx(fd, rel=1e-6, abs=5e-9)


def manual_ledger(mesh, shape, rows, bins, fids, m1, m2, weight, sigma, dsigma):
    z = np.asarray
    return HitLedger(mesh=mesh, radar=None, range_origin=0.0, image_shape=shape,
                     row=z(rows, dtype=np.int64), facet_id=z(fids, dtype=np.int64),
                     m1=z(m1, float), m2=z(m2, float), theta=np.zeros(len(rows)),
                     weight=z(weight, float), ranges=np.zeros(len(rows)),
                     range_bin=z(bins, dtype=np.int64), sigma=z(sigma, float),
                     dsigma=np.asarray(dsigma, float))


class TestBackward:
    def test_zero_gradient_image(self, two_facet_mesh):
        ledger = manual_ledger(two_facet_mesh, (2, 3), [0], [1], [0], [0.2], [0.3], [0.5],
                               [1.0], [[1.0, 2.0, 3.0, 4.0]])
        grad = backward(ledger, np.zeros((2, 3)))
        assert not grad.any()

    def test_single_hit_chain(self, two_facet_mesh):
        ledger = manual_ledger(two_facet_mesh, (1, 1), [0], [0], [0], [0.5], [0.25], [2.0],
                               [1.0], [[1.0, 10.0, 100.0, 1000.0]])
        dLdI = np.array([[3.0]])
        grad = backward(ledger, dLdI)
        # dL/dsigma = 3 * 2 = 6; vertex weights (0.5, 0.25, 0.25)
        np.testing.assert_allclose(grad[0], 6 * 0.5 * np.array([1, 10, 100, 1000.0]))
        np.testing.assert_allclose(grad[1], 6 * 0.25 * np.array([1, 10, 100, 1000.0]))
        np.testing.assert_allclose(grad[2], 6 * 0.25 * np.array([1, 10, 100, 1000.0]))
        assert not grad[3:].any()

    def test_shape_mismatch_rejected(self, two_facet_mesh):
        ledger = manual_ledger(two_facet_mesh, (2, 3), [0], [1], [0], [0.2], [0.3], [0.5],
                               [1.0], [[1.0, 2.0, 3.0, 4.0]])
        with pytest.raises(ValueError, match="shape"):
            backward(ledger, np.zeros((2, 4)))


class TestAdamStep:
    def make_state(self, n=3, **kw):
        return OptimState.create(n, **kw)

    def step(self, state, params, grads):
        """adam_step with an (n, 4) gradient table, summed per unknown."""
        return adam_step(state, params, unknowns(state, grads))

    def test_zero_gradient_leaves_params_bitwise(self):
        params = ParamMap.constant(3, 0.004, 0.02, 9.0, 0.3)
        before = params.values.copy()
        self.step(self.make_state(lr=0.1), params, np.zeros((3, 4)))
        np.testing.assert_array_equal(params.values, before)

    def test_first_step_magnitude_linear_channel(self):
        params = ParamMap.constant(1, 0.004, 0.02, 9.0, 0.5)
        grads = np.zeros((1, 4))
        grads[0, 3] = 2.5          # tau is the linear channel
        self.step(self.make_state(n=1, lr=0.05), params, grads)
        assert params.values[0, 3] == pytest.approx(0.45, rel=1e-6)

    def test_first_step_magnitude_log_channel(self):
        params = ParamMap.constant(1, 0.004, 0.02, 9.0, 0.5)
        grads = np.zeros((1, 4))
        grads[0, 0] = -1.0       # push h up
        self.step(self.make_state(n=1, lr=0.05), params, grads)
        assert params.values[0, 0] == pytest.approx(0.004 * math.exp(0.05), rel=1e-6)

    def test_projection_keeps_bounds(self):
        params = ParamMap.constant(1, 0.004, 0.02, 9.0, 0.0)
        grads = np.zeros((1, 4))
        grads[0, 3] = 5.0          # push tau below 0
        self.step(self.make_state(n=1, lr=0.3), params, grads)
        assert params.values[0, 3] == 0.0

    def test_tied_group_stays_equal(self):
        params = ParamMap.constant(4, 0.004, 0.02, 9.0, 0.5)
        state = self.make_state(n=4, lr=0.05, tie_groups=[[1, 2, 3]])
        grads = np.random.default_rng(0).normal(size=(4, 4))
        for _ in range(5):
            self.step(state, params, grads)
        assert np.array_equal(params.values[1], params.values[2])
        assert np.array_equal(params.values[2], params.values[3])
        assert not np.array_equal(params.values[0], params.values[1])

    def test_frozen_vertices_and_channels(self):
        params = ParamMap.constant(2, 0.004, 0.02, 9.0, 0.5)
        before = params.values.copy()
        state = self.make_state(n=2, lr=0.1, freeze_channels=("tau",),
                                freeze_vertices=[0])
        grads = np.ones((2, 4))
        self.step(state, params, grads)
        np.testing.assert_array_equal(params.values[0], before[0])
        assert params.values[1, 3] == before[1, 3]
        assert params.values[1, 0] != before[1, 0]

    def test_non_finite_gradient_rejected(self):
        params = ParamMap.constant(3, 0.004, 0.02, 9.0, 0.5)
        before = params.values.copy()
        grads = np.zeros((3, 4))
        grads[1, 1] = np.nan
        grads[1, 3] = np.inf
        grads[2, 0] = -np.inf
        with pytest.raises(ValueError, match=r"non-finite gradient at vertex 1, "
                                             r"channel\(s\) l, tau; step rejected"):
            self.step(self.make_state(n=3), params, grads)
        np.testing.assert_array_equal(params.values, before)

    def test_gradient_holds_one_value_per_unknown(self):
        """adam_step takes the k unknowns' gradients, not an (n, 4) table,
        and refuses anything else before it moves."""
        params = ParamMap.constant(3, 0.004, 0.02, 9.0, 0.5)
        state = self.make_state(n=3, freeze_channels=("tau",), tie_groups=[[0, 2]])
        assert state.m.size == 6
        for grads, shape in ((np.zeros((3, 4)), r"\(3, 4\)"), (np.zeros(7), r"\(7,\)")):
            with pytest.raises(ValueError, match=rf"^gradient shape {shape} does not match "
                                                 r"the 6 unknowns$"):
                adam_step(state, params, grads)
        assert state.step == 0

    def test_eps_adam_zero_moves_on_tiny_gradients(self):
        params = ParamMap.constant(1, 0.004, 0.02, 9.0, 0.5)
        state = self.make_state(n=1, lr=0.05, eps_adam=0.0)
        grads = np.zeros((1, 4))
        grads[0, 0] = -1e-150
        self.step(state, params, grads)
        assert params.values[0, 0] == pytest.approx(0.004 * math.exp(0.05), rel=1e-6)

    @pytest.mark.parametrize("kwargs, message", [
        pytest.param(dict(freeze_vertices=[-1]),
                     r"freeze_vertices: vertex -1 outside \[0, 4\)", id="negative-id"),
        pytest.param(dict(tie_groups=[[0, 7]]),
                     r"tie_groups\[0\]: vertex 7 outside \[0, 4\)", id="out-of-range-member"),
        pytest.param(dict(tie_groups=[[0, 1], [1, 2]]),
                     "tie_groups: vertex 1 is in groups 0 and 1", id="two-groups"),
        pytest.param(dict(freeze_channels=("tua",)),
                     "freeze_channels: unknown channel 'tua'", id="unknown-channel"),
        pytest.param(dict(freeze_vertices=[3], tie_groups=[[2, 3]]),
                     r"freeze_vertices: vertex 3 is also tied in tie_groups\[0\]",
                     id="frozen-and-tied"),
    ])
    def test_create_rejects_bad_arguments(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            OptimState.create(4, **kwargs)

    @pytest.mark.parametrize("name, bad", [
        ("lr", [math.nan, math.inf, 0.0, -0.1]),
        ("beta1", [math.nan, -0.1, 1.0, 1.5]),
        ("beta2", [math.nan, -0.1, 1.0, 1.5]),
        ("eps_adam", [math.nan, math.inf, -1e-8]),
        ("lr_decay", [math.nan, math.inf, 0.0, -1.0]),
    ])
    def test_create_rejects_bad_hyperparameters(self, name, bad):
        for value in bad:
            with pytest.raises(ValueError, match=f"^{name} must lie in "):
                OptimState.create(4, **{name: value})

    def test_create_accepts_edge_hyperparameters(self):
        OptimState.create(4, lr=1e-9, beta1=0.0, beta2=0.0, eps_adam=0.0, lr_decay=1e-9)

    @pytest.mark.parametrize("make_protocol",
                             [cube_recovery_protocol, building_recovery_protocol])
    def test_protocols_step_three_unknowns(self, make_protocol):
        """One tied (h, l, eps_r) record, everything else frozen."""
        proto = make_protocol()
        for phase in proto.phases:
            opt = proto.optimizer(phase)
            assert opt.m.shape == opt.v.shape == (3,)
            assert opt.entries.size == 3 * proto.target_ids.size

    @pytest.mark.parametrize("make_protocol",
                             [cube_recovery_protocol, building_recovery_protocol])
    def test_protocols_start_and_end_inside_the_box(self, make_protocol):
        """So learn's entry clip leaves a protocol's start as it is."""
        proto = make_protocol()
        proto.init.validate()
        proto.truth.validate()


def oracle_state(n, lr=0.02, beta1=0.9, beta2=0.999, eps_adam=1e-8, lr_decay=1.0,
                 freeze_channels=(), freeze_vertices=None, tie_groups=None):
    """Full-table Adam state: (n, 4) moments, (n, 4) frozen mask, (n,) group ids."""
    frozen = np.zeros((n, 4), dtype=bool)
    for name in freeze_channels:
        frozen[:, PARAM_CHANNELS.index(name)] = True
    if freeze_vertices is not None:
        frozen[np.asarray(freeze_vertices, dtype=np.int64), :] = True
    groups = np.full(n, -1, dtype=np.int64)
    for gid, members in enumerate(tie_groups or ()):
        groups[np.asarray(members, dtype=np.int64)] = gid
    return SimpleNamespace(lr=lr, beta1=beta1, beta2=beta2, eps_adam=eps_adam,
                           lr_decay=lr_decay, step=0, m=np.zeros((n, 4)), v=np.zeros((n, 4)),
                           frozen=frozen, groups=groups)


def oracle_adam_step(state, values, grads):
    """Projected Adam over every entry of the (n, 4) table, in place: tied
    gradients summed with np.add.at in vertex order, frozen entries masked
    out of the moments and the update, untouched entries restored."""
    tied = state.groups >= 0
    g = grads.copy()
    if tied.any():
        sums = np.zeros((int(state.groups.max()) + 1, 4))
        np.add.at(sums, state.groups[tied], grads[tied])
        g[tied] = sums[state.groups[tied]]
    log_channel = np.array([True, True, True, False])
    g_opt = np.where(log_channel, g * values, g)
    g_opt = np.where(state.frozen, 0.0, g_opt)

    state.step += 1
    t = state.step
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * g_opt
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * g_opt * g_opt
    m_hat = state.m / (1.0 - state.beta1 ** t)
    v_hat = state.v / (1.0 - state.beta2 ** t)
    lr_t = state.lr * state.lr_decay ** (t - 1)
    denom = np.sqrt(v_hat) + state.eps_adam
    update = np.where(denom > 0.0, m_hat / np.where(denom > 0.0, denom, 1.0), 0.0)
    update = np.where(state.frozen, 0.0, update)

    z = values.copy()
    z[:, log_channel] = np.log(z[:, log_channel])
    z -= lr_t * update
    z[:, log_channel] = np.exp(z[:, log_channel])
    values[:] = np.where(update != 0.0, z, values)
    np.clip(values, PARAM_LOWER, PARAM_UPPER, out=values)


def _zero_some(grads, rng):
    grads[2] = 0.0                               # a whole vertex
    grads[rng.random(grads.shape) < 0.25] = 0.0  # scattered entries
    return grads


def _cancel_in_group(grads, rng):
    """Large member gradients of vertices 2..11 that nearly cancel: their sum
    is small next to its terms, so a different summation order shows."""
    grads[2:11] *= 1e3
    grads[11] -= grads[2:11].sum(axis=0)
    return grads


def _push_tau_down(grads, rng):
    grads[:, 3] = np.abs(grads[:, 3]) + 1.0
    return grads


@pytest.mark.parametrize("kwargs, tweak", [
    pytest.param({}, None, id="all-free"),
    pytest.param(dict(freeze_channels=("l", "tau")), None, id="frozen-channels"),
    pytest.param(dict(freeze_vertices=[0, 7, 15]), None, id="frozen-vertices"),
    pytest.param(dict(tie_groups=[range(2, 12), [13, 15]], freeze_vertices=[0],
                      freeze_channels=("tau",)), _cancel_in_group, id="tied-groups"),
    pytest.param(dict(eps_adam=0.0), lambda g, rng: _zero_some(g * 1e-150, rng),
                 id="eps-adam-zero-tiny-gradients"),
    pytest.param(dict(lr_decay=0.9), None, id="lr-decay"),
    pytest.param(dict(lr=0.3), _push_tau_down, id="tau-at-bound"),
    pytest.param({}, _zero_some, id="zero-gradients"),
])
def test_adam_step_matches_full_table_oracle(kwargs, tweak):
    """25 steps of the unknown-vector Adam leave the table bitwise equal to
    the full-table oracle after every step."""
    n = 16
    rng = np.random.default_rng(5)
    start = np.column_stack([10.0 ** rng.uniform(-3, -2, n), 10.0 ** rng.uniform(-2, -1, n),
                             rng.uniform(2.0, 30.0, n), rng.uniform(0.0, 0.1, n)])
    for members in kwargs.get("tie_groups", ()):
        members = list(members)
        start[members] = start[members[0]]
    params = ParamMap(start.copy())
    want = start.copy()
    state, oracle = OptimState.create(n, **kwargs), oracle_state(n, **kwargs)
    for _ in range(25):
        # magnitudes over six decades, so the order of a group sum shows
        grads = rng.normal(size=(n, 4)) * 10.0 ** rng.uniform(-3, 3, (n, 4))
        if tweak is not None:
            grads = tweak(grads, rng)
        adam_step(state, params, unknowns(state, grads))
        oracle_adam_step(oracle, want, grads)
        assert params.values.tobytes() == want.tobytes()
    assert not np.array_equal(params.values, start)


@pytest.mark.parametrize("kwargs", [
    pytest.param({}, id="all-free"),
    pytest.param(dict(tie_groups=[range(2, 12)]), id="tied-group"),
    pytest.param(dict(freeze_channels=("l",), freeze_vertices=[0, 13]), id="frozen"),
])
def test_one_clip_matches_per_channel_bounds_outside_the_box(kwargs):
    """Start values outside the box on both sides of every channel, and
    gradients that vanish at some entries: after every step each unknown's
    entries are bitwise the oracle's per-channel clip of the full table, and
    frozen entries keep their out-of-box values (adam_step writes unknowns
    only)."""
    n = 16
    rng = np.random.default_rng(8)
    start = np.column_stack([10.0 ** rng.uniform(-9, 0.5, n), 10.0 ** rng.uniform(-9, 1.5, n),
                             rng.uniform(0.5, 2e4, n), rng.uniform(-0.5, 1.5, n)])
    start[1] = [2.0, 20.0, 0.5, -0.0]          # above, above, below the box; signed zero
    start[13] = [1e-9, 1e-9, 3e4, 1.5]
    for members in kwargs.get("tie_groups", ()):
        start[list(members)] = start[members[0]]
    params, want = ParamMap(start.copy()), start.copy()
    state, oracle = OptimState.create(n, **kwargs), oracle_state(n, **kwargs)
    moved = np.isin(np.arange(4 * n), state.entries).reshape(n, 4)
    assert (~moved).any() == bool(kwargs.get("freeze_channels"))
    for _ in range(5):
        grads = rng.normal(size=(n, 4))
        grads[rng.random((n, 4)) < 0.3] = 0.0
        adam_step(state, params, unknowns(state, grads))
        oracle_adam_step(oracle, want, grads)
        assert params.values[moved].tobytes() == want[moved].tobytes()
        assert params.values[~moved].tobytes() == start[~moved].tobytes()
    box = np.broadcast_to(PARAM_LOWER, (n, 4)), np.broadcast_to(PARAM_UPPER, (n, 4))
    assert ((params.values >= box[0]) & (params.values <= box[1]))[moved].all()
    assert not ((start >= box[0]) & (start <= box[1])).all(axis=0).any()


@pytest.fixture
def learn_setup(two_facet_mesh, small_radar):
    params = ParamMap.constant(two_facet_mesh.num_vertices, 0.004, 0.02, 9.0, 0.3)
    return two_facet_mesh, params, small_radar


class TestLearn:
    def test_mesh_without_facets_learns_nothing(self, learn_setup):
        """No facet: no hit and no TV edge.  Under a TV weight the loss is a
        finite zero, and the table does not move."""
        mesh, params, radar = learn_setup
        bare = Mesh.from_arrays(mesh.vertices, np.zeros((0, 3), dtype=np.int64))
        hits = trace(bare, radar)
        assert hits.num_entries == 0
        before = params.values.copy()
        cfg = LossConfig(lambda_sim=1.0, lambda_mat=1e-3, normalize=True)
        res = learn(params, [(hits, np.zeros(hits.image_shape))],
                    OptimState.create(bare.num_vertices), cfg, iters=2)
        assert res.iterations == 2 and not res.aborted
        assert res.total_loss.tolist() == [0.0, 0.0]
        np.testing.assert_array_equal(params.values, before)

    def test_self_consistent_refs_keep_loss_tiny(self, learn_setup):
        mesh, params, radar = learn_setup
        ref, _ = render(mesh, params, radar)
        refs = [(radar, ref.intensities)]
        opt = OptimState.create(mesh.num_vertices, lr=0.05)
        cfg = LossConfig(lambda_sim=1.0, lambda_mat=1e-3, normalize=True)
        res = learn(params.copy(), traced(mesh, refs), opt, cfg, iters=5)
        assert res.sim_loss[0] == 0.0
        assert res.total_loss[0] == pytest.approx(res.tv_loss[0])
        assert res.tv_loss[0] == 0.0          # constant map
        assert not res.aborted

    def test_recovers_single_channel_offset(self, learn_setup):
        mesh, truth, radar = learn_setup
        ref, _ = render(mesh, truth, radar)
        start = truth.copy()
        start.values[:, 0] *= 2.0             # h off by 2x everywhere
        opt = OptimState.create(mesh.num_vertices, lr=0.05,
                                freeze_channels=("l", "eps_r", "tau"),
                                tie_groups=[np.arange(mesh.num_vertices)])
        cfg = LossConfig(lambda_sim=1.0, lambda_mat=0.0, normalize=True)
        # 120 iterations leave h mid-oscillation, where it lands by the jitter
        # draw; by 400 it has settled to 0.004 within 1e-7 relative for seeds 0-8
        res = learn(start, traced(mesh, [(radar, ref.intensities)]), opt, cfg, iters=400)
        assert start.values[0, 0] == pytest.approx(0.004, rel=1e-3)

    def test_unequal_tied_start_rejected(self, learn_setup):
        mesh, params, radar = learn_setup
        ref, _ = render(mesh, params, radar)
        params.values[3, 2] += 1.0
        before = params.values.copy()
        opt = OptimState.create(mesh.num_vertices, tie_groups=[[0, 2], [1, 3]])
        with pytest.raises(ValueError, match=r"tied vertices 1 and 3 start with different "
                                             r"eps_r values \(9\.0 != 10\.0\)"):
            learn(params, traced(mesh, [(radar, ref.intensities)]), opt, CFG_RAW, iters=1)
        np.testing.assert_array_equal(params.values, before)

    @pytest.mark.parametrize("reference, shape", [
        (lambda image: image[0], r"\(\d+,\)"),     # a row would broadcast against the image
        (lambda image: np.zeros((1, 1)), r"\(1, 1\)"),
    ], ids=["row", "one-pixel"])
    def test_row_reference_names_view_and_shapes(self, learn_setup, reference, shape):
        mesh, params, radar = learn_setup
        ref, _ = render(mesh, params, radar)
        views = [(trace(mesh, radar), reference(ref.intensities))]
        with pytest.raises(ValueError, match=r"^view 0: rendered shape \(6, \d+\) != "
                                             rf"reference shape {shape}$"):
            learn(params, views, OptimState.create(mesh.num_vertices), CFG_RAW, iters=1)

    def test_non_finite_first_loss_aborts_with_entry_table(self, learn_setup):
        """A finite reference whose squared error overflows: the loss is inf."""
        mesh, params, radar = learn_setup
        ref, _ = render(mesh, params, radar)
        bad = ref.intensities.copy()
        bad[0, 0] = 1e300
        before = params.values.copy()
        opt = OptimState.create(mesh.num_vertices)
        with np.errstate(over="ignore"):
            res = learn(params, traced(mesh, [(radar, bad)]), opt, CFG_RAW, iters=3)
        assert res.aborted
        assert res.iterations == 1
        np.testing.assert_array_equal(params.values, before)

    def test_start_at_truth_returns_start_table(self, learn_setup):
        """A reference stored as float32, as a raster holds it: Adam steps
        away from the truth, whose loss stays the least, and learn returns
        the start table bitwise."""
        mesh, params, radar = learn_setup
        ref = render(mesh, params, radar)[0].intensities.astype(np.float32)
        before = params.values.copy()
        res = learn(params, traced(mesh, [(radar, ref)]),
                    OptimState.create(mesh.num_vertices, lr=0.05),
                    LossConfig(lambda_sim=1.0, lambda_mat=0.0, normalize=True), iters=20)
        assert res.iterations == 20 and not res.aborted
        assert (res.total_loss[1:] > res.total_loss[0]).all()
        assert params.values.tobytes() == before.tobytes()

    def test_non_finite_bsdf_aborts_with_least_loss_table(self, learn_setup, monkeypatch):
        """The loss falls to its least at iteration 4 and rises; a NaN sigma
        at iteration 7 aborts, and learn returns the table evaluated at
        iteration 4, not the last finite one (iteration 6)."""
        mesh, truth, radar = learn_setup
        refs = [(radar, render(mesh, truth, radar)[0].intensities)]
        start = truth.copy()
        start.values[:, 0] *= 1.7
        start.values[:, 2] -= 3.0
        calls, tables = [], []

        def nan_after_seven(angles, values):
            calls.append(None)
            sigma, grads = eval_bsdf_at(angles, values)
            return (sigma * np.nan if len(calls) > 7 else sigma), grads

        step = learn_mod.adam_step

        def recorded_step(opt, table, grads):
            tables.append(table.values.copy())
            return step(opt, table, grads)

        monkeypatch.setattr(imaging, "eval_bsdf_at", nan_after_seven)
        monkeypatch.setattr(learn_mod, "adam_step", recorded_step)
        res = learn(start, traced(mesh, refs), OptimState.create(mesh.num_vertices, lr=0.05),
                    LossConfig(lambda_sim=1.0, lambda_mat=1e-3, normalize=True), iters=20)
        assert res.aborted and res.iterations == 8 and len(tables) == 7
        assert np.isfinite(res.total_loss[:7]).all() and np.isnan(res.total_loss[7])
        assert np.argmin(res.total_loss[:7]) == 4 and res.total_loss[6] > res.total_loss[4]
        assert start.values.tobytes() == tables[4].tobytes()
        assert not np.array_equal(tables[4], tables[6])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_reference_pixel_rejected_on_entry(self, learn_setup, monkeypatch,
                                                          value):
        """A NaN or inf reference pixel is named by view and (row, bin) before
        any shading, whether it sits in a learn view or a grad_check view."""
        mesh, params, radar = learn_setup
        good = traced(mesh, [(radar, render(mesh, params, radar)[0].intensities)])[0]
        bad_ref = good[1].copy()
        bad_ref[2, 3] = value
        bad = (good[0], bad_ref)
        calls = RecordedCalls(monkeypatch)
        before = params.values.copy()
        message = rf"view 1: reference pixel \(row 2, bin 3\) is {value}, not a finite intensity"
        with pytest.raises(ValueError, match="^" + message):
            learn(params, [good, bad], OptimState.create(mesh.num_vertices), CFG_RAW, iters=2)
        with pytest.raises(ValueError, match="^" + message):
            grad_check(params, [good, bad], CFG_RAW, num_probes=2)
        assert calls.events == []
        np.testing.assert_array_equal(params.values, before)

    def test_zero_unknowns_records_history_and_keeps_table(self, learn_setup):
        """With every channel frozen there is nothing to step and no iteration
        improves on the first: the run still scores each of its 60 iterations
        and leaves the table bitwise as it was."""
        mesh, params, radar = learn_setup
        ref, _ = render(mesh, params, radar)
        start = params.copy()
        start.values[:, 0] *= 2.0
        before = start.values.copy()
        opt = OptimState.create(mesh.num_vertices, freeze_channels=PARAM_CHANNELS)
        assert opt.m.size == 0
        res = learn(start, traced(mesh, [(radar, ref.intensities)]), opt, CFG_RAW, iters=60)
        assert not res.aborted
        assert res.iterations == 60
        assert res.view_rmse.shape == (60, 1)
        assert np.all(res.sim_loss == res.sim_loss[0]) and res.sim_loss[0] > 0.0
        np.testing.assert_array_equal(start.values, before)

    def test_negative_iters_rejected_before_stacking(self, learn_setup, monkeypatch):
        mesh, params, radar = learn_setup
        views = traced(mesh, [(radar, render(mesh, params, radar)[0].intensities)])
        calls = RecordedCalls(monkeypatch)
        with pytest.raises(ValueError, match=r"^iters must be >= 0, got -1$"):
            learn(params, views, OptimState.create(mesh.num_vertices), CFG_RAW, iters=-1)
        assert calls.events == []

    def test_history_csv(self, learn_setup, tmp_path, monkeypatch):
        """Every written value parses back to its LearnResult value (NaN
        where NaN) and rows are numbered 0..n-1: one view; two views under
        a TV weight; a run whose squared error overflows (its last row inf);
        and one whose BSDF turns NaN on the third call (its last row NaN)."""
        mesh, params, radar = learn_setup
        ref = render(mesh, params, radar)[0].intensities
        start = params.copy()
        start.values[0, :3] *= 1.5                  # a TV step along vertex 0's edges
        overflow = ref.copy()
        overflow[0, 0] = 1e300
        tv = LossConfig(lambda_sim=1.0, lambda_mat=1e-3, normalize=True)
        calls = []

        def nan_from_third(angles, values):
            calls.append(None)
            sigma, grads = eval_bsdf_at(angles, values)
            return (sigma * np.nan if len(calls) >= 3 else sigma), grads

        for refs, cfg, rows, last in (([ref], CFG_RAW, 3, math.isfinite),
                                      ([ref, 0.9 * ref], tv, 3, math.isfinite),
                                      ([overflow], CFG_RAW, 1, math.isinf),
                                      ([ref], tv, 3, math.isnan)):
            if last is math.isnan:
                monkeypatch.setattr(imaging, "eval_bsdf_at", nan_from_third)
            with np.errstate(over="ignore"):
                res = learn(start.copy(), traced(mesh, [(radar, r) for r in refs]),
                            OptimState.create(mesh.num_vertices), cfg, iters=3)
            assert res.iterations == rows and last(res.total_loss[-1])
            assert res.aborted == (last is not math.isfinite)
            assert (res.tv_loss[:-1] > 0.0).all() if cfg is tv else (res.tv_loss == 0.0).all()
            path = tmp_path / "history.csv"
            write_history_csv(res, path)
            header, *lines = path.read_text().splitlines()
            assert header.split(",") == ["iter", "total_loss", "sim_loss", "tv_loss",
                                         *(f"view_rmse_{i}" for i in range(len(refs)))]
            table = np.array([[float(v) for v in line.split(",")] for line in lines])
            assert table[:, 0].tolist() == list(range(rows))
            want = np.column_stack([res.total_loss, res.sim_loss, res.tv_loss, res.view_rmse])
            assert table[:, 1:].shape == want.shape
            np.testing.assert_array_equal(table[:, 1:], want)     # NaN where NaN

    def test_history_csv_header_without_iterations(self, learn_setup, tmp_path):
        mesh, params, radar = learn_setup
        ref = render(mesh, params, radar)[0].intensities
        res = learn(params.copy(), traced(mesh, [(radar, ref)] * 3),
                    OptimState.create(mesh.num_vertices), CFG_RAW, iters=0)
        assert res.iterations == 0 and res.view_rmse.shape == (0, 3)
        path = tmp_path / "history.csv"
        write_history_csv(res, path)
        assert path.read_text().splitlines() == [
            "iter,total_loss,sim_loss,tv_loss,view_rmse_0,view_rmse_1,view_rmse_2"]


def oracle_objective(mesh, params, refs, cfg):
    """The full-table objective: (total, sim, tv, (n, 4) gradient, view
    RMSEs), each view rendered and pulled back alone with loss_sim,
    rmse_normalized and backward, then loss_tv over every mesh edge and
    channel.  learn sums this table's entries per unknown."""
    sim, grads, rmses = 0.0, np.zeros_like(params.values), []
    for radar, ref in refs:
        image, ledger = render(mesh, params, radar)
        loss_v, dLdI = loss_sim(image, ref, cfg, num_views=len(refs))
        sim += loss_v
        grads += backward(ledger, dLdI)
        rmses.append(rmse_normalized(image, ref))
    tv, tv_grad = loss_tv(params.values, mesh_edges(mesh), cfg.lambda_mat)
    grads += tv_grad
    return sim + tv, sim, tv, grads, np.array(rmses)


def oracle_learn(mesh, params, refs, opt, cfg, iters, seen=None):
    """learn's loop, rendering every view on every iteration:
    (total_loss, view_rmse), with params left at the first evaluated table
    of least total loss.  Each full-table gradient is appended to `seen`
    when given; adam_step gets its sum per unknown."""
    total_hist, view_hist = [], []
    best = params.copy()
    for _ in range(iters):
        total, _, _, grads, rmses = oracle_objective(mesh, params, refs, cfg)
        total_hist.append(total)
        view_hist.append(rmses)
        if total_hist[-1] < min(total_hist[:-1], default=np.inf):
            best = params.copy()
        if seen is not None:
            seen.append(grads.copy())
        adam_step(opt, params, unknowns(opt, grads))
    params.values[:] = best.values
    return np.array(total_hist), np.array(view_hist)


def assert_learn_matches_oracle(mesh, params, refs, make_opt, cfg, iters, calls=None):
    """calls: a RecordedCalls, cleared after the oracle so that it holds learn's calls."""
    expect_params = params.copy()
    expect = oracle_learn(mesh, expect_params, refs, make_opt(), cfg, iters)
    if calls is not None:
        calls.events.clear()
    res = learn(params, traced(mesh, refs), make_opt(), cfg, iters=iters)
    assert res.iterations == iters and not res.aborted
    for got, want in zip((res.total_loss, res.view_rmse), expect):
        assert got.tobytes() == want.reshape(got.shape).tobytes()
    assert params.values.tobytes() == expect_params.values.tobytes()


class TestTraceOnce:
    def test_two_facet_matches_render_every_iteration(self, learn_setup):
        mesh, truth, radar = learn_setup
        start = truth.copy()
        start.values[:, 0] *= 1.7
        start.values[:, 2] -= 3.0
        refs = [(r, render(mesh, truth, r)[0].intensities)
                for r in (radar, dataclasses.replace(radar, seed=radar.seed + 1))]
        cfg = LossConfig(lambda_sim=1.0, lambda_mat=1e-3, normalize=True)
        assert_learn_matches_oracle(
            mesh, start, refs, lambda: OptimState.create(mesh.num_vertices, lr=0.05),
            cfg, iters=6)

    def test_truncated_cube_protocol_matches_render_every_iteration(self):
        proto = cube_recovery_protocol()
        refs = render_references(proto)
        params = proto.init.copy()
        for phase in proto.phases[:2]:
            assert_learn_matches_oracle(proto.mesh, params, refs,
                                        lambda phase=phase: proto.optimizer(phase),
                                        RECOVERY_LOSS, iters=4)

    @pytest.fixture
    def intersect_calls(self, monkeypatch):
        """The number of rays of each intersect_rays call."""
        calls = []
        intersect_rays = imaging.intersect_rays

        def counted(mesh, origins, *args, **kwargs):
            calls.append(len(origins))
            return intersect_rays(mesh, origins, *args, **kwargs)

        monkeypatch.setattr(imaging, "intersect_rays", counted)
        return calls

    @pytest.mark.parametrize("iters", [0, 1, 5])
    def test_learn_traces_each_view_once(self, workdir, iters, intersect_calls):
        """`sartrace learn` traces each of its two views once, both in one
        intersect_rays call of 6 rows x 10 angles x 2 subsamples each:
        training and the final images shade the same hits."""
        assert main(["simulate", "--config", str(workdir / "run.ini"), "--out", "refs"]) == 0
        refs = [str(workdir / "refs" / f"view_{vi:03d}.sarf") for vi in range(2)]
        (workdir / "run.ini").write_text(CONFIG.replace("iters = 4", f"iters = {iters}"))
        intersect_calls.clear()
        assert main(["learn", "--config", str(workdir / "run.ini"), "--refs", *refs,
                     "--out", "learned"]) == 0
        assert intersect_calls == [2 * 6 * 10 * 2]

    @pytest.mark.parametrize("num_probes", [1, 6])
    def test_grad_check_traces_each_view_once(self, workdir, num_probes, intersect_calls):
        """`sartrace gradcheck` shades its references and probes the same hits."""
        assert main(["gradcheck", "--config", str(workdir / "run.ini"),
                     "--probes", str(num_probes)]) == 0
        assert intersect_calls == [2 * 6 * 10 * 2]

    def test_run_recovery_traces_each_view_once(self, intersect_calls):
        proto = cube_recovery_protocol()
        proto = dataclasses.replace(
            proto, phases=tuple(dataclasses.replace(p, iters=2) for p in proto.phases))
        refs = render_references(proto)
        intersect_calls.clear()
        _, results, used = run_recovery(proto, refs=refs)
        assert used == 2 * len(proto.phases) == 6
        assert len(proto.radars) == 3
        assert intersect_calls == [sum(r.num_azimuth * r.num_angles * r.spua
                                       for r in proto.radars)]

    @pytest.mark.parametrize("make", [cube_recovery_protocol, building_recovery_protocol])
    def test_references_trace_the_views_once(self, make, intersect_calls):
        """render_references traces every view in one intersect_rays call,
        and each image is bitwise the view rendered alone."""
        proto = make()
        refs = render_references(proto)
        assert intersect_calls == [sum(r.num_azimuth * r.num_angles * r.spua
                                       for r in proto.radars)]
        assert [radar for radar, _ in refs] == proto.radars
        for radar, image in refs:
            alone = render(proto.mesh, proto.truth, radar)[0].intensities
            assert image.dtype == alone.dtype and image.tobytes() == alone.tobytes()

    def test_grad_check_analytic_is_learns_first_gradient(self, learn_setup, monkeypatch):
        mesh, params, radar = learn_setup
        params.values[:, 0] *= np.linspace(0.8, 1.3, mesh.num_vertices)  # TV term nonzero
        truth = params.copy()
        truth.values[:, 2] += 4.0
        views = traced(mesh, [(r, render(mesh, truth, r)[0].intensities)
                              for r in (radar, dataclasses.replace(radar, seed=4))])
        cfg = LossConfig(lambda_sim=1.0, lambda_mat=1e-3, normalize=True)
        seen, opt = [], OptimState.create(mesh.num_vertices)
        monkeypatch.setattr(learn_mod, "adam_step",
                            lambda opt, table, grads: seen.append(table_of(opt, grads)))
        learn(params.copy(), views, opt, cfg, iters=1)
        report = grad_check(params, views, cfg, num_probes=16, seed=1)
        assert len(seen) == 1 and np.abs(seen[0]).max() > 0.0
        for p in report.probes:
            want = seen[0][p.vertex, PARAM_CHANNELS.index(p.channel)]
            assert np.float64(p.analytic).tobytes() == want.tobytes()

    def test_view_without_hits(self, learn_setup, wave_hh, monkeypatch):
        mesh, params, _ = learn_setup
        away = RadarConfig(
            wave=wave_hh, start_pos=[100, 50, 5], end_pos=[103, 50, 5],
            num_azimuth=4, alpha0=0.6, alpha1=0.9, num_angles=8,
            range_res=0.1, azimuth_res=0.75, seed=1)
        image, ledger = render(mesh, params, away)
        assert ledger.num_entries == 0 and not image.intensities.any()
        ref = np.ones(image.shape)             # energy the view cannot produce
        _, dLdI = loss_sim(image, ref, CFG_RAW)
        grad = backward(ledger, dLdI)
        assert np.isfinite(grad).all() and not grad.any()

        seen = []

        def recorded_adam_step(opt, table, grads):
            seen.append(grads.copy())
            return adam_step(opt, table, grads)

        monkeypatch.setattr(learn_mod, "adam_step", recorded_adam_step)
        before = params.values.copy()
        views = traced(mesh, [(away, ref)])
        res = learn(params, views, OptimState.create(mesh.num_vertices), CFG_RAW, iters=3)
        assert not res.aborted and res.iterations == len(seen) == 3
        assert all(np.isfinite(g).all() and not g.any() for g in seen)
        assert np.isfinite(res.total_loss).all() and (res.total_loss > 0).all()
        assert np.isfinite(res.view_rmse).all()
        np.testing.assert_array_equal(params.values, before)


@pytest.mark.parametrize("fail", [False, True], ids=["best-on-exit", "last-on-error"])
def test_steps_write_live_entries_and_learn_every_entry_on_exit(small_radar, monkeypatch, fail):
    """adam_step writes only the entries the next iteration reads: vertices
    6-8, tied with the lit vertex 0 on a facet no ray reaches (so their TV
    pairs join entries of one unknown and drop out), keep their values
    through the run.  On exit learn gives them the group's value: the
    best iterate, or the last step's when a step raises."""
    vertices = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                         [1.2, 0.0, 0.0], [2.2, 0.0, 0.0], [1.2, 1.0, 0.0],
                         [50.0, 0.0, 0.0], [51.0, 0.0, 0.0], [50.0, 1.0, 0.0]])
    mesh = Mesh.from_arrays(vertices, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
    params = ParamMap.constant(9, 0.004, 0.02, 9.0, 0.3)
    truth = params.copy()
    truth.values[:, 2] = 12.0
    views = traced(mesh, [(small_radar, render(mesh, truth, small_radar)[0].intensities)])
    opt = OptimState.create(9, lr=0.05, freeze_channels=("tau",), tie_groups=[[0, 6, 7, 8]])
    start, seen = params.values.copy(), []

    def step(opt, table, grads):
        if fail and len(seen) == 3:
            raise ValueError("stop")
        adam_step(opt, table, grads)
        seen.append(table.values.copy())

    monkeypatch.setattr(learn_mod, "adam_step", step)
    if fail:
        with pytest.raises(ValueError, match="^stop$"):
            learn(params, views, opt, LossConfig(lambda_mat=0.0), iters=6)
    else:
        learn(params, views, opt, LossConfig(lambda_mat=0.0), iters=6)
    assert len(seen) == (3 if fail else 6)
    assert all(table[6:].tobytes() == start[6:].tobytes() for table in seen)
    assert not np.array_equal(seen[-1][0], start[0])
    assert params.values[6:].tobytes() == np.tile(params.values[0], (3, 1)).tobytes()
    assert opt.live is None and opt.values.tobytes() == params.values.take(opt.head).tobytes()
    if fail:
        assert params.values[:6].tobytes() == seen[-1][:6].tobytes()


class RecordedCalls:
    """Wraps the shading kernel's BSDF (imaging's eval_bsdf_at) and learn's
    adam_step with recorders: events lists ("bsdf", theta of the angle
    record) and ("adam", gradient table) in call order."""

    def __init__(self, monkeypatch):
        self.events = []
        step = learn_mod.adam_step

        def recorded_bsdf(angles, values):
            self.events.append(("bsdf", angles.theta.copy()))
            return eval_bsdf_at(angles, values)

        def recorded_step(opt, table, grads):
            self.events.append(("adam", grads.copy()))
            return step(opt, table, grads)

        monkeypatch.setattr(imaging, "eval_bsdf_at", recorded_bsdf)
        monkeypatch.setattr(learn_mod, "adam_step", recorded_step)

    def iterations(self):
        """[(thetas of the BSDF calls since the previous adam_step, the
        gradient table)] per adam_step call."""
        out, thetas = [], []
        for kind, value in self.events:
            if kind == "bsdf":
                thetas.append(value)
            else:
                out.append((thetas, value))
                thetas = []
        return out


class TestStackedLoss:
    """One learn objective takes one difference and one square over every
    view's pixels: its loss, RMSEs and dL/dI are bitwise the per-view
    loss_sim and rmse_normalized, and loss_sim's gradient pulled back
    through backward."""

    @pytest.mark.parametrize("normalize, lambda_sim", [
        pytest.param(True, 1.0, id="True"), pytest.param(False, 1.0, id="False"),
        pytest.param(True, 0.5, id="True-0.5"), pytest.param(False, 0.5, id="False-0.5")])
    def test_matches_per_view_loss_sim_and_rmse(self, learn_setup, normalize, lambda_sim):
        """Every LossConfig branch of the stack's loss factors; and a stack
        evaluated at another table, as grad_check's probes evaluate it, is
        bitwise a stack built at that table."""
        mesh, truth, radar = learn_setup
        other = dataclasses.replace(radar, end_pos=[2.2, 4.0, 4.0], seed=9)
        train = [(radar, render(mesh, truth, radar)[0].intensities),
                 (other, np.zeros(render(mesh, truth, other)[0].shape)),     # all-zero
                 (dataclasses.replace(radar, seed=4),
                  3.0 * render(mesh, truth, dataclasses.replace(radar, seed=4))[0].intensities)]
        train += [(other, render(mesh, truth, other)[0].intensities),
                  (radar, np.zeros(render(mesh, truth, radar)[0].shape))]
        params = truth.copy()
        params.values[3:, 0] *= 1.6
        params.values[:, 2] += np.arange(mesh.num_vertices)
        cfg = LossConfig(lambda_sim=lambda_sim, lambda_mat=0.0, normalize=normalize)

        opt = OptimState.create(mesh.num_vertices)
        views = learn_mod._checked(traced(mesh, train))
        stack = learn_mod._stack(params, views, opt, cfg)
        total, sim, tv, grads, rmses = learn_mod._objective(stack, params)
        grads = table_of(opt, grads)

        want_total, want_sim, _, want_grads, want_rmses = oracle_objective(mesh, params, train, cfg)
        assert (total, sim, tv) == (want_sim, want_sim, 0.0) == (want_total, sim, 0.0)
        assert sim > 0.0 and rmses.tobytes() == want_rmses.tobytes()
        assert grads.tobytes() == want_grads.tobytes() and np.abs(grads).max() > 0.0

        trial = params.copy()
        trial.values[3:, 1] *= 0.8
        trial.values[0, 2] += 1.5
        reused = learn_mod._objective(stack, trial)
        fresh = learn_mod._objective(learn_mod._stack(trial, views, opt, cfg), trial)
        assert reused[:3] == fresh[:3] and reused[0] != total
        assert all(a.tobytes() == b.tobytes() for a, b in zip(reused[3:], fresh[3:]))


def _on_facets(hits, facets):
    return np.isin(hits.facet_id, facets)


class TestStackedObjective:
    """learn shades all views as one stack, re-shading only the hits
    whose facet touches a vertex with an unknown."""

    def test_cube_iteration_makes_one_bsdf_call(self, monkeypatch):
        proto = cube_recovery_protocol()
        refs = render_references(proto)
        views = traced(proto.mesh, refs)
        cube_facets = np.flatnonzero(np.isin(proto.mesh.facets, proto.target_ids).all(axis=1))
        plane_facets = np.flatnonzero(np.isin(proto.mesh.facets, proto.frozen_ids).all(axis=1))
        assert cube_facets.size + plane_facets.size == proto.mesh.num_facets
        on_cube = np.concatenate([h.theta[_on_facets(h, cube_facets)] for h, _ in views])
        on_plane = np.concatenate([h.theta[_on_facets(h, plane_facets)] for h, _ in views])
        assert on_cube.size > 100 and on_plane.size > 100

        calls = RecordedCalls(monkeypatch)
        opt = proto.optimizer(proto.phases[0])
        res = learn(proto.init.copy(), views, opt, RECOVERY_LOSS, iters=3)
        assert res.iterations == 3 and not res.aborted
        # the plane's hits are shaded once, on entry; each iteration shades the cube's
        thetas = [t for t, _ in calls.iterations()]
        assert [len(t) for t in thetas] == [2, 1, 1]
        assert thetas[0][0].tobytes() == on_plane.tobytes()
        assert all(t[-1].tobytes() == on_cube.tobytes() for t in thetas)

    @pytest.fixture
    def mixed_views(self, learn_setup, wave_hh):
        """An HH view, a VV view, a view that hits nothing and two more HH
        views of the two-facet mesh."""
        mesh, truth, radar = learn_setup
        vv = dataclasses.replace(radar, wave=WaveConfig(9.6e9, "VV", "gaussian"), seed=8)
        away = RadarConfig(wave=wave_hh, start_pos=[100, 50, 5], end_pos=[103, 50, 5],
                           num_azimuth=4, alpha0=0.6, alpha1=0.9, num_angles=8,
                           range_res=0.1, azimuth_res=0.75, seed=1)
        truth.values[3:, 2] = 14.0
        hh = dataclasses.replace(radar, end_pos=[2.2, 4.0, 4.0], seed=9)
        hh2 = dataclasses.replace(radar, seed=radar.seed + 1)
        refs = [(r, render(mesh, truth, r)[0].intensities) for r in (radar, vv, away, hh, hh2)]
        hits = [trace(mesh, r) for r, _ in refs]
        assert all(_on_facets(h, [0]).any() and _on_facets(h, [1]).any()
                   for h in hits[:2] + hits[3:])
        assert hits[2].row.size == 0
        start = truth.copy()
        start.values[3:, 0] *= 1.6
        start.values[3:, 2] = 10.0
        return mesh, start, refs

    @pytest.mark.parametrize("kwargs, entry_calls", [
        pytest.param(dict(freeze_vertices=[0, 1, 2]), 2, id="frozen-facet"),
        pytest.param(dict(freeze_vertices=[0, 1], tie_groups=[[3, 4]],
                          freeze_channels=("tau",)), 0, id="frozen-corners-tied"),
        pytest.param({}, 0, id="all-free"),
    ])
    def test_mixed_stack_matches_render_every_iteration(self, mixed_views, kwargs,
                                                        entry_calls, monkeypatch):
        """Histories, final tables and every unknown's gradient are bitwise
        the render-every-iteration oracle's; one BSDF call per wave and
        iteration, plus one per wave on entry for a wholly frozen facet."""
        mesh, start, refs = mixed_views
        cfg = LossConfig(lambda_sim=1.0, lambda_mat=1e-3, normalize=True)
        make_opt = lambda: OptimState.create(mesh.num_vertices, lr=0.05, **kwargs)
        want = []
        oracle_learn(mesh, start.copy(), refs, make_opt(), cfg, 5, seen=want)
        calls = RecordedCalls(monkeypatch)
        assert_learn_matches_oracle(mesh, start, refs, make_opt, cfg, iters=5, calls=calls)
        opt = make_opt()
        iterations = calls.iterations()
        assert len(iterations) == len(want) == 5
        assert [len(t) for t, _ in iterations] == [entry_calls + 2] + [2] * 4   # HH, VV
        for (_, got), expect in zip(iterations, want):
            assert got.tobytes() == unknowns(opt, expect).tobytes()
            assert np.abs(got).max() > 0.0

    @pytest.mark.parametrize("nan_facet, raises", [(0, False), (1, True)])
    def test_non_finite_partial_reaches_adam_only_through_an_unknown(
            self, learn_setup, monkeypatch, nan_facet, raises):
        """A NaN partial on a hit whose vertices are all frozen is never
        assembled (the full-table adjoint used to reject the step for it);
        one on a hit that touches an unknown still stops learn."""
        mesh, params, radar = learn_setup
        params.values[:3, 3] = 0.3           # facet 0's vertices, frozen
        params.values[3:, 3] = 0.05          # facet 1's, free
        ref = render(mesh, params, radar)[0].intensities * 1.1

        def nan_partials(angles, values):
            sigma, grads = eval_bsdf_at(angles, values)
            on_facet_0 = values[:, 3] > 0.2
            grads[on_facet_0 if nan_facet == 0 else ~on_facet_0] = np.nan
            return sigma, grads

        monkeypatch.setattr(imaging, "eval_bsdf_at", nan_partials)
        opt = OptimState.create(mesh.num_vertices, freeze_vertices=[0, 1, 2])
        before = params.values.copy()
        views = traced(mesh, [(radar, ref)])
        if raises:
            with pytest.raises(ValueError, match=r"non-finite gradient at vertex 3, "
                                                 r"channel\(s\) h, l, eps_r, tau"):
                learn(params, views, opt, CFG_RAW, iters=2)
            return
        res = learn(params, views, opt, CFG_RAW, iters=2)
        assert res.iterations == 2 and not res.aborted
        assert np.isfinite(res.total_loss).all()
        np.testing.assert_array_equal(params.values[:3], before[:3])
        assert not np.array_equal(params.values[3:], before[3:])

    @pytest.mark.parametrize("nan_channel", [3, 1])
    def test_adjoint_assembles_only_the_channels_with_an_unknown(
            self, learn_setup, monkeypatch, nan_channel):
        """With tau frozen, a NaN tau partial on every live hit is never
        assembled and learn steps; a NaN l partial still stops learn,
        naming l alone, by the rule that a partial reaches adam_step only
        through an unknown."""
        mesh, params, radar = learn_setup
        ref = render(mesh, params, radar)[0].intensities * 1.1

        def nan_partials(angles, values):
            sigma, grads = eval_bsdf_at(angles, values)
            grads[:, nan_channel] = np.nan
            return sigma, grads

        monkeypatch.setattr(imaging, "eval_bsdf_at", nan_partials)
        opt = OptimState.create(mesh.num_vertices, freeze_channels=("tau",))
        before = params.values.copy()
        views = traced(mesh, [(radar, ref)])
        if nan_channel != 3:
            with pytest.raises(ValueError, match=r"non-finite gradient at vertex \d+, "
                                                 r"channel\(s\) l; step rejected"):
                learn(params, views, opt, CFG_RAW, iters=2)
            return
        res = learn(params, views, opt, CFG_RAW, iters=2)
        assert res.iterations == 2 and not res.aborted
        assert np.isfinite(res.total_loss).all()
        np.testing.assert_array_equal(params.values[:, 3], before[:, 3])
        assert not np.array_equal(params.values[:, :3], before[:, :3])

    @pytest.mark.parametrize("kwargs", [
        pytest.param(dict(freeze_channels=("tau",)), id="tau-frozen"),
        pytest.param(dict(freeze_channels=("h", "eps_r"), freeze_vertices=[0]), id="l-tau"),
        pytest.param(dict(freeze_vertices=[0, 1], tie_groups=[[3, 4]],
                          freeze_channels=("l",)), id="tied"),
        pytest.param({}, id="all-free"),
    ])
    def test_gradient_at_every_entry_matches_the_all_channel_stack(self, mixed_views, kwargs):
        """A stack built with the optimizer's unknowns assembles only their
        channels and live entries, yet its objective is bitwise the one of
        an untied all-entry stack (grad_check's): losses, RMSEs and each
        unknown's gradient, the sum of that table's entries."""
        mesh, start, refs = mixed_views
        cfg = LossConfig(lambda_sim=1.0, lambda_mat=1e-3, normalize=True)
        views = learn_mod._checked(traced(mesh, refs))
        every, opt = (OptimState.create(mesh.num_vertices, **kw) for kw in ({}, kwargs))
        full = learn_mod._objective(learn_mod._stack(start, views, every, cfg), start)
        part = learn_mod._objective(learn_mod._stack(start, views, opt, cfg), start)
        assert part[:3] == full[:3] and part[4].tobytes() == full[4].tobytes()
        assert part[3].tobytes() == unknowns(opt, table_of(every, full[3])).tobytes()
        assert np.abs(part[3]).max() > 0.0

    @pytest.mark.parametrize("shift, num_bins, bin_pattern", [
        (0.0, 2, r"\d+"), (-1.0, None, r"-\d+")])
    def test_range_window_leaving_out_a_hit_raises_on_entry(
            self, learn_setup, shift, num_bins, bin_pattern):
        """trace_views refuses a pinned window that leaves out a hit, past
        either end, and names the view: no HitSet ever holds such a hit."""
        mesh, _, radar = learn_setup
        origin, bins = imaging.vertex_range_window(mesh, radar)
        window = (origin + shift, num_bins or bins)
        message = rf"^view 1: bin {bin_pattern} outside profile of {window[1]} bins$"
        with pytest.raises(ValueError, match=message):
            imaging.trace_views(mesh, [radar, radar], range_windows=[None, window])


    def test_table_size_names_the_view(self, learn_setup):
        mesh, params, radar = learn_setup
        views = traced(mesh, [(radar, render(mesh, params, radar)[0].intensities)])
        wider = ParamMap(np.vstack([params.values, params.values[:1]]))
        message = r"view 0: parameter table size 7 does not match the mesh's 6 vertices"
        with pytest.raises(ValueError, match=message):
            learn(wider, views, OptimState.create(7), CFG_RAW, iters=1)
        with pytest.raises(ValueError, match=message):
            grad_check(wider, views, CFG_RAW, num_probes=1)

    def test_views_over_two_meshes_name_the_view(self, learn_setup):
        """TV runs over one mesh's edges, so every view must trace it."""
        mesh, params, radar = learn_setup
        ref = render(mesh, params, radar)[0].intensities
        other = Mesh.from_arrays(mesh.vertices, mesh.facets[::-1])  # same vertices and facets
        good, odd = (trace(mesh, radar), ref), (trace(other, radar), ref)
        before = params.values.copy()
        with pytest.raises(ValueError, match="^view 1: traced over a different mesh than view 0$"):
            learn(params, [good, odd], OptimState.create(6), CFG_RAW, iters=1)
        with pytest.raises(ValueError, match="^view 1: traced over a different mesh"):
            grad_check(params, [good, odd], CFG_RAW, num_probes=1)
        np.testing.assert_array_equal(params.values, before)
        # an equal mesh built separately is the same mesh
        same = Mesh.from_arrays(mesh.vertices.copy(), mesh.facets.copy())
        res = learn(params, [good, (trace(same, radar), ref)], OptimState.create(6), CFG_RAW,
                    iters=1)
        assert res.iterations == 1

def grid_scene():
    """A 9 x 9-vertex heightfield split by vertex row into two tied groups
    (rows 0-2 and 3-4), frozen rows 5-6 and a free block (rows 7-8), with
    a truth table, a start whose groups hold one value each, and three
    views that reach every part."""
    side, rng = 9, np.random.default_rng(4)
    xs = np.linspace(-2.0, 2.0, side)
    x, y = np.meshgrid(xs, xs, indexing="ij")
    z = 0.15 * np.sin(1.3 * x) * np.cos(0.9 * y) + rng.normal(0.0, 0.01, x.shape)
    c = np.arange(side * side).reshape(side, side)[:-1, :-1].ravel()
    facets = np.concatenate([np.stack([c, c + side, c + side + 1], axis=1),
                             np.stack([c, c + side + 1, c + 1], axis=1)])
    mesh = Mesh.from_arrays(np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1), facets)
    n, row = mesh.num_vertices, np.arange(mesh.num_vertices) // side
    parts = [np.flatnonzero((row >= lo) & (row < hi))
             for lo, hi in ((0, 3), (3, 5), (5, 7), (7, 9))]
    truth = ParamMap(np.column_stack([rng.uniform(0.002, 0.006, n), rng.uniform(0.01, 0.03, n),
                                      rng.uniform(4.0, 20.0, n), rng.uniform(0.0, 0.2, n)]))
    start = truth.copy()
    for group in parts[:2]:
        start.values[group] = start.values[group[0]] * [1.3, 0.8, 1.2, 1.0]
    radar = side_looking_radar(WaveConfig(9.6e9, "HH", "exponential"), distance=6.0,
                               incidence=math.radians(45), track_length=4.0, num_azimuth=8,
                               fan_halfwidth=math.radians(25), num_angles=12, range_res=0.1,
                               spua=2, seed=3)
    refs = [(r, render(mesh, truth, r)[0].intensities)
            for r in multiview_radars(radar, (0.0, 120.0, 240.0))]
    return mesh, parts, start, refs


class TestUnknownGradient:
    """learn assembles the gradient of its k unknowns over the live hits
    and the live TV pairs only; the full-table oracle summed per unknown
    pins it."""

    @pytest.mark.parametrize("lambda_mat", [0.0, 1e-3])
    def test_matches_the_full_table_oracle(self, lambda_mat, monkeypatch):
        """Two tied groups, frozen vertices, a free block and tau frozen:
        the (k,) gradient is bitwise np.bincount(opt.unknown,
        oracle.take(opt.entries)), the data term and RMSEs bitwise the
        oracle's, and the TV term the all-edge sum within 1e-12 relative
        (bitwise 0 at lambda_mat = 0, where the stack keeps no TV pair and
        only the hits reach live entries).  Over five learn iterations
        every gradient handed to adam_step and the final table stay
        bitwise."""
        mesh, (a, b, frozen, free), start, refs = grid_scene()
        cfg = LossConfig(lambda_sim=1.0, lambda_mat=lambda_mat, normalize=True)
        make_opt = lambda: OptimState.create(mesh.num_vertices, lr=0.05, freeze_channels=("tau",),
                                             freeze_vertices=frozen, tie_groups=[a, b])
        opt = make_opt()
        assert opt.m.size == 3 * (2 + free.size)
        # all three views reach every free vertex, the second alone does not
        for views in (refs, refs[1:2]):
            stack = learn_mod._stack(start, learn_mod._checked(traced(mesh, views)), opt, cfg)
            total, sim, tv, g, rmses = learn_mod._objective(stack, start)
            want = oracle_objective(mesh, start, views, cfg)
            assert g.tobytes() == unknowns(opt, want[3]).tobytes() and np.abs(g).max() > 0.0
            assert sim == want[1] and rmses.tobytes() == want[4].tobytes() and total == sim + tv
            assert tv == pytest.approx(want[2], rel=1e-12, abs=0.0)
            assert (tv > 0.0) if lambda_mat else (tv == 0.0 and total == want[0])
        if not lambda_mat:
            # no TV pair, and every live entry in a view's block
            assert stack.tv_ends.shape[1] == 0 and (stack.adjoint_at < stack.block).all()
        else:
            # live entries that only TV pairs reach, in no view's block
            assert (stack.adjoint_at == stack.block).any()

            # the stack's TV pairs are the (edge, channel) pairs of neither
            # class it sets aside: no unknown at either end, or one unknown at both
            of = np.full(4 * mesh.num_vertices, -1)
            of[opt.entries] = opt.unknown
            ends = of[mesh_edges(mesh)[:, :, None] * 4 + np.arange(4)]        # (E, 2, 4)
            constant = (ends < 0).all(axis=1)
            dropped = (ends[:, 0] == ends[:, 1]) & ~constant
            assert constant.any() and dropped.any()
            assert stack.tv_ends.shape[1] == (~constant & ~dropped).sum() > 0

        seen, params = [], start.copy()
        oracle_learn(mesh, start, refs, make_opt(), cfg, 5, seen=seen)
        calls = RecordedCalls(monkeypatch)
        res = learn(params, traced(mesh, refs), make_opt(), cfg, iters=5)
        got = [grads for _, grads in calls.iterations()]
        assert len(got) == len(seen) == 5
        assert all(a.tobytes() == unknowns(opt, b).tobytes() for a, b in zip(got, seen))
        assert params.values.tobytes() == start.values.tobytes()


    @pytest.mark.parametrize("channels", [("h",), ("h", "l"), ("l", "tau"), PARAM_CHANNELS])
    def test_live_pairs_follow_the_vertex_groups(self, channels):
        """The stack finds its live TV pairs from each edge's two vertex
        groups, read from the first channel with an unknown; with the
        leading channels frozen as well as the grid's frozen rows, they are
        still the (edge, channel) pairs whose ends hold two different
        unknowns (or one and none), in (edge, channel) order, its constant
        sums the pairs with no unknown at either end in that order, and the
        gradient and data term are bitwise the full-table oracle's."""
        mesh, (a, b, frozen, free), start, refs = grid_scene()
        cfg = LossConfig(lambda_sim=1.0, lambda_mat=1e-3, normalize=True)
        opt = OptimState.create(mesh.num_vertices, freeze_channels=channels,
                                freeze_vertices=frozen, tie_groups=[a, b])
        stack = learn_mod._stack(start, learn_mod._checked(traced(mesh, refs)), opt, cfg)
        of = np.full(4 * mesh.num_vertices, -1)
        of[opt.entries] = opt.unknown
        edges = mesh_edges(mesh)
        pairs = edges[:, :, None] * 4 + np.arange(4)                   # (E, 2, 4) entries
        ends = of[pairs]
        live = ends[:, 0] != ends[:, 1]
        assert live.any() == (opt.m.size > 0)
        assert stack.tv_ends.tolist() == [pairs[:, 0][live].tolist(), pairs[:, 1][live].tolist()]
        diff = start.values.take(edges[:, 1], axis=0) - start.values.take(edges[:, 0], axis=0)
        assert stack.tv_const == float(np.abs(diff[(ends < 0).all(axis=1)]).sum())
        total, sim, tv, g, rmses = learn_mod._objective(stack, start)
        want = oracle_objective(mesh, start, refs, cfg)
        assert g.tobytes() == unknowns(opt, want[3]).tobytes()
        assert sim == want[1] and rmses.tobytes() == want[4].tobytes()
        assert tv == pytest.approx(want[2], rel=1e-12, abs=0.0)


class TestLearnRobustness:
    def test_nan_partial_in_a_tied_group_stops_before_adam_moves(self, learn_setup,
                                                                 monkeypatch):
        """A NaN l partial on the hits of facet 1, whose vertices are one
        tied group: learn raises on the first step, naming a member vertex
        and the channel, before Adam moves its state or the table."""
        mesh, params, radar = learn_setup
        params.values[3:, 3] = 0.05              # facet 1's vertices, told apart by tau
        ref = render(mesh, params, radar)[0].intensities * 1.1

        def nan_partials(angles, values):
            sigma, grads = eval_bsdf_at(angles, values)
            grads[values[:, 3] < 0.2, 1] = np.nan
            return sigma, grads

        monkeypatch.setattr(imaging, "eval_bsdf_at", nan_partials)
        opt = OptimState.create(mesh.num_vertices, tie_groups=[[3, 4, 5]])
        before = params.values.copy()
        with pytest.raises(ValueError, match=r"^non-finite gradient at vertex [345], "
                                             r"channel\(s\) l; step rejected$"):
            learn(params, traced(mesh, [(radar, ref)]), opt, CFG_RAW, iters=3)
        assert opt.step == 0 and not opt.m.any() and not opt.v.any()
        assert params.values.tobytes() == before.tobytes()

    def test_written_back_table_is_the_first_least_loss_iterate(self, learn_setup,
                                                               monkeypatch):
        """learn keeps its best iterate as k values and writes it back: the
        final table equals, entry for entry, the first table of least loss
        handed to adam_step (not the last), and the frozen entries that
        started outside the box hold their projected values."""
        mesh, truth, radar = learn_setup
        ref = render(mesh, truth, radar)[0].intensities
        start = truth.copy()
        start.values[3:, 0] *= 1.7
        start.values[0] = [2.0, 1e-9, 0.5, 1.5]          # vertex 0 frozen, outside the box
        start.values[1:, 3] = [-0.5, 0.0, 0.3, 0.3, 2.0]  # tau frozen, two outside the box
        projected = np.clip(start.values, PARAM_LOWER, PARAM_UPPER)
        tables, step = [], learn_mod.adam_step

        def recorded_step(opt, table, grads):
            tables.append(table.values.copy())
            return step(opt, table, grads)

        monkeypatch.setattr(learn_mod, "adam_step", recorded_step)
        opt = OptimState.create(mesh.num_vertices, lr=0.5, freeze_channels=("tau",),
                                freeze_vertices=[0], tie_groups=[[3, 4]])
        res = learn(start, traced(mesh, [(radar, ref)]), opt, CFG_RAW, iters=12)
        best = int(np.argmin(res.total_loss))
        assert len(tables) == 12 and 0 < best < 11 and res.total_loss[-1] > res.total_loss[best]
        assert start.values.tobytes() == tables[best].tobytes()
        assert not np.array_equal(tables[best], tables[-1])
        frozen = ~np.isin(np.arange(4 * mesh.num_vertices), opt.entries).reshape(-1, 4)
        assert start.values[frozen].tobytes() == projected[frozen].tobytes()
        assert (projected != truth.values)[frozen].sum() >= 4


class TestGradCheck:
    def perturbed(self, params):
        ref = params.copy()
        ref.values[:, 0] *= 1.5
        ref.values[:, 2] += 3.0
        return ref

    @pytest.mark.parametrize("lambda_mat", [0.0, 1e-3])
    def test_no_views_rejected(self, learn_setup, lambda_mat):
        """No view is no check: grad_check raises as learn does."""
        params = learn_setup[1]
        with pytest.raises(ValueError, match="^need at least one reference view$"):
            grad_check(params, [], LossConfig(lambda_mat=lambda_mat), num_probes=5)

    def test_two_facet_end_to_end(self, learn_setup):
        mesh, params, radar = learn_setup
        ref = render(mesh, self.perturbed(params), radar)[0].intensities
        cfg = LossConfig(lambda_sim=1.0, lambda_mat=1e-4, normalize=True)
        report = grad_check(params, traced(mesh, [(radar, ref)]), cfg, num_probes=20, seed=1)
        assert len(report.probes) == 20
        assert report.max_rel_err < 1e-3

    def test_zero_probes(self, learn_setup):
        mesh, params, radar = learn_setup
        ref = render(mesh, self.perturbed(params), radar)[0].intensities
        report = grad_check(params, traced(mesh, [(radar, ref)]), CFG_RAW, num_probes=0)
        assert report.probes == []
        assert report.max_rel_err == 0.0

    def test_negative_probes_rejected(self, learn_setup):
        mesh, params, radar = learn_setup
        views = traced(mesh, [(radar, render(mesh, params, radar)[0].intensities)])
        with pytest.raises(ValueError, match=r"^num_probes must be >= 0, got -3$"):
            grad_check(params, views, CFG_RAW, num_probes=-3)

    def test_table_outside_the_box_rejected(self, learn_setup):
        """grad_check neither clips nor steps its table, so it validates it:
        h = 1e-200 would shade to NaN and report NaN errors."""
        mesh, params, radar = learn_setup
        views = traced(mesh, [(radar, render(mesh, params, radar)[0].intensities)])
        params.values[4, 0] = 1e-200
        with pytest.raises(ValueError, match=r"^vertex 4, h: parameter value 1e-200 outside "):
            grad_check(params, views, CFG_RAW, num_probes=1)

    def test_finite_diff_is_learns_loss_difference(self, learn_setup):
        """Each side of a probe is the total loss of one learn iteration at
        the stepped table with every vertex free: learn and grad_check
        evaluate one objective."""
        mesh, params, radar = learn_setup
        params.values[:, 0] *= np.linspace(0.8, 1.3, mesh.num_vertices)  # TV term nonzero
        truth = self.perturbed(params)
        views = traced(mesh, [(r, render(mesh, truth, r)[0].intensities)
                              for r in (radar, dataclasses.replace(radar, seed=4))])
        cfg = LossConfig(lambda_sim=1.0, lambda_mat=1e-3, normalize=True)
        report = grad_check(params, views, cfg, num_probes=12, seed=2)

        def learns_loss(vertex, ci, value):
            trial = params.copy()
            trial.values[vertex, ci] = value
            opt = OptimState.create(mesh.num_vertices)
            return learn(trial, views, opt, cfg, iters=1).total_loss[0]

        for p in report.probes:
            ci = PARAM_CHANNELS.index(p.channel)
            base = params.values[p.vertex, ci]
            step = max(learn_mod._FD_REL_STEP * abs(base), 1e-8)
            up = learns_loss(p.vertex, ci, base + step)
            down = learns_loss(p.vertex, ci, base - step)
            assert np.float64(p.finite_diff).tobytes() == ((up - down) / (2 * step)).tobytes()
        assert any(p.finite_diff != 0.0 for p in report.probes)

    def test_quadratic_bsdf_exact(self, learn_setup, monkeypatch):
        mesh, params, radar = learn_setup

        def quad_bsdf(angles, values):
            sigma = values[:, 0] ** 2
            grads = np.zeros((len(angles.theta), 4))
            grads[:, 0] = 2.0 * values[:, 0]
            return sigma, grads

        monkeypatch.setattr(imaging, "eval_bsdf_at", quad_bsdf)
        ref = render(mesh, self.perturbed(params), radar)[0].intensities
        report = grad_check(params, traced(mesh, [(radar, ref)]), CFG_RAW,
                            num_probes=12, seed=2)
        # exact chain: residual is pure finite-difference roundoff
        assert report.max_rel_err < 1e-6

    def test_corrupted_adjoint_detected(self, learn_setup, monkeypatch):
        mesh, params, radar = learn_setup

        def broken(angles, values):
            sigma, grads = eval_bsdf_at(angles, values)
            return sigma, grads * 1.4

        ref = render(mesh, self.perturbed(params), radar)[0].intensities
        monkeypatch.setattr(imaging, "eval_bsdf_at", broken)
        report = grad_check(params, traced(mesh, [(radar, ref)]), CFG_RAW,
                            num_probes=10, seed=3)
        assert report.max_rel_err > 0.05

    def test_unilluminated_vertices_have_zero_gradient(self, wave_hh):
        # small lower plate fully shadowed by the big raised plate
        top = plane_mesh(4.0, 4.0, z=1.0)
        bottom = plane_mesh(1.0, 1.0, z=0.0)
        mesh = merge_meshes([top, bottom])
        params = ParamMap.constant(mesh.num_vertices, 0.004, 0.02, 9.0, 0.3)
        radar = side_looking_radar(wave_hh, distance=7.0, incidence=math.radians(45),
                                   track_length=3.0, num_azimuth=6,
                                   fan_halfwidth=math.radians(10), num_angles=16,
                                   range_res=0.1, spua=2, seed=5)
        image, ledger = render(mesh, params, radar)
        ref = image.intensities * 0.5
        _, dLdI = loss_sim(image, ref, CFG_RAW)
        grad = backward(ledger, dLdI)
        assert np.abs(grad[:4]).max() > 0.0       # top plate illuminated
        np.testing.assert_array_equal(grad[4:8], np.zeros((4, 4)))


def test_rmse_normalized():
    a = np.array([[1.0, 2.0]])
    b = np.array([[2.0, 4.0]])
    # normalized by max(ref)=4: diffs (-0.25, -0.5)
    assert rmse_normalized(a, b) == pytest.approx(math.sqrt((0.0625 + 0.25) / 2))


def test_rmse_normalized_shape_mismatch():
    with pytest.raises(ValueError, match=r"image shape \(2, 3\) != reference shape \(3,\)"):
        rmse_normalized(np.ones((2, 3)), np.ones(3))
