"""Offline regression models, cross-validation, and table construction."""

import numpy as np
import pytest

from longcal.offline import (
    CvReport,
    Degenerate,
    LinearModel,
    MlpHyper,
    MlpModel,
    Singular,
    TooFewSamples,
    build_table,
    cross_validate,
    split_by_sign,
    train_linear,
    train_mlp,
)
from longcal.offline import as_sample_array
from longcal.table import lookup_acc


def curvy(cmd, v):
    # mildly nonlinear in both inputs, odd-ish in command
    mag = np.abs(np.asarray(cmd, float) / 100.0) ** 1.2
    return np.where(np.asarray(cmd) > 0, 4.0 * mag, -5.0 * mag) - 0.06 * np.asarray(v) ** 2


def sample_grid(rng, n, v_max=3.0, noise=0.0, sign=None):
    cmd = rng.uniform(3, 100, n) if sign == "+" else (
        rng.uniform(-100, -3, n) if sign == "-" else rng.uniform(-100, 100, n)
    )
    v = rng.uniform(0, v_max, n)
    acc = curvy(cmd, v) + (rng.normal(0, noise, n) if noise else 0.0)
    return np.column_stack([cmd, v, acc])


def _reference_train_mlp(samples, hyper=None):
    """``train_mlp`` with a separate Adam update per weight and bias array.

    The reference for the flat-buffer trainer, which must give bit-identical
    nets: same initialisation, shuffling and batches, and per element the
    same operations in the same order.
    """
    hyper = hyper or MlpHyper()
    arr = as_sample_array(samples)
    X_raw = arr[:, :2]
    y_raw = arr[:, 2:3]
    x_mean = X_raw.mean(axis=0)
    x_std = X_raw.std(axis=0)
    x_std[x_std == 0.0] = 1.0
    y_mean = float(y_raw.mean())
    y_std = float(y_raw.std())
    if np.ptp(y_raw) == 0.0:
        y_std = 0.0

    def _sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x))

    sizes = [2, hyper.hidden, hyper.hidden, 1]
    rng = np.random.default_rng(hyper.seed)
    weights = [
        rng.normal(0.0, 1.0 / np.sqrt(sizes[i]), size=(sizes[i], sizes[i + 1]))
        for i in range(3)
    ]
    biases = [np.zeros(sizes[i + 1]) for i in range(3)]
    model = MlpModel(weights, biases, x_mean, x_std, y_mean, y_std)
    if y_std == 0.0:
        for w in weights:
            w *= 0.0
        model.first_epoch_mse = model.final_mse = 0.0
        return model

    X = (X_raw - x_mean) / x_std
    y = (y_raw - y_mean) / y_std
    m_w = [np.zeros_like(w) for w in weights]
    v_w = [np.zeros_like(w) for w in weights]
    m_b = [np.zeros_like(b) for b in biases]
    v_b = [np.zeros_like(b) for b in biases]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    batch = int(min(hyper.batch, max(64, np.ceil(len(X) / 8))))

    def full_mse():
        a1 = _sigmoid(X @ weights[0] + biases[0])
        a2 = _sigmoid(a1 @ weights[1] + biases[1])
        return float(((a2 @ weights[2] + biases[2] - y) ** 2).mean())

    for epoch in range(hyper.epochs):
        order = rng.permutation(len(X))
        for s in range(0, len(X), batch):
            idx = order[s : s + batch]
            xb, yb = X[idx], y[idx]
            a1 = _sigmoid(xb @ weights[0] + biases[0])
            a2 = _sigmoid(a1 @ weights[1] + biases[1])
            out = a2 @ weights[2] + biases[2]
            delta = 2.0 * (out - yb) / len(xb)
            grads_w = [None, None, a2.T @ delta]
            grads_b = [None, None, delta.sum(axis=0)]
            d2 = (delta @ weights[2].T) * a2 * (1.0 - a2)
            grads_w[1] = a1.T @ d2
            grads_b[1] = d2.sum(axis=0)
            d1 = (d2 @ weights[1].T) * a1 * (1.0 - a1)
            grads_w[0] = xb.T @ d1
            grads_b[0] = d1.sum(axis=0)
            step += 1
            c1 = 1.0 - beta1**step
            c2 = 1.0 - beta2**step
            for i in range(3):
                m_w[i] = beta1 * m_w[i] + (1.0 - beta1) * grads_w[i]
                v_w[i] = beta2 * v_w[i] + (1.0 - beta2) * grads_w[i] ** 2
                weights[i] -= hyper.lr * (m_w[i] / c1) / (np.sqrt(v_w[i] / c2) + eps)
                m_b[i] = beta1 * m_b[i] + (1.0 - beta1) * grads_b[i]
                v_b[i] = beta2 * v_b[i] + (1.0 - beta2) * grads_b[i] ** 2
                biases[i] -= hyper.lr * (m_b[i] / c1) / (np.sqrt(v_b[i] / c2) + eps)
        if epoch == 0:
            model.first_epoch_mse = full_mse()
    model.final_mse = full_mse()
    return model


def assert_same_net(a, b):
    # byte equality: every parameter to the last bit, the sign of zero included
    for pa, pb in zip(a.weights + a.biases, b.weights + b.biases, strict=True):
        assert pa.shape == pb.shape
        assert pa.tobytes() == pb.tobytes()
    assert a.first_epoch_mse == b.first_epoch_mse
    assert a.final_mse == b.final_mse


class TestTrainMlp:
    def test_constant_target_warns_and_predicts_constant(self):
        rng = np.random.default_rng(0)
        arr = sample_grid(rng, 200, sign="+")
        arr[:, 2] = 1.23
        with pytest.warns(Degenerate):
            model = train_mlp(arr)
        grid_cmd = rng.uniform(3, 100, 50)
        grid_v = rng.uniform(0, 3, 50)
        assert np.allclose(model.predict(grid_cmd, grid_v), 1.23, atol=1e-3)

    def test_noiseless_linear_function(self):
        rng = np.random.default_rng(1)
        n = 2000
        cmd = rng.uniform(5, 100, n)
        v = rng.uniform(0, 10, n)
        arr = np.column_stack([cmd, v, 0.02 * cmd - 0.05 * v])
        model = train_mlp(arr, MlpHyper(epochs=150, batch=256, seed=3))
        tc = rng.uniform(5, 100, 500)
        tv = rng.uniform(0, 10, 500)
        mae = np.abs(model.predict(tc, tv) - (0.02 * tc - 0.05 * tv)).mean()
        assert mae < 0.02

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        arr = sample_grid(rng, 400, sign="+", noise=0.05)
        m1 = train_mlp(arr, MlpHyper(seed=7))
        m2 = train_mlp(arr, MlpHyper(seed=7))
        for w1, w2 in zip(m1.weights, m2.weights):
            assert np.array_equal(w1, w2)
        assert m1.final_mse == m2.final_mse

    def test_loss_decreases(self):
        rng = np.random.default_rng(3)
        arr = sample_grid(rng, 1500, sign="+", noise=0.05)
        model = train_mlp(arr)
        assert model.final_mse <= model.first_epoch_mse

    def test_too_few_samples(self):
        rng = np.random.default_rng(4)
        with pytest.raises(TooFewSamples):
            train_mlp(sample_grid(rng, 20, sign="+"))

    @pytest.mark.parametrize(
        "n, hyper",
        [
            # n < 512: the 64-row batch floor, 300 = 4 x 64 + a partial 44
            pytest.param(300, MlpHyper(hidden=16, epochs=3, seed=0), id="floor-partial-h16"),
            pytest.param(300, MlpHyper(hidden=4, epochs=1, seed=1), id="floor-partial-h4"),
            # 256 = 4 x 64: the floor with whole batches only
            pytest.param(256, MlpHyper(hidden=4, epochs=3, seed=0), id="floor-whole"),
            # batch ceil(1000 / 8) = 125, 8 whole batches
            pytest.param(1000, MlpHyper(hidden=16, epochs=3, seed=1), id="eighth-whole"),
            # 1050 rows in batches of 100: a partial last batch of 50
            pytest.param(1050, MlpHyper(hidden=4, epochs=3, batch=100, seed=0), id="batch100-partial"),
            # the full 512-row batch: 4500 = 8 x 512 + a partial 404
            pytest.param(4500, MlpHyper(hidden=16, epochs=1, seed=1), id="batch512-partial"),
        ],
    )
    def test_equals_per_layer_reference(self, n, hyper):
        arr = sample_grid(np.random.default_rng(20 + n), n, sign="+", noise=0.05)
        assert_same_net(train_mlp(arr, hyper), _reference_train_mlp(arr, hyper))

    def test_degenerate_equals_per_layer_reference(self):
        arr = sample_grid(np.random.default_rng(21), 200, sign="+")
        arr[:, 2] = 0.7
        with pytest.warns(Degenerate):
            model = train_mlp(arr, MlpHyper(hidden=4))
        # w *= 0.0 keeps the sign of each initial weight as a signed zero
        assert any(np.signbit(w).any() for w in model.weights)
        assert_same_net(model, _reference_train_mlp(arr, MlpHyper(hidden=4)))

    def test_fits_share_no_buffer(self):
        rng = np.random.default_rng(22)
        first = train_mlp(sample_grid(rng, 300, sign="+", noise=0.05), MlpHyper(epochs=2))
        kept = [p.copy() for p in first.weights + first.biases]
        second = train_mlp(sample_grid(rng, 300, sign="-", noise=0.05), MlpHyper(epochs=2, seed=4))
        for p, q in zip(first.weights + first.biases, kept, strict=True):
            assert np.array_equal(p, q)
        for p in first.weights + first.biases:
            for q in second.weights + second.biases:
                assert not np.shares_memory(p, q)

    @pytest.mark.parametrize(
        "field, value",
        [
            pytest.param("lr", float("nan"), id="lr-nan"),
            pytest.param("lr", float("inf"), id="lr-inf"),
            pytest.param("lr", -1.0, id="lr-negative"),
            pytest.param("lr", 0.0, id="lr-zero"),
            pytest.param("epochs", 0, id="epochs-zero"),
            pytest.param("epochs", -3, id="epochs-negative"),
            pytest.param("epochs", 2.5, id="epochs-fraction"),
            pytest.param("batch", 0, id="batch-zero"),
            pytest.param("hidden", 0, id="hidden-zero"),
        ],
    )
    def test_invalid_hyper_raises(self, field, value):
        # before, these trained to NaN or diverged weights, returned an
        # untrained net, or died on a bare range() or divide-by-zero error
        with pytest.raises(ValueError, match=field):
            MlpHyper(**{field: value})


class TestPredict:
    def test_finite_on_grid_and_repeatable(self):
        rng = np.random.default_rng(6)
        model = train_mlp(sample_grid(rng, 800, sign="+", noise=0.05))
        cmds = np.linspace(-150, 150, 31)
        vs = np.linspace(-1, 5, 13)
        grid = model.predict(*np.meshgrid(cmds, vs))
        assert np.all(np.isfinite(grid))
        assert np.array_equal(grid, model.predict(*np.meshgrid(cmds, vs)))

    def test_near_symmetric_on_odd_function(self):
        rng = np.random.default_rng(7)
        n = 3000
        cmd = rng.uniform(-100, 100, n)
        v = np.zeros(n)
        arr = np.column_stack([cmd, v, 0.03 * cmd])
        model = train_mlp(arr, MlpHyper(epochs=150, batch=256))
        probe = np.linspace(10, 90, 9)
        plus = model.predict(probe, np.zeros_like(probe))
        minus = model.predict(-probe, np.zeros_like(probe))
        assert np.allclose(plus, -minus, atol=0.05)

    def test_mean_prediction_tracks_mean_target(self):
        rng = np.random.default_rng(8)
        arr = sample_grid(rng, 1000, sign="+", noise=0.05)
        model = train_mlp(arr)
        preds = model.predict(arr[:, 0], arr[:, 1])
        assert abs(preds.mean() - arr[:, 2].mean()) < 2 * arr[:, 2].std()


class TestTrainLinear:
    def test_exact_on_linear_data(self):
        rng = np.random.default_rng(9)
        cmd = rng.uniform(0, 100, 50)
        v = rng.uniform(0, 3, 50)
        arr = np.column_stack([cmd, v, 1.5 + 0.02 * cmd - 0.3 * v])
        model = train_linear(arr)
        assert np.allclose(model.w, [1.5, 0.02, -0.3], atol=1e-9)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(10)
        arr = sample_grid(rng, 300, noise=0.1)
        model = train_linear(arr)
        resid = model.predict(arr[:, 0], arr[:, 1]) - arr[:, 2]
        design = np.column_stack([np.ones(len(arr)), arr[:, 0], arr[:, 1]])
        assert np.all(np.abs(design.T @ resid) < 1e-6 * len(arr))

    def test_duplicate_point_is_singular(self):
        arr = np.tile([[10.0, 1.0, 0.5]], (5, 1))
        with pytest.raises(Singular):
            train_linear(arr)


class TestCrossValidate:
    def test_near_zero_error_for_own_function(self):
        rng = np.random.default_rng(11)
        cmd = rng.uniform(5, 100, 600)
        v = rng.uniform(0, 3, 600)
        arr = np.column_stack([cmd, v, 0.5 + 0.01 * cmd - 0.02 * v])
        report = cross_validate(arr, folds=5, kind="linear")
        assert report.mae < 1e-9

    def test_rmse_at_least_mae(self):
        rng = np.random.default_rng(12)
        arr = sample_grid(rng, 900, noise=0.08)
        for kind in ("linear", "nn"):
            report = cross_validate(
                arr, folds=4, kind=kind, hyper=MlpHyper(epochs=30, batch=256)
            )
            assert np.all(report.fold_rmse >= report.fold_mae - 1e-12)
            assert report.rmse >= report.mae - 1e-12

    def test_fold_assignment_reproducible(self):
        rng = np.random.default_rng(13)
        arr = sample_grid(rng, 700, noise=0.05)
        a = cross_validate(arr, folds=6, kind="linear", seed=5)
        b = cross_validate(arr, folds=6, kind="linear", seed=5)
        assert np.array_equal(a.fold_mae, b.fold_mae)
        assert np.array_equal(a.fold_rmse, b.fold_rmse)

    def test_workers_do_not_change_results(self):
        rng = np.random.default_rng(14)
        arr = sample_grid(rng, 800, noise=0.05)
        serial = cross_validate(arr, folds=4, kind="linear", seed=1, workers=1)
        parallel = cross_validate(arr, folds=4, kind="linear", seed=1, workers=2)
        assert np.array_equal(serial.fold_mae, parallel.fold_mae)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            cross_validate(np.array([[10.0, 1.0, 0.2]] * 4), folds=10, kind="linear")

    def test_nn_beats_linear_on_curved_data(self):
        rng = np.random.default_rng(15)
        arr = sample_grid(rng, 4000, noise=0.02)
        nn = cross_validate(arr, folds=4, kind="nn", seed=2,
                            hyper=MlpHyper(epochs=80, batch=512))
        lin = cross_validate(arr, folds=4, kind="linear", seed=2)
        assert nn.mae < lin.mae

    def test_training_never_sees_held_out_fold(self, monkeypatch):
        # intercept the fold jobs and check train/test row disjointness plus
        # full coverage of the dataset by the test folds
        import longcal.offline as offline_mod

        rng = np.random.default_rng(16)
        cmd = rng.uniform(5, 100, 400)
        v = rng.uniform(0, 3, 400)
        arr = np.column_stack([cmd, v, rng.normal(0, 1, 400)])  # rows all unique
        seen = []
        original = offline_mod._fold_metrics

        def spy(args):
            seen.append((args[0], args[1]))
            return original(args)

        monkeypatch.setattr(offline_mod, "_fold_metrics", spy)
        cross_validate(arr, folds=4, kind="linear", seed=0)
        all_test_rows = []
        for train, test in seen:
            train_keys = {tuple(row) for row in train}
            for row in test:
                assert tuple(row) not in train_keys
            all_test_rows.extend(tuple(row) for row in test)
        assert sorted(all_test_rows) == sorted(tuple(row) for row in arr)


class TestBuildTable:
    def test_constant_models_give_constant_columns(self):
        rng = np.random.default_rng(17)
        t_arr = sample_grid(rng, 120, sign="+")
        b_arr = sample_grid(rng, 120, sign="-")
        t_arr[:, 2] = 0.8
        b_arr[:, 2] = -1.2
        with pytest.warns(Degenerate):
            tm = train_mlp(t_arr)
        with pytest.warns(Degenerate):
            bm = train_mlp(b_arr)
        table = build_table(tm, bm, np.linspace(0, 3, 4), np.linspace(-100, 100, 9))
        # throttle rows constant at 0.8, brake rows constant at -1.2
        assert np.allclose(table.acc[-1], 0.8, atol=1e-3)
        assert np.allclose(table.acc[0], -1.2, atol=1e-3)
        assert table.is_monotone()

    def test_output_satisfies_table_invariants(self):
        rng = np.random.default_rng(18)
        tm = train_mlp(sample_grid(rng, 900, sign="+", noise=0.05))
        bm = train_mlp(sample_grid(rng, 900, sign="-", noise=0.05))
        table = build_table(tm, bm, np.linspace(0, 3, 16), np.linspace(-100, 100, 41))
        assert table.is_monotone()
        assert np.all(np.isfinite(table.acc))
        assert table.shape == (41, 16)

    def test_zero_row_blends_models(self):
        tm = LinearModel(w=np.array([0.4, 0.01, 0.0]))
        bm = LinearModel(w=np.array([-0.2, 0.01, 0.0]))
        table = build_table(bm_throttle := tm, bm, np.array([0.0, 1.0]), np.array([-10.0, 0.0, 10.0]))
        # blend of zero limits: 0.5*(0.4 + -0.2) = 0.1 (projection may pool)
        zero = np.zeros(1)
        raw_zero = 0.5 * (tm.predict(zero, zero) + bm.predict(zero, zero))
        assert raw_zero.shape == (1,)
        assert raw_zero[0] == pytest.approx(0.1)
        assert table.acc[1, 0] == pytest.approx(0.1, abs=0.2)


class TestSplitBySign:
    def test_deadband_excluded(self):
        arr = np.array([[1.5, 0.0, 0.0], [-1.5, 0.0, 0.0], [5.0, 0.0, 0.0], [-5.0, 0.0, 0.0]])
        throttle, brake = split_by_sign(arr)
        assert len(throttle) == 1 and throttle[0, 0] == 5.0
        assert len(brake) == 1 and brake[0, 0] == -5.0
