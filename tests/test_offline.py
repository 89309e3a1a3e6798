"""Offline regression models, cross-validation, and table construction."""

import warnings
import weakref
from dataclasses import dataclass

import numpy as np
import pytest

import longcal.offline as offline_mod
from longcal import preprocess, simulator
from longcal.offline import (
    BATCH,
    EPOCHS,
    HIDDEN,
    LR,
    CvReport,
    Degenerate,
    MlpHyper,
    MlpModel,
    TooFewSamples,
    build_table,
    cross_validate,
    split_by_sign,
    train_mlp,
)
from longcal.offline import _sigmoid, as_sample_array
from longcal.table import CalibrationTable, lookup_acc, project_monotone


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


@dataclass
class Plane:
    """acc = w0 + w1 cmd + w2 v: the tests' least-squares reference model."""

    w: np.ndarray

    def predict(self, cmd, v):
        return self.w[0] + self.w[1] * np.asarray(cmd, dtype=float) + self.w[2] * np.asarray(v, dtype=float)


def fit_plane(arr):
    design = np.column_stack([np.ones(len(arr)), arr[:, 0], arr[:, 1]])
    return Plane(np.linalg.lstsq(design, arr[:, 2], rcond=None)[0])


def plane_fit_both_signs(train, seed):
    """``_fit_both_signs`` with a plane per sign in place of the networks."""
    return tuple(fit_plane(rows) if len(rows) else None for rows in split_by_sign(train))


def no_fit(*args):
    raise AssertionError("a fold was fitted")


def _reference_train_mlp(samples, hyper=None, dtype=np.float32):
    """``train_mlp`` with a separate Adam update per weight and bias array.

    The reference for the flat-buffer trainer, which must give bit-identical
    nets: same initialisation, shuffling and batches, standardisation in
    float64 cast once to ``dtype``, and per element the same operations in
    the same order.  At ``dtype=np.float64`` it is the float64 tolerance
    reference: at the default width its nets are byte-equal to those of the
    same flat-buffer trainer run in float64, on the 1200 s logs below too.
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

    sizes = [2, HIDDEN, HIDDEN, 1]
    rng = np.random.default_rng(hyper.seed)
    weights = [
        rng.normal(0.0, 1.0 / np.sqrt(sizes[i]), size=(sizes[i], sizes[i + 1])).astype(dtype)
        for i in range(3)
    ]
    biases = [np.zeros(sizes[i + 1], dtype=dtype) for i in range(3)]
    model = MlpModel(weights, biases, x_mean, x_std, y_mean, y_std)
    if y_std == 0.0:
        for w in weights:
            w *= 0.0
        model.first_epoch_mse = model.final_mse = 0.0
        return model

    X = ((X_raw - x_mean) / x_std).astype(dtype)
    y = ((y_raw - y_mean) / y_std).astype(dtype)
    m_w = [np.zeros_like(w) for w in weights]
    v_w = [np.zeros_like(w) for w in weights]
    m_b = [np.zeros_like(b) for b in biases]
    v_b = [np.zeros_like(b) for b in biases]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    batch = int(min(BATCH, max(64, np.ceil(len(X) / 8))))

    def full_mse():
        a1 = _sigmoid(X @ weights[0] + biases[0])
        a2 = _sigmoid(a1 @ weights[1] + biases[1])
        return float(((a2 @ weights[2] + biases[2] - y) ** 2).mean())

    for epoch in range(EPOCHS):
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
                weights[i] -= LR * (m_w[i] / c1) / (np.sqrt(v_w[i] / c2) + eps)
                m_b[i] = beta1 * m_b[i] + (1.0 - beta1) * grads_b[i]
                v_b[i] = beta2 * v_b[i] + (1.0 - beta2) * grads_b[i] ** 2
                biases[i] -= LR * (m_b[i] / c1) / (np.sqrt(v_b[i] / c2) + eps)
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
        model = train_mlp(arr, MlpHyper(seed=3))
        tc = rng.uniform(5, 100, 500)
        tv = rng.uniform(0, 10, 500)
        mae = np.abs(model.predict(tc, tv) - (0.02 * tc - 0.05 * tv)).mean()
        assert mae < 0.02

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        arr = sample_grid(rng, 400, sign="+", noise=0.05)
        m1 = train_mlp(arr, MlpHyper(seed=7))
        m2 = train_mlp(arr, MlpHyper(seed=np.int64(7)))
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
        "n, seed",
        [
            # n < 512: the 64-row batch floor, 300 = 4 x 64 + a partial 44
            pytest.param(300, 0, id="floor-partial"),
            pytest.param(300, 1, id="floor-partial-seed1"),
            # 256 = 4 x 64: the floor with whole batches only
            pytest.param(256, 0, id="floor-whole"),
            # batch ceil(1000 / 8) = 125, 8 whole batches
            pytest.param(1000, 1, id="eighth-whole"),
            pytest.param(1000, 4, id="eighth-whole-seed4"),
            pytest.param(1000, 5, id="eighth-whole-seed5"),
            # batch ceil(1050 / 8) = 132: 7 x 132 + a partial 126
            pytest.param(1050, 0, id="eighth-partial"),
            pytest.param(1050, 2, id="eighth-partial-seed2"),
            pytest.param(1050, 3, id="eighth-partial-seed3"),
            # the full 512-row batch: 4500 = 8 x 512 + a partial 404
            pytest.param(4500, 1, id="batch512-partial"),
            # 4097 = 8 x 512 + a 1-row last batch, which numpy routes to gemv
            pytest.param(4097, 0, id="batch512-one-row"),
        ],
    )
    def test_equals_per_layer_reference(self, n, seed):
        arr = sample_grid(np.random.default_rng(20 + n), n, sign="+", noise=0.05)
        hyper = MlpHyper(seed=seed)
        assert_same_net(train_mlp(arr, hyper), _reference_train_mlp(arr, hyper))

    def test_degenerate_equals_per_layer_reference(self):
        arr = sample_grid(np.random.default_rng(21), 200, sign="+")
        arr[:, 2] = 0.7
        with pytest.warns(Degenerate):
            model = train_mlp(arr)
        # w *= 0.0 keeps the sign of each initial weight as a signed zero
        assert any(np.signbit(w).any() for w in model.weights)
        assert_same_net(model, _reference_train_mlp(arr))

    def test_fits_share_no_buffer(self):
        rng = np.random.default_rng(22)
        first = train_mlp(sample_grid(rng, 300, sign="+", noise=0.05))
        kept = [p.copy() for p in first.weights + first.biases]
        second = train_mlp(sample_grid(rng, 300, sign="-", noise=0.05), MlpHyper(seed=4))
        for p, q in zip(first.weights + first.biases, kept, strict=True):
            assert np.array_equal(p, q)
        for p in first.weights + first.biases:
            for q in second.weights + second.biases:
                assert not np.shares_memory(p, q)

    @pytest.mark.parametrize(
        "seed",
        [
            # bool is an int subclass: seed=True would train as seed 1
            pytest.param(True, id="bool"),
            # -1 and 1.5 failed only inside train_mlp, with numpy's error
            pytest.param(-1, id="negative"),
            pytest.param(1.5, id="fraction"),
        ],
    )
    def test_bad_seed_raises(self, seed):
        with pytest.raises(ValueError, match="seed"):
            MlpHyper(seed=seed)


class TestSigmoid:
    def test_float32_saturates_to_exact_zero_and_one_without_warning(self):
        # exp(-z) overflows float32 once z is below about -88.7
        z = np.array([-1e4, -100.0, 100.0, 1e4], dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _sigmoid(z)
        assert out.dtype == np.float32
        assert out.tolist() == [0.0, 0.0, 1.0, 1.0]


def short_log_samples():
    """The cleaned samples of a 120 s seed-0 ax1 log."""
    config = simulator.ax1(load=0.0)
    log = simulator.generate_drive_log(config, 120.0, seed=0)
    return preprocess.offline_pipeline(log, *config.table_grids()).to_samples()


def drive_samples(preset):
    """The cleaned samples of the 1200 s seed-0 log of ``preset`` and its grids."""
    config = simulator.PRESETS[preset](load=0.0)
    log = simulator.generate_drive_log(config, 1200.0, seed=0)
    grids = config.table_grids()
    return preprocess.offline_pipeline(log, *grids).to_samples(), grids


def _reference_build_table(throttle_model, brake_model, speed_grid, cmd_grid):
    """``build_table`` with one ``predict`` per command row, and two for the zero row."""
    acc = np.empty((len(cmd_grid), len(speed_grid)))
    for i, cmd in enumerate(cmd_grid):
        if cmd > 0:
            acc[i] = throttle_model.predict(np.full_like(speed_grid, cmd), speed_grid)
        elif cmd < 0:
            acc[i] = brake_model.predict(np.full_like(speed_grid, cmd), speed_grid)
        else:
            zero = np.zeros_like(speed_grid)
            acc[i] = 0.5 * (
                throttle_model.predict(zero, speed_grid) + brake_model.predict(zero, speed_grid)
            )
    return project_monotone(CalibrationTable(speed_grid, cmd_grid, acc))


def float64_train_mlp(samples, hyper=None):
    return _reference_train_mlp(samples, hyper, dtype=np.float64)


class TestFloat32AgainstFloat64:
    """``train_mlp`` trains in float32; the float64 trainer is the tolerance reference.

    Both tolerances were set before the trainer moved to float32.  Measured:
    the tables differ by at most 1.2e-6 m/s^2 on ax1 and 8.5e-7 on mkz, and
    ``cv_mae`` by 3.5e-7 relative on ax1 (1.1e-6 on mkz, where 10-fold CV
    is left out here for its 25 s).
    """

    @pytest.mark.parametrize("preset", ["ax1", "mkz"])
    def test_table_within_1e5_of_float64(self, preset):
        samples, (cmd_grid, speed_grid) = drive_samples(preset)
        throttle, brake = split_by_sign(samples)

        def table(train):
            t_model = train(throttle, MlpHyper(seed=0))
            b_model = train(brake, MlpHyper(seed=1))
            return build_table(t_model, b_model, speed_grid, cmd_grid)

        f32, f64 = table(train_mlp), table(float64_train_mlp)
        assert f32.acc.dtype == np.float64
        assert np.abs(f32.acc - f64.acc).max() <= 1e-5

    def test_ax1_cv_mae_within_1e4_relative_of_float64(self, monkeypatch):
        samples, _ = drive_samples("ax1")
        f32 = cross_validate(samples, folds=10, kind="nn").mae
        monkeypatch.setattr(offline_mod, "train_mlp", float64_train_mlp)
        f64 = cross_validate(samples, folds=10, kind="nn").mae
        assert f32 == pytest.approx(f64, rel=1e-4, abs=0.0)


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
        model = train_mlp(arr)
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


class TestCrossValidate:
    def test_near_zero_error_for_own_function(self, monkeypatch):
        # each fold's plane is fitted on its training rows and scored on the
        # held-out ones, so exact planar data leaves only rounding
        monkeypatch.setattr(offline_mod, "_fit_both_signs", plane_fit_both_signs)
        rng = np.random.default_rng(11)
        cmd = rng.uniform(5, 100, 600)
        v = rng.uniform(0, 3, 600)
        arr = np.column_stack([cmd, v, 0.5 + 0.01 * cmd - 0.02 * v])
        report = cross_validate(arr, folds=5)
        assert report.mae < 1e-9

    def test_rmse_at_least_mae(self):
        rng = np.random.default_rng(12)
        arr = sample_grid(rng, 900, noise=0.08)
        report = cross_validate(arr, folds=4)
        assert np.all(report.fold_rmse >= report.fold_mae - 1e-12)
        assert report.rmse >= report.mae - 1e-12

    def test_fold_assignment_reproducible(self):
        rng = np.random.default_rng(13)
        arr = sample_grid(rng, 700, noise=0.05)
        a = cross_validate(arr, folds=6, seed=5)
        b = cross_validate(arr, folds=6, seed=5)
        assert np.array_equal(a.fold_mae, b.fold_mae)
        assert np.array_equal(a.fold_rmse, b.fold_rmse)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_equals_per_fold_reference(self, seed):
        # the folds, seeds and scores written out fold by fold
        samples = short_log_samples()
        arr = samples[np.abs(samples[:, 0]) > offline_mod.DEADBAND_CMD]
        assignment = np.random.default_rng(seed).permutation(len(arr)) % 4
        mae, rmse = [], []
        for k in range(4):
            train, test = arr[assignment != k], arr[assignment == k]
            fold_seed = seed + 1000 * (k + 1)
            throttle, brake = split_by_sign(train)
            t_model = train_mlp(throttle, MlpHyper(seed=fold_seed))
            b_model = train_mlp(brake, MlpHyper(seed=fold_seed + 1))
            pos = test[:, 0] > 0
            pred = np.empty(len(test))
            pred[pos] = t_model.predict(test[pos, 0], test[pos, 1])
            pred[~pos] = b_model.predict(test[~pos, 0], test[~pos, 1])
            err = pred - test[:, 2]
            mae.append(np.abs(err).mean())
            rmse.append(np.sqrt((err**2).mean()))
        report = cross_validate(samples, folds=4, seed=seed)
        assert report.fold_mae.tobytes() == np.array(mae).tobytes()
        assert report.fold_rmse.tobytes() == np.array(rmse).tobytes()

    def test_one_worker_holds_one_fold_at_a_time(self, monkeypatch):
        previous, current = [], []

        def fit_spy(train, seed):
            # the last fold's train and test copies are gone by this fit
            assert all(ref() is None for ref in previous)
            current[:] = [weakref.ref(train)]
            return plane_fit_both_signs(train, seed)

        def predict_spy(t_model, b_model, test):
            previous[:] = current + [weakref.ref(test)]
            return original_predict(t_model, b_model, test)

        original_predict = offline_mod._predict_signed
        monkeypatch.setattr(offline_mod, "_fit_both_signs", fit_spy)
        monkeypatch.setattr(offline_mod, "_predict_signed", predict_spy)
        arr = sample_grid(np.random.default_rng(23), 400, noise=0.05)
        report = cross_validate(arr, folds=5)
        assert len(report.fold_mae) == 5
        assert len(previous) == 2

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            cross_validate(np.array([[10.0, 1.0, 0.2]] * 4), folds=10)

    @pytest.mark.parametrize("folds", [0, 1, -3, 2.5, True])
    def test_bad_fold_count_raises(self, folds, monkeypatch):
        # before, 0 and -3 gave mae nan with numpy warnings, and 1 raised a
        # misleading TooFewSamples about missing throttle training data
        monkeypatch.setattr(offline_mod, "_fit_both_signs", no_fit)
        arr = sample_grid(np.random.default_rng(19), 200, noise=0.05)
        with pytest.raises(ValueError, match="folds"):
            cross_validate(arr, folds=folds)

    @pytest.mark.parametrize("seed", [True, -1, 1.5])
    def test_bad_seed_raises(self, seed, monkeypatch):
        # none may run: True as seed 1, the others as numpy errors that do
        # not name the seed
        monkeypatch.setattr(offline_mod, "_fit_both_signs", no_fit)
        arr = sample_grid(np.random.default_rng(19), 200, noise=0.05)
        with pytest.raises(ValueError, match="seed"):
            cross_validate(arr, folds=4, seed=seed)

    # "linear" fitted a least-squares plane, and "bogus" raised only at the
    # first fit
    @pytest.mark.parametrize("kind", ["linear", "bogus", "NN"])
    def test_bad_kind_raises(self, kind, monkeypatch):
        monkeypatch.setattr(offline_mod, "_fit_both_signs", no_fit)
        arr = sample_grid(np.random.default_rng(19), 200, noise=0.05)
        with pytest.raises(ValueError, match="^kind"):
            cross_validate(arr, folds=4, kind=kind)

    @pytest.mark.parametrize(
        "workers",
        [
            # each ran the folds one after another
            pytest.param(0, id="zero"),
            pytest.param(-1, id="negative"),
            pytest.param(True, id="bool"),
            pytest.param(np.True_, id="numpy-bool"),
            # these fanned the folds out over a process pool, or failed in it
            pytest.param(2, id="two"),
            pytest.param(2.5, id="fraction"),
        ],
    )
    def test_bad_workers_raises(self, workers, monkeypatch):
        monkeypatch.setattr(offline_mod, "_fit_both_signs", no_fit)
        arr = sample_grid(np.random.default_rng(19), 200, noise=0.05)
        with pytest.raises(ValueError, match="^workers"):
            cross_validate(arr, folds=4, workers=workers)

    def test_nn_beats_linear_on_curved_data(self, monkeypatch):
        # against a least-squares plane per sign on the same folds
        rng = np.random.default_rng(15)
        arr = sample_grid(rng, 4000, noise=0.02)
        nn = cross_validate(arr, folds=4, seed=2)
        monkeypatch.setattr(offline_mod, "_fit_both_signs", plane_fit_both_signs)
        lin = cross_validate(arr, folds=4, seed=2)
        assert nn.mae < lin.mae

    def test_training_never_sees_held_out_fold(self, monkeypatch):
        # intercept the folds' training and held-out rows and check their
        # disjointness plus full coverage of the dataset by the test folds
        rng = np.random.default_rng(16)
        cmd = rng.uniform(5, 100, 400)
        v = rng.uniform(0, 3, 400)
        arr = np.column_stack([cmd, v, rng.normal(0, 1, 400)])  # rows all unique
        trains, tests = [], []
        original_predict = offline_mod._predict_signed

        def fit_spy(train, seed):
            trains.append(train)
            return plane_fit_both_signs(train, seed)

        def predict_spy(t_model, b_model, test):
            tests.append(test)
            return original_predict(t_model, b_model, test)

        monkeypatch.setattr(offline_mod, "_fit_both_signs", fit_spy)
        monkeypatch.setattr(offline_mod, "_predict_signed", predict_spy)
        cross_validate(arr, folds=4, seed=0)
        assert len(trains) == len(tests) == 4
        all_test_rows = []
        for train, test in zip(trains, tests):
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
        tm = Plane(w=np.array([0.4, 0.01, 0.0]))
        bm = Plane(w=np.array([-0.2, 0.01, 0.0]))
        speed_grid = np.array([0.0, 1.0])
        table = build_table(tm, bm, speed_grid, np.array([-10.0, 0.0, 10.0]))
        # the rows -0.3, 0.1 and 0.5 are already monotone, so nothing pools
        zero = np.zeros_like(speed_grid)
        blend = 0.5 * (tm.predict(zero, speed_grid) + bm.predict(zero, speed_grid))
        assert table.acc[1].tobytes() == blend.tobytes()

    @pytest.mark.parametrize("preset, atol", [("ax1", 0.0), ("mkz", 1e-12)])
    def test_equals_per_row_reference(self, preset, atol):
        # one predict per sign sums each matmul over more rows than one per
        # command row; on mkz's 51 speeds OpenBLAS dgemm then rounds the
        # last bit differently (measured at most 1.8e-15 m/s^2)
        samples, (cmd_grid, speed_grid) = drive_samples(preset)
        throttle, brake = split_by_sign(samples)
        tm = train_mlp(throttle, MlpHyper(seed=0))
        bm = train_mlp(brake, MlpHyper(seed=1))
        table = build_table(tm, bm, speed_grid, cmd_grid)
        ref = _reference_build_table(tm, bm, speed_grid, cmd_grid)
        if atol == 0.0:
            assert table.acc.tobytes() == ref.acc.tobytes()
        else:
            assert np.abs(table.acc - ref.acc).max() <= atol


class TestSplitBySign:
    def test_deadband_excluded(self):
        arr = np.array([[1.5, 0.0, 0.0], [-1.5, 0.0, 0.0], [5.0, 0.0, 0.0], [-5.0, 0.0, 0.0]])
        throttle, brake = split_by_sign(arr)
        assert len(throttle) == 1 and throttle[0, 0] == 5.0
        assert len(brake) == 1 and brake[0, 0] == -5.0
