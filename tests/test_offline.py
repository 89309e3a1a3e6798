"""Offline regression models, cross-validation, and table construction."""

import numpy as np
import pytest

from longcal.offline import (
    CvReport,
    Degenerate,
    LinearModel,
    MlpHyper,
    RegressionSample,
    Singular,
    TooFewSamples,
    build_table,
    cross_validate,
    load_model,
    save_model,
    split_by_sign,
    train_linear,
    train_mlp,
)
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

    def test_accepts_regression_samples(self):
        rng = np.random.default_rng(5)
        arr = sample_grid(rng, 120, sign="+")
        samples = [RegressionSample(*row) for row in arr]
        model = train_mlp(samples)
        assert np.isfinite(model.final_mse)


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
        raw_zero = 0.5 * (tm.predict(0.0, 0.0) + bm.predict(0.0, 0.0))
        assert raw_zero == pytest.approx(0.1)
        assert table.acc[1, 0] == pytest.approx(0.1, abs=0.2)


class TestSplitBySign:
    def test_deadband_excluded(self):
        arr = np.array([[1.5, 0.0, 0.0], [-1.5, 0.0, 0.0], [5.0, 0.0, 0.0], [-5.0, 0.0, 0.0]])
        throttle, brake = split_by_sign(arr)
        assert len(throttle) == 1 and throttle[0, 0] == 5.0
        assert len(brake) == 1 and brake[0, 0] == -5.0


class TestModelRoundTrip:
    def test_mlp_round_trip(self):
        rng = np.random.default_rng(19)
        model = train_mlp(sample_grid(rng, 300, sign="+", noise=0.02))
        clone = load_model(save_model(model))
        probe_cmd = rng.uniform(0, 100, 40)
        probe_v = rng.uniform(0, 3, 40)
        assert np.array_equal(
            model.predict(probe_cmd, probe_v), clone.predict(probe_cmd, probe_v)
        )

    def test_linear_round_trip(self):
        model = LinearModel(w=np.array([0.123456789123, -0.02, 0.5]))
        clone = load_model(save_model(model))
        assert np.array_equal(model.w, clone.w)
