import dataclasses
import hashlib
import json

import numpy as np
import pytest

from copaug import emulator, rng
from copaug.dataset import LevelGrid, SchemaError, generate_surrogate
from copaug.emulator import (
    AdamState,
    MLPLayout,
    MLPModel,
    Normalizer,
    TrainConfig,
    forward,
    huber_loss,
    init_mlp,
    load_mlp,
    loss_and_grads,
    predict_set,
    save_mlp,
    train,
)
from copaug.radiation import radiate_set


class TestInit:
    def test_weight_bounds_per_layer(self):
        m = init_mlp(MLPLayout(9, (4,), 4), seed=5)
        assert np.abs(m.weights[0]).max() <= 1.0 / 3.0   # fan_in 9
        assert np.abs(m.weights[1]).max() <= 0.5          # fan_in 4

    def test_biases_zero(self):
        m = init_mlp(MLPLayout(6, (3, 3), 2), seed=1)
        assert all(np.array_equal(b, np.zeros_like(b)) for b in m.biases)

    def test_deterministic(self):
        a = init_mlp(MLPLayout(5, (7,), 2), seed=9)
        b = init_mlp(MLPLayout(5, (7,), 2), seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            MLPLayout(0, (4,), 2)


class TestForward:
    def test_zero_network(self):
        lay = MLPLayout(3, (4,), 2)
        m = MLPModel(lay, np.zeros(3 * 4 + 4 + 4 * 2 + 2), Normalizer(np.zeros(3), np.ones(3)))
        np.testing.assert_array_equal(forward(m, np.ones((1, 3))), np.zeros((1, 2)))

    def test_affine_single_layer(self):
        m = MLPModel(MLPLayout(1, (), 1), np.array([2.0, 1.0]), Normalizer(np.zeros(1), np.ones(1)))
        assert forward(m, np.array([[3.0]])) == 7.0

    def test_elu_branch_values(self):
        # 1-1-1 identity network: the output is ELU of the input.
        m = MLPModel(MLPLayout(1, (1,), 1), np.array([1.0, 0.0, 1.0, 0.0]),
                     Normalizer(np.zeros(1), np.ones(1)))
        np.testing.assert_array_equal(forward(m, np.array([[-1.0], [2.5]])), [[np.expm1(-1.0)], [2.5]])

    def test_width_mismatch(self):
        m = init_mlp(MLPLayout(4, (3,), 2), 0)
        with pytest.raises(ValueError, match="features"):
            forward(m, np.ones(5))

    def test_row_vector_rejected(self):
        m = init_mlp(MLPLayout(4, (3,), 2), 0)
        with pytest.raises(ValueError, match=r"expected an \(n, 4\) matrix"):
            forward(m, np.ones(4))


class TestHuber:
    def test_zero_at_match(self):
        x = np.random.default_rng(0).normal(size=(4, 3))
        assert huber_loss(x, x, 1.0) == 0.0

    def test_quadratic_branch(self):
        assert huber_loss(np.array([0.5]), np.array([0.0]), 1.0) == 0.125

    def test_linear_branch(self):
        assert huber_loss(np.array([3.0]), np.array([0.0]), 1.0) == 2.5

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            huber_loss(np.zeros(3), np.zeros(4), 1.0)


class TestGradients:
    def test_matches_central_differences(self):
        gen = np.random.default_rng(3)
        m = init_mlp(MLPLayout(9, (8, 8), 4), seed=17)
        x = gen.normal(size=(6, 9))
        y = gen.normal(size=(6, 4))
        _, gw, gb = loss_and_grads(m, x, y, 1.0)
        h = 1e-5
        worst = 0.0
        for params, grads in ((m.weights, gw), (m.biases, gb)):
            for k, p in enumerate(params):
                flat = p.ravel()
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    lp, _, _ = loss_and_grads(m, x, y, 1.0)
                    flat[idx] = orig - h
                    lm, _, _ = loss_and_grads(m, x, y, 1.0)
                    flat[idx] = orig
                    fd = (lp - lm) / (2 * h)
                    denom = max(abs(fd), abs(grads[k].ravel()[idx]), 1e-8)
                    worst = max(worst, abs(fd - grads[k].ravel()[idx]) / denom)
        assert worst < 1e-4

    def test_gradients_fill_flat_vector_in_layer_order(self):
        gen = np.random.default_rng(4)
        m = init_mlp(MLPLayout(5, (4, 3), 2), seed=8)
        x, y = gen.normal(size=(7, 5)), gen.normal(size=(7, 2))
        loss, gw, gb = loss_and_grads(m, x, y, 1.0)
        out = np.full(5 * 4 + 4 + 4 * 3 + 3 + 3 * 2 + 2, np.nan)
        loss2, gw2, gb2 = loss_and_grads(m, x, y, 1.0, out=out)
        assert loss2 == loss
        expected = np.concatenate([g.ravel() for pair in zip(gw, gb) for g in pair])
        assert out.tobytes() == expected.tobytes()
        assert all(np.shares_memory(g, out) for g in gw2 + gb2)
        assert [g.shape for g in gw2] == [(5, 4), (4, 3), (3, 2)]

    def test_loss_takes_normalized_input(self):
        # A trained model's normalizer is not the identity; loss_and_grads
        # must not apply it a second time.
        gen = np.random.default_rng(9)
        x = 50.0 + 10.0 * gen.normal(size=(24, 3))
        y = gen.normal(size=(24, 2))
        m = train(init_mlp(MLPLayout(3, (6,), 2), 3), x, y, x, y,
                  TrainConfig(epochs=3, patience=3, batch_size=8, seed=5))
        assert not np.array_equal(m.normalizer.mean, np.zeros(3))
        loss, _, _ = loss_and_grads(m, m.normalizer.apply(x), y, 1.0)
        assert loss == huber_loss(forward(m, x), y, 1.0)

    def test_adam_zero_gradient_is_noop(self):
        m = init_mlp(MLPLayout(3, (4,), 2), 1)
        before = m.params.copy()
        state = AdamState(m.params)
        state.step(m.params, np.zeros_like(m.params), TrainConfig())
        assert m.params.tobytes() == before.tobytes()


class TestTraining:
    def test_overfits_tiny_dataset(self):
        gen = np.random.default_rng(5)
        x = gen.normal(size=(10, 4))
        y = gen.normal(size=(10, 2))
        cfg = TrainConfig(epochs=2000, patience=2000, batch_size=10,
                          learning_rate=3e-3, seed=7)
        m = train(init_mlp(MLPLayout(4, (32, 32), 2), 3), x, y, x, y, cfg)
        assert np.abs(forward(m, x) - y).mean() < 1e-2

    def test_early_stopping_and_restoration(self):
        gen = np.random.default_rng(2)
        x = gen.normal(size=(64, 3))
        y = x @ gen.normal(size=(3, 2)) + 0.1 * gen.normal(size=(64, 2))
        vx = gen.normal(size=(32, 3))
        vy = vx @ np.zeros((3, 2))  # mismatched validation forces a plateau
        cfg = TrainConfig(epochs=500, patience=10, batch_size=16, seed=4)
        m = train(init_mlp(MLPLayout(3, (8,), 2), 1), x, y, vx, vy, cfg)
        n_epochs = len(m.history["val"])
        assert n_epochs < 500
        assert m.best_epoch <= n_epochs - 1
        assert n_epochs - 1 - m.best_epoch >= 10  # ran out the patience window
        # Returned weights reproduce the minimum recorded validation loss.
        val = huber_loss(forward(m, vx), vy, cfg.huber_delta)
        assert val == min(m.history["val"])

    def test_bitwise_deterministic(self):
        gen = np.random.default_rng(6)
        x = gen.normal(size=(30, 3))
        y = gen.normal(size=(30, 2))
        cfg = TrainConfig(epochs=20, patience=20, batch_size=8, seed=11)
        a = train(init_mlp(MLPLayout(3, (6,), 2), 2), x, y, x, y, cfg)
        b = train(init_mlp(MLPLayout(3, (6,), 2), 2), x, y, x, y, cfg)
        assert a.history == b.history
        assert all(np.array_equal(w1, w2) for w1, w2 in zip(a.weights, b.weights))

    # Weights (sha256 of each layer's W then b bytes) and histories of the
    # layer-by-layer implementation, before parameters moved into one flat
    # vector; training must reproduce them bit for bit.
    HISTORY_A = {
        "train": [
            0.47636456431797997, 0.47313742309174267, 0.4701534857329769,
            0.4680295399491609, 0.4652172295916851, 0.46381284703785836,
            0.4611957880203134, 0.45889978450036545, 0.4570556015652522,
            0.4543743626334712, 0.45284896326212176, 0.45086358768125984,
            0.4490043924694401, 0.44738730125681836, 0.4455483290762517,
            0.44435503843562996, 0.4422879991027153, 0.4414061453793688,
            0.4395818366365989, 0.43866378514834065,
        ],
        "val": [
            0.47384412337573545, 0.471240941013023, 0.4690030637054904,
            0.4665247970933227, 0.4642079023279568, 0.46174836059013696,
            0.45948309968594747, 0.4573340751757039, 0.45519600525068254,
            0.4533358304851441, 0.4514003051664478, 0.4495968542350497,
            0.4478448679163709, 0.4461120771236532, 0.4445476233945944,
            0.4429382623355103, 0.4415757873534492, 0.44009783119341356,
            0.4388346701003876, 0.43749645396100717,
        ],
    }

    @staticmethod
    def _weights_sha256(m):
        h = hashlib.sha256()
        for w, b in zip(m.weights, m.biases):
            h.update(np.ascontiguousarray(w).tobytes())
            h.update(np.ascontiguousarray(b).tobytes())
        return h.hexdigest()

    def test_matches_recorded_training_one_hidden_layer(self):
        gen = np.random.default_rng(6)
        x = gen.normal(size=(30, 3))
        y = gen.normal(size=(30, 2))
        cfg = TrainConfig(epochs=20, patience=20, batch_size=8, seed=11)
        m = train(init_mlp(MLPLayout(3, (6,), 2), 2), x, y, x, y, cfg)
        assert m.history == self.HISTORY_A
        assert m.best_epoch == 19
        assert self._weights_sha256(m) == "1a9854ec431eed77da36a660b3d05e16cf11821f26f5d5354e62feaaa4877497"

    def test_matches_recorded_training_early_stop(self):
        gen = np.random.default_rng(21)
        x, y = gen.normal(size=(45, 5)), gen.normal(size=(45, 3))
        vx, vy = gen.normal(size=(12, 5)), gen.normal(size=(12, 3))
        cfg = TrainConfig(epochs=30, patience=5, batch_size=16, seed=4, learning_rate=3e-3)
        m = train(init_mlp(MLPLayout(5, (7, 6), 3), 9), x, y, vx, vy, cfg)
        assert (m.best_epoch, len(m.history["val"])) == (14, 20)
        history = hashlib.sha256(json.dumps(m.history).encode()).hexdigest()
        assert history == "3a198b6c526f26c937b789a0b8b1f1262e6534bb45acfbc59ee01a633866b5bb"
        assert self._weights_sha256(m) == "2b3db6e3d057fc0e398600e490086234e40a16a2ab4a1be2d9738a94a7ca5ea4"

    def test_call_counts_per_batch_and_epoch(self, monkeypatch):
        calls = {"loss_and_grads": 0, "step": 0, "permutation": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(emulator, "loss_and_grads", counted("loss_and_grads", emulator.loss_and_grads))
        monkeypatch.setattr(emulator.AdamState, "step", counted("step", emulator.AdamState.step))
        monkeypatch.setattr(rng, "permutation", counted("permutation", rng.permutation))
        gen = np.random.default_rng(3)
        x, y = gen.normal(size=(30, 3)), gen.normal(size=(30, 2))
        cfg = TrainConfig(epochs=7, patience=7, batch_size=8, seed=2)
        m = train(init_mlp(MLPLayout(3, (6, 5), 2), 1), x, y, x, y, cfg)
        epochs = len(m.history["train"])
        assert epochs == 7
        assert calls == {"loss_and_grads": 4 * epochs, "step": 4 * epochs, "permutation": epochs}

    def test_input_model_not_mutated(self):
        gen = np.random.default_rng(8)
        x = gen.normal(size=(20, 3))
        y = gen.normal(size=(20, 2))
        m0 = init_mlp(MLPLayout(3, (5,), 2), 4)
        snapshot = [w.copy() for w in m0.weights]
        train(m0, x, y, x, y, TrainConfig(epochs=3, patience=3, batch_size=8, seed=1))
        assert all(np.array_equal(a, b) for a, b in zip(snapshot, m0.weights))

    def test_patience_cannot_exceed_epochs(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=10, patience=25)


class TestParams:
    LAYOUT = MLPLayout(3, (5, 4), 2)
    N_PARAMS = 3 * 5 + 5 + 5 * 4 + 4 + 4 * 2 + 2

    def _model(self, source, tmp_path):
        m = init_mlp(self.LAYOUT, 4)
        if source == "init":
            return m
        x = np.random.default_rng(9).normal(size=(20, 3))
        m = train(m, x, x[:, :2], x, x[:, :2], TrainConfig(epochs=3, patience=3, batch_size=8, seed=3))
        if source == "train":
            return m
        save_mlp(tmp_path / "mlp.json", m)
        return load_mlp(tmp_path / "mlp.json")

    @pytest.mark.parametrize("source", ["init", "train", "load"])
    def test_weights_and_biases_are_views_of_params(self, source, tmp_path):
        m = self._model(source, tmp_path)
        assert m.params.shape == (self.N_PARAMS,) and m.params.dtype == np.float64
        assert m.params.flags.c_contiguous
        assert all(np.shares_memory(p, m.params) for p in m.weights + m.biases)
        layers = np.concatenate([p.ravel() for pair in zip(m.weights, m.biases) for p in pair])
        assert layers.tobytes() == m.params.tobytes()
        assert [w.shape for w in m.weights] == [(3, 5), (5, 4), (4, 2)]

    @pytest.mark.parametrize("shape", [(N_PARAMS - 1,), (N_PARAMS + 1,), (N_PARAMS, 1)])
    def test_wrong_length_rejected(self, shape):
        with pytest.raises(ValueError):
            MLPModel(self.LAYOUT, np.zeros(shape), Normalizer(np.zeros(3), np.ones(3)))

    def test_frozen(self):
        m = init_mlp(self.LAYOUT, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.params = np.zeros(self.N_PARAMS)


class TestPredictSet:
    def test_output_width_paper_grid(self):
        s = radiate_set(generate_surrogate(3, LevelGrid(137), 1))
        m = init_mlp(MLPLayout(411, (4,), 138), 0)
        pred = predict_set(m, s)
        assert pred.values.shape == (3, 138)
        assert pred.columns[0] == "L_0" and pred.columns[-1] == "L_137"

    def test_row_permutation_equivariance(self):
        s = generate_surrogate(6, LevelGrid(5), 2)
        m = init_mlp(MLPLayout(15, (4,), 6), 1)
        perm = [5, 3, 0, 1, 4, 2]
        np.testing.assert_array_equal(
            predict_set(m, s.subset(perm)).values, predict_set(m, s).values[perm]
        )

    def test_grid_mismatch(self):
        s = generate_surrogate(2, LevelGrid(5), 2)
        m = init_mlp(MLPLayout(12, (4,), 5), 1)
        with pytest.raises(ValueError, match="expects"):
            predict_set(m, s)


class TestMlpArtifact:
    def test_round_trip(self, tmp_path):
        gen = np.random.default_rng(9)
        x = gen.normal(size=(20, 3))
        y = gen.normal(size=(20, 2))
        m = train(init_mlp(MLPLayout(3, (5,), 2), 4), x, y, x, y,
                  TrainConfig(epochs=5, patience=5, batch_size=8, seed=3))
        path = tmp_path / "mlp.json"
        save_mlp(path, m)
        m2 = load_mlp(path)
        assert forward(m2, x).tobytes() == forward(m, x).tobytes()
        assert m2.params.tobytes() == m.params.tobytes()
        assert (m2.history, m2.best_epoch) == (m.history, m.best_epoch)

    def test_version_required(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"layout": {}}')
        with pytest.raises(ValueError, match="version"):
            load_mlp(path)

    @staticmethod
    def _saved_doc(tmp_path):
        path = tmp_path / "mlp.json"
        save_mlp(path, init_mlp(MLPLayout(4, (3,), 2), 5))
        return path, json.loads(path.read_text())

    @pytest.mark.parametrize("edit, field", [
        pytest.param(lambda d: d.pop("weights"), "weights", id="no-weights"),
        pytest.param(lambda d: d.pop("normalizer"), "normalizer", id="no-normalizer"),
        pytest.param(lambda d: d["layout"].pop("hidden"), "layout", id="no-hidden"),
        pytest.param(lambda d: d["weights"].pop(), "weights", id="layer-count"),
        pytest.param(lambda d: d["weights"].__setitem__(0, [[0.0] * 4] * 3),
                     r"weights\[0\]: expected shape \(4, 3\), got \(3, 4\)", id="weight-shape"),
        pytest.param(lambda d: d["weights"][1].pop(), r"weights\[1\]", id="weight-rows"),
        pytest.param(lambda d: d["biases"][0].append(0.0), r"biases\[0\]", id="bias-length"),
        pytest.param(lambda d: d["normalizer"]["mean"].pop(), "normalizer.mean", id="mean-length"),
        pytest.param(lambda d: d["normalizer"]["std"].append(1.0), "normalizer.std", id="std-length"),
        pytest.param(lambda d: d["normalizer"]["std"].__setitem__(0, 0.0), "normalizer.std",
                     id="std-zero"),
        pytest.param(lambda d: d["weights"][0][2].__setitem__(1, float("nan")),
                     r"weights\[0\]: values must be finite", id="weight-nan"),
        pytest.param(lambda d: d["biases"][1].__setitem__(0, float("inf")),
                     r"biases\[1\]: values must be finite", id="bias-inf"),
        pytest.param(lambda d: d["weights"][0][1].__setitem__(2, "0.25"),
                     r"weights\[0\]: expected a list of numbers", id="weight-string"),
        pytest.param(lambda d: d["biases"][0].__setitem__(0, None),
                     r"biases\[0\]: expected a list of numbers", id="bias-null"),
        pytest.param(lambda d: d["normalizer"]["std"].__setitem__(1, True),
                     r"normalizer.std: expected a list of numbers", id="std-bool"),
        pytest.param(lambda d: d["layout"].__setitem__("hidden", ["3"]), "layout", id="hidden-string"),
        pytest.param(lambda d: d.__setitem__("version", 2), "version 2", id="version"),
        pytest.param(lambda d: d.__setitem__("version", True), "version True", id="version-true"),
        pytest.param(lambda d: d.__setitem__("version", 1.0), "version 1.0", id="version-float"),
        pytest.param(lambda d: d.__setitem__("history", []), "^history: expected an object", id="history-list"),
        pytest.param(lambda d: d["history"].pop("val"), "^history: expected an object", id="history-no-val"),
        pytest.param(lambda d: d["history"]["train"].append(0.5), "^history: .* of equal length",
                     id="history-unequal"),
        pytest.param(lambda d: d["history"].update(train=[0.5], val=[float("nan")]),
                     r"^history\.val: values must be finite", id="history-nan"),
        pytest.param(lambda d: d["history"].update(train=["0.5"], val=[0.5]),
                     r"^history\.train: expected a list of numbers", id="history-string"),
        pytest.param(lambda d: d["history"].update(train=[[0.5]], val=[[0.5]]),
                     r"^history\.train: expected shape \(1,\)", id="history-nested"),
        pytest.param(lambda d: d.__setitem__("best_epoch", 0), r"^best_epoch: expected an integer in \[-1, 0\)",
                     id="best-epoch-past-history"),
        pytest.param(lambda d: d.__setitem__("best_epoch", -2), "^best_epoch: ", id="best-epoch-below"),
        pytest.param(lambda d: d.__setitem__("best_epoch", False), "^best_epoch: ", id="best-epoch-bool"),
        pytest.param(lambda d: d.__setitem__("best_epoch", -1.0), "^best_epoch: ", id="best-epoch-float"),
    ])
    def test_malformed_artifact_names_field(self, tmp_path, edit, field):
        path, doc = self._saved_doc(tmp_path)
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=field):
            load_mlp(path)
