"""Tests of the attack analyses (and their logistic-regression substrate)."""

import numpy as np
import pytest

from repro.attacks.config_leakage import (
    config_features,
    evaluate_config_leakage,
)
from repro.attacks.logistic import LogisticRegression
from repro.attacks.model_attack import evaluate_model_attack, ms_response
from repro.core.selection_batch import (
    select_case1_batch,
    select_case2_batch,
    select_unconstrained_batch,
)


def random_pairs(count, n, seed=0):
    """(alpha, beta) delay matrices of ``count`` random ring pairs."""
    rng = np.random.default_rng(seed)
    samples = rng.normal(1.0, 0.05, (count, 2, n))
    return samples[:, 0, :], samples[:, 1, :]


class TestLogisticRegression:
    def test_learns_linearly_separable(self, rng):
        x = rng.normal(0, 1, (400, 2))
        y = x[:, 0] + 2 * x[:, 1] > 0
        model = LogisticRegression(epochs=500).fit(x, y)
        assert model.accuracy(x, y) > 0.95

    def test_chance_on_pure_noise(self, rng):
        x = rng.normal(0, 1, (400, 3))
        y = rng.integers(0, 2, 400).astype(bool)
        model = LogisticRegression().fit(x[:200], y[:200])
        assert 0.3 < model.accuracy(x[200:], y[200:]) < 0.7

    def test_predict_proba_range(self, rng):
        x = rng.normal(0, 1, (50, 2))
        y = x[:, 0] > 0
        model = LogisticRegression().fit(x, y)
        proba = model.predict_proba(x)
        assert np.all((proba >= 0) & (proba <= 1))

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            LogisticRegression().predict(np.zeros((1, 2)))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LogisticRegression(learning_rate=0.0)
        with pytest.raises(ValueError):
            LogisticRegression(epochs=0)
        with pytest.raises(ValueError):
            LogisticRegression(l2=-1.0)

    def test_shape_validation(self, rng):
        model = LogisticRegression()
        with pytest.raises(ValueError):
            model.fit(np.zeros(5), np.zeros(5))
        with pytest.raises(ValueError):
            model.fit(np.zeros((5, 2)), np.zeros(4))


class TestConfigFeatures:
    def test_feature_layout(self):
        selection = select_case1_batch(np.array([[1.0, 2.0]]), np.array([[2.0, 1.0]]))
        features = config_features(selection)
        # count diff, total count, 2 top bits, 2 bottom bits
        assert features.shape == (1, 6)
        assert features[0, 0] == 0.0  # equal counts in case1
        assert features[0, 1] == 2 * selection.top_masks[0].sum()
        assert features[0, 2:4].tolist() == selection.top_masks[0].tolist()
        assert features[0, 4:].tolist() == selection.bottom_masks[0].tolist()

    def test_unconstrained_count_difference_nonzero(self, rng):
        alpha = rng.normal(1.0, 0.1, (3, 5))
        beta = rng.normal(1.0, 0.1, (3, 5))
        selection = select_unconstrained_batch(alpha, beta)
        assert np.all(config_features(selection)[:, 0] != 0.0)


class TestConfigLeakage:
    def test_equal_count_schemes_leak_nothing(self):
        alpha, beta = random_pairs(400, 7)
        for selector, name in (
            (select_case1_batch, "case1"),
            (select_case2_batch, "case2"),
        ):
            result = evaluate_config_leakage(selector, name, alpha, beta)
            assert result.advantage < 0.15, result

    def test_unconstrained_leaks_everything(self):
        alpha, beta = random_pairs(400, 7)
        result = evaluate_config_leakage(
            select_unconstrained_batch, "unconstrained", alpha, beta
        )
        assert result.accuracy > 0.95

    def test_split_sizes(self):
        alpha, beta = random_pairs(100, 5)
        result = evaluate_config_leakage(
            select_case1_batch, "case1", alpha, beta, train_fraction=0.7
        )
        assert result.train_pairs == 70
        assert result.test_pairs == 30

    def test_validation(self):
        with pytest.raises(ValueError, match="10 pairs"):
            evaluate_config_leakage(select_case1_batch, "x", *random_pairs(5, 5))
        with pytest.raises(ValueError, match="train_fraction"):
            evaluate_config_leakage(
                select_case1_batch, "x", *random_pairs(20, 5), train_fraction=1.0
            )


class TestModelAttack:
    def test_ms_response_definition(self, rng):
        top = rng.normal(1.0, 0.05, (4, 2))
        bottom = rng.normal(1.0, 0.05, (4, 2))
        word = np.array([0, 1, 1, 0])
        idx = np.arange(4)
        expected = (
            np.sum(top[idx, word]) - np.sum(bottom[idx, word])
        ) > 0
        assert ms_response(top, bottom, word) == expected

    def test_ms_response_validation(self, rng):
        top = rng.normal(1.0, 0.05, (4, 2))
        with pytest.raises(ValueError):
            ms_response(top, top[:3], np.zeros(4, dtype=int))
        with pytest.raises(ValueError):
            ms_response(top, top, np.zeros(3, dtype=int))

    def test_attack_learns_the_puf(self):
        result = evaluate_model_attack(seed=1)
        assert result.accuracy > 0.9
        assert result.chance < 0.7
        assert result.advantage > 0.2

    def test_attack_parameter_validation(self):
        with pytest.raises(ValueError):
            evaluate_model_attack(stage_count=1)
        with pytest.raises(ValueError):
            evaluate_model_attack(train_crps=2)
