import math

import numpy as np
import pytest

from klnmf import (DegenerateInputError, SyntheticSpec, gen_full_rank,
                   gen_low_rank, generate, init_random_scaled, kl_divergence,
                   load_matrix, optimal_scale, poissonize)
from klnmf.cli import main


class TestSpecValidation:
    def test_density_range(self):
        with pytest.raises(ValueError, match="density"):
            SyntheticSpec(kind="low-rank", m=4, n=4, r_true=2, density=1.5)
        with pytest.raises(ValueError, match="density"):
            SyntheticSpec(kind="low-rank", m=4, n=4, r_true=2, density=0.0)

    def test_rank_within_dims(self):
        with pytest.raises(ValueError):
            SyntheticSpec(kind="low-rank", m=4, n=3, r_true=4)

    def test_class_labels(self):
        spec = SyntheticSpec(kind="low-rank", m=4, n=4, r_true=2,
                             density=0.9, noise="poisson")
        assert spec.class_label == "low-rank-l0.9-poisson"
        assert SyntheticSpec(kind="full-rank", m=4, n=4).class_label == "full-rank"

    def test_round_trips_through_dict(self):
        spec = SyntheticSpec(kind="low-rank", m=5, n=6, r_true=2,
                             density=0.3, noise="poisson", seed=11)
        assert SyntheticSpec.from_dict(spec.to_dict()) == spec


class TestLowRank:
    def test_dense_factors_strictly_positive(self):
        spec = SyntheticSpec(kind="low-rank", m=10, n=12, r_true=3,
                             density=1.0, seed=3)
        W, H, V = gen_low_rank(spec)
        assert W.values.min() > 0
        assert H.values.min() > 0
        assert np.linalg.matrix_rank(V.values) <= 3

    def test_sparse_factors_have_exact_nonzero_count(self):
        spec = SyntheticSpec(kind="low-rank", m=10, n=12, r_true=3,
                             density=0.3, seed=5)
        W, H, _ = gen_low_rank(spec)
        assert np.count_nonzero(W.values) == math.ceil(0.3 * 10 * 3)
        assert np.count_nonzero(H.values) == math.ceil(0.3 * 3 * 12)

    def test_product_has_zero_divergence_from_truth(self):
        spec = SyntheticSpec(kind="low-rank", m=8, n=8, r_true=2, seed=9)
        W, H, V = gen_low_rank(spec)
        assert kl_divergence(V, W, H).value == 0.0

    def test_same_seed_bit_identical(self):
        spec = SyntheticSpec(kind="low-rank", m=8, n=8, r_true=2, density=0.7,
                             seed=21)
        a = gen_low_rank(spec)
        b = gen_low_rank(spec)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.values, y.values)

    def test_different_seeds_differ(self):
        base = dict(kind="low-rank", m=8, n=8, r_true=2)
        a = gen_low_rank(SyntheticSpec(seed=1, **base))[2]
        b = gen_low_rank(SyntheticSpec(seed=2, **base))[2]
        assert not np.array_equal(a.values, b.values)


class TestFullRank:
    def test_entries_in_unit_interval(self):
        spec = SyntheticSpec(kind="full-rank", m=20, n=20, seed=4)
        V = gen_full_rank(spec).values
        assert np.all(V > 0) and np.all(V < 1)

    def test_seed_reproducibility(self):
        spec = SyntheticSpec(kind="full-rank", m=6, n=7, seed=13)
        np.testing.assert_array_equal(gen_full_rank(spec).values,
                                      gen_full_rank(spec).values)

    def test_mean_near_half(self):
        spec = SyntheticSpec(kind="full-rank", m=100, n=100, seed=17)
        V = gen_full_rank(spec).values
        sigma = math.sqrt(1.0 / 12.0 / V.size)
        assert abs(V.mean() - 0.5) <= 3 * sigma


class TestPoissonize:
    def test_zeros_stay_zero(self):
        V = np.zeros((4, 4))
        V[0, 0] = 5.0
        out = poissonize(V, seed=2).values
        assert np.all(out[V == 0] == 0)

    def test_integer_valued(self):
        V = np.full((5, 5), 2.7)
        out = poissonize(V, seed=3).values
        np.testing.assert_array_equal(out, np.round(out))

    def test_mean_within_three_sigma(self):
        lam = 3.0
        V = np.full((1, 100000), lam)
        draws = poissonize(V, seed=11).values
        assert abs(draws.mean() - lam) <= 3 * math.sqrt(lam / draws.size)

    def test_variance_within_ten_percent(self):
        lam = 3.0
        V = np.full((1, 100000), lam)
        draws = poissonize(V, seed=12).values
        assert abs(draws.var(ddof=1) - lam) <= 0.1 * lam

    def test_deterministic(self):
        V = np.full((6, 6), 4.0)
        np.testing.assert_array_equal(poissonize(V, seed=8).values,
                                      poissonize(V, seed=8).values)


class TestGenerate:
    def test_poisson_noise_applied_to_low_rank(self):
        spec = SyntheticSpec(kind="low-rank", m=10, n=10, r_true=2,
                             noise="poisson", seed=6)
        V = generate(spec).values
        np.testing.assert_array_equal(V, np.round(V))

    def test_noiseless_matches_gen_low_rank(self):
        spec = SyntheticSpec(kind="low-rank", m=10, n=10, r_true=2, seed=6)
        np.testing.assert_array_equal(generate(spec).values,
                                      gen_low_rank(spec)[2].values)

    def test_poisson_noise_applied_to_full_rank_as_the_cli_writes_it(
            self, tmp_path, capsys):
        spec = SyntheticSpec(kind="full-rank", m=4, n=4, noise="poisson",
                             seed=1)
        noisy = poissonize(gen_full_rank(spec).values, 1).values
        np.testing.assert_array_equal(generate(spec).values, noisy)
        assert main(["generate", "--kind", "full-rank", "--m", "4", "--n",
                     "4", "--noise", "poisson", "--seed", "1",
                     "--out", str(tmp_path / "v.mtx")]) == 0
        capsys.readouterr()
        np.testing.assert_array_equal(
            load_matrix(tmp_path / "v.poisson.mtx").values, noisy)

    def test_full_rank_labels_differ_by_noise(self):
        labels = {noise: SyntheticSpec(kind="full-rank", m=4, n=4,
                                       noise=noise).class_label
                  for noise in ("none", "poisson")}
        assert labels == {"none": "full-rank", "poisson": "full-rank-poisson"}


class TestInitRandomScaled:
    def test_product_sum_matches_data(self, rng):
        V = rng.uniform(0.0, 3.0, size=(9, 7))
        pair = init_random_scaled(9, 7, 3, V, seed=5)
        assert pair.product().sum() == pytest.approx(V.sum(), rel=1e-12)
        assert optimal_scale(V, pair.W.values, pair.H.values) == pytest.approx(
            1.0, rel=1e-12)

    def test_deterministic(self):
        V = np.full((4, 4), 2.0)
        a = init_random_scaled(4, 4, 2, V, seed=7)
        b = init_random_scaled(4, 4, 2, V, seed=7)
        np.testing.assert_array_equal(a.W.values, b.W.values)
        np.testing.assert_array_equal(a.H.values, b.H.values)

    def test_zero_data_rejected(self):
        with pytest.raises(DegenerateInputError):
            init_random_scaled(3, 3, 1, np.zeros((3, 3)), seed=1)
