"""Sign-group construction: enumeration order, sampling, determinism."""

import numpy as np
import pytest

from artcluster import GroupTooLarge
from artcluster.groups import SignGroup, enumerate_group
from tests.oracles import as_sign_vector, bit_expansion_signs, sampled_signs


def group_rows(group) -> np.ndarray:
    """A group's own rows: sweeping the unit vectors gives row i scaled by 1/q."""
    return np.sign(group.sweep(np.eye(group.q)).T).astype(np.int8)


class TestExhaustive:
    def test_q2_enumeration(self):
        g = SignGroup(2, "exhaustive")
        assert bit_expansion_signs(2).tolist() == [[1, 1], [1, -1], [-1, 1], [-1, -1]]
        assert g.size == 4
        assert g.mode == "exhaustive"

    @pytest.mark.parametrize("q", [2, 5, 12])
    def test_sweep_returns_the_half_with_first_sign_plus(self, q):
        g = SignGroup(q, "exhaustive")
        assert (g.size, g.rows) == (2**q, 2 ** (q - 1))
        assert np.array_equal(group_rows(g), bit_expansion_signs(q)[: g.rows])

    @pytest.mark.parametrize("q", [3, 8, 12])
    def test_all_distinct(self, q):
        g = SignGroup(q, "exhaustive")
        assert g.size == 2**q
        assert np.unique(bit_expansion_signs(q), axis=0).shape[0] == 2**q

    def test_identity_first_negation_last(self):
        signs = bit_expansion_signs(5)
        assert np.all(signs[0] == 1)
        assert np.all(signs[-1] == -1)

    def test_closed_under_negation_by_reversal(self):
        signs = bit_expansion_signs(6)
        assert np.array_equal(signs, -signs[::-1])

    def test_too_large_without_override(self):
        with pytest.raises(GroupTooLarge):
            SignGroup(21, "exhaustive")

    def test_defined_by_q_alone(self):
        with pytest.raises(ValueError, match="^an exhaustive group is defined by q alone$"):
            SignGroup(5, "exhaustive", seed=1)


class TestSampled:
    def test_identity_forced_first(self):
        g = SignGroup(7, "sampled", seed=3, draws=50)
        assert np.all(group_rows(g)[0] == 1)
        assert g.size == 50
        assert g.mode == "sampled"

    def test_seed_determinism(self):
        a = SignGroup(12, "sampled", seed=99, draws=1000)
        b = SignGroup(12, "sampled", seed=99, draws=1000)
        assert a == b
        assert np.array_equal(group_rows(a), group_rows(b))
        assert np.array_equal(group_rows(a), sampled_signs(12, 1000, 99))

    def test_different_seeds_differ(self):
        a = SignGroup(12, "sampled", seed=1, draws=1000)
        b = SignGroup(12, "sampled", seed=2, draws=1000)
        assert not np.array_equal(group_rows(a), group_rows(b))

    def test_coordinate_balance(self):
        # Rademacher coordinates: |mean| stays within 4 / sqrt(B - 1)
        g = SignGroup(12, "sampled", seed=17, draws=1000)
        means = group_rows(g)[1:].mean(axis=0)
        assert np.all(np.abs(means) < 4.0 / np.sqrt(999))

    @pytest.mark.parametrize("q", [2, 3, 7, 13, 20, 21])
    @pytest.mark.parametrize("draws", [2, 3 * 2**14 + 1, 40001])
    @pytest.mark.parametrize("seed", [0, 11, 2**90 + 1])
    def test_flips_from_raw_bytes_equal_bounded_integers(self, q, draws, seed):
        # each chunk's flips are the top bits of raw Philox bytes, and equal
        # what Generator.integers(0, 2, dtype=int8) draws in one shot
        g = SignGroup(q, "sampled", seed=seed, draws=draws)
        assert g.rows == g.size == draws
        assert np.array_equal(group_rows(g), sampled_signs(q, draws, seed))

    def test_needs_two_vectors(self):
        with pytest.raises(ValueError):
            SignGroup(5, "sampled", seed=0, draws=1)

    def test_needs_two_clusters(self):
        with pytest.raises(ValueError, match="^need q >= 2$"):
            SignGroup(1, "sampled", seed=0, draws=10)

    @pytest.mark.parametrize("seed", [-1, 2**128], ids=["negative", "2**128"])
    def test_seed_outside_philox_keys_named(self, seed):
        with pytest.raises(ValueError, match=rf"seed must lie in \[0, 2\*\*128\), got {seed}"):
            SignGroup(5, "sampled", seed=seed, draws=10)

    @pytest.fixture
    def no_draws(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("building a group must not draw")

        monkeypatch.setattr(np.random, "Philox", refuse)

    def test_memory_bound_checked_at_construction(self, no_draws):
        with pytest.raises(ValueError, match="--draws 1000000000000 at q = 20"):
            SignGroup(q=20, mode="sampled", seed=0, draws=10**12)

    def test_memory_bound_names_the_callers_field(self, no_draws):
        with pytest.raises(ValueError, match=r"^group\.draws 1000000000000 at q = 20 needs"):
            enumerate_group(20, "sampled", draws=10**12, draws_name="group.draws")

    def test_construction_draws_nothing(self, no_draws):
        g = SignGroup(20, "sampled", seed=7, draws=10**6)
        assert (g.q, g.mode, g.seed, g.draws, g.size) == (20, "sampled", 7, 10**6, 10**6)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"q": 5, "mode": "sampled", "seed": 0, "draws": 10.0},
            {"q": 5, "mode": "sampled", "seed": 1.5, "draws": 10},
            {"q": 5, "mode": "sampled", "seed": 0},
        ],
    )
    def test_parameters_must_be_integers(self, kwargs):
        with pytest.raises(TypeError):
            SignGroup(**kwargs)


class TestEnumerateGroup:
    def test_auto_switches_at_q14(self):
        assert enumerate_group(14, "auto").mode == "exhaustive"
        assert enumerate_group(15, "auto", draws=64, seed=0).mode == "sampled"

    def test_explicit_modes(self):
        assert enumerate_group(5, "exhaustive").size == 32
        assert enumerate_group(5, "sampled", draws=10, seed=0).size == 10

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            enumerate_group(5, "bogus")

    def test_q_lower_bound(self):
        with pytest.raises(ValueError):
            enumerate_group(1, "exhaustive")


class TestSignVector:
    def test_accepts_plus_minus_one(self):
        v = as_sign_vector([1, -1, 1], 3)
        assert v.dtype == np.int8

    @pytest.mark.parametrize("bad", [[1, 0, 1], [2, 1], [[1, -1]]])
    def test_rejects_other_entries(self, bad):
        with pytest.raises(ValueError):
            as_sign_vector(bad)

    def test_length_check(self):
        with pytest.raises(ValueError):
            as_sign_vector([1, -1], 3)
