"""Monte Carlo harness: determinism, DGP structure, size and power."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artcluster import (
    DegenerateVariance,
    DgpSpec,
    LinearHypothesis,
    MonteCarloReport,
    canonicalize,
    fit_per_cluster,
    generate,
    power_study,
    size_study,
)
from artcluster import simulation
from artcluster.errors import MAX_BYTES
from artcluster.groups import enumerate_group
from artcluster.randtest import run_test_columns
from artcluster.simulation import COVARIATE_LAWS
from tests.oracles import bits, generate_loop, study_scores_loop


def spec(q=6, size=24, d=2, rho=0.0, sigma=None, seed=11, beta=None):
    if sigma is None:
        sigma = (1.0,) * q
    if beta is None:
        beta = (0.5,) + (0.0,) * (d - 1)
    return DgpSpec(
        sizes=(size,) * q, beta=beta, sigma=sigma, rho=rho, seed=seed
    )


class TestDgpSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            DgpSpec(sizes=(5,), beta=(0.0,), sigma=(1.0,))
        with pytest.raises(ValueError):
            DgpSpec(sizes=(5, 5), beta=(0.0,), sigma=(1.0, -1.0))
        with pytest.raises(ValueError):
            DgpSpec(sizes=(5, 5), beta=(0.0,), sigma=(1.0, 1.0), rho=1.0)
        with pytest.raises(ValueError):
            DgpSpec(sizes=(2, 5), beta=(0.0, 0.0), sigma=(1.0, 1.0))
        with pytest.raises(ValueError):
            DgpSpec(sizes=(5, 5), beta=(0.0,), sigma=(1.0, 1.0), covariate_law="cauchy")

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("sizes", {"sizes": (10.9, 10)}),
            ("sizes", {"sizes": (True, 10)}),
            ("sizes", {"sizes": ("10", 10)}),
            ("sizes", {"sizes": (float("inf"), 10)}),
            ("seed", {"seed": 2.7}),
            ("seed", {"seed": float("nan")}),
            ("seed", {"seed": False}),
        ],
    )
    def test_integer_fields_refuse_non_integers(self, field, edit):
        fields = {"sizes": (10, 10), "beta": (0.0,), "sigma": (1.0, 1.0), **edit}
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            DgpSpec(**fields)

    def test_integer_fields_take_integral_numbers(self):
        s = DgpSpec(sizes=(10.0, np.int64(12)), beta=(0.0,), sigma=(1.0, 1.0), seed=np.float64(3))
        assert s.sizes == (10, 12) and s.seed == 3
        assert all(type(v) is int for v in (*s.sizes, s.seed))


class TestGenerate:
    def test_deterministic_per_replication(self):
        s = spec()
        a = generate(s, 3)
        b = generate(s, 3)
        assert np.array_equal(a.outcomes, b.outcomes)
        assert np.array_equal(a.covariates, b.covariates)

    @pytest.mark.parametrize(
        "s",
        [spec(), spec(q=4, size=10, d=3), DgpSpec(sizes=(7, 12, 9), beta=(1.0,), sigma=(1.0,) * 3)],
    )
    def test_equals_canonicalized_rows(self, s):
        for r in range(5):
            data = generate(s, r)
            labels = np.repeat(np.arange(1, s.q + 1), s.sizes)
            ref = canonicalize(labels, data.outcomes, data.covariates)
            assert np.all(data.outcomes == ref.outcomes)
            assert np.all(data.covariates == ref.covariates)
            assert np.all(data.sizes == ref.sizes) and data.sizes.dtype == ref.sizes.dtype
            assert np.all(data.offsets == ref.offsets)
            assert data.labels == ref.labels
            assert [type(x) for x in data.labels] == [type(x) for x in ref.labels]

    def test_replications_differ(self):
        s = spec()
        assert not np.array_equal(generate(s, 0).outcomes, generate(s, 1).outcomes)

    def test_negative_replication_refused(self):
        with pytest.raises(ValueError, match="^replication index must be >= 0$"):
            generate(spec(), -1)

    def test_shapes_and_intercept(self):
        s = spec(q=4, size=10, d=3)
        data = generate(s, 0)
        assert data.n == 40 and data.q == 4 and data.d_z == 3
        assert np.all(data.covariates[:, 0] == 1.0)

    def test_lognormal_law(self):
        s = DgpSpec(
            sizes=(30, 30), beta=(0.0, 1.0), sigma=(1.0, 1.0), covariate_law="lognormal"
        )
        data = generate(s, 0)
        assert np.all(data.covariates[:, 1] > 0.0)

    def test_estimates_unbiased_under_null(self):
        # beta = 0: per-cluster estimates average to zero within MC error
        s = spec(q=4, size=30, d=2, beta=(0.0, 0.0), seed=5)
        c = np.array([0.0, 1.0])
        draws = []
        for r in range(200):
            est = fit_per_cluster(generate(s, r))
            draws.extend((est.betas @ c).tolist())
        draws = np.asarray(draws)
        assert abs(draws.mean()) < 4.0 * draws.std() / np.sqrt(draws.size)

    def test_uncorrelated_within_cluster_when_rho_zero(self):
        # noise pairs within clusters: pooled correlation near zero
        s = spec(q=4, size=400, d=1, beta=(0.0,), rho=0.0, seed=9)
        first, second = [], []
        for r in range(10):
            data = generate(s, r)
            eps = data.outcomes  # beta = 0, intercept coefficient 0
            for j in range(data.q):
                e = eps[data.cluster_slice(j)]
                first.extend(e[::2][: len(e) // 2].tolist())
                second.extend(e[1::2][: len(e) // 2].tolist())
        r_hat = np.corrcoef(first, second)[0, 1]
        assert abs(r_hat) < 4.0 / np.sqrt(len(first))

    def test_correlated_within_cluster_when_rho_high(self):
        s = spec(q=4, size=400, d=1, beta=(0.0,), rho=0.8, seed=9)
        first, second = [], []
        for r in range(10):
            data = generate(s, r)
            for j in range(data.q):
                e = data.outcomes[data.cluster_slice(j)]
                first.extend(e[::2][: len(e) // 2].tolist())
                second.extend(e[1::2][: len(e) // 2].tolist())
        assert np.corrcoef(first, second)[0, 1] > 0.5


class TestStudies:
    def test_q4_low_alpha_never_rejects(self):
        report = size_study(spec(q=4), [0.0, 1.0], 0.10, 100)
        assert report.rate == 0.0
        assert report.rejections == 0

    def test_size_controlled(self):
        report = size_study(spec(q=8, seed=21), [0.0, 1.0], 0.05, 400)
        assert report.rate <= 0.05 + 2.0 * max(report.mc_stderr, 0.011)

    def test_power_zero_effect_reduces_to_size(self):
        s = spec(q=6, seed=33)
        c = np.array([0.0, 1.0])
        true_value = float(c @ np.asarray(s.beta))
        a = size_study(s, c, 0.1, 50)
        b = power_study(s, c, true_value, 0.1, 50)
        assert np.array_equal(a.p_values, b.p_values)

    def test_power_monotone_in_effect(self):
        s = spec(q=8, size=40, seed=44)
        c = np.array([0.0, 1.0])
        rates = [
            power_study(s, c, offset, 0.1, 120).rate for offset in (0.0, 0.4, 1.2)
        ]
        slack = 2.0 * np.sqrt(0.25 / 120)
        assert rates[0] <= rates[1] + slack
        assert rates[1] <= rates[2] + slack
        assert rates[2] > 0.5

    def test_studentized_study_with_overflowing_spread(self):
        # c'beta_j of order 1e160 overflows mean(v^2); the rescaled spread
        # keeps the unstudentized p-values, with no warning
        s = DgpSpec(sizes=[10] * 6, beta=[0.5, 1.0], sigma=[1.0] * 6, seed=3)
        plain = power_study(s, [0.0, 1e160], 0.0, 0.05, 50)
        stud = power_study(s, [0.0, 1e160], 0.0, 0.05, 50, variant="studentized")
        assert np.array_equal(bits(stud.p_values), bits(plain.p_values))

    def test_studentized_study_of_equal_scores_refused(self):
        # null value 1e160 swamps every c'beta_j, so the six scores are equal
        # and their spread is exactly zero
        s = DgpSpec(sizes=[10] * 6, beta=[0.5, 1.0], sigma=[1.0] * 6, seed=3)
        with pytest.raises(DegenerateVariance, match="zero spread"):
            power_study(s, [0.0, 1.0], 1e160, 0.05, 50, variant="studentized")

    def test_large_effect_high_power(self):
        s = spec(q=10, size=40, seed=55)
        report = power_study(s, [0.0, 1.0], 5.0, 0.1, 60)
        assert report.rate >= 0.9

    def test_reports_reproducible(self):
        s = spec(q=6, seed=66)
        a = size_study(s, [0.0, 1.0], 0.1, 40)
        b = size_study(s, [0.0, 1.0], 0.1, 40)
        assert np.array_equal(a.p_values, b.p_values)
        assert a.rate == b.rate

    def test_null_pvalues_dominate_uniform(self):
        # ECDF of null p-values stays below the uniform CDF (plus MC slack)
        s = spec(q=7, size=25, seed=77)
        report = size_study(s, [0.0, 1.0], 0.1, 300)
        m = 2**7
        grid = np.arange(2, m + 1, 2) / m
        slack = 3.0 * np.sqrt(0.25 / 300)
        for t in grid:
            assert (report.p_values <= t + 1e-12).mean() <= t + slack

    @pytest.mark.parametrize("replications", [0, -3])
    def test_needs_a_replication(self, replications):
        with pytest.raises(ValueError, match="at least one replication"):
            size_study(spec(q=4), [0.0, 1.0], 0.1, replications)

    def test_mcse_definition(self):
        report = size_study(spec(q=6, seed=88), [0.0, 1.0], 0.1, 64)
        assert report.mc_stderr == pytest.approx(
            np.sqrt(report.rate * (1 - report.rate) / 64)
        )


class TestMonteCarloReport:
    def test_rate_and_stderr_are_derived(self):
        report = MonteCarloReport(
            replications=8, rejections=3, p_values=[0.5], alpha=0.1, null_value=0.0, seed=1
        )
        assert report.rate == 3 / 8
        assert report.mc_stderr == np.sqrt(3 / 8 * (1 - 3 / 8) / 8)

    @pytest.mark.parametrize("rejections", [-1, 9])
    def test_rejections_bounded_by_replications(self, rejections):
        with pytest.raises(ValueError, match="rejections must lie in"):
            MonteCarloReport(8, rejections, [0.5], 0.1, 0.0, 1)


@st.composite
def studies(draw):
    """A study with its chunk size: unequal sizes, d_z 1..4, both laws and variants."""
    d = draw(st.integers(1, 4))
    q = draw(st.integers(2, 7))
    sizes = draw(st.lists(st.integers(d + 1, 30), min_size=q, max_size=q))
    finite = st.floats(-3.0, 3.0, allow_nan=False)
    spec = DgpSpec(
        sizes=sizes,
        beta=draw(st.lists(finite, min_size=d, max_size=d)),
        sigma=draw(st.lists(st.floats(0.1, 10.0), min_size=q, max_size=q)),
        rho=draw(st.sampled_from([0.0, 0.5, 0.9])),
        covariate_law=draw(st.sampled_from(COVARIATE_LAWS)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    contrast = np.zeros(d)
    contrast[draw(st.integers(0, d - 1))] = draw(st.sampled_from([-1.0, 0.5, 1.0, 2.0]))
    null_value = draw(st.one_of(st.none(), finite))
    # a chunk of 1, 3 or 7 replications, or the default budget
    per_chunk = draw(st.sampled_from([1, 3, 7, None]))
    chunk_bytes = simulation._CHUNK_BYTES if per_chunk is None else per_chunk * 8 * spec.n * d
    return {
        "spec": spec,
        "contrast": contrast,
        "null_value": null_value,
        "variant": draw(st.sampled_from(["unstudentized", "studentized"])),
        "replications": draw(st.integers(1, 40)),
        "chunk_bytes": chunk_bytes,
    }


class TestChunkedStudy:
    """Chunked draws and stacked fits against the one-replication loop."""

    @settings(max_examples=60, deadline=None)
    @given(study=studies())
    def test_scores_and_pvalues_match_loop(self, study):
        spec, c, reps = study["spec"], study["contrast"], study["replications"]
        null_value, variant = study["null_value"], study["variant"]
        value = float(c @ np.asarray(spec.beta)) if null_value is None else null_value
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulation, "_CHUNK_BYTES", study["chunk_bytes"])
            scores = simulation._study_scores(spec, LinearHypothesis(c, value), reps)
            if null_value is None:
                report = size_study(spec, c, 0.1, reps, variant=variant)
            else:
                report = power_study(spec, c, null_value, 0.1, reps, variant=variant)
        want = study_scores_loop(spec, c, value, reps)
        assert np.array_equal(bits(scores), bits(want))
        group = enumerate_group(spec.q, mode="auto", seed=spec.seed)
        statistic, crit, p_values = run_test_columns(want, 0.1, group, variant)
        assert np.array_equal(bits(report.p_values), bits(p_values))
        assert report.rejections == np.count_nonzero(statistic > crit)

    @pytest.mark.parametrize(
        "s",
        [
            spec(q=3, size=8, d=1),
            DgpSpec(sizes=(5, 17, 9, 30), beta=(1.0, -0.5, 2.0, 0.25), sigma=(1.0, 2.0, 0.5, 3.0),
                    rho=0.9, covariate_law="lognormal", seed=8),
            DgpSpec(sizes=(40, 12), beta=(0.0, 1.0, 1.0), sigma=(1.0, 4.0), rho=0.5, seed=2**40),
        ],
    )
    def test_generate_is_one_replication_of_the_chunk(self, s):
        y, Z = simulation._draw(s, 3, 10)
        for i, r in enumerate(range(3, 10)):
            data = generate(s, r)
            want_y, want_Z = generate_loop(s, r)
            assert np.array_equal(bits(data.outcomes), bits(y[i]))
            assert np.array_equal(bits(data.covariates), bits(Z[i]))
            assert np.array_equal(bits(data.outcomes), bits(want_y))
            assert np.array_equal(bits(data.covariates), bits(want_Z))

    @pytest.mark.parametrize("law", ["normal", "lognormal"])
    @pytest.mark.parametrize("d", [1, 3])
    def test_each_replication_starts_on_an_empty_buffer(self, d, law):
        # Philox yields 4 words per counter step and n * d + q normals (plus
        # ziggurat rejections) leave some of them unread; replication r must
        # still start at counter word r + 1 with an empty buffer, as the
        # jumped oracle stream does
        s = DgpSpec(sizes=(5, 7, 9, 5), beta=(1.0, -0.5, 2.0)[:d], sigma=(1.0, 2.0, 0.5, 3.0),
                    rho=0.4, covariate_law=law, seed=21)
        start, stop = 4, 12
        left = []
        for r in range(start, stop - 1):
            rng = np.random.Generator(np.random.Philox(key=s.seed).jumped(r + 1))
            rng.standard_normal(s.n * d + s.q)
            left.append(4 - rng.bit_generator.state["buffer_pos"])
        assert any(left), "no replication left a partly used buffer"
        y, Z = simulation._draw(s, start, stop)
        for i, r in enumerate(range(start, stop)):
            want_y, want_Z = generate_loop(s, r)
            assert np.array_equal(bits(y[i]), bits(want_y)), f"replication {r}"
            assert np.array_equal(bits(Z[i]), bits(want_Z)), f"replication {r}"

    @pytest.mark.parametrize("seed", [0, 5, 2**128 - 1])
    def test_replication_streams_match_jumped_oracle(self, seed):
        # replication r opens Philox at counter word r + 1; the oracle jumps
        # r + 1 times.  One replication is drawn per r, up to the last one
        # check_study admits at this q.
        s = DgpSpec(sizes=(3, 4), beta=(1.0, 0.5), sigma=(1.0, 2.0), rho=0.5,
                    covariate_law="lognormal", seed=seed)
        last = MAX_BYTES // (8 * (s.q + 12)) - 1
        simulation.check_study(s.q, 0.1, last + 1)
        with pytest.raises(ValueError, match="1 GiB limit"):
            simulation.check_study(s.q, 0.1, last + 2)
        for r in (0, 1, 2, 999, 2999, last):
            y, Z = simulation._draw(s, r, r + 1)
            want_y, want_Z = generate_loop(s, r)
            assert np.array_equal(bits(y[0]), bits(want_y))
            assert np.array_equal(bits(Z[0]), bits(want_Z))

    def test_size_study_checks_contrast_length_before_use(self):
        # the size study reads c'beta, which a short contrast cannot form
        with pytest.raises(ValueError, match="^contrast length must equal the covariate count$"):
            size_study(spec(d=2), [1.0], 0.1, 5)

    def test_replications_beyond_memory_bound_refused_before_drawing(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew replications of a refused study")

        monkeypatch.setattr(simulation, "_draw", no_draws)
        with pytest.raises(ValueError, match=r"^replications 10000000000 at q = 6 needs about"):
            size_study(spec(q=6), [0.0, 1.0], 0.1, 10**10)
        with pytest.raises(ValueError, match="1 GiB limit"):
            power_study(spec(q=6), [0.0, 1.0], 0.5, 0.1, 10**10)

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"alpha": 1.5}, r"^simulation spec field 'alpha' must lie strictly between 0 and 1$"),
            ({"replications": 3.7}, r"^simulation spec field 'replications' is invalid: 3\.7$"),
            ({"spec": DgpSpec(sizes=(10**9, 10**9), beta=(0.0,), sigma=(1.0, 1.0))},
             r"^dgp\.sizes \(n = 2000000000\) at d_z = 1 needs about 119\.2 GiB"),
        ],
        ids=["alpha", "fractional-replications", "sizes"],
    )
    def test_study_fields_refused_before_drawing(self, monkeypatch, edit, message):
        def no_draws(*args):
            raise AssertionError("drew replications of a refused study")

        monkeypatch.setattr(simulation, "_draw", no_draws)
        args = {"spec": spec(q=2, d=1), "alpha": 0.1, "replications": 5, **edit}
        with pytest.raises(ValueError, match=message):
            size_study(args["spec"], [1.0], args["alpha"], args["replications"])
        with pytest.raises(ValueError, match=message):
            power_study(args["spec"], [1.0], 0.5, args["alpha"], args["replications"])

    def test_generate_refuses_sizes_before_drawing(self, monkeypatch):
        monkeypatch.setattr(simulation, "_draw", None)
        big = DgpSpec(sizes=(10**9, 10**9), beta=(0.0, 1.0), sigma=(1.0, 1.0))
        with pytest.raises(ValueError, match=r"^dgp\.sizes \(n = 2000000000\) at d_z = 2 needs"):
            generate(big, 0)


class TestRunSpec:
    SPEC = {
        "dgp": {"sizes": [10] * 4, "beta": [0.0], "sigma": [1.0] * 4},
        "study": "size",
        "contrast": [1.0],
        "alpha": 0.1,
        "replications": 6,
    }

    def test_defaults_resolved(self):
        resolved, report = simulation.run_spec(self.SPEC, default_seed=7)
        assert resolved["dgp"] == {"sizes": (10,) * 4, "beta": (0.0,), "sigma": (1.0,) * 4,
                                   "rho": 0.0, "covariate_law": "normal", "seed": 7}
        assert (resolved["variant"], resolved["group"], resolved["null_value"]) == (
            "unstudentized", None, 0.0)
        want = size_study(DgpSpec(sizes=(10,) * 4, beta=(0.0,), sigma=(1.0,) * 4, seed=7),
                          [1.0], 0.1, 6)
        assert np.array_equal(report.p_values, want.p_values)

    def test_group_draws_named_as_spec_field(self):
        doc = {**self.SPEC, "group": {"mode": "sampled", "draws": 10**9}}
        with pytest.raises(ValueError, match=r"^group\.draws 1000000000 at q = 4 needs"):
            simulation.run_spec(doc)
