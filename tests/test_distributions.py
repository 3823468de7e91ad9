"""PMF arithmetic: construction, convolution, CDF/percentiles, mixing."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reliroute as rr
from reliroute.distributions import DiscreteDistribution, convolve

from conftest import COPIERS

#: Bin indices every constructor rejects, each with its message after the name.
BAD_BINS = [
    (-1, "must be nonnegative, got -1"),
    (True, "must be an integer, got True"),
    (1.5, "must be an integer, got 1.5"),
    (2.0, "must be an integer, got 2.0"),
]

E1 = [[2, 0.9], [3, 0.1]]
E2 = [[1, 0.5], [2, 0.3], [3, 0.1], [4, 0.1]]
E3 = [[1, 0.6], [4, 0.4]]
E4 = [[2, 0.5], [3, 0.5]]


def dist(pairs, dt=1.0):
    return DiscreteDistribution.from_pairs(pairs, dt=dt)


class TestConstruction:
    def test_min_bin_and_trim(self):
        d = DiscreteDistribution([0.0, 0.25, 0.75, 0.0, 0.0])
        assert d.min_bin == 1
        assert d.support_end == 3

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError, match="negative"):
            DiscreteDistribution([0.5, -0.2, 0.7])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sums to"):
            DiscreteDistribution([0.5, 0.4])

    @pytest.mark.parametrize(
        "mass, tail",
        [([0.0, np.nan, 1.0], 0.0), ([0.0, np.inf], 0.0), ([0.0, 1.0], np.nan), ([0.0, 0.5], np.inf)],
        ids=["nan-mass", "inf-mass", "nan-tail", "inf-tail"],
    )
    def test_rejects_non_finite(self, mass, tail):
        with pytest.raises(ValueError, match="finite"):
            DiscreteDistribution(mass, truncated_tail=tail)

    @pytest.mark.parametrize(
        "mass",
        [[np.nan, -0.5, 1.0], [-0.5, np.nan, 1.0], [np.inf], [-np.inf], [1.0, -np.inf]],
        ids=["nan-then-negative", "negative-then-nan", "inf-alone", "minus-inf-alone", "minus-inf-after-mass"],
    )
    def test_finiteness_is_checked_before_sign(self, mass):
        with pytest.raises(ValueError, match="probability mass must be finite"):
            DiscreteDistribution(mass)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: DiscreteDistribution([[0.0, 1.0]]), "mass must be a 1-D array of probabilities per bin"),
            (lambda: DiscreteDistribution([0.0, 1.0], dt=0.0), "dt must be positive, got 0.0"),
            (lambda: DiscreteDistribution([0.0, 1.0], dt=np.nan), "dt must be positive, got nan"),
            (lambda: DiscreteDistribution([0.0, 1.0], dt=np.inf), "dt must be finite, got inf"),
            (lambda: DiscreteDistribution.from_pairs([]), "empty PMF"),
        ],
        ids=["two-dimensional", "zero-dt", "nan-dt", "infinite-dt", "no-pairs"],
    )
    def test_malformed_input_refused_by_name(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    def test_overflowing_sum_fails_normalization(self):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="probability mass sums to inf"):
            DiscreteDistribution([1e308, 1e308])

    def test_tiny_negative_is_clipped_to_zero(self):
        d = DiscreteDistribution([-1e-13, 0.25, 0.75])
        assert d.mass.tolist() == [0.0, 0.25, 0.75] and not np.signbit(d.mass[0])
        assert d.min_bin == 1

    def test_trailing_zeros_trimmed_leading_kept(self):
        d = DiscreteDistribution([0.0, 0.0, 1.0, 0.0, 0.0])
        assert d.mass.tolist() == [0.0, 0.0, 1.0] and d.min_bin == 2

    def test_all_mass_in_tail_accepted(self):
        d = DiscreteDistribution([0.0, 0.0], truncated_tail=1.0)
        assert len(d.mass) == 0 and d.min_bin is None and d.truncated_tail == 1.0

    def test_truncated_tail_counts_toward_total(self):
        d = DiscreteDistribution([0.0, 0.7], truncated_tail=0.3)
        assert d.total_mass == pytest.approx(0.7)
        assert d.truncated_tail == pytest.approx(0.3)

    def test_immutable(self):
        d = dist(E4)
        with pytest.raises(AttributeError):
            d.dt = 2.0
        with pytest.raises(ValueError):
            d.mass[2] = 0.9

    @pytest.mark.parametrize("copier", list(COPIERS.values()), ids=list(COPIERS))
    @pytest.mark.parametrize("mass, tail", [([0.0, 0.25, 0.5], 0.25), ([0.0, 0.0], 1.0), ([0.0] + [0.1] * 9, 0.1)],
                             ids=["truncated-tail", "all-in-tail", "nine-bins"])
    def test_pickles_and_copies_through_the_constructor(self, copier, mass, tail):
        d = DiscreteDistribution(mass, dt=0.5, truncated_tail=tail)
        back = copier(d)
        assert back is not d and back.mass.tolist() == d.mass.tolist()
        assert (back.dt, back.truncated_tail, back.min_bin) == (d.dt, d.truncated_tail, d.min_bin)
        assert not back.mass.flags.writeable
        assert repr(back) == repr(d)

    def test_from_pairs_rejects_bad_bins(self):
        with pytest.raises(ValueError):
            DiscreteDistribution.from_pairs([[1, 0.5], [1, 0.5]])
        # The same bins the dense graph literal's first_bin rejects.
        for k, message in BAD_BINS:
            with pytest.raises(ValueError, match=f"^bin index {message}$"):
                DiscreteDistribution.from_pairs([[k, 1.0]])
        assert DiscreteDistribution.from_pairs([[np.int64(2), 1.0]]).min_bin == 2

    def test_point_mass(self):
        d = DiscreteDistribution.point_mass(5)
        assert d.min_bin == 5 and d.cdf(5) == 1.0 and d.cdf(4) == 0.0
        assert DiscreteDistribution.point_mass(np.int32(3)).min_bin == 3
        for k, message in BAD_BINS:
            with pytest.raises(ValueError, match=f"^bin index {message}$"):
                DiscreteDistribution.point_mass(k)


class TestConvolve:
    def test_identity_point_mass(self):
        d = dist(E2)
        out = convolve(DiscreteDistribution.point_mass(0), d)
        assert np.array_equal(out.mass, d.mass)

    def test_counterexample_product(self):
        # Frozen from expanding the double sum over the fixture PMFs by hand.
        out = convolve(dist(E2), dist(E4))
        assert out.min_bin == 3 and out.mass[3:].tolist() == [0.25, 0.4, 0.2, 0.1, 0.05]

    def test_binomial_square(self):
        d = dist([[1, 0.5], [2, 0.5]])
        out = convolve(d, d)
        assert out.min_bin == 2 and out.mass[2:].tolist() == [0.25, 0.5, 0.25]

    def test_dt_mismatch(self):
        with pytest.raises(ValueError, match="time-step mismatch"):
            convolve(dist(E2), dist(E4, dt=2.0))

    def test_cap_records_tail(self):
        out = convolve(dist(E2), dist(E4), cap=5)
        assert out.support_end <= 5
        assert out.truncated_tail == pytest.approx(0.35)
        assert out.total_mass + out.truncated_tail == pytest.approx(1.0)

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError, match="cap"):
            convolve(dist(E2), dist(E4), cap=0)

    def test_min_bin_additive(self):
        out = convolve(dist(E1), dist(E4))
        assert out.min_bin == 2 + 2

    def test_commutative_associative_random(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            parts = []
            for _ in range(3):
                size = rng.integers(1, 256)
                m = np.zeros(size + 1)
                lo = rng.integers(0, size)
                m[lo:] = rng.random(size + 1 - lo)
                m /= m.sum()
                parts.append(DiscreteDistribution(m))
            a, b, c = parts
            ab = convolve(a, b)
            assert np.allclose(ab.mass, convolve(b, a).mass, atol=1e-12, rtol=0)
            left = convolve(ab, c)
            right = convolve(a, convolve(b, c))
            assert np.allclose(left.mass, right.mass, atol=1e-12, rtol=0)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        data=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=40),
        other=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=40),
        cap=st.integers(1, 60),
    )
    def test_mass_conserved_under_cap(self, data, other, cap):
        a = DiscreteDistribution(np.array(data) / sum(data))
        b = DiscreteDistribution(np.array(other) / sum(other))
        out = convolve(a, b, cap=cap)
        assert out.total_mass + out.truncated_tail == pytest.approx(
            (a.total_mass + a.truncated_tail) * (b.total_mass + b.truncated_tail),
            abs=1e-9,
        )


class TestCdfPercentile:
    def test_cdf_values_from_fixture_table(self):
        e4 = dist(E4)
        assert e4.cdf(1) == 0.0
        assert e4.cdf(2) == pytest.approx(0.5)
        assert e4.cdf(3) == pytest.approx(1.0)
        # The bins every constructor rejects, read through the same rule.
        for t, message in BAD_BINS + [("2", "must be an integer, got '2'")]:
            with pytest.raises(ValueError, match=f"^bin index {re.escape(message)}$"):
                e4.cdf(t)

    def test_cdf_nondecreasing(self):
        d = convolve(dist(E2), dist(E3))
        values = [d.cdf(t) for t in range(10)]
        assert values == sorted(values)

    def test_percentiles_of_product(self):
        d = convolve(dist(E2), dist(E4))
        assert d.percentile(0.05) == 3
        assert d.percentile(0.95) == 6

    def test_percentile_point_mass(self):
        assert DiscreteDistribution.point_mass(5).percentile(0.5) == 5

    def test_percentile_range_check(self):
        d = dist(E4)
        for p in (-0.1, 1.5):
            with pytest.raises(ValueError):
                d.percentile(p)

    def test_percentile_unreachable_mass(self):
        d = DiscreteDistribution([0.0, 0.6], truncated_tail=0.4)
        with pytest.raises(ValueError, match="never reaches"):
            d.percentile(0.99)

    def test_mean_matches_fixture_expectations(self):
        assert dist(E1).mean() == pytest.approx(2.1)
        assert dist(E2).mean() == pytest.approx(1.8)
        assert dist(E3).mean() == pytest.approx(2.2)
        assert dist(E4).mean() == pytest.approx(2.5)
