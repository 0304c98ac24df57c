"""Tests for the synthetic ADULT generator and its paper calibration."""

import numpy as np
import pytest

from repro.dataset.adult import (
    ADULT_SIZE,
    EXAMPLE_GROUP,
    EXAMPLE_GROUP_HIGH_INCOME,
    EXAMPLE_GROUP_SIZE,
    HIGH_INCOME_RATE,
    adult_schema,
    generate_adult,
    high_income_probability,
)


@pytest.fixture(scope="module")
def adult_small():
    return generate_adult(12_000, seed=20150323)


class TestSchema:
    def test_domain_sizes_match_the_paper(self):
        schema = adult_schema()
        assert schema.public_attribute("Education").size == 16
        assert schema.public_attribute("Occupation").size == 14
        assert schema.public_attribute("Race").size == 5
        assert schema.public_attribute("Gender").size == 2
        assert schema.sensitive.size == 2

    def test_default_size_matches_the_paper(self):
        assert ADULT_SIZE == 45_222


class TestGenerator:
    def test_requested_size(self, adult_small):
        assert len(adult_small) == 12_000

    def test_reproducible(self):
        a = generate_adult(2_000, seed=5)
        b = generate_adult(2_000, seed=5)
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_adult(2_000, seed=5)
        b = generate_adult(2_000, seed=6)
        assert a != b

    def test_high_income_rate_close_to_paper(self, adult_small):
        rate = adult_small.sensitive_frequencies()[1]
        assert rate == pytest.approx(HIGH_INCOME_RATE, abs=0.03)

    def test_example_group_planted_exactly(self, adult_small):
        count = adult_small.count(EXAMPLE_GROUP)
        high = adult_small.count(EXAMPLE_GROUP, ">50K")
        assert count == EXAMPLE_GROUP_SIZE
        assert high == EXAMPLE_GROUP_HIGH_INCOME
        assert high / count == pytest.approx(0.8383, abs=0.001)

    def test_plant_can_be_disabled(self):
        table = generate_adult(5_000, seed=0, plant_example_group=False)
        # Without planting the exact 501/420 combination is vanishingly unlikely.
        assert table.count(EXAMPLE_GROUP) != EXAMPLE_GROUP_SIZE or (
            table.count(EXAMPLE_GROUP, ">50K") != EXAMPLE_GROUP_HIGH_INCOME
        )

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            generate_adult(0)

    def test_small_request_still_respects_size(self):
        table = generate_adult(100, seed=0)
        assert len(table) == 100

    @pytest.mark.parametrize("n", [300, EXAMPLE_GROUP_SIZE])
    def test_table_too_small_for_the_example_group_is_publishable(self, n):
        import repro
        from repro.dataset.groups import personal_groups

        table = generate_adult(n, seed=1)
        assert table == generate_adult(n, seed=1, plant_example_group=False)
        assert len(personal_groups(table)) >= 2
        assert set(table.sensitive_codes.tolist()) == {0, 1}
        report = repro.publish(table, strategy="sps", rng=1)
        assert len(report.published) > 0


class TestIncomeModel:
    def test_probability_in_unit_interval(self):
        schema = adult_schema()
        rng = np.random.default_rng(0)
        for _ in range(50):
            education = schema.public_attribute("Education").decode(rng.integers(0, 16))
            occupation = schema.public_attribute("Occupation").decode(rng.integers(0, 14))
            race = schema.public_attribute("Race").decode(rng.integers(0, 5))
            gender = schema.public_attribute("Gender").decode(rng.integers(0, 2))
            probability = high_income_probability(education, occupation, race, gender)
            assert 0.0 < probability < 1.0

    def test_education_is_monotone_across_tiers(self):
        low = high_income_probability("Preschool", "Adm-clerical", "White", "Male")
        mid = high_income_probability("Bachelors", "Adm-clerical", "White", "Male")
        high = high_income_probability("Doctorate", "Adm-clerical", "White", "Male")
        assert low < mid < high

    def test_within_tier_values_share_probability(self):
        a = high_income_probability("Prof-school", "Sales", "White", "Male")
        b = high_income_probability("Doctorate", "Sales", "White", "Male")
        assert a == pytest.approx(b)

    def test_unknown_value_rejected(self):
        with pytest.raises(ValueError):
            high_income_probability("PhD", "Sales", "White", "Male")
