"""Synthetic ADULT data set generator.

The paper's evaluation uses the UCI ADULT data set: 45,222 complete records
with attributes Education, Occupation, Race, Gender (public) and Income
(sensitive, two values, 24.78 % ``>50K``).  The original file cannot be
downloaded in this offline environment, so this module generates a synthetic
table calibrated to the statistics the paper reports and relies on:

* 45,222 records, Income ``>50K`` base rate approximately 24.78 %;
* the motivating rule of Example 1 — the personal group
  ``{Prof-school, Prof-specialty, White, Male}`` contains 501 records of which
  420 (83.83 %) have Income ``>50K``;
* income depends on a small number of education/occupation *tiers* so that
  the chi-square generalisation of Section 3.4 merges values within a tier but
  keeps tiers apart, mirroring the domain-size collapse reported in Table 4
  (Education 16 -> ~7, Occupation 14 -> ~4, Race 5 -> ~2, Gender stays 2).

Only these distributional properties matter to the experiments; individual
record values are synthetic.
"""

from __future__ import annotations

import numpy as np

from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import Table
from repro.utils.rng import default_rng

#: Number of complete records in the UCI ADULT data set, as used in the paper.
ADULT_SIZE = 45_222

#: Fraction of records with Income ``>50K`` reported in the paper.
HIGH_INCOME_RATE = 0.2478

#: The personal group of Example 1 and the counts behind its 83.83 % confidence.
EXAMPLE_GROUP = {
    "Education": "Prof-school",
    "Occupation": "Prof-specialty",
    "Race": "White",
    "Gender": "Male",
}
EXAMPLE_GROUP_SIZE = 501
EXAMPLE_GROUP_HIGH_INCOME = 420

EDUCATION_VALUES = (
    "Preschool", "1st-4th", "5th-6th", "7th-8th", "9th", "10th", "11th", "12th",
    "HS-grad", "Some-college", "Assoc-voc", "Assoc-acdm", "Bachelors", "Masters",
    "Prof-school", "Doctorate",
)
OCCUPATION_VALUES = (
    "Priv-house-serv", "Handlers-cleaners", "Other-service", "Farming-fishing",
    "Machine-op-inspct", "Adm-clerical", "Transport-moving", "Craft-repair",
    "Sales", "Tech-support", "Protective-serv", "Armed-Forces",
    "Exec-managerial", "Prof-specialty",
)
RACE_VALUES = ("White", "Asian-Pac-Islander", "Black", "Amer-Indian-Eskimo", "Other")
GENDER_VALUES = ("Male", "Female")
INCOME_VALUES = ("<=50K", ">50K")

# Tiers: values within the same tier share the same effect on income, so the
# chi-square merging procedure should collapse them, approximating Table 4.
_EDUCATION_TIER = {
    # tier index -> list of values; 7 tiers as in the paper's "after" domain.
    0: ("Preschool", "1st-4th", "5th-6th", "7th-8th"),
    1: ("9th", "10th", "11th", "12th"),
    2: ("HS-grad",),
    3: ("Some-college", "Assoc-voc", "Assoc-acdm"),
    4: ("Bachelors",),
    5: ("Masters",),
    6: ("Prof-school", "Doctorate"),
}
_OCCUPATION_TIER = {
    # 4 tiers as in the paper's "after" domain.
    0: ("Priv-house-serv", "Handlers-cleaners", "Other-service", "Farming-fishing"),
    1: ("Machine-op-inspct", "Adm-clerical", "Transport-moving", "Craft-repair", "Armed-Forces"),
    2: ("Sales", "Tech-support", "Protective-serv"),
    3: ("Exec-managerial", "Prof-specialty"),
}
_RACE_TIER = {
    0: ("White", "Asian-Pac-Islander"),
    1: ("Black", "Amer-Indian-Eskimo", "Other"),
}

# Additive contributions (around a base rate) of each tier to P(Income > 50K).
# Adjacent tiers are kept far enough apart (>= ~6 percentage points after the
# base-rate calibration) for the chi-square test to separate them even for the
# smaller categories, while values inside a tier have identical effects and
# therefore merge (mirroring Table 4's domain collapse).  The weighted average
# of all effects is close to zero so the calibration to the 24.78 % base rate
# barely rescales the gaps.
_BASE_RATE = 0.10
_EDUCATION_TIER_EFFECT = {0: -0.08, 1: 0.00, 2: 0.06, 3: 0.13, 4: 0.24, 5: 0.36, 6: 0.50}
_OCCUPATION_TIER_EFFECT = {0: -0.07, 1: 0.00, 2: 0.07, 3: 0.15}
_RACE_TIER_EFFECT = {0: 0.015, 1: -0.05}
_GENDER_EFFECT = {"Male": 0.02, "Female": -0.04}

# Marginal sampling weights (roughly skewed like the real data: HS-grad and
# Some-college dominate, Prof-school/Doctorate are rare, White dominates Race).
# The rarest categories are floored at ~0.5-1 % so every value has enough
# records for the chi-square test to place it in the right tier.
_EDUCATION_WEIGHTS = {
    "Preschool": 0.006, "1st-4th": 0.008, "5th-6th": 0.012, "7th-8th": 0.018,
    "9th": 0.015, "10th": 0.025, "11th": 0.033, "12th": 0.012,
    "HS-grad": 0.315, "Some-college": 0.215, "Assoc-voc": 0.043, "Assoc-acdm": 0.033,
    "Bachelors": 0.165, "Masters": 0.054, "Prof-school": 0.018, "Doctorate": 0.013,
}
_OCCUPATION_WEIGHTS = {
    "Priv-house-serv": 0.012, "Handlers-cleaners": 0.045, "Other-service": 0.101,
    "Farming-fishing": 0.033, "Machine-op-inspct": 0.066, "Adm-clerical": 0.124,
    "Transport-moving": 0.052, "Craft-repair": 0.135, "Sales": 0.120,
    "Tech-support": 0.031, "Protective-serv": 0.022, "Armed-Forces": 0.012,
    "Exec-managerial": 0.130, "Prof-specialty": 0.117,
}
_RACE_WEIGHTS = {
    "White": 0.838, "Asian-Pac-Islander": 0.031, "Black": 0.093,
    "Amer-Indian-Eskimo": 0.018, "Other": 0.020,
}
_GENDER_WEIGHTS = {"Male": 0.675, "Female": 0.325}


def adult_schema() -> Schema:
    """Return the schema of the (synthetic) ADULT table."""
    return Schema(
        public=(
            Attribute("Education", EDUCATION_VALUES),
            Attribute("Occupation", OCCUPATION_VALUES),
            Attribute("Race", RACE_VALUES),
            Attribute("Gender", GENDER_VALUES),
        ),
        sensitive=Attribute("Income", INCOME_VALUES),
    )


def _tier_of(value: str, tiers: dict[int, tuple[str, ...]]) -> int:
    for tier, values in tiers.items():
        if value in values:
            return tier
    raise ValueError(f"value {value!r} not assigned to a tier")


def high_income_probability(education: str, occupation: str, race: str, gender: str) -> float:
    """Probability that a record with these public values has Income ``>50K``.

    The probability is a sum of tier effects clipped to ``[0.01, 0.95]``.  It
    is the ground-truth model the synthetic generator samples from and is
    exposed so tests can verify the generator's calibration.
    """
    probability = (
        _BASE_RATE
        + _EDUCATION_TIER_EFFECT[_tier_of(education, _EDUCATION_TIER)]
        + _OCCUPATION_TIER_EFFECT[_tier_of(occupation, _OCCUPATION_TIER)]
        + _RACE_TIER_EFFECT[_tier_of(race, _RACE_TIER)]
        + _GENDER_EFFECT[gender]
    )
    return float(np.clip(probability, 0.02, 0.95))


def generate_adult(
    n_records: int = ADULT_SIZE,
    seed: int | np.random.Generator | None = 0,
    plant_example_group: bool = True,
) -> Table:
    """Generate the synthetic ADULT table.

    Parameters
    ----------
    n_records:
        Total number of records (default 45,222 as in the paper).
    seed:
        Seed or generator for reproducibility.
    plant_example_group:
        When true (default), the personal group of Example 1 is planted with
        exactly 501 records, 420 of them ``>50K``, so the disclosure
        experiment of Table 1 reproduces the paper's confidence of 83.83 %.
        A table of at most 501 records has no room for anything else, so it
        is sampled as if this were false.
    """
    if n_records <= 0:
        raise ValueError("n_records must be positive")
    rng = default_rng(seed)
    schema = adult_schema()

    plant = plant_example_group and n_records > EXAMPLE_GROUP_SIZE
    planted = 0
    rows: list[np.ndarray] = []
    if plant:
        planted, high = EXAMPLE_GROUP_SIZE, EXAMPLE_GROUP_HIGH_INCOME
        education = schema.public_attribute("Education").encode(EXAMPLE_GROUP["Education"])
        occupation = schema.public_attribute("Occupation").encode(EXAMPLE_GROUP["Occupation"])
        race = schema.public_attribute("Race").encode(EXAMPLE_GROUP["Race"])
        gender = schema.public_attribute("Gender").encode(EXAMPLE_GROUP["Gender"])
        block = np.empty((planted, 5), dtype=np.int64)
        block[:, 0] = education
        block[:, 1] = occupation
        block[:, 2] = race
        block[:, 3] = gender
        income = np.zeros(planted, dtype=np.int64)
        income[:high] = 1
        rng.shuffle(income)
        block[:, 4] = income
        rows.append(block)

    remaining = n_records - planted
    if remaining > 0:
        rows.append(_sample_background(schema, remaining, rng, exclude_example=plant))

    codes = np.vstack(rows)
    rng.shuffle(codes, axis=0)
    return Table(schema, codes)


def _sample_background(
    schema: Schema, n_records: int, rng: np.random.Generator, exclude_example: bool
) -> np.ndarray:
    """Sample background records from the marginal/tier model."""
    education_attr = schema.public_attribute("Education")
    occupation_attr = schema.public_attribute("Occupation")
    race_attr = schema.public_attribute("Race")
    gender_attr = schema.public_attribute("Gender")

    def weights(attr: Attribute, table: dict[str, float]) -> np.ndarray:
        w = np.array([table[v] for v in attr.values], dtype=float)
        return w / w.sum()

    education = rng.choice(education_attr.size, size=n_records, p=weights(education_attr, _EDUCATION_WEIGHTS))
    occupation = rng.choice(occupation_attr.size, size=n_records, p=weights(occupation_attr, _OCCUPATION_WEIGHTS))
    race = rng.choice(race_attr.size, size=n_records, p=weights(race_attr, _RACE_WEIGHTS))
    gender = rng.choice(gender_attr.size, size=n_records, p=weights(gender_attr, _GENDER_WEIGHTS))

    if exclude_example:
        # Resample any background record that would collide with the planted
        # group so the group's size stays exactly 501.
        example_key = (
            education_attr.encode(EXAMPLE_GROUP["Education"]),
            occupation_attr.encode(EXAMPLE_GROUP["Occupation"]),
            race_attr.encode(EXAMPLE_GROUP["Race"]),
            gender_attr.encode(EXAMPLE_GROUP["Gender"]),
        )
        collision = (
            (education == example_key[0])
            & (occupation == example_key[1])
            & (race == example_key[2])
            & (gender == example_key[3])
        )
        while collision.any():
            n_bad = int(collision.sum())
            education[collision] = rng.choice(
                education_attr.size, size=n_bad, p=weights(education_attr, _EDUCATION_WEIGHTS)
            )
            occupation[collision] = rng.choice(
                occupation_attr.size, size=n_bad, p=weights(occupation_attr, _OCCUPATION_WEIGHTS)
            )
            collision = (
                (education == example_key[0])
                & (occupation == example_key[1])
                & (race == example_key[2])
                & (gender == example_key[3])
            )

    probabilities = np.array(
        [
            high_income_probability(
                education_attr.decode(int(e)),
                occupation_attr.decode(int(o)),
                race_attr.decode(int(r)),
                gender_attr.decode(int(g)),
            )
            for e, o, r, g in zip(education, occupation, race, gender, strict=True)
        ]
    )
    # Rescale so the overall >50K rate matches the paper's 24.78 % base rate.
    scale = HIGH_INCOME_RATE / probabilities.mean()
    probabilities = np.clip(probabilities * scale, 0.005, 0.97)
    income = (rng.random(n_records) < probabilities).astype(np.int64)

    block = np.column_stack([education, occupation, race, gender, income]).astype(np.int64)
    return block
