"""Attack scenario tests: designation, validation, paper registry."""

import numpy as np
import pytest

from repro.attacks import (
    AttackScenario,
    LabelFlippingAttack,
    SameValueAttack,
    no_attack,
)
from repro.experiments import make_scenario, paper_scenario_names


class TestMaliciousDesignation:
    def test_count_matches_fraction(self, rng):
        scenario = AttackScenario.sign_flipping(0.5)
        ids = scenario.malicious_ids(100, rng)
        assert len(ids) == 50
        assert all(0 <= i < 100 for i in ids)

    def test_rounding(self, rng):
        scenario = AttackScenario.label_flipping(0.3)
        assert len(scenario.malicious_ids(10, rng)) == 3

    def test_no_attack_empty(self, rng):
        assert no_attack().malicious_ids(100, rng) == set()

    def test_deterministic_given_rng(self):
        scenario = AttackScenario.same_value(0.4)
        a = scenario.malicious_ids(50, np.random.default_rng(3))
        b = scenario.malicious_ids(50, np.random.default_rng(3))
        assert a == b

    def test_zero_fraction_empty(self, rng):
        scenario = AttackScenario(
            name="x", attack=SameValueAttack(), malicious_fraction=0.0
        )
        assert scenario.malicious_ids(10, rng) == set()


class TestValidation:
    def test_fraction_range(self):
        with pytest.raises(ValueError):
            AttackScenario(name="x", attack=SameValueAttack(), malicious_fraction=1.5)

    def test_attack_required_when_fraction_positive(self):
        with pytest.raises(ValueError):
            AttackScenario(name="x", attack=None, malicious_fraction=0.2)


class TestPaperScenarios:
    def test_five_scenarios(self):
        names = paper_scenario_names()
        assert [make_scenario(name).name for name in names] == names == [
            "additive_noise_50",
            "label_flipping_30",
            "sign_flipping_50",
            "same_value_50",
            "no_attack",
        ]

    def test_fractions_match_paper(self):
        by_name = {name: make_scenario(name) for name in paper_scenario_names()}
        assert by_name["additive_noise_50"].malicious_fraction == 0.5
        assert by_name["label_flipping_30"].malicious_fraction == 0.3
        assert by_name["sign_flipping_50"].malicious_fraction == 0.5
        assert by_name["same_value_50"].malicious_fraction == 0.5
        assert by_name["no_attack"].malicious_fraction == 0.0

    def test_label_flipping_uses_paper_pairs(self):
        scenario = AttackScenario.label_flipping(0.3)
        assert isinstance(scenario.attack, LabelFlippingAttack)
        assert scenario.attack.pairs == ((5, 7), (4, 2))
