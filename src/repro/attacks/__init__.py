"""Poisoning attacks and attack scenarios (paper Section IV-B)."""

from .backdoor import BackdoorAttack, apply_trigger, backdoor_success_rate
from .base import Attack, DataPoisoningAttack, ModelPoisoningAttack
from .composite import CompositeAttack
from .data_poisoning import PAPER_FLIP_PAIRS, LabelFlippingAttack
from .decoder_poisoning import DecoderPoisoningAttack
from .model_poisoning import AdditiveNoiseAttack, SameValueAttack, SignFlippingAttack
from .optimized import DirectedDeviationAttack, ScalingAttack
from .scenario import AttackScenario, no_attack
from .sensor_fault import SensorFaultAttack

__all__ = [
    "Attack",
    "ModelPoisoningAttack",
    "DataPoisoningAttack",
    "SameValueAttack",
    "SignFlippingAttack",
    "AdditiveNoiseAttack",
    "LabelFlippingAttack",
    "PAPER_FLIP_PAIRS",
    "AttackScenario",
    "no_attack",
    "BackdoorAttack",
    "apply_trigger",
    "backdoor_success_rate",
    "DirectedDeviationAttack",
    "ScalingAttack",
    "SensorFaultAttack",
    "DecoderPoisoningAttack",
    "CompositeAttack",
]
