"""Smart-lighting substrate: ambient light, controller, flicker, user study."""

from .ambient import (
    AmbientProfile,
    BlindRampAmbient,
    DaylightAmbient,
    ScheduledAmbient,
    StaticAmbient,
)
from .controller import ControllerSample, SmartLightingController
from .energy import EnergyReport, energy_report, led_power_w, trace_energy_j
from .flicker import (
    Type1Report,
    Type2Report,
    max_constant_run,
    type1_perceptual,
    type1_structural_ok,
    type2_analyze,
)
from .modes import DayNightManager, LinkMode, ModeDecision
from .userstudy import (
    DIRECT_RESOLUTIONS,
    INDIRECT_RESOLUTIONS,
    THRESHOLDS,
    AmbientCondition,
    ThresholdDistribution,
    Viewing,
    VolunteerPopulation,
)

__all__ = [
    "AmbientCondition",
    "AmbientProfile",
    "BlindRampAmbient",
    "ControllerSample",
    "DIRECT_RESOLUTIONS",
    "DayNightManager",
    "DaylightAmbient",
    "EnergyReport",
    "LinkMode",
    "ModeDecision",
    "INDIRECT_RESOLUTIONS",
    "ScheduledAmbient",
    "SmartLightingController",
    "StaticAmbient",
    "THRESHOLDS",
    "ThresholdDistribution",
    "Type1Report",
    "Type2Report",
    "Viewing",
    "VolunteerPopulation",
    "energy_report",
    "led_power_w",
    "max_constant_run",
    "trace_energy_j",
    "type1_perceptual",
    "type1_structural_ok",
    "type2_analyze",
]
