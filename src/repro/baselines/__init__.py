"""State-of-the-art dimmable modulation schemes SmartVLC compares against."""

from .base import FixedLengthScheme, FixedSymbolDesign, ModulationScheme, SchemeDesign
from .darklight import DarkLight, DarkLightDesign
from .mppm import Mppm, MppmDesign
from .ookct import OokCt, OokCtDesign
from .oppm import Oppm, OppmDesign
from .vppm import Vppm, VppmDesign

__all__ = [
    "DarkLight",
    "DarkLightDesign",
    "FixedLengthScheme",
    "FixedSymbolDesign",
    "ModulationScheme",
    "Mppm",
    "MppmDesign",
    "OokCt",
    "OokCtDesign",
    "Oppm",
    "OppmDesign",
    "SchemeDesign",
    "Vppm",
    "VppmDesign",
]
