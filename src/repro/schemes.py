"""All modulation schemes behind the common interface, AMPPM included.

This module is the bridge between the core AMPPM designer and the
baseline comparison machinery: :class:`AmppmScheme` wraps
:class:`repro.core.AmppmDesigner` in the :class:`ModulationScheme`
interface so the frame codec, the MAC and every experiment harness can
treat all schemes uniformly.  Its designs are the designer's memoised
:class:`~repro.core.ampdesign.AmppmDesign` objects, which answer the
:class:`SchemeDesign` members themselves.
"""

from __future__ import annotations

from .baselines.base import ModulationScheme, SchemeDesign
from .baselines.mppm import Mppm, MppmDesign
from .baselines.ookct import OokCt, OokCtDesign
from .baselines.oppm import Oppm, OppmDesign
from .baselines.vppm import Vppm, VppmDesign
from .core.ampdesign import AmppmDesign, shared_designer
from .core.errormodel import SlotErrorModel
from .core.params import SystemConfig


class AmppmScheme(ModulationScheme):
    """AMPPM as a :class:`ModulationScheme` (the paper's contribution)."""

    name = "AMPPM"

    def __init__(self, config: SystemConfig | None = None,
                 errors: SlotErrorModel | None = None):
        super().__init__(config)
        self.designer = shared_designer(self.config, errors)

    @property
    def supported_range(self) -> tuple[float, float]:
        return self.designer.supported_range

    def design(self, dimming: float) -> AmppmDesign:
        return self.designer.design(dimming)


def standard_schemes(config: SystemConfig | None = None,
                     errors: SlotErrorModel | None = None) -> list[ModulationScheme]:
    """The paper's comparison set: AMPPM, OOK-CT and MPPM(N=20)."""
    config = config if config is not None else SystemConfig()
    return [AmppmScheme(config, errors), OokCt(config), Mppm(config)]


__all__ = [
    "AmppmScheme",
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
    "standard_schemes",
]
