"""All modulation schemes behind the common interface, AMPPM included.

This module is the bridge between the core AMPPM designer and the
baseline comparison machinery: :class:`AmppmScheme` wraps
:class:`repro.core.AmppmDesigner` in the :class:`ModulationScheme`
interface so the frame codec, the MAC and every experiment harness can
treat all schemes uniformly.  :func:`shared_scheme_design` keeps one
wrapper per bucket design, so a design's frame structure is computed
once per process.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Sequence

from .baselines.base import ModulationScheme, SchemeDesign
from .baselines.mppm import Mppm, MppmDesign
from .baselines.ookct import OokCt, OokCtDesign
from .baselines.oppm import Oppm, OppmDesign
from .baselines.vppm import Vppm, VppmDesign
from .core.ampdesign import AmppmDesign, shared_designer
from .core.coding import SuperSymbolCodec
from .core.errormodel import SlotErrorModel
from .core.params import SystemConfig
from .core.symbols import SymbolPattern


class _SymbolPlan(NamedTuple):
    """The symbol walk for one payload bit count, computed once."""

    #: distinct patterns of the walk, in first-use order (at most two)
    patterns: tuple[SymbolPattern, ...]
    #: index into ``patterns`` of every planned symbol, in send order
    sequence: tuple[int, ...]
    n_slots: int


class AmppmSchemeDesign(SchemeDesign):
    """An AMPPM super-symbol exposed through the scheme interface.

    The symbol walk for a payload bit count is fixed by the design, so
    it is planned once per bit count and reused by every later
    :meth:`payload_slots` and :meth:`success_probability` call.
    """

    def __init__(self, design: AmppmDesign, config: SystemConfig):
        self.target_dimming = design.target_dimming
        self.design = design
        self.config = config
        self._codec = SuperSymbolCodec(design.super_symbol)
        self._plans: dict[int, _SymbolPlan] = {}

    @property
    def super_symbol(self):
        """The underlying super-symbol ⟨S1, m1, S2, m2⟩."""
        return self.design.super_symbol

    @property
    def achieved_dimming(self) -> float:
        return self.design.achieved_dimming

    def normalized_rate(self, errors: SlotErrorModel | None = None) -> float:
        return self.design.normalized_rate(errors)

    def _plan(self, n_bits: int) -> _SymbolPlan:
        plan = self._plans.get(n_bits)
        if plan is None:
            walk = [codec.pattern for codec in self._codec.symbol_plan(n_bits)]
            patterns = tuple(dict.fromkeys(walk))
            plan = _SymbolPlan(patterns,
                               tuple(patterns.index(p) for p in walk),
                               sum(p.n_slots for p in walk))
            self._plans[n_bits] = plan
        return plan

    def payload_slots(self, n_bits: int) -> int:
        return self._plan(n_bits).n_slots

    def success_probability(self, n_bits: int, errors: SlotErrorModel) -> float:
        """Every planned symbol must decode: the product of their
        per-symbol success factors, multiplied in send order (one SER
        evaluation per distinct pattern)."""
        plan = self._plan(n_bits)
        factors = [1.0 - p.symbol_error_rate(errors) for p in plan.patterns]
        return math.prod(map(factors.__getitem__, plan.sequence), start=1.0)

    def encode_payload(self, bits: Sequence[int]) -> list[bool]:
        slots, _padding = self._codec.encode_stream(bits)
        return slots

    def decode_payload(self, slots: Sequence[bool], n_bits: int) -> list[int]:
        return self._codec.decode_stream(slots, n_bits)


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

    def design(self, dimming: float) -> AmppmSchemeDesign:
        return shared_scheme_design(self.designer.design(dimming), self.config)


def shared_scheme_design(design: AmppmDesign,
                         config: SystemConfig) -> AmppmSchemeDesign:
    """The process-wide :class:`AmppmSchemeDesign` of one bucket design.

    A bucket's design is fixed (see
    :func:`~repro.core.ampdesign.shared_designer`), and so is its frame
    structure: every consumer of the design — cells, rooms, link
    samples, fuzz cases — shares one wrapper and its symbol plans.
    Keyed by value, so equal designs from any designer share it too.
    Like :func:`~repro.core.ampdesign.shared_designer` the table lives
    as long as the process and holds at most one wrapper per bucket of
    each designer the process uses.
    """
    return _scheme_design_for(design, config)


@functools.cache
def _scheme_design_for(design: AmppmDesign,
                       config: SystemConfig) -> AmppmSchemeDesign:
    return AmppmSchemeDesign(design, config)


def standard_schemes(config: SystemConfig | None = None,
                     errors: SlotErrorModel | None = None) -> list[ModulationScheme]:
    """The paper's comparison set: AMPPM, OOK-CT and MPPM(N=20)."""
    config = config if config is not None else SystemConfig()
    return [AmppmScheme(config, errors), OokCt(config), Mppm(config)]


__all__ = [
    "AmppmScheme",
    "AmppmSchemeDesign",
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
    "shared_scheme_design",
    "standard_schemes",
]
