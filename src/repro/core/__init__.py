"""The paper's primary contribution: AMPPM and its supporting pieces.

Public surface:

* :class:`SystemConfig` / :data:`DEFAULT_CONFIG` — operating parameters.
* :class:`SymbolPattern`, :class:`SuperSymbol` — the modulation units.
* :class:`SlotErrorModel` — channel error abstraction (Eq. (3)).
* :class:`AmppmDesigner` / :class:`AmppmDesign` — dimming level → best
  super-symbol (Steps 1-3 of Section 4.2); :func:`shared_designer` —
  the one designer per (config, errors) a process shares.
* :func:`encode_symbol` / :func:`decode_symbol` and the codec classes —
  the combinatorial-dichotomy Algorithms 1-2.
* envelope, perception and adaptation helpers.
"""

from .adaptation import (
    AdaptationPlan,
    Adapter,
    plan_measured_steps,
    plan_perceived_steps,
    safe_measured_tau,
)
from .ampdesign import (
    AmppmDesign,
    AmppmDesigner,
    UnreachableDimmingError,
    shared_designer,
)
from .coding import (
    CodewordWeightError,
    StreamCodec,
    SuperSymbolCodec,
    SymbolCodec,
    decode_symbol,
    encode_symbol,
)
from .combinatorics import binomial, bits_per_symbol, symbol_capacity
from .envelope import Envelope, EnvelopePoint, slope_walk_envelope, upper_concave_envelope
from .errormodel import SlotErrorModel
from .params import DEFAULT_CONFIG, SystemConfig
from .perception import (
    measured_step_for,
    perceived_step,
    to_measured,
    to_measured_percent,
    to_perceived,
    to_perceived_percent,
)
from .supersymbol import SuperSymbol, compose, reachable_dimming_levels
from .symbols import SymbolPattern, candidate_patterns, enumerate_patterns

__all__ = [
    "AdaptationPlan",
    "Adapter",
    "AmppmDesign",
    "AmppmDesigner",
    "CodewordWeightError",
    "DEFAULT_CONFIG",
    "Envelope",
    "EnvelopePoint",
    "SlotErrorModel",
    "StreamCodec",
    "SuperSymbol",
    "SuperSymbolCodec",
    "SymbolCodec",
    "SymbolPattern",
    "SystemConfig",
    "UnreachableDimmingError",
    "binomial",
    "bits_per_symbol",
    "candidate_patterns",
    "compose",
    "decode_symbol",
    "encode_symbol",
    "enumerate_patterns",
    "measured_step_for",
    "perceived_step",
    "plan_measured_steps",
    "plan_perceived_steps",
    "reachable_dimming_levels",
    "safe_measured_tau",
    "shared_designer",
    "slope_walk_envelope",
    "symbol_capacity",
    "to_measured",
    "to_measured_percent",
    "to_perceived",
    "to_perceived_percent",
    "upper_concave_envelope",
]
