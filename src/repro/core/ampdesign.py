"""The AMPPM designer: from a required dimming level to the best
super-symbol (Section 4.2, Steps 1-3).

Pipeline, exactly as the paper stages it:

1. *Step 1* — bound the super-symbol length by the Type-I flicker
   constraint, N_max = f_tx / f_th (Eq. (4)).
2. *Step 2* — enumerate symbol patterns S(N, K) and abandon every one
   whose symbol error rate exceeds the configured bound (Fig. 8).
3. *Step 3* — build the throughput envelope with the slope walk
   (Fig. 9) and, for a required dimming level, multiplex the two
   envelope vertices that bracket it into a super-symbol whose dimming
   level lands within the perceived resolution of the target.

Designs are memoised per perceived-resolution bucket, each composed at
the bucket's canonical level, so a design is a pure function of
(config, errors, bucket) and :func:`shared_designer` keeps one designer
per (config, errors) per process; frames, links and cells use the
memoised :class:`AmppmDesign` as it is.  The transmitter re-designs only
when the smart-lighting controller moves the setpoint, the "reduce the
number of brightness adjustments" concern of Section 4.3.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from .coding import StreamCodec, SymbolCodec
from .envelope import Envelope, slope_walk_envelope
from .errormodel import SlotErrorModel
from .params import SystemConfig
from .supersymbol import SuperSymbol, compose
from .symbols import SymbolPattern, candidate_patterns


class _SymbolPlan(NamedTuple):
    """The symbol walk for one payload bit count, computed once."""

    #: distinct patterns of the walk, in first-use order (at most two)
    patterns: tuple[SymbolPattern, ...]
    #: index into ``patterns`` of every planned symbol, in send order
    sequence: tuple[int, ...]
    n_slots: int


@dataclass(frozen=True)
class AmppmDesign:
    """One AMPPM design: a super-symbol bound to a dimming level.

    It answers the members of :class:`~repro.baselines.base.SchemeDesign`
    without subclassing it, because ``repro.core`` imports no other
    ``repro`` package.  Equal and hashed by value.  The codec is built
    with the design, so a super-symbol with a pattern that carries no
    data bits fails at construction.  The symbol walk for a payload bit
    count is fixed by the design, so it is planned once per bit count
    and reused by every later :meth:`payload_slots` and
    :meth:`success_probability` call.
    """

    #: the bucket's canonical level, or the achieved level when the
    #: receiver rebuilds a design from a frame's Pattern field
    target_dimming: float
    super_symbol: SuperSymbol
    _codec: StreamCodec = field(init=False, repr=False, compare=False)
    _plans: dict[int, _SymbolPlan] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        # One cycle: m1 symbols of the first pattern, then m2 of the second.
        object.__setattr__(self, "_codec", StreamCodec(
            SymbolCodec(p) for p in self.super_symbol.symbols()))

    @property
    def achieved_dimming(self) -> float:
        """Dimming level the chosen super-symbol actually produces."""
        return self.super_symbol.dimming

    @property
    def dimming_error(self) -> float:
        """|achieved - target|; at most half the perceived resolution."""
        return abs(self.achieved_dimming - self.target_dimming)

    def normalized_rate(self, errors: SlotErrorModel | None = None) -> float:
        """Expected data bits per slot of the designed super-symbol."""
        return self.super_symbol.normalized_rate(errors)

    def data_rate(self, config: SystemConfig,
                  errors: SlotErrorModel | None = None) -> float:
        """Expected PHY data rate in bit/s."""
        return self.super_symbol.data_rate(config, errors)

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
        """Slots needed to carry ``n_bits`` payload bits."""
        return self._plan(n_bits).n_slots

    def success_probability(self, n_bits: int, errors: SlotErrorModel) -> float:
        """Every planned symbol must decode: the product of their
        per-symbol success factors, multiplied in send order (one SER
        evaluation per distinct pattern)."""
        plan = self._plan(n_bits)
        factors = [1.0 - p.symbol_error_rate(errors) for p in plan.patterns]
        return math.prod(map(factors.__getitem__, plan.sequence), start=1.0)

    def encode_payload(self, bits: Sequence[int]) -> list[bool]:
        """Map payload bits to an ON/OFF slot sequence."""
        slots, _padding = self._codec.encode_stream(bits)
        return slots

    def decode_payload(self, slots: Sequence[bool], n_bits: int) -> list[int]:
        """Recover ``n_bits`` payload bits; ValueError on corrupted slots."""
        return self._codec.decode_stream(slots, n_bits)


class UnreachableDimmingError(ValueError):
    """Raised when a dimming level lies outside every candidate pattern."""

    def __init__(self, target: float, lo: float, hi: float):
        super().__init__(
            f"dimming level {target:.4f} outside the supported range "
            f"[{lo:.4f}, {hi:.4f}]"
        )
        self.target = target
        self.supported = (lo, hi)


class AmppmDesigner:
    """Stateful designer binding a configuration to a channel condition.

    The candidate set and envelope are built once; :meth:`design` is
    then a cheap bracket-and-compose per memo bucket, filled lazily.
    Designs are pure in (config, errors, bucket), so one designer can
    serve any number of consumers (see :func:`shared_designer`).
    """

    def __init__(self, config: SystemConfig | None = None,
                 errors: SlotErrorModel | None = None):
        self.config = config if config is not None else SystemConfig()
        self.errors = (errors if errors is not None
                       else SlotErrorModel.from_config(self.config))
        self._candidates = candidate_patterns(self.config, self.errors)
        if not self._candidates:
            raise ValueError(
                "no symbol pattern survives the SER bound; the channel is "
                "too noisy for MPPM at this configuration"
            )
        self._envelope = slope_walk_envelope(self._candidates, self.errors)
        self._cache: dict[int, AmppmDesign] = {}

    @property
    def candidates(self) -> list[SymbolPattern]:
        """Patterns surviving Steps 1-2 (copy; the designer's set is fixed)."""
        return list(self._candidates)

    @property
    def envelope(self) -> Envelope:
        """The slope-walk throughput envelope over the candidates."""
        return self._envelope

    @property
    def supported_range(self) -> tuple[float, float]:
        """Dimming levels the designer can serve without compensation."""
        return self._envelope.dimming_range

    def memo_key(self, dimming: float) -> int:
        """The memo bucket a dimming request quantizes to.

        Two requests share a design exactly when their clamped dimming
        levels round to the same multiple of the perceived resolution
        ``tau_perceived`` — the same key :meth:`design` memoises under.
        Exposed so callers (the serve engine, the fuzz oracles) can
        group requests by bucket without re-deriving the quantization
        rule.
        """
        lo, hi = self.supported_range
        return round(min(max(dimming, lo), hi) / self.config.tau_perceived)

    def design(self, dimming: float) -> AmppmDesign:
        """Best super-symbol for a required dimming level.

        A memo miss composes the bucket's design at its canonical level
        ``clamp(key * tau_p)`` within tau_p / 2 of it; no request is
        further than tau_p / 2 from its bucket's canonical level, so
        every request is served within tau_p.  Raises
        :class:`UnreachableDimmingError` outside the supported range —
        the caller decides whether to clamp (the smart-lighting
        controller does, because an LED pinned at 2% cannot modulate).
        """
        lo, hi = self.supported_range
        if not lo - 1e-9 <= dimming <= hi + 1e-9:
            raise UnreachableDimmingError(dimming, lo, hi)
        key = self.memo_key(dimming)
        design = self._cache.get(key)
        if design is None:
            level = self.clamp(key * self.config.tau_perceived)
            design = AmppmDesign(level, self._compose_at(level))
            self._cache[key] = design
        return design

    def _compose_at(self, level: float) -> SuperSymbol:
        """Mix the envelope vertices bracketing ``level`` within tau_p / 2."""
        tolerance = self.config.tau_perceived / 2
        left, right = self._envelope.bracket(level)
        if left is right or _close(level, left.dimming):
            return SuperSymbol.single(left.pattern)
        if _close(level, right.dimming):
            return SuperSymbol.single(right.pattern)
        try:
            return compose(left.pattern, right.pattern, level, self.config,
                           tolerance)
        except ValueError:
            # The envelope vertices are too far apart to mix at the
            # required resolution under the repeat-count/flicker caps
            # (this happens near the dimming extremes, where hull
            # segments are long).  Trade rate for resolution: search
            # bracketing candidate pairs off the envelope.
            return self._compose_fallback(level, tolerance)

    def _compose_fallback(self, dimming: float,
                          tolerance: float) -> SuperSymbol:
        """Best-rate composition from non-envelope candidate pairs.

        Considers the nearest candidates on each side of the target,
        ordered by the rate their mix would achieve, and returns the
        first pair that reaches the target within ``tolerance``.
        Smaller-N patterns allow larger repeat counts and therefore
        finer mixing granularity.
        """
        below = sorted((p for p in self._candidates if p.dimming <= dimming),
                       key=lambda p: dimming - p.dimming)[:24]
        above = sorted((p for p in self._candidates if p.dimming >= dimming),
                       key=lambda p: p.dimming - dimming)[:24]
        if not below or not above:
            lo, hi = self.supported_range
            raise UnreachableDimmingError(dimming, lo, hi)

        def mixed_rate(pair: tuple[SymbolPattern, SymbolPattern]) -> float:
            first, second = pair
            span = second.dimming - first.dimming
            if span <= 0:
                return min(first.normalized_rate(self.errors),
                           second.normalized_rate(self.errors))
            w = (dimming - first.dimming) / span
            return ((1.0 - w) * first.normalized_rate(self.errors)
                    + w * second.normalized_rate(self.errors))

        pairs = sorted(
            ((lo_p, hi_p) for lo_p in below for hi_p in above),
            key=mixed_rate, reverse=True)
        for first, second in pairs:
            try:
                return compose(first, second, dimming, self.config,
                               tolerance)
            except ValueError:
                continue
        raise UnreachableDimmingError(dimming, *self.supported_range)

    def clamp(self, dimming: float) -> float:
        """Nearest supported dimming level to the request."""
        lo, hi = self.supported_range
        return min(max(dimming, lo), hi)

    def design_clamped(self, dimming: float) -> AmppmDesign:
        """Like :meth:`design` but clamps out-of-range requests."""
        return self.design(self.clamp(dimming))


def shared_designer(config: SystemConfig | None = None,
                    errors: SlotErrorModel | None = None) -> AmppmDesigner:
    """The process-wide designer for ``(config, errors)``.

    Designs are pure in (config, errors, bucket), so every consumer of
    one channel condition — cells, controllers, the serving engine,
    sweep and fuzz workers — shares one designer and its memo table.
    ``errors=None`` means the config's measured constants, as in
    :class:`AmppmDesigner`.
    """
    config = config if config is not None else SystemConfig()
    return _designer_for(config, errors if errors is not None
                         else SlotErrorModel.from_config(config))


@functools.cache
def _designer_for(config: SystemConfig,
                  errors: SlotErrorModel) -> AmppmDesigner:
    return AmppmDesigner(config, errors)


def _close(a: float, b: float, eps: float = 1e-9) -> bool:
    return abs(a - b) <= eps
