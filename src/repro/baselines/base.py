"""Common interface for dimmable VLC modulation schemes.

AMPPM and the state-of-the-art schemes it is compared against (OOK-CT,
MPPM, and the related-work VPPM/OPPM) all answer the same two
questions, so they share one interface:

* given a required dimming level, how are payload bits turned into
  ON/OFF slots (and back)?
* what throughput does that mapping achieve under a slot error model?

A :class:`ModulationScheme` is the per-scheme factory; calling
:meth:`ModulationScheme.design` binds it to a dimming level and returns
a :class:`SchemeDesign` that the frame codec and the analytic link
model both consume.

MPPM, OPPM, VPPM and DarkLight send every symbol in one fixed shape, so
they share one :class:`FixedSymbolDesign`: Eq. (3) for its error rate
and AMPPM's symbol walk (:class:`~repro.core.coding.StreamCodec`) for
its bits.  Each scheme keeps only its parameter choice and its codeword
map.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from ..core.coding import StreamCodec
from ..core.errormodel import SlotErrorModel
from ..core.params import SystemConfig


class SchemeDesign(ABC):
    """A modulation scheme bound to one dimming level.

    AMPPM's design, :class:`~repro.core.ampdesign.AmppmDesign`, answers
    these same members without subclassing this class, because
    ``repro.core`` imports nothing from another ``repro`` package.
    """

    #: dimming level the caller asked for
    target_dimming: float

    @property
    @abstractmethod
    def achieved_dimming(self) -> float:
        """Dimming level the slot stream actually averages to."""

    @abstractmethod
    def normalized_rate(self, errors: SlotErrorModel | None = None) -> float:
        """Asymptotic expected data bits per slot (goodput factor)."""

    @abstractmethod
    def payload_slots(self, n_bits: int) -> int:
        """Slots needed to carry ``n_bits`` payload bits."""

    @abstractmethod
    def success_probability(self, n_bits: int, errors: SlotErrorModel) -> float:
        """Probability that an ``n_bits`` payload decodes error-free."""

    @abstractmethod
    def encode_payload(self, bits: Sequence[int]) -> list[bool]:
        """Map payload bits to an ON/OFF slot sequence."""

    @abstractmethod
    def decode_payload(self, slots: Sequence[bool], n_bits: int) -> list[int]:
        """Recover ``n_bits`` payload bits from a slot sequence.

        Raises ValueError (or a subclass) when the slots are corrupted
        in a way the scheme can detect.
        """

    def data_rate(self, config: SystemConfig,
                  errors: SlotErrorModel | None = None) -> float:
        """Asymptotic PHY data rate in bit/s (no frame overhead)."""
        return self.normalized_rate(errors) / config.t_slot


class ModulationScheme(ABC):
    """Factory of :class:`SchemeDesign` objects for one scheme."""

    #: short name used in experiment tables ("AMPPM", "OOK-CT", ...)
    name: str = "scheme"

    def __init__(self, config: SystemConfig | None = None):
        self.config = config if config is not None else SystemConfig()

    @property
    @abstractmethod
    def supported_range(self) -> tuple[float, float]:
        """Dimming levels the scheme can serve."""

    @abstractmethod
    def design(self, dimming: float) -> SchemeDesign:
        """Bind the scheme to a required dimming level."""

    def design_clamped(self, dimming: float) -> SchemeDesign:
        """Clamp out-of-range requests to the nearest supported level."""
        lo, hi = self.supported_range
        return self.design(min(max(dimming, lo), hi))


class FixedSymbolDesign(SchemeDesign):
    """A design that sends every symbol in one fixed shape.

    Each symbol spans ``n_slots`` slots, ``n_on`` of them ON, and
    carries ``bits`` data bits (at least 1), so a symbol decodes only
    when every slot does: Eq. (3),
    :meth:`~repro.core.errormodel.SlotErrorModel.symbol_error_rate`.
    Bits go through :class:`~repro.core.coding.StreamCodec` with the
    design itself as the one codeword map of the cycle: a subclass
    defines ``bits`` and ``encode(value)``, and may replace the
    nearest-codeword ``decode(slots)``.
    """

    #: data bits per symbol
    bits: int

    def __init__(self, target_dimming: float, n_slots: int, n_on: int,
                 config: SystemConfig):
        self.target_dimming = target_dimming
        self.n_slots = n_slots
        self.n_on = n_on
        self.config = config

    @abstractmethod
    def encode(self, value: int) -> Sequence[bool]:
        """The ``n_slots`` slots of one symbol carrying ``value``."""

    def decode(self, slots: Sequence[bool]) -> int:
        """The value whose codeword is nearest ``slots`` in Hamming
        distance; a tie reads the lower value.

        A subclass whose codewords let it detect a corrupted symbol
        replaces this and raises ValueError instead.
        """
        distances = [sum(a != b for a, b in zip(slots, self.encode(value)))
                     for value in range(1 << self.bits)]
        return distances.index(min(distances))

    @property
    def achieved_dimming(self) -> float:
        return self.n_on / self.n_slots

    def _symbol_success(self, errors: SlotErrorModel) -> float:
        return 1.0 - errors.symbol_error_rate(self.n_slots, self.n_on)

    def normalized_rate(self, errors: SlotErrorModel | None = None) -> float:
        rate = self.bits / self.n_slots
        if errors is not None:
            rate *= self._symbol_success(errors)
        return rate

    def payload_slots(self, n_bits: int) -> int:
        return StreamCodec([self]).slots_for_bits(n_bits)

    def success_probability(self, n_bits: int, errors: SlotErrorModel) -> float:
        """Every one of the ceil(n_bits / bits) symbols must decode."""
        return self._symbol_success(errors) ** -(-n_bits // self.bits)

    def encode_payload(self, bits: Sequence[int]) -> list[bool]:
        slots, _padding = StreamCodec([self]).encode_stream(bits)
        return slots

    def decode_payload(self, slots: Sequence[bool], n_bits: int) -> list[int]:
        return StreamCodec([self]).decode_stream(slots, n_bits)


def nearest_on_count(scheme: str, dimming: float, n_slots: int) -> int:
    """The ON count K in [1, N - 1] whose K/N is nearest ``dimming``.

    How MPPM and the pulse schemes snap a requested level to their
    fixed K/N grid.
    """
    if not 0.0 < dimming < 1.0:
        raise ValueError(f"{scheme} dimming level must lie in (0, 1)")
    if n_slots < 2:
        raise ValueError(f"{scheme} needs at least two slots per symbol")
    return min(max(round(dimming * n_slots), 1), n_slots - 1)


class FixedLengthScheme(ModulationScheme):
    """Factory of one fixed-symbol design at a fixed symbol length N.

    A subclass names its ``design_class`` and ``DEFAULT_N``; the scheme
    serves the K/N grid from 1/N to (N - 1)/N.
    """

    #: symbol length used when the caller names none
    DEFAULT_N: int
    #: the design bound to a dimming level: ``(dimming, n_slots, config)``
    design_class: type[FixedSymbolDesign]

    def __init__(self, config: SystemConfig | None = None,
                 n_slots: int | None = None):
        super().__init__(config)
        self.n_slots = n_slots if n_slots is not None else self.DEFAULT_N
        if self.n_slots < 2:
            raise ValueError(f"{self.name} needs at least two slots per symbol")

    @property
    def supported_range(self) -> tuple[float, float]:
        return 1.0 / self.n_slots, (self.n_slots - 1) / self.n_slots

    def design(self, dimming: float) -> FixedSymbolDesign:
        return self.design_class(dimming, self.n_slots, self.config)


def bits_to_bools(bits: Sequence[int]) -> list[bool]:
    """Validate and convert a 0/1 sequence to booleans."""
    out = []
    for bit in bits:
        if bit not in (0, 1):
            raise ValueError(f"payload bits must be 0 or 1, got {bit!r}")
        out.append(bool(bit))
    return out
