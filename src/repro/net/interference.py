"""Co-channel interference between ceiling luminaires.

Neighbouring SmartVLC cells share the optical medium: a receiver under
luminaire A also collects light from luminaire B through the same
Lambertian geometry.  The receiver's DC-removal stage cancels the
*mean* of that foreign signal, but B's AMPPM slots toggle around their
duty cycle, leaving a zero-mean fluctuation of variance

    var_B = l_B · (1 − l_B) · swing_B²

for an interfering swing ``swing_B`` and duty (dimming level) ``l_B``
— a Bernoulli slot process seen through the photodiode.  Summed over
interferers and added in quadrature with the photodiode noise, this
degrades the serving link's slot error probabilities and hence its
SINR and goodput.  A luminaire pinned fully ON or fully OFF does not
fluctuate and contributes nothing, exactly as DC ambient light.

:func:`interference_variance` is the one formula: the object API and
the multicell kernel both sum through it, in the order they list the
interferers.  A sharded network sums another region's luminaires
through it too, at their round-edge LED levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..core.errormodel import SlotErrorModel
from ..phy.channel import VlcChannel
from ..phy.optics import LinkGeometry


@dataclass(frozen=True)
class Interferer:
    """One neighbouring luminaire as seen from a receiver."""

    geometry: LinkGeometry
    duty: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.duty <= 1.0:
            raise ValueError("duty must lie in [0, 1]")


def interference_variance(terms: Iterable[tuple[float, float]]) -> float:
    """Summed slot-toggling variance of ``(duty, swing)`` pairs (amps²).

    The one interference formula, accumulated in iteration order:
    :func:`interference_sigma` feeds it :class:`Interferer` objects'
    swings, the multicell kernel its per-sample cached swings.
    """
    variance = 0.0
    for duty, swing in terms:
        variance += duty * (1.0 - duty) * swing ** 2
    return variance


def interference_sigma(channel: VlcChannel,
                       interferers: Iterable[Interferer]) -> float:
    """RMS interference current from neighbouring luminaires (amps)."""
    return math.sqrt(interference_variance(
        (interferer.duty, channel.signal_swing(interferer.geometry))
        for interferer in interferers))


def swing_slot_errors(channel: VlcChannel, swing: float, ambient: float,
                      interference: Iterable[tuple[float, float]] = ()
                      ) -> SlotErrorModel:
    """:func:`effective_slot_errors` from precomputed swings.

    ``swing`` is the serving link's OFF→ON swing and ``interference``
    holds ``(duty, swing)`` per co-channel interferer; the result is
    the same float-for-float as the geometry-based form.
    """
    extra = math.sqrt(interference_variance(interference))
    return channel.swing_error_model(swing, ambient, extra_noise_a=extra)


def effective_slot_errors(channel: VlcChannel, geometry: LinkGeometry,
                          ambient: float,
                          interferers: Sequence[Interferer] = ()
                          ) -> SlotErrorModel:
    """Slot error model of a link including co-channel interference.

    With no interferers this is exactly
    :meth:`~repro.phy.channel.VlcChannel.slot_error_model`.  It is the
    geometry-based reference for :func:`swing_slot_errors`, which the
    multicell network calls with each tick's precomputed swings.
    """
    return swing_slot_errors(
        channel, channel.signal_swing(geometry), ambient,
        [(interferer.duty, channel.signal_swing(interferer.geometry))
         for interferer in interferers])


def sinr(channel: VlcChannel, geometry: LinkGeometry, ambient: float,
         interferers: Sequence[Interferer] = ()) -> float:
    """Signal-to-interference-plus-noise power ratio of a link.

    Signal power is the squared OFF→ON swing; the denominator sums the
    photodiode noise variance and the interference variance.  Returns
    ``inf`` on a noiseless, interference-free link and ``0`` outside
    the receiver's field of view.
    """
    swing = channel.signal_swing(geometry)
    noise = channel.photodiode.noise_sigma(ambient)
    denominator = noise ** 2 + interference_sigma(channel, interferers) ** 2
    if denominator == 0.0:
        return math.inf if swing > 0 else 0.0
    return swing ** 2 / denominator
