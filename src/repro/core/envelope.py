"""Throughput envelope over candidate symbol patterns (Fig. 9).

Multiplexing two patterns yields a super-symbol whose (dimming,
normalized rate) point lies on the straight segment between the two
patterns' points, weighted by slot share.  The best achievable rate at
every dimming level is therefore the *upper concave envelope* of the
candidate point set, and the best super-symbol at a target level mixes
the two envelope vertices bracketing it — which is exactly why the
paper needs at most two distinct patterns per super-symbol.

The paper finds the envelope with a slope walk (Section 4.2, Step 3):
start from the best pattern near l = 0.5, then repeatedly hop to the
point that minimises the connecting slope on the right (and, mirrored,
maximises it on the left).  That walk is implemented verbatim in
:func:`slope_walk_envelope`; :func:`upper_concave_envelope` is the
classical monotone-chain hull used as the ablation reference — the two
must and do agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errormodel import SlotErrorModel
from .symbols import SymbolPattern


@dataclass(frozen=True)
class EnvelopePoint:
    """A candidate pattern with its plotted coordinates."""

    pattern: SymbolPattern
    dimming: float
    rate: float


@dataclass(frozen=True)
class Envelope:
    """The upper concave envelope: vertices sorted by dimming level."""

    points: tuple[EnvelopePoint, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("an envelope needs at least one vertex")
        dims = [p.dimming for p in self.points]
        if any(b <= a for a, b in zip(dims, dims[1:])):
            raise ValueError("envelope vertices must be strictly increasing in dimming")

    @property
    def dimming_range(self) -> tuple[float, float]:
        """Lowest and highest dimming level the envelope covers."""
        return self.points[0].dimming, self.points[-1].dimming

    def rate_at(self, dimming: float) -> float:
        """Envelope height (normalized rate) at a dimming level.

        Linear interpolation between the bracketing vertices; outside
        the covered range the envelope is undefined and this raises.
        """
        left, right = self.bracket(dimming)
        if left is right:
            return left.rate
        span = right.dimming - left.dimming
        w = (dimming - left.dimming) / span
        return left.rate * (1.0 - w) + right.rate * w

    def bracket(self, dimming: float) -> tuple[EnvelopePoint, EnvelopePoint]:
        """The pair of vertices whose segment covers ``dimming``."""
        lo, hi = self.dimming_range
        if not lo <= dimming <= hi:
            raise ValueError(
                f"dimming {dimming:.4f} outside envelope range [{lo:.4f}, {hi:.4f}]"
            )
        for left, right in zip(self.points, self.points[1:]):
            if left.dimming <= dimming <= right.dimming:
                return left, right
        last = self.points[-1]
        return last, last

    def vertices(self) -> list[SymbolPattern]:
        """The symbol patterns sitting on the envelope."""
        return [p.pattern for p in self.points]


def score_points(patterns: Sequence[SymbolPattern],
                 errors: SlotErrorModel | None = None) -> list[EnvelopePoint]:
    """Project patterns onto the (dimming, normalized rate) plane.

    When several patterns share a dimming level only the best-rate one
    is kept (ties towards the shorter symbol, which has lower SER risk
    and restarts the flicker cycle sooner).
    """
    best: dict[float, EnvelopePoint] = {}
    for pattern in patterns:
        point = EnvelopePoint(pattern, pattern.dimming,
                              pattern.normalized_rate(errors))
        key = round(point.dimming, 12)
        incumbent = best.get(key)
        if (incumbent is None
                or point.rate > incumbent.rate
                or (point.rate == incumbent.rate
                    and pattern.n_slots < incumbent.pattern.n_slots)):
            best[key] = point
    return sorted(best.values(), key=lambda p: p.dimming)


def slope_walk_envelope(patterns: Sequence[SymbolPattern],
                        errors: SlotErrorModel | None = None) -> Envelope:
    """The paper's slope-based envelope construction.

    1. Anchor at the highest-rate point (the paper looks "around 0.5"
       because that is where the maximum always sits for MPPM capacity).
    2. Walking right, repeatedly pick the point minimising the slope of
       the connecting segment; ties go to the farther point so collinear
       runs collapse into one segment.
    3. Walking left, symmetrically maximise the slope.
    """
    points = score_points(patterns, errors)
    if not points:
        raise ValueError("no candidate patterns to build an envelope from")
    anchor = max(points, key=lambda p: (p.rate, -abs(p.dimming - 0.5)))

    # Right of the anchor the envelope descends: the hull edge out of the
    # current vertex is the segment of *largest* slope (the "smallest"
    # slope of the paper's wording refers to its magnitude).  Collinear
    # ties go to the farthest point so interior points collapse away.
    right: list[EnvelopePoint] = []
    current = anchor
    while True:
        ahead = [p for p in points if p.dimming > current.dimming]
        if not ahead:
            break
        base = current
        current = max(
            ahead,
            key=lambda p: ((p.rate - base.rate) / (p.dimming - base.dimming),
                           p.dimming),
        )
        right.append(current)

    # Mirrored on the left: minimise the slope, ties to the farthest
    # (smallest dimming) point.
    left: list[EnvelopePoint] = []
    current = anchor
    while True:
        behind = [p for p in points if p.dimming < current.dimming]
        if not behind:
            break
        base = current
        current = min(
            behind,
            key=lambda p: ((p.rate - base.rate) / (p.dimming - base.dimming),
                           p.dimming),
        )
        left.append(current)

    ordered = list(reversed(left)) + [anchor] + right
    return Envelope(tuple(ordered))


def upper_concave_envelope(patterns: Sequence[SymbolPattern],
                           errors: SlotErrorModel | None = None) -> Envelope:
    """Reference construction: monotone-chain upper hull.

    Used by the tests to validate the slope walk; both
    constructions must return the same vertex chain.
    """
    points = score_points(patterns, errors)
    if not points:
        raise ValueError("no candidate patterns to build an envelope from")
    hull: list[EnvelopePoint] = []
    for point in points:
        while len(hull) >= 2 and _turns_left_or_straight(hull[-2], hull[-1], point):
            hull.pop()
        hull.append(point)
    return Envelope(tuple(hull))


def _turns_left_or_straight(a: EnvelopePoint, b: EnvelopePoint,
                            c: EnvelopePoint) -> bool:
    """True when b lies on or under segment a-c (so b is not a vertex)."""
    cross = ((b.dimming - a.dimming) * (c.rate - a.rate)
             - (b.rate - a.rate) * (c.dimming - a.dimming))
    return cross >= 0.0
