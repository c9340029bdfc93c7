"""Uniform-grid spatial index over the luminaire plane.

A brute-force scan evaluates the Lambertian channel from *every*
luminaire to a receiver — O(cells) per query, every tick, for every
receiver.  Physically almost all of those evaluations are exactly zero:
an upward-facing photodiode under a ``drop_m`` ceiling stops seeing a
luminaire the moment the incidence angle exceeds its field of view,
i.e. beyond the horizontal radius ``drop_m · tan(rx_fov)``.

:class:`LuminaireIndex` hashes luminaires into square buckets of that
radius so queries touch at most a 3×3 neighbourhood:

* :meth:`within` — the luminaires whose horizontal offset is inside
  the cull radius, **in original tuple order** (so downstream float
  sums accumulate in the same order as a brute-force scan and stay
  bit-identical — culled luminaires would have contributed exactly
  ``0.0``).
* :meth:`nearest` — the exact nearest luminaire by ``(distance,
  name)``, identical to a brute-force scan, via an expanding bucket
  ring search.

With the default ``gain_floor = 0.0`` the cull radius is the exact
zero-gain boundary (inflated by one part in 10⁹ so an ulp of
``atan2``/``tan`` disagreement can never flip a boundary luminaire the
wrong way): indexed results are bit-identical to a brute-force scan.  A
positive ``gain_floor`` shrinks the radius to where the gain falls
below the floor — a genuine approximation that trades journal-digest
stability for speed on dense fleets.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..phy.optics import LinkGeometry, OpticalFrontEnd

#: Relative + absolute inflation applied to cull radii so float round
#: trips through tan/atan2 cannot exclude a luminaire whose gain is
#: nonzero (over-inclusion is always safe: the extra gain is 0.0).
_EPS = 1e-9


def _fov_radius(drop_m: float, optics: OpticalFrontEnd) -> float:
    """Horizontal offset beyond which the channel gain is exactly 0.

    :meth:`LinkGeometry.from_offsets` clamps the incidence angle at
    89°, so a field of view of 89° or more never rejects anything —
    the radius is infinite and culling is impossible.
    """
    if optics.rx_fov_deg >= 89.0:
        return math.inf
    radius = drop_m * math.tan(math.radians(optics.rx_fov_deg))
    return radius * (1.0 + _EPS) + _EPS


def _floor_radius(drop_m: float, optics: OpticalFrontEnd,
                  gain_floor: float) -> float:
    """Largest horizontal offset whose channel gain reaches the floor.

    The gain is monotone decreasing in the horizontal offset (distance
    grows and both cosine factors shrink), so plain bisection finds the
    crossing.  Only called with ``gain_floor > 0``.
    """

    def gain(h: float) -> float:
        return optics.channel_gain(LinkGeometry.from_offsets(h, drop_m))

    if gain(0.0) < gain_floor:
        return 0.0
    hi = max(drop_m, 1.0)
    while gain(hi) >= gain_floor:
        hi *= 2.0
        if hi > 1e9:  # pragma: no cover (floor below any reachable gain)
            return math.inf
    lo = 0.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if gain(mid) >= gain_floor:
            lo = mid
        else:
            hi = mid
    return hi * (1.0 + _EPS) + _EPS


class LuminaireIndex:
    """Bucketed luminaires for O(1)-neighbourhood channel queries.

    ``luminaires`` is any sequence of objects with ``name``, ``x_m``
    and ``y_m`` attributes (the :class:`~repro.net.multicell.Luminaire`
    shape); the original sequence order is what :meth:`within`
    preserves.
    """

    def __init__(self, luminaires: Sequence, drop_m: float,
                 optics: OpticalFrontEnd, gain_floor: float = 0.0):
        if not luminaires:
            raise ValueError("an index needs at least one luminaire")
        if not 0 < drop_m < math.inf:
            raise ValueError("drop_m must be finite and positive")
        if not 0 <= gain_floor < math.inf:
            raise ValueError("gain_floor must be finite and non-negative")
        self.luminaires = tuple(luminaires)
        self.radius = _fov_radius(drop_m, optics)
        if gain_floor > 0.0:
            self.radius = min(self.radius,
                              _floor_radius(drop_m, optics, gain_floor))
        if math.isfinite(self.radius) and self.radius > 0.0:
            self._size = self.radius
        else:
            # Degenerate radii (infinite FoV, or a floor above the
            # on-axis gain) still need finite buckets for nearest().
            span = max(
                max(lum.x_m for lum in self.luminaires)
                - min(lum.x_m for lum in self.luminaires),
                max(lum.y_m for lum in self.luminaires)
                - min(lum.y_m for lum in self.luminaires))
            self._size = max(span / max(1.0, math.sqrt(len(self.luminaires))),
                             1.0)
        self._buckets: dict[tuple[int, int], list[int]] = {}
        for i, lum in enumerate(self.luminaires):
            self._buckets.setdefault(self._key(lum.x_m, lum.y_m), []).append(i)
        keys = self._buckets.keys()
        self._kx = (min(k[0] for k in keys), max(k[0] for k in keys))
        self._ky = (min(k[1] for k in keys), max(k[1] for k in keys))

    def _key(self, x: float, y: float) -> tuple[int, int]:
        return (math.floor(x / self._size), math.floor(y / self._size))

    def within(self, position: tuple[float, float]) -> list:
        """Luminaires inside the cull radius, in original order.

        Everything outside has channel gain exactly ``0.0`` (when
        ``gain_floor == 0``), so callers may treat the result as the
        complete set of optically relevant luminaires.
        """
        if math.isinf(self.radius):
            return list(self.luminaires)
        x, y = position
        bx, by = self._key(x, y)
        indices: list[int] = []
        for iy in (by - 1, by, by + 1):
            for ix in (bx - 1, bx, bx + 1):
                bucket = self._buckets.get((ix, iy))
                if bucket:
                    indices.extend(bucket)
        indices.sort()
        return [self.luminaires[i] for i in indices
                if math.hypot(x - self.luminaires[i].x_m,
                              y - self.luminaires[i].y_m) <= self.radius]

    def nearest(self, position: tuple[float, float]):
        """The nearest luminaire by ``(distance, name)`` — exact.

        Buckets are scanned in expanding Chebyshev rings around the
        query's bucket; a luminaire in ring ``k`` is at least
        ``(k − 1)·size`` away, so the search stops as soon as that
        bound strictly exceeds the best distance found (ties must keep
        searching: a farther ring can hold an equal-distance luminaire
        with a smaller name).
        """
        x, y = position
        bx, by = self._key(x, y)
        max_ring = max(abs(bx - self._kx[0]), abs(bx - self._kx[1]),
                       abs(by - self._ky[0]), abs(by - self._ky[1]))
        best = None
        best_key = None
        for ring in range(max_ring + 1):
            if best_key is not None and (ring - 1) * self._size > best_key[0]:
                break
            for ix, iy in self._ring(bx, by, ring):
                for i in self._buckets.get((ix, iy), ()):
                    lum = self.luminaires[i]
                    key = (math.hypot(x - lum.x_m, y - lum.y_m), lum.name)
                    if best_key is None or key < best_key:
                        best, best_key = lum, key
        return best

    @staticmethod
    def _ring(bx: int, by: int, ring: int):
        """Bucket keys at exact Chebyshev distance ``ring`` from (bx, by)."""
        if ring == 0:
            yield (bx, by)
            return
        for ix in range(bx - ring, bx + ring + 1):
            yield (ix, by - ring)
            yield (ix, by + ring)
        for iy in range(by - ring + 1, by + ring):
            yield (bx - ring, iy)
            yield (bx + ring, iy)
