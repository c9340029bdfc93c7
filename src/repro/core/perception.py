"""Human brightness perception (Sections 2.2, 4.3).

The eye's response to light intensity is non-linear: in the dark the
pupil opens and small absolute changes become visible.  The paper uses
the IESNA handbook relationship between measured brightness Im and
perceived brightness Ip (both on a 0-100 scale):

    Ip = 100 * sqrt(Im / 100)

This module works on the normalized 0..1 scale where the relationship
collapses to ``ip = sqrt(im)``; percent-scale helpers are provided for
direct comparison with the paper's plots (Fig. 10).

Flicker comes in two types (Section 2.2): Type-I is a slow ON/OFF
repetition (the f_th >= 250 Hz super-symbol bound,
:meth:`~repro.core.supersymbol.SuperSymbol.flicker_free`) and Type-II
is a perceptible step in average intensity: a move whose
:func:`perceived_step` exceeds tau_p = 0.003, the bound found in the
Table 2 user study (:func:`repro.lighting.flicker.type2_analyze`).
"""

from __future__ import annotations

import math


def to_perceived(measured: float) -> float:
    """Perceived brightness on 0..1 from measured brightness on 0..1.

    A float epsilon of slack is tolerated at both ends: interpolated
    trajectories routinely land at -1e-17 or 1+1e-16.
    """
    if not -1e-9 <= measured <= 1.0 + 1e-9:
        raise ValueError(f"measured brightness must lie in [0, 1], got {measured}")
    return math.sqrt(min(max(measured, 0.0), 1.0))


def to_measured(perceived: float) -> float:
    """Measured brightness on 0..1 from perceived brightness on 0..1."""
    if not -1e-9 <= perceived <= 1.0 + 1e-9:
        raise ValueError(f"perceived brightness must lie in [0, 1], got {perceived}")
    return min(max(perceived, 0.0), 1.0) ** 2


def to_perceived_percent(measured_percent: float) -> float:
    """The paper's formula verbatim: Ip = 100 * sqrt(Im / 100)."""
    return 100.0 * to_perceived(measured_percent / 100.0)


def to_measured_percent(perceived_percent: float) -> float:
    """Inverse of :func:`to_perceived_percent`."""
    return 100.0 * to_measured(perceived_percent / 100.0)


def perceived_step(measured_from: float, measured_to: float) -> float:
    """Magnitude of the perceived change of a measured-domain move."""
    return abs(to_perceived(measured_to) - to_perceived(measured_from))


def measured_step_for(measured_at: float, perceived_delta: float) -> float:
    """Measured-domain increment producing a given perceived increment.

    Starting at ``measured_at`` and moving up, returns the measured step
    whose perceived magnitude equals ``perceived_delta``.  This is the
    variable tau of Fig. 10(b): large when the LED is bright, tiny when
    it is dim.
    """
    if perceived_delta < 0:
        raise ValueError("perceived_delta must be non-negative")
    target = min(to_perceived(measured_at) + perceived_delta, 1.0)
    return to_measured(target) - measured_at

