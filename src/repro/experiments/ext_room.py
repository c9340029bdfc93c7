"""Extension: the multi-receiver room over the dynamic blind pull.

Not a paper figure — the paper evaluates one link at a time, but its
system section (Fig. 2) has multiple receivers reporting ambient light
over Wi-Fi.  This harness runs the closed multi-receiver loop (the
one-luminaire :func:`~repro.net.multicell.desk_room` network) and plots
per-desk throughput, demonstrating that one AMPPM design serves every
in-beam receiver simultaneously (broadcast).
"""

from __future__ import annotations

from ..core.params import SystemConfig
from ..lighting.ambient import BlindRampAmbient
from ..net.multicell import desk_room
from ..sim.results import FigureResult, Series
from .registry import register

#: minimum goodput for a desk sample to count as "linked"
LINK_FLOOR_BPS = 1e3


@register("ext-room")
def run(config: SystemConfig | None = None,
        duration_s: float = 67.0) -> FigureResult:
    """Per-desk throughput traces for the default three-desk room."""
    room = desk_room(config, profile=BlindRampAmbient(duration_s=duration_s))
    result = room.run(duration_s)
    series = []
    down = 0
    for node in room.nodes:
        links = result.journal.of_kind("link", actor=node.name)
        down += sum(1 for e in links if e.get("goodput_bps") < LINK_FLOOR_BPS)
        series.append(Series(node.name, tuple(e.time for e in links),
                             tuple(e.get("goodput_bps") / 1e3 for e in links)))
    (lamp,) = result.cells
    return FigureResult(
        figure_id="ext-room",
        title="Extension: per-desk throughput, three receivers, one luminaire",
        x_label="time (s)",
        y_label="throughput (Kbps)",
        series=tuple(series),
        notes=f"link-down samples: {down}; LED moves: "
              f"{lamp.adjustments} flicker-free steps",
    )
