#!/usr/bin/env python3
"""A whole office: one SmartVLC luminaire, three desks, Wi-Fi feedback.

Extends the paper's single-link evaluation to the deployment its
introduction sketches: receivers at different desks (different link
geometry, different daylight exposure) report ambient readings over a
lossy Wi-Fi uplink; the transmitter fuses the fresh reports, holds the
room's illumination constant, and broadcasts with AMPPM.  We also
account the energy the smart dimming saves — the motivation the paper
opens with.

Run:  python examples/multi_receiver_room.py
"""

import math

from repro.lighting import BlindRampAmbient, energy_report
from repro.link import WifiUplink
from repro.net import desk_room
from repro.phy import LinkGeometry
from repro.sim import Series, ascii_plot

room = desk_room(
    profile=BlindRampAmbient(duration_s=67.0),
    uplink=WifiUplink(latency_s=2e-3, jitter_s=0.5e-3, loss_probability=0.05),
)
result = room.run(67.0)
journal = result.journal
rates = {node.name: [e.get("goodput_bps") / 1e3
                     for e in journal.of_kind("link", actor=node.name)]
         for node in room.nodes}
times = tuple(e.time for e in journal.of_kind("control"))

print("per-desk throughput over the 67 s blind pull (kbps):")
print(ascii_plot([Series(name, times, tuple(kbps))
                  for name, kbps in rates.items()], width=70, height=12))

(lamp,) = room.luminaires
print(f"\n{'desk':>16}  {'distance':>8}  {'angle':>6}  "
      f"{'min kbps':>8}  {'max kbps':>8}")
for node in room.nodes:
    x, y = node.mobility.position(0.0)
    g = LinkGeometry.from_offsets(math.hypot(x - lamp.x_m, y - lamp.y_m),
                                  room.drop_m)
    kbps = rates[node.name]
    print(f"{node.name:>16}  {g.distance_m:7.2f}m  "
          f"{g.incidence_angle_deg:5.1f}°  {min(kbps):8.1f}  {max(kbps):8.1f}")

led_trace = [e.get("led") for e in journal.of_kind("control")]
report = energy_report(led_trace, tick_s=1.0)
print(f"\nLED energy this run : {report.smart_joules:.0f} J "
      f"(avg {report.smart_average_w:.2f} W of {4.7} W)")
print(f"vs dumb always-full  : {report.baseline_joules:.0f} J "
      f"-> {100 * report.saving_fraction:.0f}% saved by smart dimming")
print(f"flicker-free moves   : {result.cell(lamp.name).adjustments}")
