#!/usr/bin/env python3
"""A cloudy office day: smart lighting + VLC riding through weather.

The scenario the paper's Section 6.3 motivates ("in the Netherlands the
weather changes super fast"): a 10-minute day with fast-moving clouds.
The smart-lighting controller holds the room at constant illumination
while the AMPPM designer re-selects super-symbols as the LED dims and
brightens; we track throughput, light budget and adaptation effort.

Run:  python examples/office_day.py
"""

from repro.core import AmppmDesigner, SystemConfig
from repro.lighting import DaylightAmbient, SmartLightingController
from repro.phy import LinkGeometry
from repro.sim import LinkEvaluator, Series, ascii_plot, expected_goodput

config = SystemConfig()
designer = AmppmDesigner(config)
controller = SmartLightingController(target_sum=0.95, config=config,
                                     designer=designer)
weather = DaylightAmbient(sunrise_s=0.0, sunset_s=600.0, peak_level=0.9,
                          night_level=0.0, shape=1.0, cloud_depth=0.55,
                          cloud_time_scale_s=20.0, seed=3)
evaluator = LinkEvaluator(config=config, geometry=LinkGeometry.on_axis(2.5))

times, ambient_trace, led_trace, throughput = [], [], [], []
for t in range(0, 601, 5):
    ambient = weather.intensity(float(t))
    sample = controller.tick(float(t), ambient)
    errors = evaluator.channel.slot_error_model(evaluator.geometry, ambient)
    rate = expected_goodput(sample.design, errors, config)
    times.append(float(t))
    ambient_trace.append(ambient)
    led_trace.append(sample.led)
    throughput.append(rate / 1e3)

print("light budget over the day (normalized):")
print(ascii_plot([
    Series("ambient", tuple(times), tuple(ambient_trace)),
    Series("LED", tuple(times), tuple(led_trace)),
    Series("sum", tuple(times),
           tuple(a + l for a, l in zip(ambient_trace, led_trace))),
], width=70, height=12))

print("\nthroughput under AMPPM (kbps):")
print(ascii_plot([Series("AMPPM", tuple(times), tuple(throughput))],
                 width=70, height=10))

total_sum = [a + l for a, l in zip(ambient_trace, led_trace)]
print(f"\nillumination held at {min(total_sum):.3f}..{max(total_sum):.3f} "
      f"(target 0.95)")
print(f"throughput range  : {min(throughput):.1f}..{max(throughput):.1f} kbps")
print(f"brightness moves  : {controller.adjustments} flicker-free steps")
