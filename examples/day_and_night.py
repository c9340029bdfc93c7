#!/usr/bin/env python3
"""A full day: SmartVLC while the lights are needed, DarkLight after.

Implements the hand-over the paper's Section 7 sketches: through a
simulated day the controller demands less and less LED light as the sun
rises, down to zero at night — and the link never goes silent, because
the manager drops into DarkLight's imperceptible single-pulse mode
whenever SmartVLC's operating range ends.

Run:  python examples/day_and_night.py
"""

from repro.core import SystemConfig
from repro.lighting import DayNightManager, DaylightAmbient, LinkMode
from repro.sim import Series, ascii_plot

config = SystemConfig()
manager = DayNightManager(config=config)
day = DaylightAmbient(sunrise_s=0.0, sunset_s=1200.0, peak_level=1.0,
                      night_level=0.0, shape=1.0, cloud_depth=0.25,
                      cloud_time_scale_s=20.0, seed=9)

# Around midday the sun alone exceeds the illumination target: the LED
# switches off entirely and DarkLight keeps the link alive.
target_sum = 0.8
times, rates, modes, led = [], [], [], []
for t in range(0, 1201, 10):
    ambient = day.intensity(float(t))
    required = min(max(target_sum - ambient, 0.0), 1.0)
    decision = manager.select(required)
    times.append(float(t))
    led.append(required)
    rates.append(decision.data_rate_factor / config.t_slot / 1e3)
    modes.append(decision.mode)

print("required LED level and link rate over a simulated day:")
print(ascii_plot([Series("LED level x100", tuple(times),
                         tuple(100 * v for v in led)),
                  Series("rate (kbps)", tuple(times), tuple(rates))],
                 width=70, height=12))

night_ticks = sum(1 for m in modes if m is LinkMode.DARKLIGHT)
print(f"\nticks in DarkLight mode : {night_ticks} of {len(modes)}")
print(f"mode hand-overs         : {manager.mode_switches}")
day_rates = [r for r, m in zip(rates, modes) if m is LinkMode.SMARTVLC]
night_rates = [r for r, m in zip(rates, modes) if m is LinkMode.DARKLIGHT]
if day_rates:
    print(f"SmartVLC rate range     : {min(day_rates):.1f}"
          f"..{max(day_rates):.1f} kbps")
if night_rates:
    print(f"DarkLight rate          : {max(night_rates):.2f} kbps "
          "(LED appears off)")
