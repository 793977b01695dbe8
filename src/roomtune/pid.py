"""PI gains for the radiator valve and the window of the integral term;
the control law runs in ``plant.simulate_day``.

Derivative gain is fixed at zero (the loop is inherently stable and a D
term would amplify noise). Gains are sample-time coupled: the control
period is ``plant.STEP_SECONDS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Hard integrator bound: ki * integrator stays within this window so a
# long saturated stretch cannot park the integral term arbitrarily far
# outside the actuator range.
INTEGRAL_TERM_MIN = -1.0
INTEGRAL_TERM_MAX = 2.0


@dataclass(frozen=True)
class PIGains:
    kp: float  # valve-fraction per degC
    ki: float  # valve-fraction per (degC * step)

    def __post_init__(self):
        if not (math.isfinite(self.kp) and math.isfinite(self.ki)):
            raise ValueError("gains must be finite")
        if self.kp < 0 or self.ki < 0:
            raise ValueError("gains must be non-negative")
