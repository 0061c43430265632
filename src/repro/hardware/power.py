"""Power budgeting (Eq. 3) and budget bookkeeping.

Eq. 3 converts the user's total power constraint into a crossbar count::

    #crossbar = TotalPower * RatioRram / CrossbarPower(XbSize, ResRram)

``RatioRram`` (Table I, explored in [0.1, 0.4]) is the fraction of total
power granted to the ReRAM arrays; the remaining ``1 - RatioRram`` feeds
the peripheral components via Eq. 5's constraint. :class:`PowerBudget`
tracks both sides so every stage draws from one consistent account.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError, InfeasibleError
from repro.hardware.params import HardwareParams


def crossbar_budget(
    total_power: float,
    ratio_rram: float,
    xb_size: int,
    res_rram: int,
    params: HardwareParams,
) -> int:
    """Eq. 3: how many crossbars the ReRAM power share affords.

    Note ``res_rram`` does not change a crossbar's read power in our
    component model (see :mod:`repro.hardware.params`) but is kept in the
    signature because Eq. 3 names it and alternative technologies may
    price resolution.
    """
    if not math.isfinite(total_power) or total_power <= 0:
        raise ConfigurationError("total power must be positive and finite")
    if not 0.0 < ratio_rram < 1.0:
        raise ConfigurationError(
            f"RatioRram must lie in (0, 1), got {ratio_rram}"
        )
    if res_rram <= 0:
        raise ConfigurationError("ResRram must be positive")
    per_crossbar = params.crossbar_power_of(xb_size)
    count = int(total_power * ratio_rram / per_crossbar)
    if count < 1:
        raise InfeasibleError(
            f"power budget {total_power}W x {ratio_rram} cannot afford a "
            f"single {xb_size}x{xb_size} crossbar ({per_crossbar}W)"
        )
    return count


@dataclass(frozen=True)
class PowerBudget:
    """The two-sided power account of one design point."""

    total_power: float
    ratio_rram: float
    xb_size: int
    res_rram: int
    num_crossbars: int

    @classmethod
    def from_constraint(
        cls,
        total_power: float,
        ratio_rram: float,
        xb_size: int,
        res_rram: int,
        params: HardwareParams,
    ) -> "PowerBudget":
        """Build a budget by applying Eq. 3."""
        count = crossbar_budget(
            total_power, ratio_rram, xb_size, res_rram, params
        )
        return cls(
            total_power=total_power,
            ratio_rram=ratio_rram,
            xb_size=xb_size,
            res_rram=res_rram,
            num_crossbars=count,
        )

    @property
    def rram_power(self) -> float:
        """Power share granted to crossbars."""
        return self.total_power * self.ratio_rram

    @property
    def peripheral_power(self) -> float:
        """Eq. 5 RHS: power available to all non-crossbar components."""
        return self.total_power * (1.0 - self.ratio_rram)
