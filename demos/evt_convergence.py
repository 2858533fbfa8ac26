"""Extreme-value limits against the exact finite-M expressions.

The exact formulas get numerically heavy for large populations while the
Gumbel-based limits are closed form; this sweep shows the sup-gap over a
threshold grid shrinking as M grows, i.e. where the cheap route is safe.
"""

import numpy as np

from wpcn_select.analytic import (
    Scheme,
    SchemeSpec,
    outage_ebs,
    outage_ibs,
    outage_mms,
    outage_sbs,
)
from wpcn_select.evt import (
    normalizing_constants,
    outage_evt_ebs,
    outage_evt_ibs,
    outage_evt_mms,
    outage_evt_sbs,
)
from wpcn_select.model import dbm_to_watts, default_params

PT_DBM = -40.0
SIZES = (10, 20, 50, 100, 200)
X_GRID = np.geomspace(0.1, 3.0, 30)
CASES = (
    (Scheme.SBS, outage_sbs, outage_evt_sbs),
    (Scheme.EBS, outage_ebs, outage_evt_ebs),
    (Scheme.IBS, outage_ibs, outage_evt_ibs),
    (Scheme.MMS, outage_mms, outage_evt_mms),
)


def main() -> None:
    base = default_params(transmit_power=dbm_to_watts(PT_DBM))
    print(f"sup |limit - exact| over x in [{X_GRID[0]:g}, {X_GRID[-1]:g}], k = 1\n")
    header = "".join(f"{f'M={m}':>12}" for m in SIZES)
    print(f"{'scheme':<8}{header}")
    for scheme, exact, limit in CASES:
        gaps = []
        for m in SIZES:
            params = base.replace(num_devices=m)
            spec = SchemeSpec(scheme, k=1)
            gaps.append(max(
                abs(limit(float(x), spec, params).value
                    - exact(float(x), spec, params).value)
                for x in X_GRID
            ))
        cells = "".join(f"{g:>12.2e}" for g in gaps)
        print(f"{scheme.value:<8}{cells}")

    nc = normalizing_constants(Scheme.SBS, 50, base)
    print(f"\nSBS normalizing constants at M = 50: location {nc.eta:.4f}, "
          f"scale {nc.xi:.4f}")


if __name__ == "__main__":
    main()
