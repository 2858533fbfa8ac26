"""The harvest/transmit split: longer charging raises energy but steepens
the rate requirement, so outage is U-shaped in t1 with an interior optimum.

Prints the outage profile for the ranked schemes and the optimal t* for
each.  The optimum is exactly scheme independent: t1 reaches the outage only
through the scaled threshold theta = (2^(Q/t2) - 1) t2/t1, no selection rule
depends on t1, so every scheme's outage rises with theta and t* = argmin
theta depends on Q alone.
"""

import numpy as np

from wpcn_select.analytic import Method, Scheme, SchemeSpec
from wpcn_select.experiments import evaluate_point, find_optimal_t1
from wpcn_select.model import default_params

K = 2
T1_GRID = np.linspace(0.1, 0.9, 9)
SCHEMES = (Scheme.SBS, Scheme.EBS, Scheme.IBS, Scheme.MMS)


def main() -> None:
    params = default_params()
    header = "".join(f"{s.value:>14}" for s in SCHEMES)
    print(f"{'t1':<6}{header}")
    for t1 in T1_GRID:
        cells = ""
        for scheme in SCHEMES:
            value = evaluate_point(
                SchemeSpec(scheme, k=K),
                params.replace(harvest_fraction=float(t1)),
                Method.ANALYTIC,
            ).value
            cells += f"{value:>14.4e}"
        print(f"{t1:<6.2f}{cells}")

    print()
    for scheme in SCHEMES:
        best = find_optimal_t1(scheme, K, params)
        print(f"{scheme.value}: t* = {best.t1:.6f}, outage {best.outage.value:.6e}")


if __name__ == "__main__":
    main()
