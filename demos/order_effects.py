"""How much is lost when the scheduler picks the k-th best instead of the best.

Sweeps the order index k at fixed population size for each ranked scheme and
checks the closure identity: averaging the k-th best outage over all k must
recover random selection exactly, because ranks partition the population.
"""

from wpcn_select.analytic import Method, Scheme, SchemeSpec, outage_rs
from wpcn_select.experiments import evaluate_point
from wpcn_select.model import default_params, threshold_x

M = 10
SCHEMES = (Scheme.SBS, Scheme.EBS, Scheme.IBS, Scheme.MMS)


def main() -> None:
    params = default_params(num_devices=M)
    x = threshold_x(params)
    table = {s: [] for s in SCHEMES}
    for scheme in SCHEMES:
        for k in range(1, M + 1):
            spec = SchemeSpec(scheme, k=k)
            table[scheme].append(evaluate_point(spec, params, Method.ANALYTIC).value)

    header = "".join(f"{s.value:>14}" for s in SCHEMES)
    print(f"{'k':<4}{header}")
    for k in range(1, M + 1):
        cells = "".join(f"{table[s][k - 1]:>14.4e}" for s in SCHEMES)
        print(f"{k:<4d}{cells}")

    rs = outage_rs(x, SchemeSpec(Scheme.RS), params).value
    for scheme in SCHEMES:
        mean = sum(table[scheme]) / M
        print(f"mean over k for {scheme.value}: {mean:.12e}  "
              f"(random selection {rs:.12e}, gap {abs(mean - rs):.1e})")


if __name__ == "__main__":
    main()
