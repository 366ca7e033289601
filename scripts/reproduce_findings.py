#!/usr/bin/env python3
"""Reproduce the headline findings end to end and print a summary.

Runs the preimage table, the worked forgery examples, the size
arithmetic, a bulk forgery-success experiment, and the four analysis
studies, all from one seed.  Every number printed here is recomputed,
not hard-coded.
"""

import argparse
import time

from blokit import (
    FeatureVector,
    TransformParams,
    build_table,
    count_preimages,
    enumerate_preimages,
    fiber_census,
    forge,
    from_text,
    linkability_study,
    random_bits,
    recovery_probability,
    revocability_check,
    transform,
)


def banner(title):
    print()
    print(f"== {title} ==")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2026, help="master seed")
    parser.add_argument("--forgeries", type=int, default=1000,
                        help="bulk forgery experiment size")
    parser.add_argument("--trials", type=int, default=100_000,
                        help="Monte Carlo trials for the recovery study")
    parser.add_argument("--full-census", action="store_true",
                        help="also run the 2^20-input census (slower)")
    args = parser.parse_args()
    params = TransformParams(5)
    print(f"seed\t{args.seed}")

    banner("preimage table, 5-bit blocks")
    print(build_table(5).render())

    banner("worked forgery examples")
    for feature_text in ("10010", "1001010000"):
        tpl = transform(from_text(feature_text), params)
        fiber = [fv.data.to_text() for fv in enumerate_preimages(tpl, 16)]
        print(f"template {tpl.data.to_text()}  fiber {{{', '.join(fiber)}}}")

    banner("size arithmetic")
    tpl = transform(FeatureVector(random_bits(1795, args.seed, "size")), params)
    print("feature_bits\t1795")
    print(f"blocks\t{tpl.block_count}")
    print(f"template_bits\t{tpl.data.length}")
    print(f"preimages\t{count_preimages(tpl)}")

    banner(f"bulk forgery success ({args.forgeries} random templates)")
    t0 = time.perf_counter()
    successes = 0
    for i in range(args.forgeries):
        fv = FeatureVector(random_bits(1795, args.seed, f"user/{i}"))
        tpl = transform(fv, params)
        forged = forge(tpl, random_bits(tpl.block_count, args.seed, f"selector/{i}"))
        successes += transform(forged, params).same_template(tpl)
    print(f"forgeries_accepted\t{successes}/{args.forgeries}")
    print(f"elapsed_seconds\t{time.perf_counter() - t0:.2f}")

    census_sizes = [10, 15, 20] if args.full_census else [10, 15]
    for bits in census_sizes:
        banner(f"fiber census ({bits} bits)")
        print(fiber_census(bits, 5).to_text())

    banner("original-recovery probability (two blocks)")
    print(recovery_probability(10, 5, trials=args.trials, seed=args.seed).to_text())

    banner("cross-device linkability (10 users x 5 devices)")
    print(linkability_study(10, 5, params, seed=args.seed, keyed_baseline=True).to_text())

    banner("revocability (100 re-enrollments)")
    fv = FeatureVector(random_bits(1795, args.seed, "revoke"))
    print(revocability_check(fv, params, attempts=100).to_text())


if __name__ == "__main__":
    main()
