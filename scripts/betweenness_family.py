#!/usr/bin/env python3
"""Map how the exact value moves between its bounds on double spiders.

Two-branch trees are the smallest family where the structural lower and
upper bounds can disagree; the closed formula pins the exact value, so the
whole corridor is visible without search.  For each leg multiset pair and
bridge length the row shows lower, exact, upper, and the conjectured bound.
Rows where lower < exact < upper demonstrate that neither bound is the
value in general.

Example:
    python3 scripts/betweenness_family.py --max-leg 3 --max-bridge 8 --verify
"""

import argparse
import itertools
import sys

from bnbroadcast import (
    bn_number_dp,
    build_family,
    conjectured_upper_bound,
    lower_bound_witness,
    parse_family_spec,
    two_branch_value,
    upper_bound,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-leg", type=int, default=3)
    ap.add_argument("--max-bridge", type=int, default=8)
    ap.add_argument("--legs-per-head", type=int, default=2)
    ap.add_argument("--verify", action="store_true",
                    help="re-solve each tree exactly and compare to the formula")
    args = ap.parse_args()

    legsets = list(
        itertools.combinations_with_replacement(
            range(1, args.max_leg + 1), args.legs_per_head
        )
    )
    header = f"{'family':26} {'n':>3} {'lower':>5} {'exact':>5} {'upper':>5} {'conj':>5}  strict"
    print(header)
    print("-" * len(header))
    strict = 0
    total = 0
    for i, legs1 in enumerate(legsets):
        for legs2 in legsets[i:]:
            for bridge in range(1, args.max_bridge + 1):
                spec = "dspider:%s/%d/%s" % (
                    ",".join(map(str, legs1)),
                    bridge,
                    ",".join(map(str, legs2)),
                )
                tree = build_family(parse_family_spec(spec))
                lower, _ = lower_bound_witness(tree)
                value = two_branch_value(tree)
                upper = upper_bound(tree)
                conj = conjectured_upper_bound(tree)
                if args.verify:
                    solved = bn_number_dp(tree).value
                    if solved != value:
                        print(f"MISMATCH {spec}: formula {value}, solver {solved}",
                              file=sys.stderr)
                        return 1
                between = lower < value < upper
                strict += between
                total += 1
                print(
                    f"{spec:26} {tree.n:>3} {lower:>5} {value:>5} {upper:>5} "
                    f"{conj:>5}  {'yes' if between else ''}"
                )
    print(f"\n{strict} of {total} rows have the value strictly between the bounds",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
