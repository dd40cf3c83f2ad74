#!/usr/bin/env python3
"""Sweep the time granularity on one dataset and report filtered metrics.

For event data this varies the fixed unit length in days (1 day up to one
step for the whole span); for interval data it varies the year-clubbing
threshold. Results land in a TSV for plotting.
"""

import argparse
import sys
import time

from tero.data import INTERVAL_TSV, POINT_TSV, load_dataset
from tero.training import TrainConfig, train_and_test

EVENT_UNITS = [1, 2, 3, 7, 14, 30, 90, 365]
INTERVAL_THRESHOLDS = [1, 3, 10, 30, 100, 300, 1000, 3000, 10000, 30000]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--train", required=True)
    ap.add_argument("--valid", required=True)
    ap.add_argument("--test", required=True)
    ap.add_argument("--format", choices=[POINT_TSV, INTERVAL_TSV], default=POINT_TSV)
    ap.add_argument("--grans", type=int, nargs="*", default=None,
                    help="granularities to sweep (defaults per format)")
    ap.add_argument("--dim", type=int, default=100)
    ap.add_argument("--margin", type=float, default=30.0)
    ap.add_argument("--lr", type=float, default=0.1)
    ap.add_argument("--epochs", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="granularity_sweep.tsv")
    args = ap.parse_args()

    grans = args.grans
    if not grans:
        grans = EVENT_UNITS if args.format == POINT_TSV else INTERVAL_THRESHOLDS

    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("granularity\tn_tau\tmrr\thits1\thits3\thits10\tseconds\n")
        for g in grans:
            unit = g if args.format == POINT_TSV else None
            thre = g if args.format == INTERVAL_TSV else None
            ds = load_dataset(args.train, args.valid, args.test, args.format,
                              unit_days=unit, threshold=thre)
            config = TrainConfig(k=args.dim, margin=args.margin, lr=args.lr,
                                 max_epochs=args.epochs, valid_every=50, patience=5,
                                 seed=args.seed, dual=ds.dual,
                                 time_unit=unit, time_threshold=thre)
            begin = time.time()
            _, _, report = train_and_test(ds, config)
            row = (f"{g}\t{ds.binning.n_tau}\t{report.mrr:.4f}\t{report.hits1:.4f}"
                   f"\t{report.hits3:.4f}\t{report.hits10:.4f}\t{time.time() - begin:.0f}")
            print(row)
            fh.write(row + "\n")
            fh.flush()
    print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
