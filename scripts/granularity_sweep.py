#!/usr/bin/env python3
"""Sweep the time granularity on one dataset and report filtered metrics.

A granularity is a fixed unit in days for event data and a year-clubbing
threshold for interval data; ``collapsed`` puts every fact on one time step,
the time-blind ablation. ``--subsample`` keeps a seeded subsample of each
split: ``--grans 1 collapsed --subsample 10000 1000 2000`` is the desk-scale
benchmark on an event dataset. Rows land in a TSV for plotting.

The splits are read once, at the data's own resolution (1 day for point
data, one bin per year for interval data), and every row's validation and
test filters bin there; only the model's steps follow the granularity. A
filter on coarse steps counts every fact of a step as true on all its days,
so a coarse unit could win by filtering alone.
"""

import argparse
import sys
import time

from tero.data import INTERVAL_TSV, POINT_TSV, build_binning, load_dataset
from tero.synthetic import collapsed_binning, subsample_dataset
from tero.training import TrainConfig, train_and_test

EVENT_UNITS = [1, 2, 3, 7, 14, 30, 90, 365]
INTERVAL_THRESHOLDS = [1, 3, 10, 30, 100, 300, 1000, 3000, 10000, 30000]


def granularity(text: str) -> int | str:
    return text if text == "collapsed" else int(text)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--train", required=True)
    ap.add_argument("--valid", required=True)
    ap.add_argument("--test", required=True)
    ap.add_argument("--format", choices=[POINT_TSV, INTERVAL_TSV], default=POINT_TSV)
    ap.add_argument("--grans", type=granularity, nargs="*", default=None,
                    help="granularities to sweep, or 'collapsed' (defaults per format)")
    ap.add_argument("--subsample", type=int, nargs=3, metavar=("TRAIN", "VALID", "TEST"),
                    help="facts to keep per split, drawn with --seed")
    ap.add_argument("--dim", type=int, default=100)
    ap.add_argument("--margin", type=float, default=30.0)
    ap.add_argument("--lr", type=float, default=0.1)
    ap.add_argument("--epochs", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="granularity_sweep.tsv")
    args = ap.parse_args()

    point = args.format == POINT_TSV
    ds = load_dataset(args.train, args.valid, args.test, args.format,
                      unit_days=1 if point else None, threshold=None if point else 1)
    if args.subsample:
        ds = subsample_dataset(ds, *args.subsample, args.seed)
    print(f"{len(ds.train)}/{len(ds.valid)}/{len(ds.test)} facts, {ds.vocab.n_entities} "
          f"entities, filtered on {ds.binning.n_tau} time steps", file=sys.stderr)

    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("granularity\tn_tau\tmrr\thits1\thits3\thits10\tseconds\n")
        for g in args.grans or (EVENT_UNITS if point else INTERVAL_THRESHOLDS):
            binning = (collapsed_binning(ds) if g == "collapsed" else
                       build_binning(ds.all_facts, *((g, None) if point else (None, g))))
            config = TrainConfig(k=args.dim, margin=args.margin, lr=args.lr,
                                 max_epochs=args.epochs, valid_every=50, patience=5,
                                 seed=args.seed, dual=ds.dual,
                                 time_unit=binning.param if point else None,
                                 time_threshold=None if point else binning.param)
            begin = time.time()
            _, _, report = train_and_test(ds, config, binning)
            row = (f"{g}\t{binning.n_tau}\t{report.mrr:.4f}\t{report.hits1:.4f}"
                   f"\t{report.hits3:.4f}\t{report.hits10:.4f}\t{time.time() - begin:.0f}")
            print(row)
            print(row, file=fh, flush=True)
    print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
