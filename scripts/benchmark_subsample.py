#!/usr/bin/env python3
"""Desk-scale benchmark: a seeded 10k-fact subsample versus a time-blind run.

Trains on a subsample of an event dataset (ICEWS14 layout), evaluates under
the time-wise filtered protocol, then repeats with every fact collapsed onto
one shared time step to show what the time information buys. The full-size
reproduction is a separate long run via ``tero train --profile icews14``.
"""

import argparse
import time

from tero.data import POINT_TSV, load_dataset
from tero.synthetic import collapsed_binning, subsample_dataset
from tero.training import TrainConfig, train_and_test


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--train", required=True)
    ap.add_argument("--valid", required=True)
    ap.add_argument("--test", required=True)
    ap.add_argument("--n-train", type=int, default=10_000)
    ap.add_argument("--n-valid", type=int, default=1_000)
    ap.add_argument("--n-test", type=int, default=2_000)
    ap.add_argument("--dim", type=int, default=100)
    ap.add_argument("--margin", type=float, default=30.0)
    ap.add_argument("--lr", type=float, default=0.1)
    ap.add_argument("--epochs", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    full = load_dataset(args.train, args.valid, args.test, POINT_TSV, unit_days=1)
    ds = subsample_dataset(full, args.n_train, args.n_valid, args.n_test, args.seed)
    print(f"subsample: {len(ds.train)}/{len(ds.valid)}/{len(ds.test)} facts, "
          f"{ds.vocab.n_entities} entities, {ds.binning.n_tau} time steps")
    config = TrainConfig(k=args.dim, batch_size=512, neg_ratio=10, margin=args.margin,
                         lr=args.lr, max_epochs=args.epochs, valid_every=50,
                         patience=5, norm_p=1, seed=args.seed)

    def progress(rec, _snapshot):
        print(f"epoch {rec.epoch}: loss {rec.train_loss:.4f} mrr {rec.mrr:.4f}")

    begin = time.time()
    _, _, report = train_and_test(ds, config, on_validation=progress)
    print(f"temporal\tmrr={report.mrr:.4f}\thits@1={report.hits1:.4f}"
          f"\thits@10={report.hits10:.4f}\t({time.time() - begin:.0f}s)")

    begin = time.time()
    _, _, flat_report = train_and_test(ds, config, collapsed_binning(ds), on_validation=progress)
    print(f"time-blind\tmrr={flat_report.mrr:.4f}\thits@1={flat_report.hits1:.4f}"
          f"\thits@10={flat_report.hits10:.4f}\t({time.time() - begin:.0f}s)")
    print(f"granularity gain: {report.mrr - flat_report.mrr:+.4f} mrr")


if __name__ == "__main__":
    main()
