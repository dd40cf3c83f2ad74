#!/usr/bin/env python3
"""Train the three relation-pattern suites and the time-collapsed ablation.

Each suite has 20 entities and is built so the rotation model can represent
it exactly; the ablation shares one time step across all facts and is judged
under the same fine-grained protocol.
"""

import argparse

from tero.synthetic import (asymmetric_relation_suite, collapsed_binning,
                            reflexive_relation_suite, temporary_relation_suite)
from tero.training import TrainConfig, train_and_test


def run(name, ds, config, train_binning=None):
    _, history, report = train_and_test(ds, config, train_binning)
    print(f"{name}\tmrr={report.mrr:.4f}\thits@1={report.hits1:.4f}"
          f"\thits@10={report.hits10:.4f}\tvalidations={len(history)}")
    return report


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dim", type=int, default=50)
    ap.add_argument("--epochs", type=int, default=500)
    ap.add_argument("--lr", type=float, default=0.3)
    ap.add_argument("--margin", type=float, default=10.0)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    config = TrainConfig(k=args.dim, batch_size=32, neg_ratio=10, margin=args.margin,
                         lr=args.lr, max_epochs=args.epochs, valid_every=25,
                         patience=8, norm_p=1, seed=args.seed)
    run("temporary", temporary_relation_suite(), config)
    run("asymmetric", asymmetric_relation_suite(), config)
    run("reflexive", reflexive_relation_suite(), config)
    ds = temporary_relation_suite()
    run("temporary/time-collapsed", ds, config, train_binning=collapsed_binning(ds))


if __name__ == "__main__":
    main()
