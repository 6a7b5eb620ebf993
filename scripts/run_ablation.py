"""Loss-variant ablation on the synthetic hierarchy.

Trains the shared-embedding model with each loss variant over several
seeds and reports the hierarchy correlation (d_corr), retrieval RSUM, and
traversal precision/recall per variant.  The defaults match the scenario
the acceptance suite asserts on: 200 images x 4 levels, embedding dim 32,
10 epochs.

Usage:
    python3 scripts/run_ablation.py --out /tmp/ablation
    python3 scripts/run_ablation.py --seeds 0 1 2 --epochs 5
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from descmatch import datagen, evaluation, trainer
from descmatch.losses import LossConfig


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="ablation_out",
                    help="directory for datasets and the results JSON")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    ap.add_argument("--images", type=int, default=200)
    ap.add_argument("--levels", type=int, default=4)
    ap.add_argument("--feature-dim", type=int, default=48)
    ap.add_argument("--noise-sigma", type=float, default=0.25)
    ap.add_argument("--embed-dim", type=int, default=32)
    ap.add_argument("--epochs", type=int, default=10)
    ap.add_argument("--batch-size", type=int, default=64)
    ap.add_argument("--lr", type=float, default=1e-2)
    ap.add_argument("--variants", nargs="+",
                    default=["baseline", "adaptive", "full"],
                    choices=sorted(trainer.LOSS_VARIANTS))
    return ap.parse_args(argv)


def run_one(dataset, variant, args, seed):
    config = trainer.TrainConfig(embed_dim=args.embed_dim,
                                 batch_size=args.batch_size,
                                 epochs=args.epochs, lr=args.lr,
                                 seed=seed, variant=variant,
                                 loss=LossConfig())
    result = trainer.train(dataset, config)
    img_e, txt_e = trainer.embed_dataset(result.params, dataset)
    report = evaluation.evaluate(img_e, txt_e, dataset.image_of_text,
                                 levels=dataset.levels)
    return {
        "d_corr": report["d_corr"],
        "rsum": report["rsum"],
        "precision": report["hierarchical"]["precision"],
        "recall": report["hierarchical"]["recall"],
    }


def main(argv=None):
    args = parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    results = {v: [] for v in args.variants}
    for seed in args.seeds:
        spec = datagen.SynthSpec(n_images=args.images, levels=args.levels,
                                 feature_dim=args.feature_dim,
                                 noise_sigma=args.noise_sigma, seed=seed)
        paths = datagen.write_dataset(out / f"data_seed{seed}", spec)
        dataset = trainer.load_dataset(paths["corpus"], paths["table"],
                                       paths["image_features"],
                                       paths["text_features"])
        for variant in args.variants:
            tick = time.perf_counter()
            row = run_one(dataset, variant, args, seed)
            row["seed"] = seed
            row["seconds"] = round(time.perf_counter() - tick, 2)
            results[variant].append(row)
            print(f"seed {seed} {variant:9s} d_corr {row['d_corr']:6.1f} "
                  f"rsum {row['rsum']:6.1f} P {row['precision']:5.1f} "
                  f"R {row['recall']:5.1f} ({row['seconds']:.1f}s)")

    print()
    print(f"{'variant':9s} {'median d_corr':>13s} {'median rsum':>11s} "
          f"{'median P':>8s} {'median R':>8s}")
    summary = {}
    for variant in args.variants:
        rows = results[variant]
        med = {key: statistics.median(r[key] for r in rows)
               for key in ("d_corr", "rsum", "precision", "recall")}
        summary[variant] = med
        print(f"{variant:9s} {med['d_corr']:13.1f} {med['rsum']:11.1f} "
              f"{med['precision']:8.1f} {med['recall']:8.1f}")

    with open(out / "ablation.json", "w", encoding="utf-8") as fh:
        json.dump({"config": vars(args), "runs": results,
                   "medians": summary}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {out / 'ablation.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
