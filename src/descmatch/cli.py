"""Command-line entry points.

Subcommands: score (descriptiveness table), synth (synthetic dataset),
train, eval, gradcheck.  Every option can also come from a JSON config
file (--config); explicit flags override the file, unknown config keys
are rejected.  Commands that write outputs echo their effective config
next to them.  Exit codes: 0 success, 1 failed check or aborted run,
2 usage, config, or IO errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import corpus as corpus_mod
from . import datagen, evaluation, losses, trainer

REQUIRED = object()  # default marker of an option that must be given

# One row per option: (config key, type, default or REQUIRED, help[, choices]).
# The flag is the key with dashes; config files may spell it either way,
# and the config echo writes the key itself.
_CORPUS = ("corpus", str, REQUIRED, "corpus JSONL path")
_OUT_DIR = ("out", str, REQUIRED, "output directory")
_SEED = ("seed", int, 0, "rng seed")
_DATASET = (
    _CORPUS,
    ("table", str, REQUIRED, "descriptiveness table JSONL path"),
    ("image_features", str, REQUIRED, "image feature manifest path"),
    ("text_features", str, REQUIRED, "text feature manifest path"),
)
_OPTIONS = {
    "score": (
        _CORPUS,
        ("out", str, REQUIRED, "output table JSONL path"),
        ("pool_split", str, "train", "split defining the pool", corpus_mod.VALID_SPLITS),
    ),
    "synth": (
        _OUT_DIR,
        ("images", int, 200, "number of images"),
        ("levels", int, 4, "hierarchy depth"),
        ("shared_vocab", int, 12, "common-word vocabulary size"),
        ("rare_vocab", int, 600, "level-word vocabulary size"),
        ("dim", int, 48, "feature dimension"),
        ("noise_sigma", float, 0.25, "per-level feature noise"),
        _SEED,
    ),
    "train": (
        *_DATASET,
        _OUT_DIR,
        ("split", str, "train", "training split"),
        ("val_split", str, "auto", "validation split, 'auto' or 'none'"),
        ("variant", str, "full", "loss variant", sorted(trainer.LOSS_VARIANTS)),
        ("embed_dim", int, 64, "shared embedding dimension"),
        ("batch_size", int, 128, "texts per batch"),
        ("epochs", int, 25, "training epochs"),
        ("lr", float, 5e-4, "AdamW learning rate"),
        ("weight_decay", float, 1e-4, "decoupled weight decay"),
        ("warmup_epochs", int, 2, "epochs using mean-of-hinges instead of mining"),
        ("decay_epoch", int, 15, "epoch the lr decays at"),
        ("decay_factor", float, 0.1, "lr multiplier at the decay epoch"),
        _SEED,
        ("alpha", float, 0.2, "fixed margin of the baseline variant"),
        ("tau", float, 6.0, "adaptive margin divisor"),
        ("lambda", float, 0.07, "ordering loss weight"),
        ("resume", str, None, "checkpoint to resume from"),
    ),
    "eval": (
        *_DATASET,
        ("checkpoint", str, REQUIRED, "trained checkpoint path"),
        _OUT_DIR,
        ("split", str, "train", "split to evaluate"),
        ("folds", int, None, "also report fold-averaged recalls"),
        ("points", int, 50, "stations on the specific-to-generic walk"),
    ),
    "gradcheck": (
        _SEED,
        ("trials", int, 20, "random batches per loss"),
        ("step", float, 1e-5, "central-difference step"),
        ("tol", float, 1e-4, "relative-error threshold"),
    ),
}


def _fits(type_, default, value) -> bool:
    """Whether a config-file value has the JSON type of its option."""
    if value is None:
        return default is None
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if type_ is float else type_)


def _merge_config(args: argparse.Namespace) -> dict:
    """Defaults, then config-file values, then explicit flags."""
    options = {key: (type_, default, choices)
               for key, type_, default, _, *choices in _OPTIONS[args.command]}
    cfg = {key: (None if default is REQUIRED else default)
           for key, (_, default, _) in options.items()}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except ValueError as exc:
                raise ValueError(f"{args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
        for key, value in loaded.items():
            name = key.replace("-", "_")
            if name not in options:
                raise ValueError(f"{args.config}: unknown config key {key!r}")
            type_, default, choices = options[name]
            if not _fits(type_, default, value):
                raise ValueError(f"{args.config}: {key!r} must be "
                                 f"{type_.__name__}, got {json.dumps(value)}")
            if choices and value not in choices[0]:
                raise ValueError(f"{args.config}: {key!r} must be one of "
                                 f"{', '.join(choices[0])}, got {json.dumps(value)}")
            cfg[name] = value
    for key in options:
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    for key, (_, default, _) in options.items():
        if default is REQUIRED and cfg[key] is None:
            raise ValueError(f"missing required option --{key.replace('_', '-')}")
    return cfg


def _write_config_echo(out_dir, cfg: dict) -> None:
    with open(Path(out_dir) / "config.json", "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_score(cfg: dict) -> int:
    records = corpus_mod.read_corpus_jsonl(cfg["corpus"])
    try:
        _, table = corpus_mod.build_table(records, pool_split=cfg["pool_split"])
    except ValueError as exc:  # the pool split is one of VALID_SPLITS here
        raise ValueError(f"{cfg['corpus']}: {exc}") from exc
    corpus_mod.write_table_jsonl(cfg["out"], table)
    print(f"scored {len(table.scores)} sentences "
          f"(pool split {cfg['pool_split']!r}, raw range "
          f"[{table.raw_min:.6f}, {table.raw_max:.6f}]) -> {cfg['out']}")
    return 0


def _cmd_synth(cfg: dict) -> int:
    spec = datagen.SynthSpec(
        n_images=cfg["images"], levels=cfg["levels"],
        shared_vocab=cfg["shared_vocab"], rare_vocab=cfg["rare_vocab"],
        feature_dim=cfg["dim"], noise_sigma=cfg["noise_sigma"],
        seed=cfg["seed"])
    paths = datagen.write_dataset(cfg["out"], spec)
    _write_config_echo(cfg["out"], cfg)
    for role in sorted(paths):
        print(f"{role}: {paths[role]}")
    return 0


def _load_dataset(cfg: dict, split: str, least: int = 1, need: str = "") -> trainer.Dataset:
    """The split's dataset; raises naming the corpus unless it holds at
    least ``least`` images, which ``need`` needs."""
    dataset = trainer.load_dataset(cfg["corpus"], cfg["table"], cfg["image_features"],
                                   cfg["text_features"], split=split)
    if dataset.n_images < least:
        raise ValueError(f"{cfg['corpus']}: {need} needs at least {least} images, "
                         f"split {split!r} has {dataset.n_images}")
    return dataset


def _train_config(cfg: dict) -> trainer.TrainConfig:
    return trainer.TrainConfig(
        embed_dim=cfg["embed_dim"], batch_size=cfg["batch_size"],
        epochs=cfg["epochs"], lr=cfg["lr"], weight_decay=cfg["weight_decay"],
        warmup_epochs=cfg["warmup_epochs"], decay_epoch=cfg["decay_epoch"],
        decay_factor=cfg["decay_factor"], seed=cfg["seed"],
        variant=cfg["variant"],
        loss=losses.LossConfig(alpha=cfg["alpha"], tau=cfg["tau"],
                               lam=cfg["lambda"]))


def _cmd_train(cfg: dict) -> int:
    dataset = _load_dataset(cfg, cfg["split"], 2, "training")
    val_split = cfg["val_split"]
    if val_split == "auto":
        present = set(corpus_mod.read_corpus_columns(cfg["corpus"]).splits)
        val_split = "val" if ("val" in present and cfg["split"] != "val") else "none"
    val_dataset = None if val_split == "none" else _load_dataset(cfg, val_split)
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    _write_config_echo(out, cfg)

    def log(rec):
        print(f"epoch {rec['epoch']:3d} lr {rec['lr']:.2e} "
              f"loss {rec['loss']:.6f} triplet {rec['triplet']:.6f} "
              f"ordering {rec['ordering']:.6f} val_rsum {rec['val_rsum']:.2f}")

    result = trainer.train(dataset, _train_config(cfg), val_dataset=val_dataset,
                           checkpoint_path=out / "checkpoint.bin",
                           resume_from=cfg["resume"], log_fn=log)
    with open(out / "history.json", "w", encoding="utf-8") as fh:
        json.dump(result.history, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"checkpoint: {out / 'checkpoint.bin'}")
    return 0


def _cmd_eval(cfg: dict) -> int:
    dataset = _load_dataset(cfg, cfg["split"], cfg["folds"] or 1, f"--folds {cfg['folds']}")
    saved = trainer.load_checkpoint(cfg["checkpoint"])
    for weight, feats, key in (("W_img", dataset.image_feats, "image_features"),
                               ("W_txt", dataset.text_feats, "text_features")):
        want = saved["params"][weight].shape[0]
        if feats.shape[1] != want:
            raise ValueError(f"{cfg['checkpoint']}: {weight} takes {want}-dim features, "
                             f"but {cfg[key]} holds {feats.shape[1]}-dim rows")
    img_e, txt_e = trainer.embed_dataset(saved["params"], dataset)
    levels = dataset.levels if (dataset.levels >= 0).any() else None
    report = evaluation.evaluate(img_e, txt_e, dataset.image_of_text,
                                 levels=levels, n_points=cfg["points"],
                                 n_folds=cfg["folds"])
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    _write_config_echo(out, cfg)
    evaluation.write_report_json(out / "report.json", report)
    if "distance_by_level" in report:
        evaluation.write_distance_csv(out / "distance_by_level.csv",
                                      report["distance_by_level"])
    line = (f"rsum {report['rsum']:.2f} "
            f"i2t@1 {report['recall']['i2t'][1]:.2f} "
            f"t2i@1 {report['recall']['t2i'][1]:.2f}")
    if "d_corr" in report:
        line += f" d_corr {report['d_corr']:.2f}"
    print(line)
    print(f"report: {out / 'report.json'}")
    return 0


def _cmd_gradcheck(cfg: dict) -> int:
    result = losses.run_gradcheck(seed=cfg["seed"], trials=cfg["trials"],
                                  h=cfg["step"], tol=cfg["tol"])
    worst_by_loss: dict[str, float] = {}
    for rec in result["trials"]:
        worst_by_loss[rec["loss"]] = max(worst_by_loss.get(rec["loss"], 0.0),
                                         rec["rel_err"])
    for name in sorted(worst_by_loss):
        print(f"{name:16s} max_rel_err {worst_by_loss[name]:.3e}")
    verdict = "PASSED" if result["passed"] else "FAILED"
    print(f"gradcheck {verdict} (trials={cfg['trials']}, h={cfg['step']:g}, "
          f"tol={cfg['tol']:g})")
    return 0 if result["passed"] else 1


_COMMANDS = (
    ("score", _cmd_score, "build a descriptiveness table"),
    ("synth", _cmd_synth, "generate a synthetic dataset"),
    ("train", _cmd_train, "train the shared embedding"),
    ("eval", _cmd_eval, "evaluate a checkpoint"),
    ("gradcheck", _cmd_gradcheck, "finite-difference gradient audit"),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="descmatch",
        description="Descriptiveness-weighted cross-modal retrieval toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func, help_text in _COMMANDS:
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override it")
        for key, type_, default, help_text, *choices in _OPTIONS[command]:
            if default not in (REQUIRED, None):
                help_text += f" (default {default})"
            p.add_argument("--" + key.replace("_", "-"), type=type_,
                           choices=choices[0] if choices else None,
                           help=help_text)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(_merge_config(args))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
