"""Command-line entry points.

Subcommands: score (descriptiveness table), synth (synthetic dataset),
train, eval, gradcheck.  Every option can also come from a JSON config
file (--config); explicit flags override the file, unknown config keys
are rejected, and a config value is converted by the option's type as
its flag would be.  An option that sets a library value takes its
default from the class or function that owns that value (TrainConfig,
LossConfig, SynthSpec, build_table, evaluate, run_gradcheck); only the
CLI's own options (split, val_split, folds, resume) spell theirs here.
Commands that write outputs echo their effective config next to them.
Exit codes: 0 success, 1 failed check or aborted run, 2 usage, config,
or IO errors.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from pathlib import Path

# A command runs numpy's BLAS on one thread unless the user set a thread
# count: its products are small, so more threads mostly wait on each other,
# and they slow down sharply while another process holds a core.  OpenBLAS
# reads the variables once, when numpy loads, so they are set here, before
# the library imports below, and only while numpy is not loaded: when this
# module starts the `descmatch` script or `python -m descmatch.cli`.  The
# library modules set no variable.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules and not any(map(os.environ.__contains__, BLAS_THREAD_VARS)):
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

from . import corpus as corpus_mod
from . import datagen, evaluation, geometry, losses, trainer

REQUIRED = object()  # default marker of an option that must be given

# config keys whose library field or parameter has another name
_LIBRARY_NAMES = {"images": "n_images", "dim": "feature_dim", "lambda": "lam",
                  "points": "n_points", "step": "h"}


def _owned(owner, *rows) -> tuple:
    """Option rows (key, type, help[, choices]) given the default that
    ``owner``, a class or a function, gives the field or parameter each
    key names."""
    params = inspect.signature(owner).parameters
    return tuple((key, type_, params[_LIBRARY_NAMES.get(key, key)].default, *rest)
                 for key, type_, *rest in rows)


# One row per option: (config key, type, default or REQUIRED, help[, choices]).
# The flag is the key with dashes; config files may spell it either way,
# and the config echo writes the key itself.
_CORPUS = ("corpus", str, REQUIRED, "corpus JSONL path")
_OUT_DIR = ("out", str, REQUIRED, "output directory")
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
        *_owned(corpus_mod.build_table, ("pool_split", str, "split defining the pool",
                                         corpus_mod.VALID_SPLITS)),
    ),
    "synth": (
        _OUT_DIR,
        *_owned(datagen.SynthSpec,
                ("images", int, "number of images"),
                ("levels", int, "hierarchy depth"),
                ("shared_vocab", int, "common-word vocabulary size"),
                ("rare_vocab", int, "level-word vocabulary size"),
                ("dim", int, "feature dimension"),
                ("noise_sigma", float, "per-level feature noise"),
                ("seed", int, "rng seed")),
    ),
    "train": (
        *_DATASET,
        _OUT_DIR,
        ("split", str, "train", "training split"),
        ("val_split", str, "auto", "validation split, 'auto' or 'none'"),
        *_owned(trainer.TrainConfig,
                ("variant", str, "loss variant", sorted(trainer.LOSS_VARIANTS)),
                ("embed_dim", int, "shared embedding dimension"),
                ("batch_size", int, "texts per batch"),
                ("epochs", int, "training epochs"),
                ("lr", float, "AdamW learning rate"),
                ("weight_decay", float, "decoupled weight decay"),
                ("warmup_epochs", int, "epochs using mean-of-hinges instead of mining"),
                ("decay_epoch", int, "epoch the lr decays at"),
                ("decay_factor", float, "lr multiplier at the decay epoch"),
                ("seed", int, "rng seed")),
        *_owned(losses.LossConfig,
                ("alpha", float, "fixed margin of the baseline variant"),
                ("tau", float, "adaptive margin divisor"),
                ("lambda", float, "ordering loss weight")),
        ("resume", str, None, "checkpoint to resume from"),
    ),
    "eval": (
        *_DATASET,
        ("checkpoint", str, REQUIRED, "trained checkpoint path"),
        _OUT_DIR,
        ("split", str, "train", "split to evaluate"),
        ("folds", int, None, "also report fold-averaged recalls"),
        *_owned(evaluation.evaluate, ("points", int, "stations on the specific-to-generic walk")),
    ),
    "gradcheck": _owned(losses.run_gradcheck,
                        ("seed", int, "rng seed"),
                        ("trials", int, "random batches per loss"),
                        ("step", float, "central-difference step"),
                        ("tol", float, "relative-error threshold")),
}


def _fits(type_, default, value) -> bool:
    """Whether a config-file value has the JSON type of its option."""
    if value is None:
        return default is None
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if type_ is float else type_)


def _once_each(pairs: list) -> dict:
    """A JSON object's pairs as a dict; raises on a key given twice, the
    dash and underscore spellings of a key counting as one."""
    seen = set()
    for key, _ in pairs:
        name = key.replace("-", "_")
        if name in seen:
            raise ValueError(f"config key {name!r} is given twice")
        seen.add(name)
    return dict(pairs)


def _merge_config(args: argparse.Namespace) -> dict:
    """Defaults, then config-file values, then explicit flags.  A config
    value is converted by the option's type, as argparse converts a flag."""
    options = {key: (type_, default, choices)
               for key, type_, default, _, *choices in _OPTIONS[args.command]}
    cfg = {key: (None if default is REQUIRED else default)
           for key, (_, default, _) in options.items()}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                loaded = json.load(fh, object_pairs_hook=_once_each)
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
            try:
                cfg[name] = None if value is None else type_(value)
            except OverflowError as exc:  # an integer too large for a float
                raise ValueError(f"{args.config}: {key!r}: {exc}") from exc
    cfg |= {key: flag for key in options if (flag := getattr(args, key)) is not None}
    for key, (_, default, _) in options.items():
        if default is REQUIRED and cfg[key] is None:
            raise ValueError(f"missing required option --{key.replace('_', '-')}")
    return cfg


def _settings(cls, cfg: dict, **given):
    """``cls`` built from the config values that name its fields, plus
    ``given``; a field neither names keeps its default."""
    fields = inspect.signature(cls).parameters
    return cls(**{name: value for key, value in cfg.items()
                  if (name := _LIBRARY_NAMES.get(key, key)) in fields}, **given)


def _echo(cfg: dict) -> Path:
    """Make the command's output directory and write its effective config
    there as config.json; returns the directory."""
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    geometry.write_json(out / "config.json", cfg)
    return out


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
    paths = datagen.write_dataset(cfg["out"], _settings(datagen.SynthSpec, cfg))
    _echo(cfg)
    for role in sorted(paths):
        print(f"{role}: {paths[role]}")
    return 0


def _load_splits(cfg: dict, val_split: str, least: int, need: str):
    """The datasets of the config's split and of ``val_split`` (see
    `trainer.load_splits`); raises naming the corpus unless the first holds
    at least ``least`` images, which ``need`` needs."""
    dataset, val_dataset = trainer.load_splits(cfg["corpus"], cfg["table"],
                                               cfg["image_features"], cfg["text_features"],
                                               cfg["split"], val_split)
    if dataset.n_images < least:
        raise ValueError(f"{cfg['corpus']}: {need} needs at least {least} images, "
                         f"split {cfg['split']!r} has {dataset.n_images}")
    return dataset, val_dataset


def _load_checkpoint(path: str, cfg: dict, dataset, config=None) -> tuple:
    """`trainer.load_checkpoint` of ``path``, checked against ``config``
    when given, and the image and text embeddings of ``dataset`` under its
    params; raises naming the checkpoint unless its projections take the
    feature widths of ``dataset`` and map every row onto the unit sphere,
    naming the manifest that holds a row they do not."""
    saved = trainer.load_checkpoint(path, config)
    for weight, feats, key in (("W_img", dataset.image_feats, "image_features"),
                               ("W_txt", dataset.text_feats, "text_features")):
        want = saved["params"][weight].shape[0]
        if feats.shape[1] != want:
            raise ValueError(f"{path}: {weight} takes {want}-dim features, "
                             f"but {cfg[key]} holds {feats.shape[1]}-dim rows")
    img_e, txt_e = trainer.embed_dataset(saved["params"], dataset)
    for name, embs, key in (("image", img_e, "image_features"), ("text", txt_e, "text_features")):
        try:
            geometry.check_unit_rows(name, embs)
        except ValueError as exc:
            raise ValueError(f"{path}: maps a row of {cfg[key]} off the unit "
                             f"sphere: {exc}") from None
    return saved, img_e, txt_e


def _cmd_train(cfg: dict) -> int:
    config = _settings(trainer.TrainConfig, cfg, loss=_settings(losses.LossConfig, cfg))
    dataset, val_dataset = _load_splits(cfg, cfg["val_split"], 2, "training")
    saved = (None if cfg["resume"] is None
             else _load_checkpoint(cfg["resume"], cfg, dataset, config)[0])
    out = _echo(cfg)

    def log(rec):
        print(f"epoch {rec['epoch']:3d} lr {rec['lr']:.2e} "
              f"loss {rec['loss']:.6f} triplet {rec['triplet']:.6f} "
              f"ordering {rec['ordering']:.6f} val_rsum {rec['val_rsum']:.2f}")

    result = trainer.train(dataset, config, val_dataset=val_dataset,
                           checkpoint_path=out / "checkpoint.bin",
                           resume_from=saved, log_fn=log)
    geometry.write_json(out / "history.json", result.history)
    print(f"checkpoint: {out / 'checkpoint.bin'}")
    return 0


def _cmd_eval(cfg: dict) -> int:
    geometry.check_settings([(f"--{key}", cfg[key], cfg[key] is None or cfg[key] >= least,
                              f"at least {least}") for key, least in (("folds", 1), ("points", 2))])
    dataset, _ = _load_splits(cfg, "none", cfg["folds"] or 1, f"--folds {cfg['folds']}")
    _, img_e, txt_e = _load_checkpoint(cfg["checkpoint"], cfg, dataset)
    report = evaluation.evaluate(img_e, txt_e, dataset.image_of_text,
                                 levels=dataset.levels, n_points=cfg["points"],
                                 n_folds=cfg["folds"])
    out = _echo(cfg)
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
