"""Command-line entry point: train, eval, gen-synth, attn-export, gradcheck.

Exit codes: 0 success, 1 usage/config error, 2 verification failure,
3 data or checkpoint error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import evaluation as ev
from . import gradcheck
from .config import ConfigError, ModelConfig, PROFILES
from .data import (DataError, SynthSpec, dataset_from_records, generate_synthetic_records,
                   load_dataset, read_embedding_file, save_records_jsonl)
from .training import (CheckpointError, TrainingDiverged, checkpoint_from, load_checkpoint,
                       model_from_checkpoint, save_checkpoint, train, write_loss_log)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_DATA = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # argparse defaults to exit code 2; we reserve that
        raise UsageError(message)


def _config_epilog() -> str:
    lines = ["config keys (value: default / nyt profile / pt profile):"]
    defaults = ModelConfig()
    for name in ModelConfig.field_names():
        base = getattr(defaults, name)
        nyt = PROFILES["nyt"].get(name, base)
        pt = PROFILES["pt"].get(name, base)
        lines.append(f"  {name:<24} {base!r} / {nyt!r} / {pt!r}")
    lines.append("profiles bake in the published full-scale settings for each corpus;")
    lines.append("--set key=value overrides any key (values parsed as JSON).")
    return "\n".join(lines)


def _positive_ints(text: str) -> list[int]:
    parts = text.split(",")
    if not all(part.isdecimal() and int(part) > 0 for part in parts):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated positive integers, got {text!r}")
    return [int(part) for part in parts]


def build_parser() -> _Parser:
    parser = _Parser(prog="relattn",
                     description="Bag-level relation extraction with two-level "
                                 "structured self-attention.",
                     epilog=_config_epilog(),
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write a checkpoint")
    p_train.add_argument("--data", required=True, help="training bags (JSONL)")
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.add_argument("--config", help="JSON config file (keys = config keys)")
    p_train.add_argument("--profile", choices=sorted(PROFILES), help="named profile")
    p_train.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                         help="override one config key (repeatable)")
    p_train.add_argument("--embeddings", help="pretrained word-vector text file")

    p_eval = sub.add_parser("eval", help="score a test set and write metric CSVs")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True, help="test bags (JSONL)")
    p_eval.add_argument("--metric", required=True, choices=["pr", "pn", "f1"])
    p_eval.add_argument("--pn-mode", choices=list(ev.PN_MODES), default="all")
    p_eval.add_argument("--n", type=_positive_ints, default="100,200,300",
                        help="comma-separated N values for --metric pn")
    p_eval.add_argument("--seed", type=int, default=0, help="instance-sampling seed")
    p_eval.add_argument("--out", required=True, help="output directory")

    p_gen = sub.add_parser("gen-synth", help="write a synthetic bag dataset")
    p_gen.add_argument("--out", required=True, help="output JSONL path")
    p_gen.add_argument("--relations", type=int, default=5)
    p_gen.add_argument("--vocab", type=int, default=200)
    p_gen.add_argument("--bags", type=int, default=2000, help="total bag count")
    p_gen.add_argument("--max-bag", type=int, default=5)
    p_gen.add_argument("--noise", type=float, default=0.5)
    p_gen.add_argument("--seed", type=int, default=0)

    p_attn = sub.add_parser("attn-export", help="export attention matrices as CSV")
    p_attn.add_argument("--checkpoint", required=True)
    p_attn.add_argument("--data", required=True)
    p_attn.add_argument("--bag-id", action="append", required=True,
                        help="bag to export (repeatable)")
    p_attn.add_argument("--out", required=True, help="output directory")

    sub.add_parser("gradcheck", help="finite-difference check of every operation")
    return parser


def _parse_set_overrides(items: list[str]) -> dict:
    out = {}
    for item in items:
        key, sep, raw = item.partition("=")
        if not sep:
            raise UsageError(f"--set expects KEY=VALUE, got {item!r}")
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def _load_config(args) -> ModelConfig:
    values: dict = {}
    if args.profile:
        values.update(PROFILES[args.profile])
    if args.config:
        try:
            file_values = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except UnicodeDecodeError:
            raise ConfigError(f"{args.config}: not UTF-8 text")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{args.config}: invalid JSON at line {exc.lineno}: {exc.msg}")
        if not isinstance(file_values, dict):
            raise ConfigError(f"{args.config}: config file must hold a JSON object")
        values.update(file_values)
    values.update(_parse_set_overrides(args.set))
    return ModelConfig.from_dict(values)


def _out_dir(path: str) -> Path:
    """Make the output directory first, so a bad --out fails before any work."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"--out {path}: cannot make the output directory ({exc.strerror})")
    return Path(path)


def cmd_train(args) -> int:
    config = _load_config(args)
    out = _out_dir(args.out)
    dataset = load_dataset(args.data, config)
    pretrained = (read_embedding_file(args.embeddings, config.word_dim)
                  if args.embeddings else None)
    result = train(dataset, config, pretrained=pretrained, log_every=1)
    ckpt = checkpoint_from(result.model, dataset.vocab, dataset.relations, result.rng)
    save_checkpoint(ckpt, out / "model.ckpt")
    write_loss_log(result.log, out / "loss_log.csv")
    print(f"checkpoint: {out / 'model.ckpt'}")
    print(f"loss log:   {out / 'loss_log.csv'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    try:
        setting = ev.PnSetting(mode=args.pn_mode, seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc))
    out = _out_dir(args.out)
    ckpt = load_checkpoint(args.checkpoint)
    model, vocab = model_from_checkpoint(ckpt)
    dataset = load_dataset(args.data, ckpt.config, vocab=vocab, relations=ckpt.relations)
    if args.metric == "pr":
        records = ev.score_test_set(dataset, model)
        points, auc = ev.pr_curve(records, ev.gold_facts(dataset))
        ev.write_pr_csv(points, out / "pr_curve.csv")
        print(f"pr points: {len(points)}  auc: {auc:.4f}  -> {out / 'pr_curve.csv'}")
    elif args.metric == "pn":
        records = ev.score_test_set(dataset, model, pn=setting)
        gold = ev.gold_facts(dataset)
        rows = []
        for n in args.n:
            rows.append((args.pn_mode, n, ev.p_at_n(records, gold, n)))
        ev.write_pn_csv(rows, out / "p_at_n.csv")
        for setting_name, n, precision in rows:
            print(f"P@{n} ({setting_name}): {precision:.4f}")
    else:
        preds = ev.hard_predictions(dataset, model)
        per_class, macro = ev.macro_f1(preds, dataset)
        ev.write_f1_csv(per_class, macro, dataset, out / "macro_f1.csv")
        print(f"macro F1: {macro:.4f}  -> {out / 'macro_f1.csv'}")
    return EXIT_OK


def cmd_gen_synth(args) -> int:
    if args.relations < 2:
        raise UsageError("--relations must be at least 2")
    if args.bags % args.relations:
        raise UsageError("--bags must be divisible by --relations")
    try:
        spec = SynthSpec(num_relations=args.relations, vocab_size=args.vocab,
                         bags_per_relation=args.bags // args.relations,
                         max_bag_size=args.max_bag, noise_ratio=args.noise, seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc))
    records = generate_synthetic_records(spec)
    try:
        save_records_jsonl(records, args.out)
    except OSError as exc:
        raise UsageError(f"--out {args.out}: cannot write the file ({exc.strerror})")
    print(f"wrote {len(records)} bags to {args.out}")
    return EXIT_OK


def cmd_attn_export(args) -> int:
    bag_ids = list(dict.fromkeys(args.bag_id))   # each distinct id once, first seen first
    stems = {}
    for bag_id in bag_ids:   # refused before any file is written
        stem = ev.attention_stem(bag_id)
        if stems.setdefault(stem, bag_id) != bag_id:
            raise UsageError(f"--bag-id {stems[stem]!r} and {bag_id!r} would both write "
                             f"{stem}_*.csv")
    out = _out_dir(args.out)
    ckpt = load_checkpoint(args.checkpoint)
    model, vocab = model_from_checkpoint(ckpt)
    dataset = load_dataset(args.data, ckpt.config, vocab=vocab, relations=ckpt.relations)
    by_id = {bag.bag_id: bag for bag in dataset.bags}
    written = []
    for bag_id in bag_ids:
        if bag_id not in by_id:
            raise DataError(f"bag {bag_id!r} not found in {args.data}")
        written.extend(ev.export_attention(model, by_id[bag_id], vocab, out))
    for path in written:
        print(path)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = gradcheck.run_all()
    return EXIT_OK if all(r.ok for r in results) else EXIT_VERIFY


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "train": cmd_train, "eval": cmd_eval, "gen-synth": cmd_gen_synth,
            "attn-export": cmd_attn_export, "gradcheck": cmd_gradcheck,
        }[args.command]
        return handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, CheckpointError, ev.EvalError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingDiverged as exc:
        print(f"training aborted: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
