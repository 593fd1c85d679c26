"""Command-line interface.

Subcommands: gen-synthetic, extract-keywords, sample-fewshot, train,
evaluate, ablate, gradcheck. Run-level commands read an optional
`key = value` config file; explicit flags override it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import data as data_mod
from . import gradcheck as gradcheck_mod
from . import keywords as kw_mod
from .prompts import Variant
from .runner import (
    RunConfig,
    ablate,
    evaluate,
    format_results_table,
    load_model,
    parse_config_text,
    train,
)

CONFIG_KEYS = {f.name for f in dataclasses.fields(RunConfig)}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="switchprompt")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synthetic", help="generate a synthetic domain-shift task")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--examples-per-class", type=int, default=160)
    p.add_argument("--filler-prob", type=float, default=0.5)
    p.add_argument("--tokens-per-example", type=int, default=12)
    p.add_argument("--filler-vocab", type=int, default=30)
    p.add_argument("--keywords-per-class", type=int, default=4)
    p.set_defaults(handler=cmd_gen_synthetic)

    p = sub.add_parser("extract-keywords", help="mine keywords from two corpora")
    p.add_argument("--general", required=True, help="general-domain corpus file")
    p.add_argument("--domain", required=True, help="domain corpus file")
    p.add_argument("--alpha", type=float, default=-1.0)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--out", required=True, help="keyword file to write")
    p.set_defaults(handler=cmd_extract_keywords)

    p = sub.add_parser("sample-fewshot", help="draw a stratified N-shot split")
    p.add_argument("--data", required=True, help="label<TAB>text dataset file")
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(handler=cmd_sample_fewshot)

    for name in ("train", "ablate"):
        p = sub.add_parser(name, help=f"{name} on a few-shot split")
        p.add_argument("--config", help="key = value config file")
        # each flag's dest is the config key it overrides
        p.add_argument("--data", dest="dataset", help="dataset file (overrides config)")
        p.add_argument("--general", dest="general_corpus", help="general corpus file (overrides config)")
        p.add_argument("--domain", dest="domain_corpus", help="domain corpus file (overrides config)")
        p.add_argument("--keywords", dest="keywords_file",
                       help="keyword file; mined from the corpora if omitted")
        p.add_argument("--variant")
        p.add_argument("--shots", type=int)
        p.add_argument("--split-seed", type=int)
        p.add_argument("--seeds", help="comma-separated run seeds, e.g. 0,1,2,3,4")
        p.add_argument("--alpha", type=float)
        p.add_argument("--m", dest="soft_prompt_len", type=int, help="soft prompt length")
        p.add_argument("--n", dest="num_keywords", type=int, help="number of keywords")
        p.add_argument("--epochs", type=int)
        p.add_argument("--lr", type=float)
        p.add_argument("--backbone-init", choices=("random", "mlm"))
        p.add_argument("--out", dest="out_dir", help="output directory (overrides config)")
        p.set_defaults(handler=cmd_train if name == "train" else cmd_ablate)

    p = sub.add_parser("evaluate", help="accuracy of a saved model on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("gradcheck", help="finite-difference check of every op")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_gradcheck)

    return parser


def cmd_gen_synthetic(args) -> int:
    task = data_mod.generate_synthetic_domains(
        seed=args.seed,
        filler_vocab=args.filler_vocab,
        keywords_per_class=args.keywords_per_class,
        num_classes=args.classes,
        examples_per_class=args.examples_per_class,
        tokens_per_example=args.tokens_per_example,
        filler_prob=args.filler_prob,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data_mod.write_corpus(out / "general.txt", task.general_corpus)
    data_mod.write_corpus(out / "domain.txt", task.domain_corpus)
    data_mod.save_dataset(out / "dataset.tsv", task.dataset)
    (out / "planted_keywords.json").write_text(
        json.dumps(task.planted_keywords, indent=2) + "\n", encoding="utf-8"
    )
    print(
        f"wrote {len(task.dataset)} examples over {task.dataset.num_classes} classes, "
        f"{len(task.general_corpus)} general documents -> {out}"
    )
    return 0


def _mine_keywords(general_path, domain_path, alpha: float, n: int) -> kw_mod.KeywordSet:
    general = kw_mod.compute_stats(data_mod.read_corpus(general_path), source="general")
    domain = kw_mod.compute_stats(data_mod.read_corpus(domain_path), source="domain")
    return kw_mod.select_keywords(general, domain, alpha=alpha, n=n)


def cmd_extract_keywords(args) -> int:
    selected = _mine_keywords(args.general, args.domain, args.alpha, args.n)
    kw_mod.write_keywords(args.out, selected)
    print(f"selected {selected.n} keywords -> {args.out}")
    for word, score, rank in selected.ranked():
        print(f"  {rank:3d}  {word}  ({score:.6g})")
    return 0


def cmd_sample_fewshot(args) -> int:
    dataset = data_mod.load_dataset(args.data)
    split = data_mod.sample_fewshot(dataset, shots=args.shots, seed=args.seed)
    data_mod.write_split(args.out, split)
    print(
        f"split with {len(split.train)} train / {len(split.dev)} dev / "
        f"{len(split.test)} test examples -> {args.out}"
    )
    return 0


def _assemble_config(args) -> RunConfig:
    values = {}
    if args.config:
        # checked as a whole once the flags are merged in
        values = parse_config_text(data_mod.read_text(args.config))
    flags = {key: value for key, value in vars(args).items()
             if key in CONFIG_KEYS and value is not None}
    if args.seeds is not None:
        try:
            flags["seeds"] = [int(s) for s in str(args.seeds).split(",") if s != ""]
        except ValueError:
            raise ValueError(f"--seeds: expected comma-separated integers, got {args.seeds!r}") from None
    values.update(flags)
    return RunConfig.from_dict(values)


def _prepare_run(args):
    config = _assemble_config(args)
    if not config.dataset:
        raise ValueError("no dataset given (use --data or set `dataset` in the config)")
    dataset = data_mod.load_dataset(config.dataset)
    split = data_mod.sample_fewshot(dataset, shots=config.shots, seed=config.split_seed)
    # the keyword line is part of the backbone's texts, so every variant reads it
    keyword_set = None
    if config.keywords_file:
        keyword_set = kw_mod.read_keywords(config.keywords_file)
    elif config.general_corpus and config.domain_corpus:
        keyword_set = _mine_keywords(
            config.general_corpus, config.domain_corpus, config.alpha, config.num_keywords
        )
    elif Variant.parse(config.variant).uses("K") or args.handler is cmd_ablate:
        raise ValueError(
            "keywords are required: give --keywords, or --general and --domain to mine them"
        )
    return config, split, keyword_set


def cmd_train(args) -> int:
    config, split, keyword_set = _prepare_run(args)
    out_dir = Path(config.out_dir) if config.out_dir else None
    result = train(config, split, keyword_set, out_dir)
    print(format_results_table([result]))
    if out_dir is not None:
        print(f"metrics -> {out_dir / 'metrics.jsonl'}")
    return 0


def cmd_ablate(args) -> int:
    config, split, keyword_set = _prepare_run(args)
    out_dir = Path(config.out_dir) if config.out_dir else None
    results = ablate(config, split, keyword_set, out_dir)
    print(format_results_table(results))
    if out_dir is not None:
        print(f"table -> {out_dir / 'ablation_table.txt'}")
    return 0


def cmd_evaluate(args) -> int:
    model = load_model(args.checkpoint)
    dataset = data_mod.load_dataset(args.data)
    try:
        model.label_indices(dataset)
    except ValueError as exc:
        raise ValueError(f"{args.data}: {exc}") from None
    accuracy = evaluate(model, dataset)
    print(f"accuracy: {accuracy:.4f} ({len(dataset)} examples)")
    return 0


def cmd_gradcheck(args) -> int:
    reports = gradcheck_mod.run_suite(trials=args.trials, seed=args.seed)
    failed = 0
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        print(
            f"{status}  {report.name:<22} trials={report.trials}  "
            f"max_error={report.max_error:.3e}  tol={report.tolerance:.0e}"
        )
        failed += not report.passed
    if failed:
        print(f"{failed} op(s) failed the finite-difference check", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
