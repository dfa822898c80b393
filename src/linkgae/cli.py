"""Command-line entry point: train, ablate, sweep, index, heuristic, verify,
split.

Exit codes: 0 success, 1 check failure or non-finite training loss, 2
usage/config error.
"""

from __future__ import annotations

import os

# Cap BLAS parallelism before numpy loads anything.
_threads = os.environ.get("LINKGAE_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__, checks
from .config import ModelConfig, PRESETS, apply_overrides, config_hash, preset
from .evaluation import MetricSpec
from .graph import EdgeSplit, Graph, load_graph, random_split
from .heuristics import HEURISTICS, heuristic_eval, structure_feature_report
from .model import GAEModel
from .synth import is_synth_spec, parse_synth_spec
from .train import fit

# Compact settings used when experimenting on synthetic graphs.
SYNTH_DEFAULT = ModelConfig(
    input_mode="learnable-orthogonal", mpnn_layers=2, hidden_dim=128,
    mlp_layers=3, batch_size=4096, dropout=0.2, lr=1e-3, epochs=60,
    eval_every=5, patience=4, mask_input=True, metric="hits@100")


def resolve_graph(dataset: str, data_dir: str) -> Graph:
    """synth[:...], an edge-file path, or a dataset name under data_dir; an
    edge file is read with its sibling features.csv when there is one."""
    if is_synth_spec(dataset):
        return parse_synth_spec(dataset)
    edge = Path(dataset)
    if not edge.is_file():
        edge = Path(data_dir) / dataset / "edges.txt"
    if not edge.is_file():
        raise FileNotFoundError(
            f"dataset {dataset!r}: no edge file at {edge} "
            "(see README for the expected data layout)")
    feats = edge.with_name("features.csv")
    return load_graph(edge, feats if feats.exists() else None)


def resolve_config(args) -> ModelConfig:
    if getattr(args, "preset", None):
        cfg = preset(args.preset)
    elif args.dataset in PRESETS:
        cfg = preset(args.dataset)
    elif is_synth_spec(args.dataset):
        cfg = SYNTH_DEFAULT
    else:
        cfg = ModelConfig()
    return apply_overrides(cfg, getattr(args, "set", "") or "")


def _train_splits(g: Graph, cfg: ModelConfig, seeds: list[int],
                  path: str | None) -> list[EdgeSplit]:
    """One split per seed, each passed through ``EdgeSplit.validate`` against
    ``cfg.metric`` before any training: the split file at ``path`` for every
    seed, or each seed's random split."""
    metric = MetricSpec.parse(cfg.metric)
    if path:
        return [EdgeSplit.load(path, g.num_nodes, metric)] * len(seeds)
    splits = [random_split(g, seed=seed) for seed in seeds]
    for seed, split in zip(seeds, splits):
        split.validate(g.num_nodes, metric, f"the seed-{seed} random split")
    return splits


def _host_record() -> dict:
    """What trained numbers depend on besides the seed and the config: the
    numpy, scipy and BLAS builds, the BLAS thread setting and the usable CPUs."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count()}


def _out_dir(base: str, dataset: str, cfg: ModelConfig, seeds: list[int]) -> Path:
    """A new run directory ``<timestamp>-<confighash>`` holding the run's
    ``config.json``. A run started in the same second as another of its
    config takes the first free suffix ``-1``, ``-2``, ...."""
    stem = Path(base) / Path(dataset).name / f"{time.strftime('%Y%m%d-%H%M%S')}-{config_hash(cfg)}"
    out, i = stem, 0
    while True:
        try:
            out.mkdir(parents=True)
            break
        except FileExistsError:
            i += 1
            out = stem.with_name(f"{stem.name}-{i}")
    (out / "config.json").write_text(json.dumps({
        "dataset": dataset, "config": cfg.to_dict(), "config_hash": config_hash(cfg),
        "seeds": seeds, "version": __version__, "host": _host_record()}, indent=2))
    return out


def cmd_train(args) -> int:
    g = resolve_graph(args.dataset, args.data_dir)
    cfg = resolve_config(args)
    seeds = list(range(args.seed, args.seed + args.seeds))
    splits = _train_splits(g, cfg, seeds, args.split_file)
    out = _out_dir(args.out_dir, args.dataset, cfg, seeds)
    t0 = time.perf_counter()
    per_seed = {}
    for seed, split in zip(seeds, splits):
        log = None
        if args.verbose:
            log = lambda e, l, v: print(
                f"  epoch {e:4d} loss {l:.4f}" + (f" valid {v:.4f}" if v is not None else ""))
        record = fit(GAEModel(g, cfg, seed=seed), split, cfg, seed=seed, log=log)
        record.write_csv(out / f"epochs-seed{seed}.csv")
        per_seed[str(seed)] = record.summary()
        print(f"seed {seed}: test {cfg.metric} = {record.test_metric:.4f} "
              f"(best valid {record.best_valid:.4f} @ epoch {record.best_epoch})")
    tests = [r["test_metric"] for r in per_seed.values()]
    summary = {
        "dataset": args.dataset,
        "config_hash": config_hash(cfg),
        "metric": cfg.metric,
        "seeds": seeds,
        "version": __version__,
        "per_seed": per_seed,
        "test_mean": float(np.mean(tests)),
        "test_std": float(np.std(tests)),
        "elapsed_seconds": round(time.perf_counter() - t0, 3),
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2))
    print(f"{args.dataset}: {cfg.metric} = {summary['test_mean']:.4f} "
          f"+- {summary['test_std']:.4f} over {len(seeds)} seeds -> {out}")
    return 0


ABLATION_AXES = {
    "input": [("baseline", {}),
              ("fixed-orthogonal", {"input_mode": "fixed-orthogonal"}),
              ("random-uniform", {"input_mode": "random-uniform"}),
              ("all-ones", {"input_mode": "all-ones"})],
    "conv": [("baseline", {}),
             ("sage", {"conv": "sage"}),
             ("gin", {"conv": "gin"})],
    "residual": [("baseline", {}),
                 ("no-mpnn-residual", {"encoder_residual": False}),
                 ("no-mlp-residual", {"decoder_residual": False}),
                 ("no-residual-both", {"encoder_residual": False,
                                       "decoder_residual": False})],
    "linearity": [("baseline", {}),
                  ("nonlinear-encoder", {"linear_encoder": False})],
}


SWEEP_AXES = ("mpnn_layers", "mlp_layers", "hidden_dim")


def cmd_grid(args) -> int:
    """``ablate`` and ``sweep``: one fit per (variant, seed), one CSV row per
    variant, in a run directory with the base config's ``config.json``. An
    ablation's variants are ``ABLATION_AXES[axis]``; a sweep's set ``axis``
    to each of ``--values``."""
    g = resolve_graph(args.dataset, args.data_dir)
    cfg = resolve_config(args)
    if args.command == "ablate":
        if args.axis == "input" and cfg.input_mode == "raw" and g.features is None:
            cfg = cfg.replace(input_mode="learnable-orthogonal")
        variants, stem, label, prefix = ABLATION_AXES[args.axis], "ablation", "variant", ""
    else:
        try:
            values = [int(v) for v in args.values.split(",") if v.strip()]
        except ValueError:
            raise ValueError(f"--values must be integers, got {args.values!r}") from None
        if not values:
            raise ValueError("sweep needs a non-empty comma-separated value list")
        variants = [(str(v), {args.axis: v}) for v in values]
        stem, label, prefix = "sweep", "value", f"{args.axis}="
    configs = [(name, cfg.replace(**delta)) for name, delta in variants]
    seeds = list(range(args.seed, args.seed + args.seeds))
    splits = _train_splits(g, cfg, seeds, None)
    path = _out_dir(args.out_dir, args.dataset, cfg, seeds) / f"{stem}-{args.axis}.csv"
    lines = [",".join([label] + [f"seed{s}" for s in seeds] + ["mean", "std"])]
    for name, vcfg in configs:
        vals = [fit(GAEModel(g, vcfg, seed=seed), split, vcfg, seed=seed).test_metric
                for seed, split in zip(seeds, splits)]
        mean, std = float(np.mean(vals)), float(np.std(vals))
        lines.append(",".join([name] + [repr(v) for v in vals] + [repr(mean), repr(std)]))
        print(f"{prefix}{name}: {mean:.4f} +- {std:.4f}")
    path.write_text("\n".join(lines) + "\n")
    print(f"-> {path}")
    return 0


def cmd_index(args) -> int:
    g = resolve_graph(args.dataset, args.data_dir)
    cfg = resolve_config(args)
    metric = MetricSpec.parse(cfg.metric)
    split = random_split(g, seed=args.seed)
    report = structure_feature_report(g, split, metric)
    print(f"P_S (common neighbors, {metric}) = {report['p_structure']:.4f}")
    print(f"P_F (feature cosine,   {metric}) = {report['p_feature']:.4f}")
    print(f"structure/feature index = {report['index']:.4f}")
    print(f"nodes = {report['num_nodes']}, avg degree = {report['avg_degree']:.2f}")
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2))
    return 0


def cmd_heuristic(args) -> int:
    g = resolve_graph(args.dataset, args.data_dir)
    cfg = resolve_config(args)
    metric = MetricSpec.parse(cfg.metric)
    split = random_split(g, seed=args.seed)
    value = heuristic_eval(g, split, args.which, metric)
    blob = {"metric": str(metric), "value": value, "K": metric.k,
            "n_pos": len(split.test_pos), "n_neg": len(split.test_neg),
            "seed": args.seed, "heuristic": args.which}
    print(json.dumps(blob))
    return 0


def cmd_split(args) -> int:
    g = resolve_graph(args.dataset, args.data_dir)
    split = random_split(g, seed=args.seed)
    split.save(args.out)
    print(f"split written to {args.out} "
          f"(train/valid/test = {len(split.train_pos)}/{len(split.valid_pos)}"
          f"/{len(split.test_pos)})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linkgae",
        description="Link prediction with a linear graph autoencoder")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True, out_dir=True):
        p.add_argument("--dataset", required=True,
                       help="preset name, edge-file path, or synth[:k=v,...]")
        p.add_argument("--data-dir", default="data")
        p.add_argument("--seed", type=int, default=0)
        if out_dir:
            p.add_argument("--out-dir", default="runs")
        if config:
            p.add_argument("--set", default="", help="config overrides key=value,...")
            p.add_argument("--preset", default=None, help="start from a named preset")

    p = sub.add_parser("train", help="train and evaluate over seeds")
    common(p)
    p.add_argument("--seeds", type=int, default=1, help="number of seeds")
    p.add_argument("--split-file", default=None, help="use a cached split JSON")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("ablate", help="run one ablation axis")
    common(p)
    p.add_argument("--axis", required=True, choices=sorted(ABLATION_AXES))
    p.add_argument("--seeds", type=int, default=5)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("sweep", help="sweep one hyperparameter")
    common(p)
    p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--seeds", type=int, default=3)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("index", help="structure/feature dominance report")
    common(p, out_dir=False)
    p.add_argument("--json", default=None, help="also write the report as JSON")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("heuristic", help="evaluate a classic heuristic")
    common(p, out_dir=False)
    p.add_argument("--which", required=True, choices=HEURISTICS)
    p.set_defaults(func=cmd_heuristic)

    p = sub.add_parser("verify", help="gradient, equivalence, and init checks")
    p.add_argument("--graphs", type=int, default=50)
    p.set_defaults(func=lambda args: checks.verify(args.graphs))

    p = sub.add_parser("split", help="write a split cache JSON")
    common(p, config=False, out_dir=False)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_split)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FloatingPointError as exc:  # a non-finite loss: the run failed, not its usage
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
