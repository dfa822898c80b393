"""Command-line entry point: train, ablate, sweep, index, heuristic, verify,
bench, split.

Exit codes: 0 success, 1 check failure, 2 usage/config error.
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

from . import __version__
from .config import (ModelConfig, PRESETS, apply_overrides, config_hash,
                     preset)
from .engine import gradient_check_all
from .evaluation import (MetricSpec, bench_batch, cn_equivalence_sweep,
                         loglog_slope, model_gradient_check,
                         orthogonality_stats, verify_cn_equivalence)
from .graph import EdgeSplit, Graph, load_graph, random_split
from .heuristics import heuristic_eval, structure_feature_report
from .model import GAEModel, orthogonal_rows
from .synth import parse_synth_spec
from .train import fit

# Compact settings used when experimenting on synthetic graphs.
SYNTH_DEFAULT = ModelConfig(
    input_mode="learnable-orthogonal", mpnn_layers=2, hidden_dim=128,
    mlp_layers=3, batch_size=4096, dropout=0.2, lr=1e-3, epochs=60,
    eval_every=5, patience=4, mask_input=True, metric="hits@100")


def resolve_graph(dataset: str, data_dir: str) -> Graph:
    """Dataset name under data_dir, a direct edge-file path, or synth[:...]."""
    if dataset.startswith("synth"):
        return parse_synth_spec(dataset)
    p = Path(dataset)
    if p.is_file():
        feats = p.with_name("features.csv")
        return load_graph(p, feats if feats.exists() else None)
    d = Path(data_dir) / dataset
    edge = d / "edges.txt"
    if edge.is_file():
        feats = d / "features.csv"
        return load_graph(edge, feats if feats.exists() else None)
    raise FileNotFoundError(
        f"dataset {dataset!r}: no edge file at {edge} "
        "(see README for the expected data layout)")


def resolve_config(args) -> ModelConfig:
    if getattr(args, "preset", None):
        cfg = preset(args.preset)
    elif args.dataset in PRESETS:
        cfg = preset(args.dataset)
    elif args.dataset.startswith("synth"):
        cfg = SYNTH_DEFAULT
    else:
        cfg = ModelConfig()
    return apply_overrides(cfg, getattr(args, "set", "") or "")


def _run_seed(g: Graph, cfg: ModelConfig, seed: int,
              split_file: str | None = None, log=None):
    if split_file:
        split = EdgeSplit.load(split_file)
    else:
        split = random_split(g, seed=seed)
    model = GAEModel(g, cfg, seed=seed)
    record = fit(model, split, cfg, seed=seed, log=log)
    return record, model


def _out_dir(base: str, dataset: str, cfg: ModelConfig) -> Path:
    stamp = time.strftime("%Y%m%d-%H%M%S")
    out = Path(base) / Path(dataset).name / f"{stamp}-{config_hash(cfg)}"
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_train(args) -> int:
    g = resolve_graph(args.dataset, args.data_dir)
    cfg = resolve_config(args)
    seeds = list(range(args.seed, args.seed + args.seeds))
    out = _out_dir(args.out_dir, args.dataset, cfg)
    (out / "config.json").write_text(json.dumps({
        "dataset": args.dataset, "config": cfg.to_dict(),
        "config_hash": config_hash(cfg), "seeds": seeds,
        "version": __version__}, indent=2))
    t0 = time.perf_counter()
    per_seed = {}
    for seed in seeds:
        log = None
        if args.verbose:
            log = lambda e, l, v: print(
                f"  epoch {e:4d} loss {l:.4f}" + (f" valid {v:.4f}" if v is not None else ""))
        record, _ = _run_seed(g, cfg, seed, args.split_file, log=log)
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


def run_variant_grid(g: Graph, base_cfg: ModelConfig, variants, seeds):
    """One fit per (variant, seed); returns {variant: [metric per seed]}."""
    results = {}
    for name, delta in variants:
        cfg = base_cfg.replace(**delta) if delta else base_cfg
        vals = []
        for seed in seeds:
            record, _ = _run_seed(g, cfg, seed)
            vals.append(record.test_metric)
        results[name] = vals
    return results


def _write_grid_csv(path: Path, label: str, results: dict, seeds) -> None:
    header = [label] + [f"seed{s}" for s in seeds] + ["mean", "std"]
    lines = [",".join(header)]
    for name, vals in results.items():
        row = [name] + [repr(v) for v in vals]
        row += [repr(float(np.mean(vals))), repr(float(np.std(vals)))]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def cmd_ablate(args) -> int:
    if args.axis not in ABLATION_AXES:
        raise ValueError(f"unknown ablation axis {args.axis!r}; "
                         f"choose from {sorted(ABLATION_AXES)}")
    g = resolve_graph(args.dataset, args.data_dir)
    cfg = resolve_config(args)
    if args.axis == "input" and cfg.input_mode in ("raw", "raw-plus-learnable") \
            and g.features is None:
        cfg = cfg.replace(input_mode="learnable-orthogonal")
    seeds = list(range(args.seed, args.seed + args.seeds))
    results = run_variant_grid(g, cfg, ABLATION_AXES[args.axis], seeds)
    out = _out_dir(args.out_dir, args.dataset, cfg)
    path = out / f"ablation-{args.axis}.csv"
    _write_grid_csv(path, "variant", results, seeds)
    for name, vals in results.items():
        print(f"{name}: {np.mean(vals):.4f} +- {np.std(vals):.4f}")
    print(f"-> {path}")
    return 0


SWEEP_AXES = ("mpnn_layers", "mlp_layers", "hidden_dim")


def cmd_sweep(args) -> int:
    if args.axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {args.axis!r}; choose from {SWEEP_AXES}")
    values = [int(v) for v in args.values.split(",") if v.strip()]
    if not values:
        raise ValueError("sweep needs a non-empty comma-separated value list")
    g = resolve_graph(args.dataset, args.data_dir)
    cfg = resolve_config(args)
    seeds = list(range(args.seed, args.seed + args.seeds))
    variants = [(str(v), {args.axis: v}) for v in values]
    results = run_variant_grid(g, cfg, variants, seeds)
    out = _out_dir(args.out_dir, args.dataset, cfg)
    path = out / f"sweep-{args.axis}.csv"
    _write_grid_csv(path, "value", results, seeds)
    for name, vals in results.items():
        print(f"{args.axis}={name}: {np.mean(vals):.4f} +- {np.std(vals):.4f}")
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
    metric = MetricSpec.parse(args.metric or cfg.metric)
    split = random_split(g, seed=args.seed)
    value = heuristic_eval(g, split, args.which, metric)
    blob = {"metric": str(metric), "value": value, "K": metric.k,
            "n_pos": len(split.test_pos), "n_neg": len(split.test_neg),
            "seed": args.seed, "heuristic": args.which}
    print(json.dumps(blob))
    return 0


def cmd_verify(args) -> int:
    failures = 0

    def check(name: str, ok: bool, detail: str) -> None:
        nonlocal failures
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        failures += 0 if ok else 1

    for name, err in sorted(gradient_check_all().items()):
        check(f"gradient {name}", err < 1e-4, f"rel err {err:.2e}")
    for conv in ("gcn", "sage", "gin"):
        err = model_gradient_check(conv)
        check(f"gradient full model ({conv})", err < 1e-4, f"rel err {err:.2e}")
    dev = cn_equivalence_sweep(num_graphs=args.graphs)
    check("common-neighbor equivalence", dev < 1e-9,
          f"max deviation {dev:.2e} over {args.graphs} graphs, k in 1..3")
    rng = np.random.default_rng(0)
    narrow = orthogonal_rows(24, 64, rng)
    m, _ = orthogonality_stats(narrow)
    check("orthogonal init (n <= d)", m < 1e-6, f"mean |cos| {m:.2e}")
    wide = orthogonal_rows(300, 32, rng)
    m, _ = orthogonality_stats(wide)
    unit = np.allclose(np.linalg.norm(wide, axis=1), 1.0, atol=1e-6)
    check("orthogonal init (n > d)", unit and m <= 2.0 / np.sqrt(32),
          f"mean |cos| {m:.3f}, bound {2.0 / np.sqrt(32):.3f}")
    print("all checks passed" if failures == 0 else f"{failures} check(s) failed")
    return 0 if failures == 0 else 1


def cmd_bench(args) -> int:
    dims = [int(v) for v in args.dims.split(",") if v.strip()]
    g = resolve_graph(args.dataset, args.data_dir)
    cfg = resolve_config(args)
    split = random_split(g, seed=args.seed)
    times = []
    for d in dims:
        cfg_d = cfg.replace(hidden_dim=d)
        model = GAEModel(g, cfg_d, seed=args.seed)
        secs = bench_batch(model, split, cfg_d, batch_size=args.batch_size,
                           warmup=args.warmup, reps=args.reps)
        times.append(secs)
        print(f"d={d}: {secs * 1e3:.2f} ms/batch")
    rows = ["hidden_dim,seconds_per_batch"]
    rows += [f"{d},{repr(t)}" for d, t in zip(dims, times)]
    if args.csv:
        Path(args.csv).write_text("\n".join(rows) + "\n")
    if len(dims) > 1:
        slope = loglog_slope(dims, times)
        print(f"log-log slope over d: {slope:.2f}")
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

    def common(p):
        p.add_argument("--dataset", required=True,
                       help="preset name, edge-file path, or synth[:k=v,...]")
        p.add_argument("--data-dir", default="data")
        p.add_argument("--out-dir", default="runs")
        p.add_argument("--seed", type=int, default=0)
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
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep", help="sweep one hyperparameter")
    common(p)
    p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--seeds", type=int, default=3)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("index", help="structure/feature dominance report")
    common(p)
    p.add_argument("--json", default=None, help="also write the report as JSON")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("heuristic", help="evaluate a classic heuristic")
    common(p)
    p.add_argument("--which", required=True, choices=["cn", "aa", "ra", "cos"])
    p.add_argument("--metric", default=None, help="hits@K or mrr")
    p.set_defaults(func=cmd_heuristic)

    p = sub.add_parser("verify", help="gradient, equivalence, and init checks")
    p.add_argument("--graphs", type=int, default=50)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="seconds/batch across hidden dims")
    common(p)
    p.add_argument("--dims", default="128,256,512,1024")
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--warmup", type=int, default=5)
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("split", help="write a split cache JSON")
    common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_split)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
