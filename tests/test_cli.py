import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import linkgae
from linkgae.cli import main
from linkgae.graph import EdgeSplit, random_split
from linkgae.synth import parse_synth_spec

FAST = ("hidden_dim=16,epochs=4,eval_every=2,patience=2,batch_size=512,mlp_layers=2,"
        "metric=hits@10,lr=0.01")
TINY = "synth:n=100,cs=10,p_in=0.6,xdeg=1.0,fdim=4"


def run(args):
    return main(args)


def test_unknown_preset_exits_2(capsys):
    assert run(["train", "--dataset", TINY, "--preset", "nosuch"]) == 2
    assert "unknown preset" in capsys.readouterr().err


def test_unreadable_dataset_exits_2(tmp_path, capsys):
    # "synthetic" is a data directory name, not a synth spec
    for name in ("missing", "synthetic"):
        assert run(["train", "--dataset", name, "--data-dir", str(tmp_path),
                    "--set", "epochs=1", "--out-dir", str(tmp_path)]) == 2
        assert f"dataset {name!r}: no edge file" in capsys.readouterr().err


@pytest.mark.parametrize("spec, named", [("synth:n", "synth item 'n'"),
                                         ("synth:q=1", "'q=1'")],
                         ids=["no-value", "unknown-key"])
def test_malformed_synth_spec_exits_2_naming_the_item(spec, named, tmp_path, capsys):
    assert run(["train", "--dataset", spec, "--out-dir", str(tmp_path)]) == 2
    assert named in capsys.readouterr().err


def test_bad_override_exits_2(capsys):
    assert run(["train", "--dataset", TINY, "--set", "nonsense=1"]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_override_keys_are_field_names(capsys):
    assert run(["train", "--dataset", TINY, "--set", "dim=16"]) == 2
    err = capsys.readouterr().err
    assert "unknown config key 'dim'" in err and "'hidden_dim'" in err


@pytest.mark.parametrize("key", ["eval_every", "patience"])
def test_loop_settings_below_one_exit_2(key, capsys):
    assert run(["train", "--dataset", TINY, "--set", f"{key}=0"]) == 2
    assert f"{key} must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("override, named", [
    ("metric=hits@0", "hits@0"), ("input_mode=onehot", "input_mode"),
    ("conv=gat", "conv"), ("decoder=bilinear", "decoder"), ("dtype=float16", "dtype"),
    ("lr=nan", "lr must be"), ("lr=-0.01", "lr must be"), ("lr=inf", "lr must be"),
    ("hidden_dim=abc", "cannot parse 'abc' as int for hidden_dim"),
    ("hidden_dim=1.5", "cannot parse '1.5' as int for hidden_dim"),
    ("lr=", "cannot parse '' as float for lr"),
    ("mask_input=maybe", "cannot parse 'maybe' as bool for mask_input"),
], ids=["metric", "input_mode", "conv", "decoder", "dtype", "lr-nan", "lr-negative",
        "lr-inf", "int-word", "int-fraction", "float-empty", "bool-word"])
def test_hits_at_zero_exits_2_before_training(override, named, capsys, monkeypatch,
                                              tmp_path):
    from linkgae import train

    def no_epoch(*a, **k):
        raise AssertionError("train_epoch ran")

    monkeypatch.setattr(train, "train_epoch", no_epoch)
    rc = run(["train", "--dataset", TINY, "--set", override, "--out-dir", str(tmp_path)])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_unknown_axis_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["ablate", "--dataset", TINY, "--axis", "optimizer"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["split", "--out", "split.json", "--set", "lr=1"],
    ["split", "--out", "split.json", "--preset", "x"],
    ["split", "--out", "split.json", "--out-dir", "runs"],
    ["index", "--out-dir", "runs"],
    ["heuristic", "--which", "cn", "--out-dir", "runs"],
    ["heuristic", "--which", "cn", "--metric", "hits@10"],  # --set metric=hits@10 does it
])
def test_flag_the_subcommand_does_not_read_is_usage_error(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where a run that ignored the flag would write
    with pytest.raises(SystemExit) as exc:
        run(argv[:1] + ["--dataset", TINY] + argv[1:])
    assert exc.value.code == 2


def test_train_writes_run_directory(tmp_path):
    out = tmp_path / "runs"
    rc = run(["train", "--dataset", TINY, "--seeds", "2", "--set", FAST,
              "--out-dir", str(out)])
    assert rc == 0
    run_dir = next((out / TINY).iterdir())
    assert (run_dir / "config.json").exists()
    assert (run_dir / "epochs-seed0.csv").exists()
    assert (run_dir / "epochs-seed1.csv").exists()
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["seeds"] == [0, 1]
    assert summary["metric"] == "hits@10"
    assert set(summary["per_seed"]) == {"0", "1"}
    assert "test_mean" in summary and "test_std" in summary
    assert "config_hash" in summary and "version" in summary


def test_config_records_the_blas_thread_count_of_its_run(tmp_path):
    # Trained numbers can differ between BLAS thread counts, so each run
    # directory says which count produced it.
    blas_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "LINKGAE_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas_vars}
    env["PYTHONPATH"] = str(Path(linkgae.__file__).parent.parent)
    for threads in ("1", "2"):
        out = tmp_path / threads
        subprocess.run([sys.executable, "-m", "linkgae.cli", "train", "--dataset", TINY,
                        "--set", FAST + ",epochs=2", "--out-dir", str(out)],
                       env={**env, "LINKGAE_THREADS": threads}, cwd=tmp_path,
                       capture_output=True, text=True, check=True, timeout=300)
        run_dir = next((out / TINY).iterdir())
        host = json.loads((run_dir / "config.json").read_text())["host"]
        assert host["OPENBLAS_NUM_THREADS"] == threads
        assert host["numpy"] == np.__version__ and host["cpus"] >= 1


def test_train_is_bit_deterministic(tmp_path):
    def one(label):
        out = tmp_path / label
        run(["train", "--dataset", TINY, "--seeds", "1", "--set", FAST,
             "--out-dir", str(out)])
        run_dir = next((out / TINY).iterdir())
        return json.loads((run_dir / "summary.json").read_text())

    a, b = one("a"), one("b")
    assert a["test_mean"] == b["test_mean"]
    assert a["per_seed"] == b["per_seed"]
    assert a["config_hash"] == b["config_hash"]


def test_train_with_split_file(tmp_path):
    split_path = tmp_path / "split.json"
    assert run(["split", "--dataset", TINY, "--out", str(split_path)]) == 0
    split = EdgeSplit.load(split_path, 100)
    assert len(split.train_pos) > 0
    rc = run(["train", "--dataset", TINY, "--seeds", "1", "--set", FAST,
              "--split-file", str(split_path), "--out-dir", str(tmp_path / "runs")])
    assert rc == 0


def test_ablate_conv_axis_emits_baseline_plus_three(tmp_path):
    out = tmp_path / "runs"
    rc = run(["ablate", "--dataset", TINY, "--axis", "conv", "--seeds", "1",
              "--set", FAST, "--out-dir", str(out)])
    assert rc == 0
    csv = next((out / TINY).glob("*/ablation-conv.csv"))
    lines = csv.read_text().strip().split("\n")
    assert lines[0].split(",")[0] == "variant"
    names = [l.split(",")[0] for l in lines[1:]]
    assert names == ["baseline", "sage", "gin"]


def test_ablate_input_axis_has_four_variants(tmp_path):
    out = tmp_path / "runs"
    rc = run(["ablate", "--dataset", TINY, "--axis", "input", "--seeds", "1",
              "--set", FAST, "--out-dir", str(out)])
    assert rc == 0
    csv = next((out / TINY).glob("*/ablation-input.csv"))
    names = [l.split(",")[0] for l in csv.read_text().strip().split("\n")[1:]]
    assert names == ["baseline", "fixed-orthogonal", "random-uniform", "all-ones"]


def test_sweep_single_value_single_row(tmp_path):
    out = tmp_path / "runs"
    rc = run(["sweep", "--dataset", TINY, "--axis", "mpnn_layers",
              "--values", "2", "--seeds", "1", "--set", FAST,
              "--out-dir", str(out)])
    assert rc == 0
    csv = next((out / TINY).glob("*/sweep-mpnn_layers.csv"))
    lines = csv.read_text().strip().split("\n")
    assert len(lines) == 2
    assert lines[1].startswith("2,")


@pytest.mark.parametrize("argv, csv_name", [
    (["ablate", "--axis", "linearity"], "ablation-linearity.csv"),
    (["sweep", "--axis", "mpnn_layers", "--values", "1"], "sweep-mpnn_layers.csv"),
], ids=["ablate", "sweep"])
def test_grid_records_its_config_and_host(argv, csv_name, tmp_path):
    out = tmp_path / "runs"
    rc = run(argv[:1] + ["--dataset", TINY, "--seeds", "2", "--set", FAST,
                         "--out-dir", str(out)] + argv[1:])
    assert rc == 0
    run_dir = next((out / TINY).iterdir())
    assert (run_dir / csv_name).exists()
    record = json.loads((run_dir / "config.json").read_text())
    assert record["seeds"] == [0, 1] and record["config"]["hidden_dim"] == 16
    assert record["host"]["numpy"] == np.__version__


def test_runs_started_in_one_second_get_their_own_directories(tmp_path, monkeypatch):
    from linkgae import cli
    from linkgae.config import ModelConfig

    monkeypatch.setattr(cli.time, "strftime", lambda fmt: "20260101-000000")
    cfg = ModelConfig()
    dirs = [cli._out_dir(str(tmp_path), TINY, cfg, [seed]) for seed in (0, 1, 2)]
    assert len(set(dirs)) == 3
    assert [d.name for d in dirs[1:]] == [f"{dirs[0].name}-1", f"{dirs[0].name}-2"]
    assert [json.loads((d / "config.json").read_text())["seeds"] for d in dirs] == [
        [0], [1], [2]]


def test_grid_draws_one_split_per_seed(tmp_path, monkeypatch):
    from linkgae import cli

    calls = []

    def counting(g, **kw):
        calls.append(kw["seed"])
        return random_split(g, **kw)

    monkeypatch.setattr(cli, "random_split", counting)
    rc = run(["ablate", "--dataset", TINY, "--axis", "conv", "--seeds", "2",
              "--set", FAST, "--out-dir", str(tmp_path)])
    assert rc == 0
    assert calls == [0, 1]  # one split per seed, shared by the three variants


def test_grid_pool_error_names_the_seed(capsys, monkeypatch, tmp_path):
    from linkgae import train

    def no_epoch(*a, **k):
        raise AssertionError("train_epoch ran")

    monkeypatch.setattr(train, "train_epoch", no_epoch)
    rc = run(["ablate", "--dataset", TINY, "--axis", "conv", "--seeds", "1",
              "--set", FAST + ",metric=hits@100", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "neg.valid of the seed-0 random split" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_sweep_invalid_value_exits_2_before_any_output(capsys, tmp_path):
    rc = run(["sweep", "--dataset", TINY, "--axis", "mpnn_layers", "--values", "2,0",
              "--seeds", "1", "--set", FAST, "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "mpnn_layers and hidden_dim must be >= 1" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_sweep_unparsable_value_exits_2_naming_the_flag(capsys, tmp_path):
    rc = run(["sweep", "--dataset", TINY, "--axis", "hidden_dim", "--values", "8,x",
              "--seeds", "1", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "--values must be integers, got '8,x'" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_sweep_empty_values_exits_2(capsys):
    assert run(["sweep", "--dataset", TINY, "--axis", "mpnn_layers",
                "--values", "", "--seeds", "1"]) == 2


def test_index_featureless_graph_reports_structure_dominance(tmp_path, capsys):
    edge_file = tmp_path / "edges.txt"
    rng = np.random.default_rng(0)
    lines = []
    for block in range(10):
        for i in range(10):
            for j in range(i + 1, 10):
                if rng.random() < 0.5:
                    lines.append(f"{block * 10 + i} {block * 10 + j}")
    edge_file.write_text("\n".join(lines) + "\n")
    rc = run(["index", "--dataset", str(edge_file), "--set", "metric=hits@5",
              "--json", str(tmp_path / "report.json")])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["index"] > 0.999  # all-ones fallback puts P_F at the floor
    assert report["num_nodes"] == 100


def test_heuristic_emits_json(capsys):
    rc = run(["heuristic", "--dataset", TINY, "--which", "aa", "--set", "metric=hits@10"])
    assert rc == 0
    blob = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert blob["heuristic"] == "aa"
    assert blob["K"] == 10
    assert {"metric", "value", "n_pos", "n_neg", "seed"} <= set(blob)


def test_verify_passes_on_clean_build(capsys):
    assert run(["verify", "--graphs", "5"]) == 0
    out = capsys.readouterr().out
    assert "[FAIL]" not in out
    assert "all checks passed" in out
    for conv in ("gcn", "sage", "gin"):
        for mode in ("learnable-orthogonal", "raw"):
            assert f"[PASS] gradient full model ({conv}, {mode})" in out


def test_verify_fails_on_injected_bad_gradient(capsys, monkeypatch):
    # negative control: breaking the spmm backward must flip verify to red
    from linkgae import engine

    original = engine.Tape.spmm

    def bad_spmm(self, adj, x):
        val = adj.matvec(x.value)

        def bwd(up):
            engine._accumulate(x, adj.matvec(up) * 1.05)

        return self._emit(val, (x,), bwd)

    monkeypatch.setattr(engine.Tape, "spmm", bad_spmm)
    try:
        assert run(["verify", "--graphs", "2"]) == 1
        assert "[FAIL]" in capsys.readouterr().out
    finally:
        monkeypatch.setattr(engine.Tape, "spmm", original)


def test_verify_fails_on_wrong_heuristic_weight(capsys, monkeypatch):
    # negative control: RA weights 1% too large must flip the sparse-product check
    from linkgae import heuristics

    original = heuristics.score_edges

    def skewed(g, edges, which):
        out = original(g, edges, which)
        return out * 1.01 if which == "ra" else out

    monkeypatch.setattr(heuristics, "score_edges", skewed)
    assert run(["verify", "--graphs", "2"]) == 1
    assert "[FAIL] heuristics vs sparse product" in capsys.readouterr().out


def test_too_few_per_source_negatives_exit_2_before_training(capsys, monkeypatch, tmp_path):
    from linkgae import train

    def no_epoch(*a, **k):
        raise AssertionError("train_epoch ran")

    path = tmp_path / "split.json"
    assert run(["split", "--dataset", TINY, "--out", str(path)]) == 0
    blob = json.loads(path.read_text())
    positive = {tuple(sorted(e)) for key in ("train", "valid", "test") for e in blob[key]}
    blob["neg"]["test"] = [[[u, w] for w in range(100)
                            if w != u and tuple(sorted((u, w))) not in positive][:5]
                           for u, _ in blob["test"]]
    path.write_text(json.dumps(blob))  # (m, 5, 2) test negatives, none a positive
    monkeypatch.setattr(train, "train_epoch", no_epoch)
    runs = tmp_path / "runs"
    runs.mkdir()
    rc = run(["train", "--dataset", TINY, "--split-file", str(path),
              "--set", "metric=hits@10", "--out-dir", str(runs)])
    assert rc == 2
    assert "hits@10 needs at least 10 negatives per source, got 5" in capsys.readouterr().err
    assert not any(runs.iterdir())


def test_shared_pool_smaller_than_k_exits_2_before_training(capsys, monkeypatch, tmp_path):
    from linkgae import train

    def no_epoch(*a, **k):
        raise AssertionError("train_epoch ran")

    monkeypatch.setattr(train, "train_epoch", no_epoch)
    runs = tmp_path / "runs"
    runs.mkdir()
    rc = run(["train", "--dataset", TINY, "--set", "metric=hits@100,epochs=20,eval_every=5",
              "--out-dir", str(runs)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "hits@100 needs at least 100 negatives, got" in err
    assert "neg.valid of the seed-0 random split" in err
    assert not any(runs.iterdir())


def test_split_roundtrip(tmp_path):
    out = tmp_path / "split.json"
    assert run(["split", "--dataset", TINY, "--out", str(out), "--seed", "3"]) == 0
    split = EdgeSplit.load(out, 100)
    want = random_split(parse_synth_spec(TINY), seed=3)
    for name in ("train_pos", "valid_pos", "test_pos", "valid_neg", "test_neg"):
        assert np.array_equal(getattr(split, name), getattr(want, name))


def test_leaky_split_file_exits_2(tmp_path, capsys):
    path = tmp_path / "split.json"
    assert run(["split", "--dataset", "synth:n=200", "--out", str(path)]) == 0
    blob = json.loads(path.read_text())
    blob["test"].append([0, 5000])
    blob["valid"].append(blob["train"][0])
    path.write_text(json.dumps(blob))
    rc = run(["train", "--dataset", "synth:n=200", "--split-file", str(path),
              "--set", "epochs=2,eval_every=1", "--out-dir", str(tmp_path / "runs")])
    assert rc == 2
    assert "split" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["train", "valid", "test"])
def test_split_file_with_no_positives_in_a_set_exits_2_before_any_output(key, tmp_path,
                                                                           capsys):
    path = tmp_path / "split.json"
    assert run(["split", "--dataset", TINY, "--out", str(path)]) == 0
    blob = json.loads(path.read_text())
    blob[key] = []
    path.write_text(json.dumps(blob))
    runs = tmp_path / "runs"
    rc = run(["train", "--dataset", TINY, "--split-file", str(path), "--set", FAST,
              "--out-dir", str(runs)])
    assert rc == 2
    assert f"split {key}: no positive pairs" in capsys.readouterr().err
    assert not runs.exists()


@pytest.mark.parametrize("metric", ["mrr", "hits@10"])
def test_split_file_with_an_empty_negative_pool_exits_2_before_any_output(metric, tmp_path,
                                                                           capsys):
    path = tmp_path / "split.json"
    assert run(["split", "--dataset", TINY, "--out", str(path)]) == 0
    blob = json.loads(path.read_text())
    blob["neg"]["valid"] = []
    path.write_text(json.dumps(blob))
    runs = tmp_path / "runs"
    rc = run(["train", "--dataset", TINY, "--split-file", str(path),
              "--set", f"{FAST},metric={metric}", "--out-dir", str(runs)])
    assert rc == 2
    assert "split valid negatives: no negative pairs" in capsys.readouterr().err
    assert not runs.exists()


def test_synth_n_below_one_exits_2(capsys):
    assert run(["index", "--dataset", "synth:n=-20"]) == 2
    assert "n must be >= 1, got -20" in capsys.readouterr().err


@pytest.mark.parametrize("cs", ["0", "-4"])
def test_synth_community_size_below_one_exits_2(cs, capsys):
    assert run(["index", "--dataset", f"synth:n=40,cs={cs}"]) == 2
    assert f"community_size must be >= 1, got {cs}" in capsys.readouterr().err


@pytest.mark.parametrize("item, named", [
    ("xdeg=-1", "cross_degree must be finite and >= 0, got -1.0"),
    ("fdim=-1", "feature_dim must be >= 0, got -1"),
    ("p_in=2", "p_in must be in [0, 1], got 2.0"),
    ("p_in=-0.5", "p_in must be in [0, 1], got -0.5"),
])
def test_synth_key_out_of_range_exits_2_naming_it(item, named, capsys):
    assert run(["index", "--dataset", f"synth:n=40,cs=10,{item}"]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("edit, named", [
    (lambda b: {k: v for k, v in b.items() if k != "neg"},
     "the top level is not a JSON object with a 'neg' key"),
    (lambda b: {**b, "neg": {"valid": b["neg"]["valid"]}},
     "'neg' is not a JSON object with a 'test' key"),
    (lambda b: list(b.values()), "the top level is not a JSON object with a 'neg' key"),
], ids=["no-neg", "no-test-negatives", "top-level-list"])
def test_split_file_of_the_wrong_layout_exits_2_naming_it(edit, named, tmp_path, capsys):
    path = tmp_path / "split.json"
    assert run(["split", "--dataset", TINY, "--out", str(path)]) == 0
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    runs = tmp_path / "runs"
    rc = run(["train", "--dataset", TINY, "--split-file", str(path), "--set", FAST,
              "--out-dir", str(runs)])
    assert rc == 2
    assert f"split file {path}: {named}" in capsys.readouterr().err
    assert not runs.exists()


def test_truncated_split_file_exits_2_naming_it(tmp_path, capsys):
    path = tmp_path / "split.json"
    path.write_text('{"train": [[0, 1]],')
    runs = tmp_path / "runs"
    rc = run(["train", "--dataset", TINY, "--split-file", str(path), "--set", FAST,
              "--out-dir", str(runs)])
    assert rc == 2
    assert f"split file {path}: not valid JSON" in capsys.readouterr().err
    assert not runs.exists()


def test_non_finite_loss_exits_1_with_one_line(capsys, monkeypatch, tmp_path):
    from linkgae import train
    from linkgae.engine import Tensor

    def nan_loss(tape, logits, positives):
        return tape.add(original(tape, logits, positives), Tensor(np.array([[np.nan]])))

    original = train.bce_loss
    monkeypatch.setattr(train, "bce_loss", nan_loss)
    rc = run(["train", "--dataset", TINY, "--set", FAST, "--out-dir", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: non-finite training loss nan at epoch 1, step 1\n"


def test_non_finite_feature_file_exits_2(tmp_path, capsys):
    (tmp_path / "edges.txt").write_text("0 1\n1 2\n2 3\n")
    (tmp_path / "features.csv").write_text("1,0\n0,1\ninf,1\n1,1\n")
    rc = run(["index", "--dataset", str(tmp_path / "edges.txt"), "--seed", "0"])
    assert rc == 2
    assert "feature row 2" in capsys.readouterr().err


def test_verify_fails_on_a_wrong_unrolled_recurrence(tmp_path):
    # Mutation check on a copy of the package: adding W_proj to C_1 instead of
    # C_0 is still a differentiable encoder, but not the layer-wise one.
    import shutil
    import subprocess
    import sys

    import linkgae

    copy = tmp_path / "linkgae"
    shutil.copytree(Path(linkgae.__file__).parent, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    model_py = copy / "model.py"
    source = model_py.read_text()
    right = "if k == 0 and self.cfg.encoder_residual:"
    assert source.count(right) == 1
    model_py.write_text(source.replace(right, "if k == 1 and self.cfg.encoder_residual:"))
    proc = subprocess.run([sys.executable, "-m", "linkgae.cli", "verify", "--graphs", "2"],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(tmp_path)},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stderr
    assert "[FAIL] unrolled encoder identity" in proc.stdout
