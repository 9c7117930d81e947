"""Configuration, datasets, training loop, metrics, and CLI."""
import importlib
import json
import os

import numpy as np
import pytest

from graphfilt.errors import ConfigError, NonFiniteValue, ParseError
from graphfilt.harness import (ExperimentConfig, build_dataset,
                               build_similarity_graph, dataset_hash,
                               evaluate, export_dataset,
                               gen_source_localization, ingest_edge_list,
                               metrics_to_csv, pearson_similarity, train)
from graphfilt.harness.cli import main as cli_main
from graphfilt.harness.config import FAMILIES
from graphfilt.harness.train import MetricsRecord, build_model
from graphfilt.nn import ShiftContext, init_params

# the package exports the train function under the submodule's name
train_module = importlib.import_module("graphfilt.harness.train")


def sbm_config(**overrides):
    base = {
        "task": "sbm_source_localization",
        "seed": 0,
        "architecture": {"family": "gcnn", "order": 2, "features": 4,
                         "layers": 1},
        "training": {"epochs": 2, "batch_size": 16, "learning_rate": 1e-3},
        "dataset": {"n_train": 64, "n_val": 32, "n_test": 32,
                    "block_sizes": [5, 5, 5], "t_max": 8},
    }
    for key, val in overrides.items():
        if isinstance(val, dict):
            base[key].update(val)
        else:
            base[key] = val
    return ExperimentConfig.from_dict(base)


class TestConfig:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"task": "sbm_source_localization",
                                        "typo": 1})

    def test_unknown_architecture_key(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({
                "task": "sbm_source_localization",
                "architecture": {"familly": "gcnn"}})

    def test_unknown_dataset_key(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({
                "task": "sbm_source_localization",
                "dataset": {"p_intro": 0.5}})

    def test_unknown_task(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"task": "word_adjacency"})

    def test_probability_range(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({
                "task": "sbm_source_localization",
                "dataset": {"p_intra": 1.4}})

    def test_json_round_trip(self, tmp_path):
        cfg = sbm_config()
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg.to_dict()))
        again = ExperimentConfig.from_json(p)
        assert again.to_dict() == cfg.to_dict()

    def test_bad_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(p)

    @pytest.mark.parametrize("section,field,value", [
        ("architecture", "weighted_softmax", "false"),
        ("architecture", "tie_attention", 0),
        ("architecture", "bias", "true"),
        (None, "timing", 1),
        ("architecture", "order", 2.7),
        ("architecture", "order", "abc"),
        ("architecture", "order", True),
        ("architecture", "features", None),
        ("training", "epochs", 3.0),
        (None, "seed", "0"),
        ("training", "learning_rate", "nan"),
        ("training", "learning_rate", float("nan")),
        ("training", "learning_rate", float("inf")),
        ("training", "learning_rate", "0.01"),
        ("training", "learning_rate", True),
        ("training", "learning_rate", 0.0),
    ])
    def test_wrong_typed_field_names_it(self, section, field, value):
        d = {"task": "sbm_source_localization"}
        if section is None:
            d[field] = value
        else:
            d[section] = {field: value}
        with pytest.raises(ConfigError, match=f"field '{field}'"):
            ExperimentConfig.from_dict(d)

    _PATHS = {"edge_list_classification": {"graph_path": "g.edgelist",
                                           "signals_path": "s.csv"},
              "ratings_regression": {"ratings_path": "r.csv"}}

    @pytest.mark.parametrize("task,field,value", [
        ("sbm_source_localization", "p_intra", "0.5"),
        ("sbm_source_localization", "n_train", 2.5),
        ("sbm_source_localization", "block_sizes", [5, "a"]),
        ("sbm_source_localization", "t_max", 2.7),
        ("sbm_source_localization", "n_val", True),
        ("sbm_source_localization", "block_sizes", []),
        ("sbm_source_localization", "block_sizes", [5, 0]),
        ("sbm_source_localization", "block_sizes", 5),
        ("edge_list_classification", "normalization", 1),
        ("edge_list_classification", "graph_path", None),
        ("ratings_regression", "ratings_path", ["r.csv"]),
        ("ratings_regression", "top_k", "4"),
    ])
    def test_wrong_typed_dataset_field_names_it(self, task, field, value):
        dataset = dict(self._PATHS.get(task, {}), **{field: value})
        with pytest.raises(ConfigError, match=f"field '{field}'"):
            ExperimentConfig.from_dict({"task": task, "dataset": dataset})

    @pytest.mark.parametrize("task", ["edge_list_classification",
                                      "ratings_regression"])
    @pytest.mark.parametrize("fractions,message", [
        ({"train_fraction": -0.2}, "^train_fraction must lie in"),
        ({"train_fraction": 1.5}, "^train_fraction must lie in"),
        ({"train_fraction": float("nan")}, "^train_fraction must lie in"),
        ({"val_fraction": float("inf")}, "^val_fraction must lie in"),
        ({"val_fraction": -0.01}, "^val_fraction must lie in"),
        ({"train_fraction": 0.8, "val_fraction": 0.3},
         r"^train_fraction \+ val_fraction must not exceed 1"),
    ])
    def test_split_fractions_range_checked(self, task, fractions, message):
        dataset = dict(self._PATHS[task], **fractions)
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict({"task": task, "dataset": dataset})

    @pytest.mark.parametrize("task", ["edge_list_classification",
                                      "ratings_regression"])
    @pytest.mark.parametrize("train,val", [(0.0, 0.0), (1.0, 0.0),
                                           (0.7, 0.3), (0.9, 0.1)])
    def test_split_fractions_at_the_bounds_load(self, task, train, val):
        dataset = dict(self._PATHS[task], train_fraction=train,
                       val_fraction=val)
        cfg = ExperimentConfig.from_dict({"task": task, "dataset": dataset})
        assert cfg.dataset["train_fraction"] == train

    def test_dataset_path_is_required(self):
        with pytest.raises(ConfigError, match="field 'ratings_path'"):
            ExperimentConfig.from_dict({"task": "ratings_regression"})

    def test_json_false_stays_false(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({
            "task": "sbm_source_localization",
            "architecture": {"weighted_softmax": False, "bias": False},
            "training": {"learning_rate": 1}}))
        cfg = ExperimentConfig.from_json(p)
        assert cfg.architecture.weighted_softmax is False
        assert cfg.architecture.bias is False
        assert cfg.training.learning_rate == 1.0

    @pytest.mark.parametrize("name", ["sbm_gcnn", "sbm_arma"])
    def test_shipped_configs_load(self, name):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        ExperimentConfig.from_json(os.path.join(root, "configs",
                                                f"{name}.json"))


class TestSourceLocalization:
    def test_split_sizes_default(self):
        cfg = ExperimentConfig.from_dict({"task": "sbm_source_localization"})
        assert cfg.dataset["n_train"] == 10240
        assert cfg.dataset["n_val"] == 2560
        assert cfg.dataset["n_test"] == 2560

    def test_generated_shapes_and_splits(self):
        cfg = sbm_config()
        ds = gen_source_localization(cfg, np.random.default_rng(0))
        assert ds.X.shape == (128, 15)
        assert len(ds.splits["train"]) == 64
        assert len(ds.splits["val"]) == 32
        assert len(ds.splits["test"]) == 32
        assert ds.n_outputs == 3

    def test_time_zero_samples_are_deltas(self):
        cfg = sbm_config()
        ds = gen_source_localization(cfg, np.random.default_rng(1))
        sources = np.asarray(ds.meta["sources"])
        deltas = np.abs(ds.X.sum(axis=1) - 1.0) < 1e-12
        one_hot = (ds.X == 1.0).sum(axis=1) == 1
        t0 = deltas & one_hot
        assert t0.any()
        for row, label in zip(ds.X[t0], ds.labels[t0]):
            assert row[sources[label]] == 1.0

    def test_same_seed_same_hash(self):
        cfg = sbm_config()
        h1 = dataset_hash(gen_source_localization(cfg, np.random.default_rng(5)))
        h2 = dataset_hash(gen_source_localization(cfg, np.random.default_rng(5)))
        assert h1 == h2

    def test_different_seed_different_hash(self):
        cfg = sbm_config()
        h1 = dataset_hash(gen_source_localization(cfg, np.random.default_rng(5)))
        h2 = dataset_hash(gen_source_localization(cfg, np.random.default_rng(6)))
        assert h1 != h2


class TestEdgeListIngestion:
    def write_pair(self, tmp_path):
        g = tmp_path / "g.edgelist"
        g.write_text("0 1\n1 2\n")
        s = tmp_path / "s.csv"
        s.write_text("1.0,0.0,0.0,0\n0.0,1.0,0.0,1\n0.0,0.0,1.0,1\n"
                     "0.5,0.5,0.0,0\n0.0,0.5,0.5,1\n")
        return g, s

    def test_counts(self, tmp_path):
        g, s = self.write_pair(tmp_path)
        ds = ingest_edge_list(g, s, normalization="none")
        assert ds.S.n_rows == 3
        assert ds.S.nnz == 4  # symmetric expansion of two edges
        assert len(ds.X) == 5

    def test_malformed_line_number(self, tmp_path):
        g, s = self.write_pair(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,0.0,0.0,0\n1.0,0.0,0\n")
        with pytest.raises(ParseError) as err:
            ingest_edge_list(g, bad)
        assert err.value.line == 2

    def test_round_trip_preserves_hash(self, tmp_path):
        cfg = sbm_config()
        ds = gen_source_localization(cfg, np.random.default_rng(2))
        out = tmp_path / "export"
        gpath, spath = export_dataset(ds, out)
        again = ingest_edge_list(gpath, spath, normalization="none")
        # reimported raw adjacency differs from the stored normalized S,
        # so compare on the exported (normalized) values directly
        again.S = ds.S.with_values(again.S.values)
        assert dataset_hash(again) == dataset_hash(ds)


class TestSimilarityGraph:
    def test_identical_rows_perfect_correlation(self):
        a = np.array([5.0, 3.0, 4.0, 1.0])
        assert pearson_similarity(a, a.copy()) == pytest.approx(1.0)

    def test_anticorrelated_rows(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([3.0, 2.0, 1.0])
        assert pearson_similarity(a, b) == pytest.approx(-1.0)

    def test_missing_entries_skipped(self):
        a = np.array([5.0, 0.0, 4.0, 1.0])
        b = np.array([5.0, 3.0, 4.0, 1.0])
        # only co-rated entries (0, 2, 3) participate
        want = pearson_similarity(a[[0, 2, 3]], b[[0, 2, 3]])
        assert pearson_similarity(a, b) == pytest.approx(want)

    def test_degenerate_pair_raises_and_graph_skips(self):
        from graphfilt.errors import DegenerateColumn
        a = np.array([2.0, 2.0, 2.0])
        b = np.array([1.0, 2.0, 3.0])
        with pytest.raises(DegenerateColumn):
            pearson_similarity(a, b)
        ratings = np.vstack([a, b, [1.0, 3.0, 2.0]])
        S = build_similarity_graph(ratings, top_k=2)
        assert np.array_equal(S.to_dense()[0], np.zeros(3))

    def test_too_few_co_ratings_returns_none(self):
        a = np.array([2.0, 0.0, 0.0])
        b = np.array([1.0, 2.0, 3.0])
        assert pearson_similarity(a, b) is None

    def test_toy_matrix_matches_hand_oracle(self):
        rng = np.random.default_rng(3)
        ratings = rng.integers(1, 6, size=(5, 4)).astype(float)
        S = build_similarity_graph(ratings, top_k=4)
        dense = S.to_dense()
        # hand Pearson for one pair, rescaled by the dominant eigenvalue
        from graphfilt.sparse import power_iteration_lambda_max, SparseMatrix
        raw = np.zeros((5, 5))
        for i in range(5):
            for j in range(5):
                if i != j:
                    raw[i, j] = pearson_similarity(ratings[i], ratings[j])
        lam = power_iteration_lambda_max(SparseMatrix.from_dense(raw))
        assert np.max(np.abs(dense - raw / lam)) < 1e-12

    def test_top_k_pruning(self):
        rng = np.random.default_rng(4)
        ratings = rng.integers(1, 6, size=(6, 8)).astype(float)
        S = build_similarity_graph(ratings, top_k=2)
        dense = S.to_dense()
        # symmetrized by max, so a row can hold more than top_k entries,
        # but each node keeps at least its own two best
        assert np.all((dense != 0).sum(axis=1) >= 2)


class TestTrainLoop:
    def test_zero_epochs_returns_initialized_model(self):
        cfg = sbm_config(training={"epochs": 0})
        ds = build_dataset(cfg, np.random.default_rng(0))
        model, records = train(cfg, ds)
        assert records == []
        want = build_model(cfg, ShiftContext(ds.S), ds.n_outputs)
        init_params(want, np.random.default_rng(
            np.random.SeedSequence(cfg.seed).spawn(3)[1]), ds.S)
        for (_, a), (_, b) in zip(model.parameters(), want.parameters()):
            assert np.array_equal(a.value, b.value)

    def test_determinism_bit_identical_metrics(self):
        cfg = sbm_config()
        runs = []
        for _ in range(2):
            ds = build_dataset(cfg, np.random.default_rng(
                np.random.SeedSequence(cfg.seed).spawn(3)[0]))
            _, records = train(cfg, ds)
            runs.append(metrics_to_csv(records))
        assert runs[0] == runs[1]

    def test_metrics_rows_and_finiteness(self):
        cfg = sbm_config(training={"epochs": 3})
        ds = build_dataset(cfg, np.random.default_rng(0))
        _, records = train(cfg, ds)
        assert len(records) == 3
        for r in records:
            assert np.isfinite([r.train_loss, r.val_loss, r.val_metric]).all()
            assert 0.0 <= r.val_metric <= 1.0

    def test_nan_signal_raises_naming_epoch_and_batch(self):
        cfg = sbm_config()
        ds = build_dataset(cfg, np.random.default_rng(0))
        train_idx = ds.splits["train"]
        ds.X[train_idx[5]] = np.nan
        # the epoch-0 order train() draws from its shuffle stream
        shuffle_seq = np.random.SeedSequence(cfg.seed).spawn(3)[2]
        order = np.random.default_rng(shuffle_seq).permutation(
            len(train_idx))
        bs = cfg.training.batch_size
        start = int(np.nonzero(order == 5)[0][0]) // bs * bs
        with pytest.raises(NonFiniteValue,
                           match=f"epoch 0, batch starting at {start}: loss"):
            train(cfg, ds)

    def test_nan_validation_signal_raises_naming_epoch(self):
        cfg = sbm_config()
        ds = build_dataset(cfg, np.random.default_rng(0))
        ds.X[ds.splits["val"][3]] = np.nan
        with pytest.raises(NonFiniteValue,
                           match="^epoch 0: validation loss is nan$"):
            train(cfg, ds)

    def test_nan_gradient_raises_naming_parameter(self, monkeypatch):
        def nan_grad(cfg, logits, y, mask):
            return 1.0, np.full_like(logits, np.nan)

        monkeypatch.setattr(train_module, "_batch_loss", nan_grad)
        cfg = sbm_config()
        ds = build_dataset(cfg, np.random.default_rng(0))
        with pytest.raises(NonFiniteValue,
                           match="epoch 0, batch starting at 0: gradient "
                                 "of L0.poly"):
            train(cfg, ds)

    @pytest.mark.parametrize("split", ["train", "val"])
    def test_empty_training_split_raises_before_the_first_epoch(
            self, split, monkeypatch):
        batches = []
        monkeypatch.setattr(train_module, "_forward_batch",
                            lambda *args: batches.append(args))
        cfg = sbm_config(dataset={f"n_{split}": 0})
        ds = build_dataset(cfg, np.random.default_rng(0))
        with pytest.raises(ConfigError, match=f"split '{split}' is empty"):
            train(cfg, ds)
        assert batches == []

    @pytest.mark.parametrize("split", ["train", "val", "test"])
    def test_evaluate_on_an_empty_split_raises(self, split):
        cfg = sbm_config()
        ds = build_dataset(cfg, np.random.default_rng(0))
        model = build_model(cfg, ShiftContext(ds.S), ds.n_outputs)
        ds.splits[split] = ds.splits[split][:0]
        with pytest.raises(ConfigError, match=f"split '{split}' is empty"):
            evaluate(model, ds, split, cfg)

    def test_context_is_kept_until_the_shift_is_replaced(self, monkeypatch):
        cfg = sbm_config()
        ds = build_dataset(cfg, np.random.default_rng(0))
        model = build_model(cfg, ds.context(), ds.n_outputs)
        used = []
        forward = model.forward
        monkeypatch.setattr(model, "forward",
                            lambda ctx, xb: used.append(ctx)
                            or forward(ctx, xb))
        evaluate(model, ds, "val", cfg)
        evaluate(model, ds, "test", cfg)
        first = ds.context()
        assert len(used) == 2 and all(ctx is first for ctx in used)
        ds.S = ds.S.scale(0.5)
        second = ds.context()
        assert second is not first and second.S is ds.S
        assert ds.context() is second

    def test_train_then_evaluate_builds_one_context(self, monkeypatch):
        built = []
        init = ShiftContext.__init__

        def counted(ctx, S):
            built.append(S)
            init(ctx, S)

        monkeypatch.setattr(ShiftContext, "__init__", counted)
        cfg = sbm_config(training={"epochs": 3})
        ds = build_dataset(cfg, np.random.default_rng(0))
        model, _ = train(cfg, ds)
        evaluate(model, ds, "test", cfg)
        assert len(built) == 1 and built[0] is ds.S

    def test_loss_decreases_every_family_smoke(self):
        # separable toy task; first-epoch to last-epoch train loss drop
        for family in ("gcnn", "edge_varying", "block_varying", "hybrid",
                       "arma", "gat", "gcat", "ev_gat", "hybrid_gcat"):
            cfg = sbm_config(
                architecture={"family": family, "order": 1, "features": 3,
                              "layers": 1, "n_selected": 2, "n_poles": 1,
                              "jacobi_order": 1},
                training={"epochs": 5, "batch_size": 16,
                          "learning_rate": 1e-2},
                dataset={"n_train": 48, "n_val": 16, "n_test": 16,
                         "block_sizes": [4, 4], "t_max": 2},
            )
            ds = build_dataset(cfg, np.random.default_rng(1))
            _, records = train(cfg, ds)
            assert records[-1].train_loss < records[0].train_loss, family

    def test_capacity_smoke_overfits_small_train_split(self):
        cfg = sbm_config(
            architecture={"family": "gcnn", "order": 3, "features": 8},
            training={"epochs": 60, "batch_size": 20,
                      "learning_rate": 1e-2},
            dataset={"n_train": 100, "n_val": 20, "n_test": 20,
                     "block_sizes": [5, 5, 5], "t_max": 4},
        )
        ds = build_dataset(cfg, np.random.default_rng(2))
        model, _ = train(cfg, ds)
        _, err = evaluate(model, ds, "train", cfg)
        assert err < 0.05

    def test_evaluate_perfect_and_chance(self):
        cfg = sbm_config()
        ds = build_dataset(cfg, np.random.default_rng(3))

        class Oracle:
            output = "softmax"

            def forward(self, ctx, xb):
                import graphfilt.nn as nn
                logits = np.eye(3)[ds.labels[_match_rows(ds.X, xb)]] * 10.0
                return nn.Tensor(logits), None

        def _match_rows(all_x, xb):
            idx = []
            for row in xb[:, :, 0]:
                idx.append(int(np.argmin(np.abs(all_x - row).sum(axis=1))))
            return np.asarray(idx)

        loss, err = evaluate(Oracle(), ds, "test", cfg)
        assert err == 0.0

    def test_constant_predictor_near_chance(self):
        cfg = sbm_config(dataset={"n_train": 32, "n_val": 16, "n_test": 400,
                                  "block_sizes": [4, 4, 4, 4, 4]})
        ds = build_dataset(cfg, np.random.default_rng(7))
        model = build_model(cfg, ShiftContext(ds.S), ds.n_outputs)
        # zero parameters give identical logits; argmax picks class 0
        _, err = evaluate(model, ds, "test", cfg)
        assert abs(err - 0.8) < 0.1

    def test_regression_training_loss_decreases(self):
        rng = np.random.default_rng(6)
        ratings = rng.integers(1, 6, size=(8, 60)).astype(float)
        path = "/tmp/_ratings_smoke.csv"
        with open(path, "w") as fh:
            for row in ratings:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        cfg = ExperimentConfig.from_dict({
            "task": "ratings_regression", "seed": 1,
            "architecture": {"family": "gcnn", "order": 1, "features": 3},
            "training": {"epochs": 5, "batch_size": 10,
                         "learning_rate": 1e-2},
            "dataset": {"ratings_path": path, "target_node": 2,
                        "top_k": 4},
        })
        ds = build_dataset(cfg, np.random.default_rng(0))
        _, records = train(cfg, ds)
        assert records[-1].train_loss < records[0].train_loss
        os.remove(path)

    @staticmethod
    def _ratings(tmp_path):
        rng = np.random.default_rng(5)
        ratings = rng.integers(1, 6, size=(6, 30)).astype(float)
        path = tmp_path / "ratings.csv"
        path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n"
                                for row in ratings))
        cfg = ExperimentConfig.from_dict({
            "task": "ratings_regression", "seed": 0,
            "architecture": {"family": "gcnn", "order": 1, "features": 2},
            "training": {"epochs": 2, "batch_size": 8,
                         "learning_rate": 1e-3},
            "dataset": {"ratings_path": str(path), "target_node": 0,
                        "top_k": 3},
        })
        return cfg, build_dataset(cfg, np.random.default_rng(0))

    @pytest.mark.parametrize("split", ["train", "val", "test"])
    def test_evaluate_on_a_split_with_no_observed_target_raises(
            self, split, tmp_path):
        cfg, ds = self._ratings(tmp_path)
        model = build_model(cfg, ds.context(), ds.n_outputs)
        ds.target_mask[ds.splits[split]] = 0.0
        with pytest.raises(ConfigError,
                           match=f"split '{split}' has no observed target"):
            evaluate(model, ds, split, cfg)

    @pytest.mark.parametrize("split", ["train", "val"])
    def test_train_on_a_split_with_no_observed_target_raises(
            self, split, tmp_path, monkeypatch):
        batches = []
        monkeypatch.setattr(train_module, "_forward_batch",
                            lambda *args: batches.append(args))
        cfg, ds = self._ratings(tmp_path)
        ds.target_mask[ds.splits[split]] = 0.0
        with pytest.raises(ConfigError,
                           match=f"split '{split}' has no observed target"):
            train(cfg, ds)
        assert batches == []

    def test_rmse_of_zero_predictions(self):
        # regression path: zero model output against known targets
        rng = np.random.default_rng(5)
        ratings = rng.integers(1, 6, size=(6, 30)).astype(float)
        path = "/tmp/_ratings_test.csv"
        with open(path, "w") as fh:
            for row in ratings:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        cfg = ExperimentConfig.from_dict({
            "task": "ratings_regression", "seed": 0,
            "architecture": {"family": "gcnn", "order": 1, "features": 2},
            "training": {"epochs": 0, "batch_size": 8,
                         "learning_rate": 1e-3},
            "dataset": {"ratings_path": path, "target_node": 0,
                        "top_k": 3},
        })
        ds = build_dataset(cfg, np.random.default_rng(0))
        model, _ = train(cfg, ds)
        for _, t in model.parameters():
            t.value = np.zeros_like(t.value)
        _, rmse = evaluate(model, ds, "test", cfg)
        X, y, mask = ds.split_arrays("test")
        want = np.sqrt(np.sum((y * mask) ** 2) / mask.sum())
        assert rmse == pytest.approx(want)
        os.remove(path)


class TestMetricsCsv:
    def test_header_and_rows(self):
        records = [MetricsRecord(0, 1.5, 1.25, 0.5, 0.0),
                   MetricsRecord(1, 1.0, 1.0, 0.25, 0.0)]
        text = metrics_to_csv(records)
        lines = text.strip().split("\n")
        assert lines[0] == "epoch,train_loss,val_loss,val_metric,seconds"
        assert len(lines) == 3
        assert lines[1].startswith("0,1.5,1.25,0.5,")


class TestCli:
    def test_paramcount_prints_formula(self, capsys):
        code = cli_main(["paramcount", "--kind", "arma", "--p", "2",
                         "--k", "3", "--f", "4"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "128"

    def test_unknown_subcommand_exits_2(self, capsys):
        code = cli_main(["frobnicate"])
        assert code == 2

    def test_missing_required_flag_exits_2(self):
        assert cli_main(["train"]) == 2

    def test_runtime_error_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"task": "nope"}))
        code = cli_main(["train", "-c", str(cfg), "-o", str(tmp_path)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_generate_train_eval_cycle(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(sbm_config().to_dict()))
        out = tmp_path / "run"
        assert cli_main(["train", "-c", str(cfg_path), "-o", str(out)]) == 0
        assert (out / "metrics.csv").exists()
        assert (out / "model.json").exists()
        capsys.readouterr()
        code = cli_main(["eval", "-c", str(cfg_path), "-m",
                         str(out / "model.json"), "--split", "val"])
        assert code == 0
        assert "metric" in capsys.readouterr().out

    def test_spectrum_writes_csv(self, tmp_path, capsys):
        g = tmp_path / "g.edgelist"
        g.write_text("0 1\n1 2\n0 2\n")
        out = tmp_path / "spec.csv"
        code = cli_main(["spectrum", "--graph", str(g), "--filter",
                         '{"kind":"polynomial","coeffs":[1.0,0.5]}',
                         "-o", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "lambda,response"
        assert len(lines) == 4

    def test_centrality_lists_nodes(self, capsys, tmp_path):
        g = tmp_path / "g.edgelist"
        g.write_text("0 1\n0 2\n0 3\n")
        code = cli_main(["centrality", "--graph", str(g), "--k", "1"])
        assert code == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == "node,score"
        assert out[1] == "0,4.0"

    def test_gradcheck_suite_exits_zero(self, capsys):
        assert cli_main(["gradcheck"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:2] for line in lines] == [
            [family, "PASS"] for family in FAMILIES]

    def test_seed_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(sbm_config().to_dict()))
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert cli_main(["generate", "-c", str(cfg_path), "-o", str(out1),
                         "--seed", "9"]) == 0
        assert cli_main(["generate", "-c", str(cfg_path), "-o", str(out2),
                         "--seed", "10"]) == 0
        a = (out1 / "signals.csv").read_text()
        b = (out2 / "signals.csv").read_text()
        assert a != b
