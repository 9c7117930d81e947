"""Configuration, datasets, training loop, metrics, and CLI."""
import importlib
import json
import os
import re
import weakref
from dataclasses import asdict

import numpy as np
import pytest

from graphfilt.errors import (ConfigError, CountTooLarge, DegenerateColumn,
                              NonFiniteValue, ParseError, TooLarge)
from graphfilt.harness import (ExperimentConfig, build_dataset,
                               build_similarity_graph, dataset_hash,
                               evaluate, export_dataset,
                               gen_source_localization, ingest_edge_list,
                               metrics_to_csv, pearson_similarity,
                               run_experiment, train)
from graphfilt.harness.cli import main as cli_main
from graphfilt.harness.config import FAMILIES
from graphfilt.harness.data import read_ratings_csv, read_signals_csv
from graphfilt.graphs import (block_labels, build_shift, load_graph,
                              sbm_generate)
from graphfilt.harness.train import MetricsRecord, build_model, seed_streams
from graphfilt.sparse import SparseMatrix, power_iteration_lambda_max, spmv
from graphfilt.nn import (ShiftContext, finite_difference_check,
                          init_params, load_model, save_model)

# the package exports the train function under the submodule's name
train_module = importlib.import_module("graphfilt.harness.train")
data_module = importlib.import_module("graphfilt.harness.data")


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


def evaluate_keeping_tapes(model, dataset, split, cfg):
    """``evaluate`` on a classification split as it was before chunk
    tapes were released: each chunk's tape stays bound until the next
    chunk's forward has run."""
    X, y, _ = dataset.split_arrays(split)
    ctx = dataset.context()
    losses, hits = [], 0.0
    for start in range(0, len(X), train_module._EVAL_CHUNK):
        rows = slice(start, start + train_module._EVAL_CHUNK)
        logits, _ = train_module._forward_batch(model, ctx, X[rows])
        lv = logits.value
        losses.append((train_module._batch_loss(cfg, lv, y[rows], None)[0],
                       len(lv)))
        hits += float(np.sum(np.argmax(lv, axis=-1) == y[rows]))
    total = sum(n for _, n in losses)
    return sum(l * n for l, n in losses) / total, 1.0 - hits / total


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
        p.write_text(json.dumps(asdict(cfg)))
        again = ExperimentConfig.from_json(p)
        assert asdict(again) == asdict(cfg)

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
        ("architecture", "order", -1),
        ("architecture", "features", 0),
        ("architecture", "n_poles", -1),
        ("architecture", "jacobi_order", -1),
        ("architecture", "n_selected", -1),
        ("architecture", "selection_k", -1),
        ("architecture", "selection", 3),
        ("architecture", "family", 1),
        ("architecture", "nonlinearity", None),
        ("architecture", "readout_mode", ["flatten"]),
        ("architecture", "phi0_mode", False),
        ("training", "epochs", -1),
        ("training", "batch_size", 0),
        (None, "architecture", 5),
        (None, "training", ["epochs"]),
        (None, "dataset", "none"),
    ])
    def test_wrong_typed_field_names_it(self, section, field, value):
        d = {"task": "sbm_source_localization"}
        if section is None:
            d[field] = value
        else:
            d[section] = {field: value}
        with pytest.raises(ConfigError, match=f"field '{field}'"):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize("task,field,value,rule", [
        ("sbm_source_localization", "t_max", -1, ">= 0, not -1"),
        ("sbm_source_localization", "n_train", -3, ">= 0, not -3"),
        ("sbm_source_localization", "n_val", -1, ">= 0"),
        ("sbm_source_localization", "n_test", -1, ">= 0"),
        ("ratings_regression", "target_node", -1, ">= 0"),
        ("ratings_regression", "top_k", -2, ">= 0, not -2"),
        ("ratings_regression", "min_co_rated", -1, ">= 0"),
        ("ratings_regression", "smooth_l1_delta", -1.0,
         "finite and > 0, not -1.0"),
        ("ratings_regression", "smooth_l1_delta", 0, "finite and > 0"),
        ("ratings_regression", "smooth_l1_delta", float("nan"),
         "finite and > 0"),
        ("ratings_regression", "smooth_l1_delta", float("inf"),
         "finite and > 0"),
    ])
    def test_dataset_field_out_of_range_names_it(self, task, field, value,
                                                 rule):
        d = {"task": task, "dataset": {field: value}}
        if task == "ratings_regression":
            d["dataset"]["ratings_path"] = "ratings.csv"
        with pytest.raises(ConfigError,
                           match=f"^field '{field}' must be {rule}"):
            ExperimentConfig.from_dict(d)

    def test_negative_t_max_exits_one_naming_it(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"task": "sbm_source_localization",
                                   "dataset": {"t_max": -1}}))
        code = cli_main(["train", "-c", str(cfg), "-o", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: field 't_max' must be >= 0, not -1")
        assert "Traceback" not in err

    @pytest.mark.parametrize("field,value", [
        ("family", "bogus"),
        ("selection", "bogus"),
        ("phi0_mode", "bogus"),
        ("nonlinearity", "tanh"),
        ("readout_mode", "sum_pool"),
    ])
    def test_value_outside_its_choices_names_it(self, field, value):
        d = {"task": "sbm_source_localization",
             "architecture": {"family": "hybrid", field: value}}
        with pytest.raises(ConfigError,
                           match=f"^field '{field}' must be one of .*"
                                 f"not '{value}'$"):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize("family,field,value,unset", [
        ("gcnn", "tie_attention", True, "false"),
        ("arma", "weighted_softmax", True, "false"),
        ("gcat", "phi0_mode", "identity", '"attention"'),
    ])
    def test_attention_field_on_a_family_without_its_head_names_both(
            self, family, field, value, unset):
        d = {"task": "sbm_source_localization",
             "architecture": {"family": family, field: value}}
        with pytest.raises(ConfigError,
                           match=f"^field '{field}' must be {unset} on "
                                 f"family '{family}': only "):
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
        ({"train_fraction": -0.2},
         r"^field 'train_fraction' must lie in \[0, 1\], not -0.2$"),
        ({"train_fraction": 1.5},
         r"^field 'train_fraction' must lie in \[0, 1\], not 1.5$"),
        ({"train_fraction": float("nan")},
         r"^field 'train_fraction' must lie in \[0, 1\], not nan$"),
        ({"val_fraction": float("inf")},
         r"^field 'val_fraction' must lie in \[0, 1\], not inf$"),
        ({"val_fraction": -0.01},
         r"^field 'val_fraction' must lie in \[0, 1\], not -0.01$"),
        ({"train_fraction": 0.8, "val_fraction": 0.3},
         r"^train_fraction \+ val_fraction must not exceed 1"),
    ])
    def test_split_fractions_range_checked(self, task, fractions, message):
        dataset = dict(self._PATHS[task], **fractions)
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict({"task": task, "dataset": dataset})

    @pytest.mark.parametrize("field,value,shown", [
        ("p_intra", 1.5, "1.5"),
        ("p_inter", -0.25, "-0.25"),
        ("p_intra", float("nan"), "nan"),
    ])
    def test_probability_range_names_the_field(self, field, value, shown):
        with pytest.raises(ConfigError, match=(
                rf"^field '{field}' must lie in \[0, 1\], not {shown}$")):
            ExperimentConfig.from_dict({"task": "sbm_source_localization",
                                        "dataset": {field: value}})

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

    def test_config_that_is_not_an_object(self):
        with pytest.raises(ConfigError,
                           match="^config must be an object, not list"):
            ExperimentConfig.from_dict(["sbm_source_localization"])

    # The architecture and training defaults as they stood when each was
    # written twice, once in the dataclass and once in its reader.
    _ARCHITECTURE_DEFAULTS = {
        "family": "gcnn", "order": 3, "features": 16, "layers": 1,
        "n_poles": 1, "jacobi_order": 1, "n_selected": 5,
        "selection": "degree", "selection_k": 3, "phi0_mode": "attention",
        "weighted_softmax": False, "tie_attention": False,
        "nonlinearity": "relu", "readout_mode": "flatten", "bias": True}
    _TRAINING_DEFAULTS = {"epochs": 40, "batch_size": 100,
                          "learning_rate": 1e-3}

    @staticmethod
    def _shipped(name):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "configs", f"{name}.json")) as fh:
            return json.load(fh)

    @pytest.mark.parametrize("raw", [
        "sbm_gcnn", "sbm_arma",
        # the shapes the benchmark workloads and the gradcheck CLI build
        {"architecture": {"family": "gcnn", "order": 5, "features": 16,
                          "layers": 1},
         "training": {"epochs": 40, "batch_size": 100,
                      "learning_rate": 1e-3}},
        {"architecture": {"family": "hybrid", "order": 3, "features": 16,
                          "layers": 2, "readout_mode": "mean_pool",
                          "n_poles": 2, "jacobi_order": 1, "n_selected": 5},
         "training": {"epochs": 1, "batch_size": 100, "learning_rate": 1}},
        {"architecture": {"family": "arma", "order": 2, "features": 2,
                          "n_poles": 1, "jacobi_order": 2, "n_selected": 2,
                          "readout_mode": "mean_pool"}},
        {"architecture": {"family": "ev_gat", "order": 2, "features": 3,
                          "layers": 1, "phi0_mode": "identity",
                          "weighted_softmax": True, "tie_attention": True,
                          "nonlinearity": "leaky_relu", "bias": False,
                          "selection": "diffusion_centrality",
                          "selection_k": 0}},
    ], ids=["sbm_gcnn", "sbm_arma", "desk_gcnn", "family_sweep_hybrid",
            "gradcheck_arma", "ev_gat_every_field"])
    def test_to_dict_is_the_defaults_overlaid_with_the_given_fields(
            self, raw):
        raw = self._shipped(raw) if isinstance(raw, str) else dict(
            raw, task="sbm_source_localization")
        cfg = ExperimentConfig.from_dict(raw)
        training = dict(self._TRAINING_DEFAULTS, **raw.get("training", {}))
        training["learning_rate"] = float(training["learning_rate"])
        assert asdict(cfg) == {
            "task": raw["task"], "seed": raw.get("seed", 0),
            "architecture": dict(self._ARCHITECTURE_DEFAULTS,
                                 **raw.get("architecture", {})),
            "training": training,
            "dataset": dict(ExperimentConfig.from_dict(
                {"task": raw["task"]}).dataset, **raw.get("dataset", {})),
            "timing": False}
        assert type(cfg.training.learning_rate) is float
        assert list(asdict(cfg)["architecture"]) == list(
            self._ARCHITECTURE_DEFAULTS)


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


def reference_source_localization(cfg, rng):
    """The per-community source choice and diffusion table that
    gen_source_localization ran before one batched spmv per step."""
    ds_cfg = cfg.dataset
    sizes = ds_cfg["block_sizes"]
    graph = sbm_generate(sizes, ds_cfg["p_intra"], ds_cfg["p_inter"], rng)
    S = build_shift(graph, "max_eigenvalue")
    labels_of_node = block_labels(sizes)
    degree = np.diff(S.row_ptr)
    sources = []
    for c in range(len(sizes)):
        members = np.nonzero(labels_of_node == c)[0]
        best = members[np.lexsort((members, -degree[members]))[0]]
        sources.append(int(best))
    t_max = int(ds_cfg["t_max"])
    n = graph.n
    table = np.zeros((len(sizes), t_max + 1, n))
    for c, src in enumerate(sources):
        x = np.zeros(n)
        x[src] = 1.0
        table[c, 0] = x
        for t in range(1, t_max + 1):
            x = spmv(S, x)
            table[c, t] = x
    n_total = ds_cfg["n_train"] + ds_cfg["n_val"] + ds_cfg["n_test"]
    comm = rng.integers(0, len(sizes), size=n_total)
    steps = rng.integers(0, t_max + 1, size=n_total)
    return S, table[comm, steps], comm, sources


class TestSourceLocalizationReference:
    @pytest.mark.parametrize("seed", range(8))
    def test_tensors_equal_the_per_community_reference(self, seed):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 9, size=int(rng.integers(1, 5))).tolist()
        cfg = sbm_config(dataset={
            "block_sizes": sizes, "t_max": int(rng.integers(0, 12)),
            "p_intra": 0.9, "p_inter": 0.3,
            "n_train": int(rng.integers(1, 40)), "n_val": 3, "n_test": 2})
        S, X, labels, sources = reference_source_localization(
            cfg, np.random.default_rng(seed))
        ds = gen_source_localization(cfg, np.random.default_rng(seed))
        assert np.array_equal(ds.S.row_ptr, S.row_ptr)
        assert np.array_equal(ds.S.col_idx, S.col_idx)
        assert np.array_equal(ds.S.values, S.values)
        assert np.array_equal(ds.X, X) and ds.X.flags.c_contiguous
        assert np.array_equal(ds.labels, labels)
        assert ds.meta["sources"] == sources
        assert all(type(v) is int for v in ds.meta["sources"])

    def test_export_writes_the_reference_edges(self, tmp_path):
        ds = gen_source_localization(sbm_config(), np.random.default_rng(4))
        rows = ds.S.entry_rows()
        want = [(int(r), int(c), float(v)) for r, c, v
                in zip(rows, ds.S.col_idx, ds.S.values) if r < c]
        gpath, _ = export_dataset(ds, tmp_path / "export")
        assert load_graph(gpath).edges == tuple(want)

    @pytest.mark.parametrize("field,dataset", [
        ("block_sizes", {"block_sizes": [100_000, 100_000]}),
        ("t_max", {"t_max": 10**12}),
        ("n_train + n_val + n_test", {"n_train": 10**12}),
        ("n_train + n_val + n_test", {"n_test": 2**40}),
    ])
    def test_size_past_the_cap_raises_before_the_draw(self, monkeypatch,
                                                      field, dataset):
        def no_draw(*args):
            raise AssertionError("the graph was drawn")
        monkeypatch.setattr(data_module, "sbm_generate", no_draw)
        with pytest.raises(TooLarge,
                           match=rf"^field '{re.escape(field)}' sizes an "
                                 r"array of \d+ bytes, past the \d+-byte cap"):
            gen_source_localization(sbm_config(dataset=dataset),
                                    np.random.default_rng(0))

    def test_huge_t_max_exits_one_naming_it(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"task": "sbm_source_localization",
                                   "dataset": {"t_max": 10**12}}))
        code = cli_main(["train", "-c", str(cfg), "-o", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: field 't_max' sizes an array of ")
        assert "Traceback" not in err

    def test_seed_streams_are_the_spawned_children(self):
        children = np.random.SeedSequence(7).spawn(3)
        for got, seq in zip(seed_streams(7), children):
            assert np.array_equal(got.random(5),
                                  np.random.default_rng(seq).random(5))


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

    @pytest.mark.parametrize("row,message", [
        ("0.0,nan,0.0,1", "'nan' is not a finite number"),
        ("0.0,0.0,-inf,1", "'-inf' is not a finite number"),
        ("0.0,0.0,1e400,1", "'1e400' is not a finite number"),
        ("0.0,0.0,0.0,100000000000000000000000", "label 10{23} outside"),
        ("0.0,0.0,0.0,-1", "label -1 outside"),
    ])
    def test_bad_signal_value_names_its_line(self, tmp_path, row, message):
        g, _ = self.write_pair(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text(f"1.0,0.0,0.0,0\n{row}\n")
        with pytest.raises(ParseError, match=f"^line 2: {message}") as err:
            read_signals_csv(bad, 3)
        assert err.value.line == 2
        with pytest.raises(ParseError, match="^line 2: "):
            ingest_edge_list(g, bad)

    def test_signal_bytes_not_utf8_name_their_line(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"1.0,0.0,0.0,0\n0.5,\xff,0.0,1\n")
        with pytest.raises(ParseError, match="^line 2: not UTF-8") as err:
            read_signals_csv(bad, 3)
        assert err.value.line == 2

    def test_signals_read_before_the_shift_is_built(self, tmp_path,
                                                     monkeypatch):
        # a stray node index of 1e10 fails in the edge-list reader; one the
        # reader lets through (a 4-node graph of 3 named nodes) fails on
        # the signals' field count; neither allocates a shift
        _, s = self.write_pair(tmp_path)
        g = tmp_path / "stray.edgelist"

        def no_shift(*args):
            raise AssertionError("build_shift ran before the signals")
        monkeypatch.setattr(data_module, "build_shift", no_shift)
        g.write_text("0 1\n1 10000000000\n")
        with pytest.raises(CountTooLarge, match="^line 2: node index"):
            ingest_edge_list(g, s)
        g.write_text("0 1\n1 3\n")
        with pytest.raises(ParseError, match="expected 5 fields"):
            ingest_edge_list(g, s)

    @pytest.mark.parametrize("labels,line", [
        ([0, 1000000000000], 2),
        ([0, 1, 2, 0, 5], 5),                 # 6 classes, 5 samples
        ([4, 0, 4, 1], 1),                    # the first largest label
    ])
    def test_class_count_above_the_samples_names_its_line(
            self, tmp_path, monkeypatch, labels, line):
        g, _ = self.write_pair(tmp_path)
        s = tmp_path / "labels.csv"
        s.write_text("".join(f"0.0,1.0,0.0,{y}\n" for y in labels))
        with pytest.raises(CountTooLarge, match=(
                f"^line {line}: label {max(labels)} makes {max(labels) + 1} "
                f"classes, more than the {len(labels)} samples")):
            read_signals_csv(s, 3)

        def no_shift(*args):
            raise AssertionError("the shift was built for a bad label")
        monkeypatch.setattr(data_module, "build_shift", no_shift)
        with pytest.raises(CountTooLarge, match=f"^line {line}: "):
            ingest_edge_list(g, s)

    def test_class_count_up_to_the_samples_reads(self, tmp_path):
        g, _ = self.write_pair(tmp_path)
        s = tmp_path / "labels.csv"
        s.write_text("".join(f"0.0,1.0,0.0,{y}\n" for y in (0, 3, 1, 3)))
        ds = ingest_edge_list(g, s)
        assert ds.n_outputs == 4

    def test_huge_label_fails_train_before_the_model(self, tmp_path, capsys,
                                                     monkeypatch):
        g, s = self.write_pair(tmp_path)
        s.write_text("1.0,0.0,0.0,0\n0.0,1.0,0.0,1000000000000\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "task": "edge_list_classification",
            "dataset": {"graph_path": str(g), "signals_path": str(s)}}))

        def no_model(*args, **kwargs):
            raise AssertionError("a model was sized by the label")
        monkeypatch.setattr(train_module, "build_model", no_model)
        code = cli_main(["train", "-c", str(cfg), "-o", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: label 1000000000000 makes")
        assert "Traceback" not in err

    def test_rounded_splits_past_the_sample_count_exit_one(
            self, tmp_path, capsys, monkeypatch):
        # 3 samples at 0.5/0.5 pass the config check, but round half to
        # even to 2 + 2; the error names both fields before a shift exists
        g, s = self.write_pair(tmp_path)
        s.write_text("1.0,0.0,0.0,0\n0.0,1.0,0.0,1\n0.0,0.0,1.0,1\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "task": "edge_list_classification",
            "dataset": {"graph_path": str(g), "signals_path": str(s),
                        "train_fraction": 0.5, "val_fraction": 0.5}}))

        def no_shift(*args, **kwargs):
            raise AssertionError("the shift was built")
        monkeypatch.setattr(data_module, "build_shift", no_shift)
        code = cli_main(["train", "-c", str(cfg), "-o", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == ("error: fields 'train_fraction' (0.5) and "
                       "'val_fraction' (0.5) round to 2 + 2 of 3 samples\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("train,val,sizes", [
        (0.5, 0.4, (2, 1, 0)), (0.8, 0.1, (2, 0, 1)), (1.0, 0.0, (3, 0, 0))])
    def test_rounded_splits_within_the_sample_count_load(
            self, tmp_path, train, val, sizes):
        g, s = self.write_pair(tmp_path)
        s.write_text("1.0,0.0,0.0,0\n0.0,1.0,0.0,1\n0.0,0.0,1.0,1\n")
        ds = ingest_edge_list(g, s, "none", train, val)
        assert tuple(len(ds.splits[k]) for k in ("train", "val", "test")) \
            == sizes

    def test_empty_signals_file_keeps_the_node_axis(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("# no samples\n")
        X, labels = read_signals_csv(empty, 3)
        assert X.shape == (0, 3) and labels.shape == (0,)

    @pytest.mark.parametrize("content,line", [
        (b"1,2\n3,nan\n", 2),
        (b"1,inf\n3,4\n", 1),
        (b"1,2\n\xc3(,4\n", 2),
    ])
    def test_bad_rating_names_its_line(self, tmp_path, content, line):
        p = tmp_path / "ratings.csv"
        p.write_bytes(content)
        with pytest.raises(ParseError, match=f"^line {line}: ") as err:
            read_ratings_csv(p)
        assert err.value.line == line

    def test_nan_weight_fails_train_naming_its_line(self, tmp_path, capsys):
        g, s = self.write_pair(tmp_path)
        g.write_text("0 1\n1 2 nan\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "task": "edge_list_classification",
            "dataset": {"graph_path": str(g), "signals_path": str(s)}}))
        code = cli_main(["train", "-c", str(cfg), "-o", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: line 2: 'nan' is not a finite number")

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

    @pytest.mark.parametrize("seed", range(10))
    def test_top_k_equals_the_per_row_reference(self, seed):
        # the per-row top-k loop build_similarity_graph ran before; small
        # integer ratings, so ties, skipped pairs and rows with no similar
        # neighbor all occur
        rng = np.random.default_rng(seed)
        ratings = rng.integers(0, 4, size=(int(rng.integers(1, 9)),
                                           int(rng.integers(2, 7))))
        ratings = ratings.astype(float)
        top_k = int(rng.integers(0, 10))
        got = build_similarity_graph(ratings, top_k)
        n = len(ratings)
        sim = np.full((n, n), -np.inf)
        for i in range(n):
            for j in range(i + 1, n):
                try:
                    p = pearson_similarity(ratings[i], ratings[j])
                except DegenerateColumn:
                    continue
                if p is not None:
                    sim[i, j] = sim[j, i] = p
        want = np.zeros((n, n))
        for i in range(n):
            finite = np.nonzero(np.isfinite(sim[i]))[0]
            order = finite[np.lexsort((finite, -sim[i, finite]))]
            keep = order[:min(top_k, n - 1)]
            want[i, keep] = sim[i, keep]
        want = SparseMatrix.from_dense(np.maximum(want, want.T))
        if want.nnz:
            want = want.scale(1.0 / power_iteration_lambda_max(want))
        for a, b in ((got.row_ptr, want.row_ptr), (got.col_idx, want.col_idx),
                     (got.values, want.values)):
            assert np.array_equal(a, b)


def _three_item_ratings(tmp_path, **dataset):
    ratings = tmp_path / "ratings.csv"
    ratings.write_text("1,0,2\n0,3,1\n")
    return build_dataset(ExperimentConfig.from_dict({
        "task": "ratings_regression",
        "dataset": {"ratings_path": str(ratings), **dataset}}),
        np.random.default_rng(0))


def _signals_with_label(tmp_path, label):
    signals = tmp_path / "signals.csv"
    signals.write_text(f"1.0,0.0,0\n0.0,1.0,{label}\n")
    return read_signals_csv(signals, 2)


# the input checks no other test reaches: (call on a scratch directory,
# error type, message)
DATA_RAISE_SITES = {
    "signals_fractional_label": (
        lambda tmp: _signals_with_label(tmp, "1.5"), ParseError,
        "line 2: invalid literal for int() with base 10: '1.5'"),
    "signals_label_not_a_number": (
        lambda tmp: _signals_with_label(tmp, "cat"), ParseError,
        "line 2: invalid literal for int() with base 10: 'cat'"),
    "ratings_target_node_outside": (
        lambda tmp: _three_item_ratings(tmp, target_node=2), ValueError,
        "target_node outside the ratings matrix"),
    # 3 items at 0.5/0.5 round half to even to 2 + 2, as the edge list's
    "ratings_split_fractions_round_past": (
        lambda tmp: _three_item_ratings(tmp, train_fraction=0.5,
                                        val_fraction=0.5), ConfigError,
        "fields 'train_fraction' (0.5) and 'val_fraction' (0.5) round to "
        "2 + 2 of 3 samples"),
}


@pytest.mark.parametrize("site", sorted(DATA_RAISE_SITES))
def test_data_input_check_raises_its_type_and_message(site, tmp_path):
    call, error, message = DATA_RAISE_SITES[site]
    with pytest.raises(error) as err:
        call(tmp_path)
    assert type(err.value) is error and str(err.value) == message


# parameter counts (untied, tied) of each attention family at 2 layers,
# 3 features and order 2 on a 6-node graph, with the flatten readout
TIED_COUNTS = {"gat": (80, 68), "gcat": (104, 92), "ev_gat": (152, 116),
               "hybrid_gcat": (188, 152)}


def _six_node_context():
    g = sbm_generate([3, 3], 0.9, 0.3, np.random.default_rng(0))
    return ShiftContext(build_shift(g, "max_eigenvalue"))


def _attention_model(family, tie, ctx):
    cfg = ExperimentConfig.from_dict({
        "task": "sbm_source_localization",
        "architecture": {"family": family, "layers": 2, "features": 3,
                         "order": 2, "tie_attention": tie}})
    return build_model(cfg, ctx, 2)


def _heads_and_mixers(family, layer):
    """(head, the mixing tensor it is tied to) for every head of a layer:
    gat shares mixing 0, gcat mixing 1 (mixing 0 is the order-0 term),
    and edge-varying head k shares mixing k."""
    if family == "gat":
        return [(layer.head, layer.mixing[0])]
    if family == "gcat":
        return [(layer.head, layer.mixing[1])]
    chain = layer.gat if family == "hybrid_gcat" else layer
    return list(zip(chain.heads, chain.mixing))


class TestTiedAttentionFromConfig:
    """``"tie_attention": true`` reaches the attention constructors' ``tied``
    through build_model, for each attention family at two layers."""

    @pytest.mark.parametrize("family", sorted(TIED_COUNTS))
    def test_tying_drops_exactly_the_attention_mixers(self, family):
        ctx = _six_node_context()
        untied = _attention_model(family, False, ctx)
        tied = _attention_model(family, True, ctx)
        assert (untied.param_count(), tied.param_count()) \
            == TIED_COUNTS[family]
        att_b = sum(t.size for name, t in untied.parameters()
                    if name.endswith("att_B"))
        assert untied.param_count() - tied.param_count() == att_b
        assert not any(name.endswith("att_B")
                       for name, _ in tied.parameters())

    @pytest.mark.parametrize("family", sorted(TIED_COUNTS))
    def test_each_head_mixer_is_its_mixing_tensor(self, family):
        ctx = _six_node_context()
        for tie in (False, True):
            model = _attention_model(family, tie, ctx)
            for layer in model.layers:
                pairs = _heads_and_mixers(family, layer)
                assert all((head.B is mix) == tie for head, mix in pairs)
                assert all(head.tied == tie for head, _ in pairs)

    @pytest.mark.parametrize("family", sorted(TIED_COUNTS))
    def test_round_trip_and_gradients(self, family, tmp_path):
        ctx = _six_node_context()
        model = _attention_model(family, True, ctx)
        rng = np.random.default_rng(21)
        init_params(model, rng, shift=ctx)
        X0 = rng.normal(size=(3, ctx.n, 1))
        path = tmp_path / "model.json"
        save_model(model, path, shift=ctx.S)
        loaded = load_model(path, shift=ctx.S)
        assert (loaded.forward(ctx, X0)[0].value.tobytes()
                == model.forward(ctx, X0)[0].value.tobytes())
        for layer in loaded.layers:
            assert all(head.B is mix
                       for head, mix in _heads_and_mixers(family, layer))
        report = finite_difference_check(model, ctx, X0,
                                         labels=np.array([0, 1, 0]))
        assert report.passed, report.summary()


class TestTrainLoop:
    def test_zero_epochs_returns_initialized_model(self):
        cfg = sbm_config(training={"epochs": 0})
        ds = build_dataset(cfg, np.random.default_rng(0))
        model, records = train(cfg, ds)
        assert records == []
        ctx = ShiftContext(ds.S)
        want = build_model(cfg, ctx, ds.n_outputs)
        init_params(want, np.random.default_rng(
            np.random.SeedSequence(cfg.seed).spawn(3)[1]), ctx)
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

    def test_empty_test_split_raises_before_the_first_epoch(
            self, monkeypatch):
        batches = []
        monkeypatch.setattr(train_module, "_forward_batch",
                            lambda *args: batches.append(args))
        with pytest.raises(ConfigError, match="split 'test' is empty"):
            run_experiment(sbm_config(dataset={"n_test": 0}))
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

    def test_evaluate_holds_one_chunk_tape(self, monkeypatch):
        chunk = train_module._EVAL_CHUNK
        cfg = sbm_config(dataset={"n_train": 16, "n_val": 2 * chunk + 1,
                                  "n_test": 16})
        ds = build_dataset(cfg, np.random.default_rng(8))
        ctx = ds.context()
        model = build_model(cfg, ctx, ds.n_outputs)
        init_params(model, np.random.default_rng(9), shift=ctx)
        expected = evaluate_keeping_tapes(model, ds, "val", cfg)
        tapes, forward = [], train_module._forward_batch

        def watched(*args):
            # every earlier chunk's tape is gone before this forward runs
            assert all(tape() is None for tape in tapes)
            logits, tape = forward(*args)
            tapes.append(weakref.ref(tape))
            return logits, tape

        monkeypatch.setattr(train_module, "_forward_batch", watched)
        assert evaluate(model, ds, "val", cfg) == expected
        assert len(tapes) == 3

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
        cfg_path.write_text(json.dumps(asdict(sbm_config())))
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

    @pytest.mark.parametrize("command", [
        ["spectrum", "--filter", '{"kind":"polynomial","coeffs":[1.0]}'],
        ["centrality"]])
    def test_stray_node_index_exits_one_naming_its_line(self, tmp_path,
                                                        capsys, command):
        g = tmp_path / "stray.edgelist"
        g.write_text("0 1\n1 10000000000\n")
        assert cli_main(command + ["--graph", str(g)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: line 2: node index 10000000000")
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("spec,message", [
        ("[1,2]", "--filter must be a JSON object, not [1,2]"),
        ('"poly"', '--filter must be a JSON object, not "poly"'),
        ('{"kind":"polynomial"}', "--filter field 'coeffs' is missing"),
        ('{"kind":"arma","a":[0.5]}', "--filter field 'b' is missing"),
        ('{"kind":"polynomial","coeffs":[[1,2],[3,4]]}',
         "--filter field 'coeffs' must be a list of finite numbers, not "
         "[[1, 2], [3, 4]]"),
        ('{"kind":"arma","b":[1],"a":[0.5,null]}',
         "--filter field 'a' must be a list of finite numbers, not "
         "[0.5, None]"),
        ("{kind: 1}", "--filter is not valid JSON: Expecting property name "
         "enclosed in double quotes: line 1 column 2 (char 1)"),
        ('{"kind":"polynomial","coeffs":1.5}',
         "--filter field 'coeffs' must be a list of finite numbers, not 1.5"),
        ('{"kind":"arma","a":0.5,"b":[1]}',
         "--filter field 'a' must be a list of finite numbers, not 0.5")],
        ids=["list", "string", "no_coeffs", "no_b", "nested_coeffs",
             "null_in_a", "not_json", "scalar_coeffs", "scalar_a"])
    def test_spectrum_refuses_a_malformed_filter(self, tmp_path, capsys,
                                                  spec, message):
        g = tmp_path / "g.edgelist"
        g.write_text("0 1\n1 2\n")
        assert cli_main(["spectrum", "--graph", str(g), "--filter",
                         spec]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_centrality_refuses_negative_k(self, capsys, tmp_path):
        g = tmp_path / "g.edgelist"
        g.write_text("0 1\n1 2\n")
        assert cli_main(["centrality", "--graph", str(g), "--k", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: diffusion centrality needs K >= 0, "
                                "not -1\n")
        assert captured.out == ""

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
        cfg_path.write_text(json.dumps(asdict(sbm_config())))
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert cli_main(["generate", "-c", str(cfg_path), "-o", str(out1),
                         "--seed", "9"]) == 0
        assert cli_main(["generate", "-c", str(cfg_path), "-o", str(out2),
                         "--seed", "10"]) == 0
        a = (out1 / "signals.csv").read_text()
        b = (out2 / "signals.csv").read_text()
        assert a != b

    @staticmethod
    def _generate_fails(tmp_path, capsys, dataset, task):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"task": task, "dataset": dataset}))
        before = sorted(os.listdir(tmp_path))
        code = cli_main(["generate", "-c", str(cfg), "-o",
                         str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "Traceback" not in captured.err
        assert sorted(os.listdir(tmp_path)) == before    # nothing written
        return captured.err

    def test_generate_refuses_a_regression_dataset(self, tmp_path, capsys):
        ratings = tmp_path / "ratings.csv"
        ratings.write_text("5,3,0,1\n4,0,0,1\n1,1,0,5\n1,0,0,4\n0,1,5,4\n")
        err = self._generate_fails(
            tmp_path, capsys, {"ratings_path": str(ratings), "top_k": 2,
                               "min_co_rated": 1}, "ratings_regression")
        assert err == ("error: cannot export a regression dataset: the "
                       "signals CSV holds class labels only\n")

    @staticmethod
    def _four_node_edge_list(tmp_path, normalization):
        g, s = tmp_path / "g.edgelist", tmp_path / "s.csv"
        g.write_text("0 1\n1 2\n2 3\n1 3\n")
        s.write_text("1.0,0.0,0.0,0.0,0\n0.0,1.0,0.0,0.0,1\n")
        return {"graph_path": str(g), "signals_path": str(s),
                "normalization": normalization}

    def test_generate_refuses_an_asymmetric_shift(self, tmp_path, capsys):
        dataset = self._four_node_edge_list(tmp_path, "row_stochastic")
        ds = build_dataset(ExperimentConfig.from_dict(
            {"task": "edge_list_classification", "dataset": dataset}), None)
        # row 1 is (1/3, 0, 1/3, 1/3), and column 1 is (1, 0, 1/2, 1/2)
        assert ds.S.to_dense()[1, 0] == 1 / 3
        err = self._generate_fails(tmp_path, capsys, dataset,
                                   "edge_list_classification")
        assert err.startswith("error: cannot export the 'row_stochastic' "
                              "shift: it is not symmetric")

    def test_generate_writes_a_symmetric_shift_exactly(self, tmp_path):
        dataset = self._four_node_edge_list(tmp_path, "max_eigenvalue")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"task": "edge_list_classification",
                                   "dataset": dataset}))
        out = tmp_path / "out"
        assert cli_main(["generate", "-c", str(cfg), "-o", str(out)]) == 0
        ds = build_dataset(ExperimentConfig.from_dict(
            {"task": "edge_list_classification", "dataset": dataset}), None)
        again = ingest_edge_list(out / "graph.edgelist", out / "signals.csv",
                                 normalization="none")
        assert np.array_equal(again.S.to_dense(), ds.S.to_dense())
