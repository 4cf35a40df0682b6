"""Command-line interface: exit codes, determinism, and report parity.

Apart from the parser defaults, everything here runs the installed entry
point in a subprocess, so these tests cover argument parsing, config
layering, and error mapping exactly as a shell user sees them.
"""
import dataclasses
import hashlib
import inspect
import json
import os
import signal
import subprocess
import sys
import time
import urllib.request

import numpy as np
import pytest

from memlog.agent import AgentConfig
from memlog.cli import build_parser
from memlog.embedding import Hyperparams, build_vocab
from memlog.evaluation import SplitSpec
from memlog.gbdt import DEFAULT_THRESHOLD, GbdtParams
from memlog.synthgen import GenSpec

CLI = [sys.executable, "-m", "memlog.cli"]

TINY_TRAIN = [
    "--window", "2", "--epochs", "2", "--min-count", "1",
    "--trees", "8", "--depth", "3",
]


def run_cli(*args, timeout=300, env=None):
    return subprocess.run(
        [*CLI, *map(str, args)], capture_output=True, text=True, timeout=timeout, env=env
    )


def env_with(**overrides):
    env = dict(os.environ)
    env.update({key: str(value) for key, value in overrides.items()})
    return env


# Runs the CLI in-process, then asserts the native library was never loaded.
NO_LIBRARY_CODE = """
import sys
from memlog import cli, kernels
assert cli.main(sys.argv[1:]) == 0
assert kernels._lib is None
"""

# Runs ``memlog agent`` in-process with ``run_agent`` replaced by a printer
# of the AgentConfig it would have run.
AGENT_CONFIG_CODE = """
import dataclasses, json, sys
from memlog import agent, cli
agent.run_agent = lambda config: print(json.dumps(dataclasses.asdict(config)))
sys.exit(cli.main(sys.argv[1:]))
"""

# Runs ``memlog train`` in-process with ``train_embeddings`` replaced by a
# function that fails the run, so only a check made before it can exit with
# its own code.
NO_EMBEDDING_CODE = """
import sys
from memlog import cli, embedding
def refuse(*args, **kwargs):
    raise AssertionError("train_embeddings ran")
embedding.train_embeddings = refuse
sys.exit(cli.main(sys.argv[1:]))
"""


# Imports a memlog module (MODULE), then numpy, and reports what OpenBLAS was
# told and how many threads the process has once numpy is loaded.
OPENBLAS_CODE = """
import json, os, sys
import MODULE
numpy_by_import = "numpy" in sys.modules
import numpy
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps({"value": os.environ.get("OPENBLAS_NUM_THREADS"),
                  "numpy_by_import": numpy_by_import, "tasks": tasks}))
"""


def damaged_pair(workspace, tmp_path, damage):
    """The workspace models with one file damaged so that load_detector must refuse them."""
    from memlog.embedding import EmbeddingModel, load_embeddings, save_embeddings
    from memlog.gbdt import RegressionTree, load_model, save_model
    from memlog.vectorizer import LOG_VECTOR_DIM

    embeddings, model = workspace["embeddings"], workspace["model"]
    if damage.endswith("embeddings"):
        full = load_embeddings(str(embeddings))
        if damage == "8-dim embeddings":
            full = EmbeddingModel(
                full.vocab, full.input_vectors[:, :8].copy(), full.output_vectors[:, :8].copy()
            )
        else:
            vectors = full.input_vectors.copy()
            vectors[0, 0] = np.nan
            full = EmbeddingModel(full.vocab, vectors, full.output_vectors)
        embeddings = tmp_path / "damaged.mleb"
        save_embeddings(full, str(embeddings))
        return embeddings, model
    loaded = load_model(str(model))
    params, nodes = loaded.params, loaded.trees[0].nodes.copy()  # a loaded model is read-only
    assert nodes["feature"][0] >= 0  # node 0 splits
    if damage == "cyclic tree":
        nodes["left"][0] = 0
    elif damage == "feature out of range":
        nodes["feature"][0] = LOG_VECTOR_DIM
    elif damage == "NaN leaf":
        nodes["value"][np.flatnonzero(nodes["feature"] < 0)[0]] = np.nan
    elif damage == "infinite threshold":
        nodes["threshold"][0] = np.inf
    else:
        params = dataclasses.replace(params, shrinkage=np.nan)
    loaded = dataclasses.replace(
        loaded, params=params, trees=(RegressionTree(nodes), *loaded.trees[1:])
    )
    model = tmp_path / "damaged.mlgb"
    save_model(loaded, str(model))
    return embeddings, model


DAMAGES = [
    "cyclic tree", "8-dim embeddings", "feature out of range",
    "NaN leaf", "infinite threshold", "NaN shrinkage", "NaN embeddings",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """gen + train once; the dict carries every path the tests reuse."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    embeddings = root / "emb.mleb"
    model = root / "mdl.mlgb"
    gen = run_cli("gen", "--out", corpus, "--malicious", "16", "--benign", "16",
                  "--seed", "5")
    assert gen.returncode == 0, gen.stderr
    train = run_cli("train", "--corpus", corpus, "--embeddings-out", embeddings,
                    "--model-out", model, "--seed", "5", *TINY_TRAIN)
    assert train.returncode == 0, train.stderr
    return {
        "root": root,
        "corpus": corpus,
        "embeddings": embeddings,
        "model": model,
        "train_report": json.loads(train.stdout),
    }


class TestOpenBlasDefault:
    def imported(self, module="memlog.cli", **preset):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env.update(preset)
        result = subprocess.run([sys.executable, "-c", OPENBLAS_CODE.replace("MODULE", module)],
                                capture_output=True, text=True, env=env, timeout=60)
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout)

    def test_openblas_gets_one_thread_and_no_worker(self):
        report = self.imported()
        assert report["value"] == "1"
        assert not report["numpy_by_import"]  # the agent stays stdlib-only
        if report["tasks"] is None:
            pytest.skip("no /proc/self/task to count threads in")
        assert report["tasks"] == 1

    def test_an_empty_value_counts_as_unset(self):
        report = self.imported(OPENBLAS_NUM_THREADS="")
        assert report["value"] == "1"
        if report["tasks"] is None:
            pytest.skip("no /proc/self/task to count threads in")
        assert report["tasks"] == 1

    def test_the_service_alone_gets_one_thread(self):
        report = self.imported("memlog.service")
        assert report["value"] == "1"
        if report["tasks"] is None:
            pytest.skip("no /proc/self/task to count threads in")
        assert report["tasks"] == 1

    def test_the_agent_alone_gets_the_default_without_numpy(self):
        report = self.imported("memlog.agent")
        assert report["value"] == "1"
        assert not report["numpy_by_import"]

    def test_a_preset_value_is_kept(self):
        report = self.imported(OPENBLAS_NUM_THREADS="2")
        assert report["value"] == "2"
        assert not report["numpy_by_import"]


class TestParsing:
    @pytest.mark.parametrize(
        "args",
        [
            ["--help"],
            ["gen", "--help"],
            ["train", "--help"],
            ["evaluate", "--help"],
            ["predict", "--help"],
            ["serve", "--help"],
            ["agent", "--help"],
        ],
    )
    def test_help_exits_zero(self, args):
        assert run_cli(*args).returncode == 0

    def test_version(self):
        result = run_cli("--version")
        assert result.returncode == 0
        assert "memlog" in result.stdout

    def test_unknown_flag_is_usage_error(self):
        assert run_cli("gen", "--out", "x", "--frobnicate").returncode == 2

    def test_missing_subcommand_is_usage_error(self):
        assert run_cli().returncode == 2

    def test_overlap_domain_is_usage_error(self, tmp_path):
        result = run_cli("gen", "--out", tmp_path / "c", "--overlap", "2.0")
        assert result.returncode == 2
        result = run_cli("gen", "--out", tmp_path / "c", "--overlap", "-0.5")
        assert result.returncode == 2

    def test_threshold_domain_is_usage_error(self, workspace):
        result = run_cli("train", "--corpus", workspace["corpus"], "--threshold", "1.0")
        assert result.returncode == 2

    @pytest.mark.parametrize("flag, value", [
        ("--lr", "0"), ("--lr", "nan"), ("--lr", "-0.1"),
        ("--shrinkage", "0"), ("--shrinkage", "nan"), ("--shrinkage", "inf"),
        ("--lambda", "-1"), ("--lambda", "nan"), ("--lambda", "inf"),
    ])
    def test_numeric_training_flag_domain_is_usage_error(self, workspace, flag, value):
        result = run_cli("train", "--corpus", workspace["corpus"], flag, value)
        assert result.returncode == 2, result.stderr
        assert flag in result.stderr

    @pytest.mark.parametrize("command", ["gen", "train"])
    def test_negative_seed_is_usage_error(self, workspace, tmp_path, command):
        source = {"gen": ("--out", tmp_path / "c"), "train": ("--corpus", workspace["corpus"])}
        result = run_cli(command, *source[command], "--seed", "-1")
        assert result.returncode == 2, result.stderr
        assert "--seed" in result.stderr and "Traceback" not in result.stderr


    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize("corpus", ["missing", "a file"])
    def test_corpus_that_is_no_directory_is_usage_error(self, workspace, tmp_path, command, corpus):
        path = tmp_path / "missing" if corpus == "missing" else workspace["corpus"] / "labels.csv"
        outputs = {
            "train": ("--embeddings-out", tmp_path / "e.mleb", "--model-out", tmp_path / "m.mlgb"),
            "evaluate": ("--embeddings", workspace["embeddings"], "--model", workspace["model"],
                         "--roc-csv", tmp_path / "roc.csv"),
        }[command]
        result = run_cli(command, "--corpus", path, *outputs)
        assert result.returncode == 2, result.stderr
        assert "--corpus" in result.stderr and "Traceback" not in result.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out", ["a file", "", "under a file"])
    def test_gen_out_that_is_no_directory_path_is_usage_error(self, tmp_path, out):
        target = tmp_path / "taken"
        target.write_text("kept")
        path = {"a file": target, "": "", "under a file": target / "sub" / "deeper"}[out]
        result = run_cli("gen", "--out", path, "--malicious", "2", "--benign", "2")
        assert result.returncode == 2, result.stderr
        assert "--out" in result.stderr and "Traceback" not in result.stderr
        assert target.read_text() == "kept" and list(tmp_path.iterdir()) == [target]

    @pytest.mark.parametrize("args, message", [
        (("gen", "--overlap", "1.5"), "argument --overlap: must be in [0, 1], got 1.5"),
        (("predict", "--threshold", "1"), "argument --threshold: must be in (0, 1), got 1"),
        (("train", "--trees", "0"), "argument --trees: must be >= 1, got 0"),
        (("gen", "--seed", "-1"), "argument --seed: must be >= 0, got -1"),
        (("train", "--lr", "inf"), "argument --lr: must be finite and > 0, got inf"),
        (("train", "--lambda", "nan"), "argument --lambda: must be finite and >= 0, got nan"),
    ])
    def test_each_number_type_refuses_its_bad_values(self, args, message):
        result = run_cli(*args)
        assert result.returncode == 2, result.stderr
        assert message in result.stderr and "Traceback" not in result.stderr


class TestParserDefaults:
    """Each flag's default is the default of the setting it feeds, so the
    CLI and code that builds the settings records run the same pipeline."""

    @staticmethod
    def parse(*argv):
        return build_parser().parse_args([str(arg) for arg in argv])

    def test_gen(self, tmp_path):
        args = self.parse("gen", "--out", tmp_path / "c")
        spec = GenSpec(args.malicious, args.benign, overlap=args.overlap, seed=args.seed,
                       n_os_versions=args.os_versions, n_exe_names=args.exe_names,
                       n_module_pool=args.module_pool, n_malware_families=args.families)
        assert spec == GenSpec(args.malicious, args.benign)

    def test_train(self, tmp_path):
        args = self.parse("train", "--corpus", tmp_path)
        assert Hyperparams(window=args.window, negatives=args.negatives, epochs=args.epochs,
                           initial_lr=args.lr, seed=args.seed) == Hyperparams()
        assert GbdtParams(trees=args.trees, max_depth=args.depth, shrinkage=args.shrinkage,
                          lambda_=args.lambda_, min_leaf=args.min_leaf) == GbdtParams()
        assert SplitSpec(args.train_fraction, args.seed) == SplitSpec()
        assert args.min_count == inspect.signature(build_vocab).parameters["min_count"].default
        assert args.threshold == DEFAULT_THRESHOLD

    def test_evaluate(self, tmp_path):
        args = self.parse("evaluate", "--corpus", tmp_path, "--embeddings", "e", "--model", "m")
        assert SplitSpec(args.train_fraction, args.seed) == SplitSpec()
        assert args.threshold == DEFAULT_THRESHOLD

    def test_predict_and_serve(self):
        args = self.parse("predict", "--log", "l", "--embeddings", "e", "--model", "m")
        assert args.threshold == DEFAULT_THRESHOLD
        assert self.parse("serve").threshold == DEFAULT_THRESHOLD

    def test_agent(self):
        args = self.parse("agent")
        config = AgentConfig("w", "s", poll_interval_ms=args.poll_interval_ms,
                             max_attempts=args.max_attempts,
                             backoff_base_ms=args.backoff_base_ms, drain=args.drain)
        assert config == AgentConfig("w", "s")


class TestGen:
    def test_deterministic_output(self, tmp_path):
        for sub in ("a", "b"):
            result = run_cli("gen", "--out", tmp_path / sub, "--malicious", "6",
                             "--benign", "6", "--seed", "9")
            assert result.returncode == 0
        names = sorted(os.listdir(tmp_path / "a"))
        assert names == sorted(os.listdir(tmp_path / "b"))
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_summary_shape(self, tmp_path):
        result = run_cli("gen", "--out", tmp_path / "c", "--malicious", "3",
                         "--benign", "2", "--seed", "1")
        assert result.returncode == 0
        summary = json.loads(result.stdout)
        assert summary["malicious"] == 3
        assert summary["benign"] == 2
        assert summary["files"] == 5

    def test_hundred_per_class_layout(self, tmp_path):
        out = tmp_path / "c"
        result = run_cli("gen", "--out", out, "--malicious", "100",
                         "--benign", "100", "--seed", "7")
        assert result.returncode == 0
        logs = sorted(p.name for p in out.glob("*.json"))
        assert logs == [f"log_{i:05d}.json" for i in range(200)]
        manifest = (out / "labels.csv").read_text().splitlines()
        assert manifest[0] == "filename,label"
        assert len(manifest) == 201
        assert sum(line.endswith(",malicious") for line in manifest[1:]) == 100

    def test_zero_logs_is_usage_error(self, tmp_path):
        result = run_cli("gen", "--out", tmp_path / "c", "--malicious", "0", "--benign", "0")
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr


class TestTrain:
    def test_report_shape(self, workspace):
        report = workspace["train_report"]
        assert set(report) >= {"acc", "ppv", "tpr", "fpr", "fnr", "f1", "auc", "confusion"}
        assert workspace["embeddings"].exists()
        assert workspace["model"].exists()

    def test_same_seed_same_bytes(self, workspace, tmp_path):
        first = run_cli("train", "--corpus", workspace["corpus"],
                        "--embeddings-out", tmp_path / "e1.mleb",
                        "--model-out", tmp_path / "m1.mlgb",
                        "--seed", "5", *TINY_TRAIN)
        assert first.returncode == 0, first.stderr
        assert (tmp_path / "e1.mleb").read_bytes() == workspace["embeddings"].read_bytes()
        assert (tmp_path / "m1.mlgb").read_bytes() == workspace["model"].read_bytes()
        assert json.loads(first.stdout) == workspace["train_report"]

    def test_numpy_backend_writes_identical_bytes(self, workspace, tmp_path):
        # no cc or gcc on PATH selects the numpy kernels
        empty_bin = tmp_path / "bin"
        empty_bin.mkdir()
        result = run_cli("train", "--corpus", workspace["corpus"],
                         "--embeddings-out", tmp_path / "e.mleb",
                         "--model-out", tmp_path / "m.mlgb",
                         "--seed", "5", *TINY_TRAIN, env=env_with(PATH=empty_bin))
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "e.mleb").read_bytes() == workspace["embeddings"].read_bytes()
        assert (tmp_path / "m.mlgb").read_bytes() == workspace["model"].read_bytes()

    def test_single_class_corpus_fails(self, tmp_path):
        corpus = tmp_path / "benign_only"
        assert run_cli("gen", "--out", corpus, "--malicious", "0", "--benign", "8",
                       "--seed", "2").returncode == 0
        result = run_cli("train", "--corpus", corpus, *TINY_TRAIN)
        assert result.returncode == 6
        assert result.stderr.strip()

    @pytest.mark.parametrize("malicious, code", [(0, 6), (4, 9)])
    def test_single_class_is_refused_before_the_vocabulary(self, tmp_path, malicious, code):
        # No token reaches this --min-count (exit 9), and with no malicious
        # log the corpus is single-class as well: the split refuses it
        # first (exit 6), before any vocabulary or embedding is built.
        corpus = tmp_path / "corpus"
        assert run_cli("gen", "--out", corpus, "--malicious", malicious,
                       "--benign", 8 - malicious, "--seed", "2").returncode == 0
        result = subprocess.run(
            [sys.executable, "-c", NO_EMBEDDING_CODE, "train", "--corpus", str(corpus),
             *TINY_TRAIN, "--min-count", "1000000"],
            capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == code, result.stderr

    def test_empty_corpus_fails(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        result = run_cli("train", "--corpus", empty, *TINY_TRAIN)
        assert result.returncode == 9

    def test_corpus_too_small_for_a_test_set_fails(self, tmp_path):
        # the default test set is a quarter of the pool, which rounds to 0 below 8 logs
        corpus = tmp_path / "tiny"
        assert run_cli("gen", "--out", corpus, "--malicious", "3", "--benign", "3",
                       "--seed", "2").returncode == 0
        result = run_cli("train", "--corpus", corpus, *TINY_TRAIN)
        assert result.returncode == 6, result.stderr
        assert "Traceback" not in result.stderr

    def test_pinned_model_bytes(self, tmp_path):
        # both backends write these bytes, so they pin the whole training pipeline
        corpus, embeddings, model = tmp_path / "corpus", tmp_path / "e.mleb", tmp_path / "m.mlgb"
        assert run_cli("gen", "--out", corpus, "--malicious", "100", "--benign", "100",
                       "--overlap", "0.5", "--seed", "1").returncode == 0
        result = run_cli("train", "--corpus", corpus, "--embeddings-out", embeddings,
                         "--model-out", model, "--seed", "1")
        assert result.returncode == 0, result.stderr
        assert hashlib.sha256(embeddings.read_bytes()).hexdigest() == (
            "6c64577c97b84428b71ab8afeaba974a48558864685704817589a30df82ec5fc"
        )
        assert hashlib.sha256(model.read_bytes()).hexdigest() == (
            "728f609d3849f13d587ca4557c025a15886a807f0b618896789e61445763b428"
        )

    def test_unlabeled_log_fails_before_training(self, tmp_path):
        corpus = tmp_path / "corpus"
        assert run_cli("gen", "--out", corpus, "--malicious", "4", "--benign", "4",
                       "--seed", "2").returncode == 0
        unlabeled = corpus / "log_00003.json"
        log = json.loads(unlabeled.read_bytes())
        del log["label"]
        unlabeled.write_text(json.dumps(log), encoding="utf-8")
        outputs = tmp_path / "e.mleb", tmp_path / "m.mlgb"
        result = subprocess.run(
            [sys.executable, "-c", NO_EMBEDDING_CODE, "train", "--corpus", str(corpus),
             "--embeddings-out", str(outputs[0]), "--model-out", str(outputs[1]), *TINY_TRAIN],
            capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 10, result.stderr
        assert "log 3 has no label" in result.stderr
        assert not any(path.exists() for path in outputs)

    @pytest.mark.parametrize("flag", ["--embeddings-out", "--model-out"])
    def test_output_in_a_missing_directory_is_refused_before_training(
        self, workspace, tmp_path, flag
    ):
        outputs = {"--embeddings-out": tmp_path / "e.mleb", "--model-out": tmp_path / "m.mlgb"}
        outputs[flag] = tmp_path / "missing" / outputs[flag].name
        result = subprocess.run(
            [sys.executable, "-c", NO_EMBEDDING_CODE, "train", "--corpus",
             str(workspace["corpus"]), *(str(x) for pair in outputs.items() for x in pair),
             *TINY_TRAIN],
            capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 2, result.stderr
        assert flag in result.stderr and "Traceback" not in result.stderr
        assert not any(path.exists() for path in outputs.values())

    def test_separable_thousand_log_corpus_reaches_auc_one(self, tmp_path):
        corpus = tmp_path / "large"
        gen = run_cli("gen", "--out", corpus, "--malicious", "500",
                      "--benign", "500", "--seed", "3")
        assert gen.returncode == 0, gen.stderr
        train = run_cli("train", "--corpus", corpus,
                        "--embeddings-out", tmp_path / "e.mleb",
                        "--model-out", tmp_path / "m.mlgb",
                        "--seed", "3", *TINY_TRAIN)
        assert train.returncode == 0, train.stderr
        report = json.loads(train.stdout)
        assert report["auc"] == 1.0


class TestEvaluate:
    def test_replay_split_reproduces_train_report(self, workspace):
        result = run_cli("evaluate", "--corpus", workspace["corpus"],
                         "--embeddings", workspace["embeddings"],
                         "--model", workspace["model"],
                         "--replay-split", "--seed", "5")
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == workspace["train_report"]

    def test_replay_split_of_a_corpus_too_small_for_a_test_set_fails(self, workspace, tmp_path):
        corpus = tmp_path / "tiny"
        assert run_cli("gen", "--out", corpus, "--malicious", "3", "--benign", "3",
                       "--seed", "2").returncode == 0
        result = run_cli("evaluate", "--corpus", corpus,
                         "--embeddings", workspace["embeddings"],
                         "--model", workspace["model"], "--replay-split")
        assert result.returncode == 6, result.stderr
        assert "Traceback" not in result.stderr

    def test_full_corpus_report(self, workspace):
        result = run_cli("evaluate", "--corpus", workspace["corpus"],
                         "--embeddings", workspace["embeddings"],
                         "--model", workspace["model"])
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        cm = report["confusion"]
        assert cm["tp"] + cm["fn"] == 16
        assert cm["fp"] + cm["tn"] == 16

    def test_roc_csv(self, workspace, tmp_path):
        roc = tmp_path / "roc.csv"
        result = run_cli("evaluate", "--corpus", workspace["corpus"],
                         "--embeddings", workspace["embeddings"],
                         "--model", workspace["model"], "--roc-csv", roc)
        assert result.returncode == 0
        lines = roc.read_text().splitlines()
        assert lines[0] == "fpr,tpr,threshold"
        assert len(lines) >= 3
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.0

    def test_roc_csv_of_a_single_class_corpus_is_not_written(self, workspace, tmp_path):
        corpus = tmp_path / "benign"
        assert run_cli("gen", "--out", corpus, "--malicious", "0", "--benign", "10",
                       "--seed", "2").returncode == 0
        roc = tmp_path / "roc.csv"
        result = run_cli("evaluate", "--corpus", corpus,
                         "--embeddings", workspace["embeddings"],
                         "--model", workspace["model"], "--roc-csv", roc)
        assert result.returncode == 0, result.stderr
        assert not roc.exists()
        assert "ROC undefined" in result.stderr
        report = json.loads(result.stdout)
        assert report["auc"] is None
        assert report["confusion"]["fp"] + report["confusion"]["tn"] == 10

    @pytest.mark.parametrize("where", ["missing/roc.csv", "", "."])
    def test_roc_csv_that_cannot_be_a_file_is_usage_error(self, workspace, tmp_path, where):
        result = run_cli("evaluate", "--corpus", workspace["corpus"],
                         "--embeddings", workspace["embeddings"],
                         "--model", workspace["model"], "--roc-csv", where and tmp_path / where)
        assert result.returncode == 2, result.stderr
        assert "--roc-csv" in result.stderr and "Traceback" not in result.stderr
        assert result.stdout == "" and list(tmp_path.iterdir()) == []

    def test_missing_model_fails(self, workspace, tmp_path):
        result = run_cli("evaluate", "--corpus", workspace["corpus"],
                         "--embeddings", workspace["embeddings"],
                         "--model", tmp_path / "missing.mlgb")
        assert result.returncode == 4

    def test_empty_corpus_fails(self, workspace, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        result = run_cli("evaluate", "--corpus", empty,
                         "--embeddings", workspace["embeddings"],
                         "--model", workspace["model"])
        assert result.returncode == 9


class TestPredict:
    def test_matches_in_process_detector(self, workspace):
        from memlog.service import load_detector

        log_path = workspace["corpus"] / "log_00000.json"
        result = run_cli("predict", "--log", log_path,
                         "--embeddings", workspace["embeddings"],
                         "--model", workspace["model"])
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        detector = load_detector(str(workspace["embeddings"]), str(workspace["model"]))
        expected = detector.detect(log_path.read_bytes())
        assert payload["score"] == expected.score
        assert payload["verdict"] == expected.verdict.value
        assert payload["model_version"] == expected.model_version

    def test_non_json_log_fails(self, workspace, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("this is not json")
        result = run_cli("predict", "--log", bad,
                         "--embeddings", workspace["embeddings"],
                         "--model", workspace["model"])
        assert result.returncode == 5

    def test_missing_model_fails(self, workspace, tmp_path):
        log_path = workspace["corpus"] / "log_00000.json"
        result = run_cli("predict", "--log", log_path,
                         "--embeddings", workspace["embeddings"],
                         "--model", tmp_path / "nope.mlgb")
        assert result.returncode == 4

    @pytest.mark.parametrize("damage", DAMAGES)
    def test_damaged_model_pair_fails(self, workspace, tmp_path, damage):
        embeddings, model = damaged_pair(workspace, tmp_path, damage)
        result = run_cli("predict", "--log", workspace["corpus"] / "log_00000.json",
                         "--embeddings", embeddings, "--model", model, timeout=60)
        assert result.returncode == 4, result.stderr

    def test_scoring_never_loads_native_library(self, workspace, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        models = ["--embeddings", workspace["embeddings"], "--model", workspace["model"]]
        for command in (["evaluate", "--corpus", workspace["corpus"]],
                        ["predict", "--log", workspace["corpus"] / "log_00000.json"]):
            result = subprocess.run(
                [sys.executable, "-c", NO_LIBRARY_CODE, *map(str, command + models)],
                capture_output=True, text=True, timeout=120, env=env_with(XDG_CACHE_HOME=cache),
            )
            assert result.returncode == 0, result.stderr
        assert list(cache.rglob("*.so")) == []


class TestServe:
    def test_serves_then_exits_cleanly_on_sigterm(self, workspace):
        proc = subprocess.Popen(
            [*CLI, "serve", "--bind", "127.0.0.1:0",
             "--embeddings", str(workspace["embeddings"]),
             "--model", str(workspace["model"])],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stderr.readline()
            assert line.startswith("listening on ")
            port = int(line.rsplit(":", 1)[1])
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/v1/health", timeout=10
            ) as response:
                health = json.loads(response.read())
            assert health["status"] == "ready"
            raw = (workspace["corpus"] / "log_00001.json").read_bytes()
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/v1/detect", data=raw, method="POST"
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                payload = json.loads(response.read())
            assert payload["verdict"] in ("malicious", "benign")
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0

    def test_sigterm_stops_at_once(self, workspace):
        # the drain starts when the signal arrives, not when the accept loop next looks
        stops = []
        for delay in (0.05, 0.15, 0.25, 0.35, 0.45):
            proc = subprocess.Popen(
                [*CLI, "serve", "--bind", "127.0.0.1:0",
                 "--embeddings", str(workspace["embeddings"]),
                 "--model", str(workspace["model"])],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            try:
                assert proc.stderr.readline().startswith("listening on ")
                time.sleep(delay)
                start = time.monotonic()
                proc.send_signal(signal.SIGTERM)
                assert proc.wait(timeout=30) == 0
                stops.append(time.monotonic() - start)
            finally:
                proc.kill()
                proc.wait()
        assert max(stops) < 0.2, stops

    def test_missing_model_fails_before_binding(self, workspace, tmp_path):
        result = run_cli("serve", "--bind", "127.0.0.1:0",
                         "--embeddings", workspace["embeddings"],
                         "--model", tmp_path / "nope.mlgb")
        assert result.returncode == 4

    @pytest.mark.parametrize("damage", DAMAGES)
    def test_damaged_model_pair_fails_before_binding(self, workspace, tmp_path, damage):
        embeddings, model = damaged_pair(workspace, tmp_path, damage)
        result = run_cli("serve", "--bind", "127.0.0.1:0",
                         "--embeddings", embeddings, "--model", model, timeout=60)
        assert result.returncode == 4, result.stderr

    def test_bad_bind_spec_is_usage_error(self, workspace):
        result = run_cli("serve", "--bind", "nonsense",
                         "--embeddings", workspace["embeddings"],
                         "--model", workspace["model"])
        assert result.returncode == 2

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_port_out_of_range_is_usage_error(self, workspace, tmp_path, source):
        config = tmp_path / "serve.conf"
        config.write_text("bind = 127.0.0.1:99999\n")
        bind = ("--bind", "127.0.0.1:65536") if source == "flag" else ("--config", config)
        result = run_cli("serve", *bind, "--embeddings", workspace["embeddings"],
                         "--model", workspace["model"])
        assert result.returncode == 2, result.stderr
        assert "0-65535" in result.stderr and "Traceback" not in result.stderr

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_audit_in_a_missing_directory_is_refused_before_binding(
        self, workspace, tmp_path, source
    ):
        audit = tmp_path / "missing" / "audit.jsonl"
        config = tmp_path / "serve.conf"
        config.write_text(f"audit = {audit}\n")
        where = ("--audit", audit) if source == "flag" else ("--config", config)
        result = run_cli("serve", "--bind", "127.0.0.1:0", *where,
                         "--embeddings", workspace["embeddings"],
                         "--model", workspace["model"], timeout=60)
        assert result.returncode == 2, result.stderr
        assert "listening on" not in result.stderr and "Traceback" not in result.stderr
        assert not audit.parent.exists()

    def test_config_file_supplies_paths(self, workspace, tmp_path):
        config = tmp_path / "serve.conf"
        config.write_text(
            f"bind = 127.0.0.1:0\n"
            f"embeddings = {workspace['embeddings']}\n"
            f"model = {workspace['model']}\n"
        )
        proc = subprocess.Popen(
            [*CLI, "serve", "--config", str(config)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stderr.readline()
            assert line.startswith("listening on 127.0.0.1:")
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0


class TestConfigFile:
    @pytest.mark.parametrize("command, text", [
        ("serve", "threshold = 2\n"),
        ("serve", "threshold = nan\n"),
        ("serve", "bind = nonsense\n"),
        ("serve", "model\n"),
        ("agent", "max_attempts = 0\n"),
        ("agent", "poll_interval_ms = -1\n"),
        ("agent", "backoff_base_ms = soon\n"),
        ("agent", "watch_dir = .\nno equals sign\n"),
    ])
    def test_bad_value_or_line_is_usage_error(self, tmp_path, command, text):
        config = tmp_path / "bad.conf"
        config.write_text(text)
        result = run_cli(command, "--config", config, env=env_with(MEMLOG_SERVER=""))
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command, text, code", [
        ("serve", "max_attempts = 0\n", 4),  # still missing its model files
        ("agent", "threshold = 2\nbind = nonsense\n", 8),  # still missing its watch dir
    ])
    def test_keys_of_another_subcommand_are_ignored(self, tmp_path, command, text, code):
        config = tmp_path / "other.conf"
        config.write_text(text)
        result = run_cli(command, "--config", config, env=env_with(MEMLOG_SERVER=""))
        assert result.returncode == code, result.stderr

    def test_unreadable_config_is_load_failure(self, tmp_path):
        result = run_cli("serve", "--config", tmp_path / "missing.conf")
        assert result.returncode == 4
        assert "cannot read config" in result.stderr

    @pytest.mark.parametrize("command", ["gen", "train", "evaluate", "predict"])
    def test_only_serve_and_agent_take_a_config(self, command):
        assert "--config" not in run_cli(command, "--help").stdout

    def test_agent_reads_every_key_and_flags_win(self, tmp_path):
        config = tmp_path / "agent.conf"
        config.write_text(
            f"watch_dir = {tmp_path}\n"
            "server_url = http://127.0.0.1:9\n"
            "poll_interval_ms = 25\n"
            "max_attempts = 7\n"
            "backoff_base_ms = 0\n"
            "model = ignored.mlgb\n"
        )

        def agent_config(*flags):
            env = {k: v for k, v in os.environ.items() if k != "MEMLOG_SERVER"}
            result = subprocess.run(
                [sys.executable, "-c", AGENT_CONFIG_CODE, "agent", "--config", str(config),
                 *flags],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert result.returncode == 0, result.stderr
            return json.loads(result.stdout)

        assert agent_config() == {
            "watch_dir": str(tmp_path),
            "server_url": "http://127.0.0.1:9",
            "poll_interval_ms": 25,
            "max_attempts": 7,
            "backoff_base_ms": 0,
            "drain": False,
        }
        flagged = agent_config("--server", "http://127.0.0.1:10", "--max-attempts", "2")
        assert flagged["server_url"] == "http://127.0.0.1:10"
        assert (flagged["max_attempts"], flagged["backoff_base_ms"]) == (2, 0)
        assert flagged["poll_interval_ms"] == 25


class TestAgentCommand:
    def test_missing_watch_dir_fails(self, tmp_path):
        result = run_cli("agent", "--watch", tmp_path / "missing",
                         "--server", "http://127.0.0.1:1", "--drain")
        assert result.returncode == 8

    def test_missing_server_fails(self, tmp_path):
        watch = tmp_path / "watch"
        watch.mkdir()
        env = {k: v for k, v in os.environ.items() if k != "MEMLOG_SERVER"}
        result = subprocess.run(
            [*CLI, "agent", "--watch", str(watch), "--drain"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 7

    @pytest.mark.parametrize("source, url", [
        ("flag", "notaurl"),
        ("flag", "ftp://127.0.0.1:1"),
        ("flag", "http://127.0.0.1:1/v1"),
        ("config", "127.0.0.1:1"),
        ("env", "http://127.0.0.1:99999"),
    ])
    def test_bad_server_url_fails_before_touching_the_watch_dir(self, tmp_path, source, url):
        watch = tmp_path / "watch"
        watch.mkdir()
        (watch / "x.json").write_text(json.dumps({"metadata": {"exe_name": "x.exe"}}))
        config = tmp_path / "agent.conf"
        config.write_text(f"server_url = {url}\n")
        env = {k: v for k, v in os.environ.items() if k != "MEMLOG_SERVER"}
        where = {"flag": ["--server", url], "config": ["--config", str(config)], "env": []}
        if source == "env":
            env["MEMLOG_SERVER"] = url
        result = subprocess.run(
            [*CLI, "agent", "--watch", str(watch), *where[source], "--drain",
             "--max-attempts", "1", "--backoff-ms", "0"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 7, result.stderr
        assert "http(s)://host[:port]" in result.stderr and "Traceback" not in result.stderr
        assert sorted(p.name for p in watch.iterdir()) == ["x.json"]

    def test_drains_against_live_server(self, workspace, tmp_path):
        watch = tmp_path / "watch"
        watch.mkdir()
        for i in range(3):
            name = f"log_{i:05d}.json"
            (watch / name).write_bytes((workspace["corpus"] / name).read_bytes())

        server = subprocess.Popen(
            [*CLI, "serve", "--bind", "127.0.0.1:0",
             "--embeddings", str(workspace["embeddings"]),
             "--model", str(workspace["model"])],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            line = server.stderr.readline()
            port = int(line.rsplit(":", 1)[1])
            result = run_cli("agent", "--watch", watch,
                             "--server", f"http://127.0.0.1:{port}", "--drain")
            assert result.returncode == 0, result.stderr
            processed = sorted(p.name for p in (watch / "processed").iterdir())
            assert processed == [f"log_{i:05d}.json" for i in range(3)]
            results = [
                json.loads(line)
                for line in (watch / "detections.jsonl").read_text().splitlines()
            ]
            assert len(results) == 3
            assert all(r["verdict"] in ("malicious", "benign") for r in results)
            # the summary line: all three on one kept connection
            assert json.loads(result.stdout) == {
                "shipped": 3, "rejected": 0, "gave_up": 0, "retried": 0, "reconnected": 0,
            }
        finally:
            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=30) == 0

    def test_env_overrides_flag_in_subprocess(self, workspace, tmp_path):
        # The flag points at a dead port, MEMLOG_SERVER at a live server;
        # the file only ships if the environment wins.
        watch = tmp_path / "watch"
        watch.mkdir()
        (watch / "x.json").write_bytes(
            (workspace["corpus"] / "log_00000.json").read_bytes()
        )
        server = subprocess.Popen(
            [*CLI, "serve", "--bind", "127.0.0.1:0",
             "--embeddings", str(workspace["embeddings"]),
             "--model", str(workspace["model"])],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            line = server.stderr.readline()
            port = int(line.rsplit(":", 1)[1])
            env = dict(os.environ)
            env["MEMLOG_SERVER"] = f"http://127.0.0.1:{port}"
            result = subprocess.run(
                [*CLI, "agent", "--watch", str(watch),
                 "--server", "http://127.0.0.1:9", "--drain",
                 "--max-attempts", "1", "--backoff-ms", "1"],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert result.returncode == 0
            assert [p.name for p in (watch / "processed").iterdir()] == ["x.json"]
            assert list((watch / "failed").iterdir()) == []
        finally:
            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=30) == 0
