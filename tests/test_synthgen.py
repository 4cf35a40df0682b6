"""Synthetic corpus generator: determinism, labeling, separability knob."""
import numpy as np
import pytest

from memlog.errors import InvalidSpec, UnlabeledLog
from memlog.logmodel import Label, parse_log, serialize_log
from memlog.synthgen import (
    GenSpec,
    generate_corpus,
    read_corpus,
    write_corpus,
)


def corpus_bytes(logs):
    return [serialize_log(log) for log in logs]


class TestDeterminism:
    def test_same_spec_same_bytes(self):
        spec = GenSpec(n_malicious=25, n_benign=25, overlap=0.3, seed=42)
        a = generate_corpus(spec)
        b = generate_corpus(GenSpec(n_malicious=25, n_benign=25, overlap=0.3, seed=42))
        assert corpus_bytes(a) == corpus_bytes(b)

    def test_seed_changes_content(self):
        a = generate_corpus(GenSpec(n_malicious=10, n_benign=10, seed=1))
        b = generate_corpus(GenSpec(n_malicious=10, n_benign=10, seed=2))
        assert corpus_bytes(a) != corpus_bytes(b)

    def test_logs_depend_only_on_seed_and_index(self):
        # Shrinking the benign tail must not change the logs before it.
        big = generate_corpus(GenSpec(n_malicious=20, n_benign=20, seed=3))
        small = generate_corpus(GenSpec(n_malicious=20, n_benign=5, seed=3))
        assert corpus_bytes(big)[:25] == corpus_bytes(small)

    def test_overlap_zero_equals_default(self):
        a = generate_corpus(GenSpec(n_malicious=5, n_benign=5, seed=9))
        b = generate_corpus(GenSpec(n_malicious=5, n_benign=5, overlap=0.0, seed=9))
        assert corpus_bytes(a) == corpus_bytes(b)


class TestLabels:
    def test_counts_and_order(self):
        logs = generate_corpus(GenSpec(n_malicious=7, n_benign=11, seed=4))
        assert len(logs) == 18
        assert all(log.label is Label.MALICIOUS for log in logs[:7])
        assert all(log.label is Label.BENIGN for log in logs[7:])

    def test_all_benign_corpus(self):
        logs = generate_corpus(GenSpec(n_malicious=0, n_benign=6, seed=4))
        assert all(log.label is Label.BENIGN for log in logs)

    def test_all_malicious_corpus(self):
        logs = generate_corpus(GenSpec(n_malicious=6, n_benign=0, seed=4))
        assert all(log.label is Label.MALICIOUS for log in logs)


class TestSpecValidation:
    @pytest.mark.parametrize("overlap", [-0.1, 1.5, 2.0])
    def test_overlap_domain(self, overlap):
        with pytest.raises(InvalidSpec):
            generate_corpus(GenSpec(n_malicious=5, n_benign=5, overlap=overlap))

    def test_empty_corpus(self):
        with pytest.raises(InvalidSpec):
            generate_corpus(GenSpec(n_malicious=0, n_benign=0))

    def test_negative_count(self):
        with pytest.raises(InvalidSpec):
            generate_corpus(GenSpec(n_malicious=-1, n_benign=5))

    def test_degenerate_pools(self):
        with pytest.raises(InvalidSpec):
            generate_corpus(GenSpec(n_malicious=2, n_benign=2, n_module_pool=0))
        with pytest.raises(InvalidSpec):
            generate_corpus(GenSpec(n_malicious=2, n_benign=2, n_malware_families=0))


class TestLogQuality:
    def test_every_log_reparses_clean(self):
        logs = generate_corpus(GenSpec(n_malicious=30, n_benign=30, overlap=0.5, seed=5))
        for log in logs:
            raw = serialize_log(log)
            parsed, report = parse_log(raw)
            assert parsed == log
            assert report.dropped_fields == []
            assert report.normalized_fields == []
            assert report.parse_repairs == 0

    def test_pe_block_sometimes_present(self):
        logs = generate_corpus(GenSpec(n_malicious=40, n_benign=40, seed=6))
        with_pe = sum(1 for log in logs if log.pe is not None)
        assert 0 < with_pe < len(logs)

    def test_heterogeneity_widens_vocabulary(self):
        narrow = generate_corpus(
            GenSpec(n_malicious=30, n_benign=30, seed=7, n_exe_names=1, n_os_versions=1)
        )
        wide = generate_corpus(
            GenSpec(n_malicious=30, n_benign=30, seed=7, n_exe_names=12, n_os_versions=4)
        )
        narrow_names = {log.metadata.exe_name for log in narrow}
        wide_names = {log.metadata.exe_name for log in wide}
        assert len(narrow_names) == 1
        assert len(wide_names) > 1


class TestSeparabilityKnob:
    # Family indicator tokens all carry a "fam" prefix that no benign pool
    # uses; hex dumps cannot spell it (m is not a hex digit).
    def has_family_marker(self, log):
        return b"fam" in serialize_log(log)

    def test_zero_overlap_separates_exactly(self):
        logs = generate_corpus(GenSpec(n_malicious=40, n_benign=40, overlap=0.0, seed=8))
        assert all(self.has_family_marker(log) for log in logs[:40])
        assert not any(self.has_family_marker(log) for log in logs[40:])

    def test_full_overlap_removes_every_marker(self):
        logs = generate_corpus(GenSpec(n_malicious=40, n_benign=40, overlap=1.0, seed=8))
        assert not any(self.has_family_marker(log) for log in logs)

    def test_partial_overlap_is_between(self):
        logs = generate_corpus(GenSpec(n_malicious=60, n_benign=10, overlap=0.5, seed=8))
        marked = sum(1 for log in logs[:60] if self.has_family_marker(log))
        # 10 indicator slots per log at 50 percent: all-benign logs are rare
        # but possible; most logs keep at least one marker.
        assert 0 < marked < 60 or marked == 60
        assert marked > 40

    def test_monotone_difficulty(self):
        # Mean held-out AUC over 5 seeds must not increase as overlap steps
        # through {0, 0.5, 1.0}.  Reduced hyperparameters keep this fast; the
        # ordering is driven entirely by the indicator-token dilution.
        from memlog.embedding import Hyperparams, build_vocab, train_embeddings
        from memlog.evaluation import SplitSpec, holdout_split, roc_auc
        from memlog.gbdt import GbdtParams, predict, train_classifier
        from memlog.tokenizer import tokenize
        from memlog.vectorizer import vectorize_corpus

        def held_out_auc(overlap, seed):
            corpus = generate_corpus(
                GenSpec(n_malicious=100, n_benign=100, overlap=overlap, seed=seed)
            )
            grouped = [tokenize(log) for log in corpus]
            vocab = build_vocab(grouped)
            embeddings = train_embeddings(grouped, vocab, Hyperparams(epochs=2, seed=seed))
            X, y = vectorize_corpus(corpus, embeddings)
            train_idx, test_idx = holdout_split(y, SplitSpec(shuffle_seed=seed))
            model = train_classifier(
                X[train_idx], y[train_idx], GbdtParams(trees=30, max_depth=4)
            )
            return roc_auc(y[test_idx], predict(model, X[test_idx]))

        means = [
            np.mean([held_out_auc(overlap, seed) for seed in range(1, 6)])
            for overlap in (0.0, 0.5, 1.0)
        ]
        assert means[0] >= means[1] >= means[2], means


class TestCorpusDirectory:
    def test_write_read_round_trip(self, tmp_path):
        logs = generate_corpus(GenSpec(n_malicious=6, n_benign=4, seed=10))
        names = write_corpus(str(tmp_path / "corpus"), logs)
        assert names == [f"log_{i:05d}.json" for i in range(10)]
        loaded = read_corpus(str(tmp_path / "corpus"))
        assert corpus_bytes(loaded) == corpus_bytes(logs)
        assert [log.label for log in loaded] == [log.label for log in logs]

    def test_manifest_contents(self, tmp_path):
        logs = generate_corpus(GenSpec(n_malicious=2, n_benign=1, seed=10))
        write_corpus(str(tmp_path / "corpus"), logs)
        manifest = (tmp_path / "corpus" / "labels.csv").read_text().splitlines()
        assert manifest[0] == "filename,label"
        assert manifest[1:] == [
            "log_00000.json,malicious",
            "log_00001.json,malicious",
            "log_00002.json,benign",
        ]

    def test_unlabeled_log_rejected(self, tmp_path):
        logs = generate_corpus(GenSpec(n_malicious=1, n_benign=1, seed=10))
        logs[1].label = None
        with pytest.raises(UnlabeledLog):
            write_corpus(str(tmp_path / "corpus"), logs)

    def test_read_ignores_non_json(self, tmp_path):
        logs = generate_corpus(GenSpec(n_malicious=2, n_benign=2, seed=10))
        write_corpus(str(tmp_path / "corpus"), logs)
        (tmp_path / "corpus" / "notes.txt").write_text("ignore me")
        assert len(read_corpus(str(tmp_path / "corpus"))) == 4
