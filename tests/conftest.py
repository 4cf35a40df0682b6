"""Shared fixtures: one small trained pipeline reused across test modules."""
from __future__ import annotations

import pytest

from memlog.embedding import Hyperparams, build_vocab, save_embeddings, train_embeddings
from memlog.gbdt import GbdtParams, save_model, train_classifier
from memlog.synthgen import GenSpec, generate_corpus, write_corpus
from memlog.tokenizer import tokenize
from memlog.vectorizer import vectorize_corpus

SMALL_SEED = 11


@pytest.fixture(scope="session")
def small_corpus():
    return generate_corpus(GenSpec(n_malicious=60, n_benign=60, overlap=0.0, seed=SMALL_SEED))


@pytest.fixture(scope="session")
def small_grouped(small_corpus):
    return [tokenize(log) for log in small_corpus]


@pytest.fixture(scope="session")
def small_embeddings(small_grouped):
    hyper = Hyperparams(epochs=3, seed=SMALL_SEED)
    vocab = build_vocab(small_grouped, min_count=2)
    return train_embeddings(small_grouped, vocab, hyper)


@pytest.fixture(scope="session")
def small_dataset(small_corpus, small_embeddings):
    return vectorize_corpus(small_corpus, small_embeddings)


@pytest.fixture(scope="session")
def small_classifier(small_dataset):
    X, y = small_dataset
    return train_classifier(X, y, GbdtParams(trees=40))


@pytest.fixture(scope="session")
def model_dir(tmp_path_factory, small_corpus, small_embeddings, small_classifier):
    """On-disk corpus + model files for CLI, service, and agent tests."""
    root = tmp_path_factory.mktemp("models")
    corpus_dir = root / "corpus"
    write_corpus(str(corpus_dir), small_corpus)
    embeddings_path = root / "emb.mleb"
    model_path = root / "mdl.mlgb"
    save_embeddings(small_embeddings, str(embeddings_path))
    save_model(small_classifier, str(model_path))
    return {
        "root": root,
        "corpus": corpus_dir,
        "embeddings": embeddings_path,
        "model": model_path,
    }
