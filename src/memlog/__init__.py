"""Early detection of in-memory malicious activity from runtime logs.

The pipeline: runtime environment logs are parsed into a canonical schema
(:mod:`memlog.logmodel`), tokenized into six feature groups
(:mod:`memlog.tokenizer`), embedded with skip-gram negative sampling
(:mod:`memlog.embedding`), pooled into fixed-width vectors
(:mod:`memlog.vectorizer`) and classified with gradient-boosted trees
(:mod:`memlog.gbdt`).  :mod:`memlog.service` and :mod:`memlog.agent` wrap
the pipeline for deployment; :mod:`memlog.cli` exposes everything on the
command line.

Submodules are imported explicitly by callers.  The package root stays
import-light so that the directory-watching agent, which runs inside a
tight memory budget, never pulls in the numeric stack.  It sets
``OPENBLAS_NUM_THREADS=1`` unless a non-empty value is already set, so a
process that imports memlog before numpy starts no OpenBLAS worker.
"""
import os

__version__ = "0.1.0"

# memlog calls no BLAS routine, but an idle OpenBLAS worker spins on the core
# that train's negative draws use; an empty value would start the default threads
if not os.environ.get("OPENBLAS_NUM_THREADS"):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
