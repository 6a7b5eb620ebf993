"""Descriptiveness-scored cross-modal embedding toolkit.

Submodules:
    corpus      sentence tokenization, descriptiveness tables, corpus and table files
    geometry    embedding primitives and feature-file formats
    losses      ranking / ordering objectives with analytic gradients
    trainer     projection model, optimizer, training loop, checkpoints
    evaluation  retrieval metrics (recall@K, RSUM, traversal, rank correlation)
    datagen     synthetic hierarchical corpora and planted feature structure
    cli         command-line entry point
"""

__version__ = "0.1.0"
