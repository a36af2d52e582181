"""Guided dataset expansion: optimize latent perturbations per seed sample
against a consistency + entropy-gain + diversity objective, with augmentation
and selective-expansion baselines, a deterministic dataset container, and a
downstream evaluation harness.

The package root holds the names the README documents; every other name is
imported from its own module (expandforge.latentmath, expandforge.guidance, ...).
"""

from .backends import fit_linear_codec, fit_prototype_head, gen_toy_dataset, make_embedder
from .errors import (
    CoverageError,
    DegenerateVectorError,
    ExpandForgeError,
    FormatError,
    InputError,
    NumericDivergenceError,
    NumericInputError,
    ParameterError,
    RankError,
    ShapeError,
    SimplexError,
)
from .evaluation import ClassifierConfig, evaluate, train_classifier
from .pipeline import (
    METHOD_IDS,
    TOOL_VERSION,
    BackendBundle,
    ExpansionConfig,
    ExpansionManifest,
    expand_dataset,
    read_dataset,
    read_manifest,
    write_dataset,
    write_manifest,
)

__version__ = TOOL_VERSION

__all__ = [
    "BackendBundle",
    "ClassifierConfig",
    "CoverageError",
    "DegenerateVectorError",
    "ExpandForgeError",
    "ExpansionConfig",
    "ExpansionManifest",
    "FormatError",
    "InputError",
    "METHOD_IDS",
    "NumericDivergenceError",
    "NumericInputError",
    "ParameterError",
    "RankError",
    "ShapeError",
    "SimplexError",
    "evaluate",
    "expand_dataset",
    "fit_linear_codec",
    "fit_prototype_head",
    "gen_toy_dataset",
    "make_embedder",
    "read_dataset",
    "read_manifest",
    "train_classifier",
    "write_dataset",
    "write_manifest",
]
