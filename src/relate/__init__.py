"""Statistical tests of whether a group of languages is related.

The package builds sound-class character matrices from wordlists, fits
phylogenies under an invariant-site substitution model, and offers two
significance tests: a likelihood-ratio test calibrated by parametric
bootstrap, and a permutation test of multilateral lexical similarity. A
quartet-distance module scores inferred trees against references.
"""

__version__ = "0.1.0"

from .errors import RelateError
from .lexdata import FilterPolicy, LexEntry, Wordlist, parse_wordlist
from .lrt import LrtConfig, LrtReport, run_lrt
from .mlsearch import MlFit, SearchConfig, ml_tree
from .msa import AlignScoring, CharacterMatrix, build_character_matrix
from .permtest import MergeTree, WordMetric, permutation_significance, run_permtest
from .phylik import Phylogeny, parse_newick, total_log_likelihood, write_newick
from .bootsim import SimConfig, simulate_matrix
from .soundclass import ClassAlphabet, default_alphabet, encode_form
from .submodel import SubstitutionModel, build_model, transition_prob
from .treecmp import GoldTree, QuartetScore, gqd, parse_gold_tree

__all__ = [
    "AlignScoring",
    "CharacterMatrix",
    "ClassAlphabet",
    "FilterPolicy",
    "GoldTree",
    "LexEntry",
    "LrtConfig",
    "LrtReport",
    "MergeTree",
    "MlFit",
    "Phylogeny",
    "QuartetScore",
    "RelateError",
    "SearchConfig",
    "SimConfig",
    "SubstitutionModel",
    "WordMetric",
    "Wordlist",
    "build_character_matrix",
    "build_model",
    "default_alphabet",
    "encode_form",
    "gqd",
    "ml_tree",
    "parse_gold_tree",
    "parse_newick",
    "parse_wordlist",
    "permutation_significance",
    "run_lrt",
    "run_permtest",
    "simulate_matrix",
    "total_log_likelihood",
    "transition_prob",
    "write_newick",
]
