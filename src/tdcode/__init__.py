"""Error-correcting codes for channels that insert short tandem duplications.

The package counts, ranks, and unranks irreducible words (words
containing no tandem repeat of length up to k), runs a finite-state
encoder whose outputs stay irreducible across block boundaries, and
wraps the ranking in a codec that corrects any number of duplications
of length at most k for k in {2, 3}.

The names below are the public API; the brute-force oracle among them
is the reference the fast paths are checked against.  They load their
module on first use (PEP 562), so importing one module, as the command
line does, does not import the others.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "codec": "CodeSpec decode_codeword encode_codeword",
    "enumeration": "CountTable FseParams RateInfo asymptotic_rate choose_params code_size "
                   "count_irr delta_min_degree",
    "errors": "BudgetExceededError CorruptInputError DomainError NotADescendantError "
              "TandemCodeError",
    "fse": "FseCodec",
    "oracle": "OracleBudget RootOracle all_descendants all_roots_bfs "
              "enumerate_irr_bruteforce min_outdegree_bruteforce",
    "ranking": "rank_irr rank_irr_prefix unrank_irr unrank_irr_prefix",
    "words": "DNA_ALPHABET DupSystem Word is_irreducible random_descendant root "
             "tandem_duplicate",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule not imported yet
        return _import_module(f".{name}", __name__)
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
