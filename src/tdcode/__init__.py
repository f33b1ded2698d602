"""Error-correcting codes for channels that insert short tandem duplications.

The package enumerates, ranks, and unranks irreducible words (words
containing no tandem repeat of length up to k), runs a finite-state
encoder whose outputs stay irreducible across block boundaries, and
wraps both in a codec that corrects any number of duplications of
length at most k for k in {2, 3}.
"""

from .codec import (
    CodeSpec,
    MessageCapacity,
    decode_codeword,
    encode_codeword,
    message_capacity,
)
from .enumeration import (
    CountTable,
    FseParams,
    RateInfo,
    asymptotic_rate,
    choose_params,
    code_size,
    count_extensions,
    count_irr,
    count_irr_prefix,
    delta_closed_form,
    delta_closed_form_report,
    delta_min_degree,
    extension_index,
    iter_extensions,
    kth_extension,
)
from .errors import (
    BudgetExceededError,
    CorruptInputError,
    DomainError,
    NotADescendantError,
    NotAnEdgeError,
    TandemCodeError,
    UnlabeledEdgeError,
)
from .fse import (
    FseCodec,
    neighbor_index,
    neighbors,
    nth_neighbor,
)
from .oracle import (
    OracleBudget,
    RootOracle,
    all_descendants,
    all_roots_bfs,
    enumerate_irr_bruteforce,
    min_outdegree_bruteforce,
)
from .ranking import (
    apply_phi,
    apply_phi123,
    apply_psi,
    invert_phi,
    invert_phi123,
    invert_psi,
    rank_irr,
    rank_irr_prefix,
    unrank_irr,
    unrank_irr_prefix,
)
from .words import (
    DNA_ALPHABET,
    DuplicationEvent,
    DupSystem,
    Word,
    extend_zeta,
    find_tandem_repeat,
    is_irreducible,
    random_descendant,
    root,
    tandem_duplicate,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CodeSpec",
    "CorruptInputError",
    "CountTable",
    "DNA_ALPHABET",
    "DomainError",
    "DupSystem",
    "DuplicationEvent",
    "FseCodec",
    "FseParams",
    "MessageCapacity",
    "NotADescendantError",
    "NotAnEdgeError",
    "OracleBudget",
    "RateInfo",
    "RootOracle",
    "TandemCodeError",
    "UnlabeledEdgeError",
    "Word",
    "all_descendants",
    "all_roots_bfs",
    "apply_phi",
    "apply_phi123",
    "apply_psi",
    "asymptotic_rate",
    "choose_params",
    "code_size",
    "count_extensions",
    "count_irr",
    "count_irr_prefix",
    "decode_codeword",
    "delta_closed_form",
    "delta_closed_form_report",
    "delta_min_degree",
    "encode_codeword",
    "enumerate_irr_bruteforce",
    "extend_zeta",
    "extension_index",
    "find_tandem_repeat",
    "invert_phi",
    "invert_phi123",
    "invert_psi",
    "is_irreducible",
    "iter_extensions",
    "kth_extension",
    "message_capacity",
    "min_outdegree_bruteforce",
    "neighbor_index",
    "neighbors",
    "nth_neighbor",
    "rank_irr",
    "rank_irr_prefix",
    "random_descendant",
    "root",
    "tandem_duplicate",
    "unrank_irr",
    "unrank_irr_prefix",
]
