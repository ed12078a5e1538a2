"""Exact workbench for extensions of the t-adic valuation from k(t) to
rational function fields k(t)(X) and their completions."""

from .errors import (
    DeltaTooLarge,
    HorizonExceeded,
    NegativeSupport,
    NegativeValuation,
    NoRootOfUnity,
    NotARoot,
    NotPcs,
    ParseError,
    PrecisionExhausted,
    RamifiedInput,
    Uncertified,
    UnsupportedKind,
    WorkbenchError,
    ZeroPolynomial,
)
from .field import GF, QQ, BaseField
from .groupval import FIN0, GroupVal
from .series import PuiseuxSeries, RatFunc, coerce, invert, truncate_to_ratfunc
from .polyx import PolyX, polyx_from_text
from .algnum import (
    AlgElement,
    attach_minpoly,
    conjugates,
    galois_twist,
    krasner_constant,
    minpoly_over_completion,
)
from .valuation import (
    ValuationSpec,
    delta,
    eval_rational,
    eval_spec,
    is_key_polynomial,
    is_pair_equivalent,
    minimal_pair_search,
)
from .pcs import (
    PcsGenerator,
    builtin_generator,
    classify_generator,
    is_limit,
    validate_prefix,
    values_along,
)
from .lifting import (
    CskpSeq,
    approximate_density,
    approximate_same_delta,
    classify_extension,
    conjugacy_check,
    cskp_check,
    induce,
    lift_cskp,
    roots_matching_threshold,
    uniqueness_check,
    verify_root_matching,
)
from .report import Evidence, Report, Verdict
from .config import WorkbenchConfig, load_config, parse_config
from .examples import run_example
from .selftest import run_all as run_selftest

__version__ = "0.1.0"
