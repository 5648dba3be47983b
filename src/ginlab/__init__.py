"""Exact computations with generic initial ideals over QQ.

Graded Betti tables by independent routes, generic annihilator numbers,
cancellation numbers, and executable checks of the Betti-number rigidity
statements relating a graded ideal to its generic initial ideal, over both
polynomial rings and exterior algebras.
"""

from .rings import (
    DEGLEX,
    DEGREVLEX,
    EXT,
    LEX,
    POLY,
    Element,
    GenericityError,
    GenericSequence,
    Ring,
    apply_linear_change,
    compare_monomials,
    exterior_ring,
    max_variable,
    polynomial_ring,
    wedge_supports,
)
from .ideals import (
    ComputationLimit,
    Ideal,
    ImplementationFault,
    MonomialIdeal,
    component_ideal,
    graded_piece_basis,
    hilbert_function,
    is_strongly_stable,
    lex_ideal,
    m_leq,
    minimal_generators,
)
from .parsing import ParseError, parse_ideal, render_ideal
from .groebner import (
    GinCertificate,
    GroebnerBasis,
    buchberger,
    gin,
    initial_ideal,
)
from .betti import (
    BettiTable,
    ahh_betti,
    betti_table,
    bigatti_betti,
    cartan_betti,
    ek_betti,
    has_linear_resolution,
    is_componentwise_linear,
    koszul_betti,
    regularity,
)
from .annihilators import (
    AnnihilatorTable,
    annihilators_from_gin,
    generic_annihilators_direct,
    partial_delta,
    partial_homology,
    upper_bound_check,
    verify_homology_formula,
)
from .rigidity import (
    CancellationTable,
    RigidityContext,
    RigidityReport,
    TheoremViolationError,
    battery,
    betti_total_ext_check,
    cancellation_numbers,
    clinear_check,
    crigid_check,
    degree_d_componentwise,
    dlinear_equivalence,
    dominance_check,
    first_strand_criterion,
    lemma_can_check,
    linear_component_criterion,
    post_clinear_corollary,
    rigidity_ext,
    rigidity_poly,
    trans_check,
)
from .corpus import CorpusSpec, generate as generate_corpus
from .oracles import oracle_equivalences

__all__ = [name for name in dir() if not name.startswith("_")]
