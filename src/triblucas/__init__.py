"""Exact arithmetic for the Tribonacci / Tribonacci-Lucas families.

Number and polynomial sequences, the two Pascal-like triangles, the
incomplete variants, rational generating functions over exact coefficient
rings, and a verification harness that sweeps every catalogued identity
against independent brute-force evaluation.
"""

from .errors import (
    DomainError,
    ExpansionError,
    InternalConsistencyError,
    NumericalInstabilityError,
    PolyParseError,
    UnknownIdentityError,
)
from .genfunc import (
    GFComparison,
    GFVariant,
    Lemma9Spec,
    PowerSeries,
    RationalGF,
    gf_vs_direct,
    lemma9_gf,
    q_gf,
    series_expand,
    w_gf,
)
from .incomplete import (
    IncompleteFamily,
    IncompleteIndex,
    boundary_form,
    incomplete_tl_number,
    incomplete_tl_poly,
    incomplete_tribonacci_number,
    incomplete_tribonacci_poly,
    partial_sum_lhs_rhs,
    recurrence_step,
    row_sum_lhs_rhs,
    tl_relation_rhs,
)
from .poly import IntPoly, poly_add, poly_eval, poly_format, poly_mul, poly_parse
from .sequences import (
    SequenceFamily,
    binet_estimate,
    binet_roots,
    tribonacci_lucas_number,
    tribonacci_lucas_poly,
    tribonacci_number,
    tribonacci_poly,
)
from .triangles import (
    TriangleKind,
    TriangleTable,
    binomial_diagonal_sum,
    diagonal_sum,
    triangle_entry_number,
    triangle_entry_poly,
    triangle_rows,
)
from .verify import (
    ErrataRecord,
    ErrataReport,
    IdentityReport,
    SweepRange,
    errata_report,
    list_identities,
    run_all,
    run_identity,
)

__version__ = "0.1.0"
