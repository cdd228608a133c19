"""lchkit: exact linearized contact homology for Chekanov-Eliashberg DGAs.

Build or parse a DGA, pick an augmentation, linearize, and compute
homology exactly over Z, Q, or Z/m:

    >>> import lchkit as lch
    >>> dga = lch.lambda0()
    >>> aug = lch.parse_augmentation_literal("a1=2, a2=-1, a3=1, a6=1")
    >>> H = lch.integral_homology(lch.linearized_differential(dga, aug))
    >>> print(H.format_report())
    H_1 = Z
    H_0 = Z^2 + Z/2
    H_-1 = Z/2
"""

from .algebra import (
    Poly,
    degree_of_word,
    evaluate,
    format_poly,
    gen,
    s_linear_part,
)
from .augment import (
    Augmentation,
    DEFAULT_SEARCH_CAP,
    enumerate_augmentations,
    enumerate_augmentations_bounded,
    is_augmentation,
    parse_augmentation_literal,
    tangent_space_dim,
)
from .dga import (
    DGA,
    ValidationReport,
    connected_sum,
    connected_sum_augmented,
    differentiate,
    euler_tb,
    geography_dga,
    lambda0,
    lambda_k,
    unknot,
    validate,
)
from .dgafile import parse, serialize
from .errors import (
    DuplicateGenerator,
    FieldRequired,
    InvalidParameter,
    InvalidValue,
    LchError,
    NotAComplex,
    NotAUnit,
    NotAnAugmentation,
    ParseError,
    RingMismatch,
    SearchTooLarge,
    UnknownGenerator,
    ValidationFailed,
)
from .homology import (
    GradedHomology,
    HomologyGroup,
    bockstein,
    field_homology,
    from_orders,
    integral_homology,
    invariant_factors,
    smith_normal_form,
    uct_check,
)
from .linearize import ChainComplex, linearized_differential
from .rings import QQ, ZZ, RingDesc, Zmod
from .verify import (
    DualityReport,
    ObstructionVerdict,
    Positivity,
    TorsionScanReport,
    connected_sum_additivity_check,
    filling_obstruction,
    positivity_check,
    sabloff_check,
    torsion_scan,
)

__version__ = "0.1.0"
