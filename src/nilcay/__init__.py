"""nilcay: desk-scale computation with finitely generated nilpotent (and
designated near-nilpotent) groups via power-commutator presentations.

The package builds finite balls of Cayley graphs and mechanically checks
structural claims at ball scale: affine-ness of automorphisms, normality
and non-normality of Cayley graphs, convex geodesic lines from bi-orders,
distortion of central elements, torsion-quotient-induced maps, and the
explicit counterexample constructions.
"""

__version__ = "0.1.0"

from .pcgroup import (  # noqa: F401
    PcPresentation,
    PresentationError,
    builtin,
    direct_product,
    from_id,
    parse_presentation,
)
from .cayley import (  # noqa: F401
    Ball,
    BallBudgetError,
    GenSet,
    GeodesicCapError,
    GeodesicPath,
    UncertifiedDistanceError,
    check_vertex_map,
    count_geodesics,
    enumerate_geodesics,
    generate_ball,
    iter_geodesics,
    standard_genset,
)
from .reporting import Report  # noqa: F401
