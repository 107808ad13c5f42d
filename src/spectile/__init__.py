"""Exact verification toolkit for interval-union spectra and integer tilings."""

from .cyclotomic import (
    CycloSum,
    RootOfUnity,
    as_fraction,
    cyclotomic_poly,
    vanishes,
)
from .errors import (
    ClassificationError,
    InvariantError,
    NoGoodPairingError,
    PreconditionError,
)
from .intervals import (
    IntervalUnion,
    LevelProfile,
    boundary_sum,
    d_tiles,
    fourier_indicator,
    in_zero_set,
    level_function,
    unit_interval_factor,
)
from .spectra import (
    FiniteSpectrumWindow,
    GoodPairing,
    OrthogonalityReport,
    PeriodicSet,
    RankReport,
    SpectralPairReport,
    ap_extension_check,
    check_orthogonality,
    completeness_matrix,
    construct_half_pair,
    construct_unit3_pair,
    construct_unit4_pair,
    find_aps,
    good_pairing,
    half_pair_reduction_identity,
    rank_case,
    separation,
    spectrum_ap_extension,
    verify_spectral_pair,
)
from .vansum import (
    InteractionReport,
    SignedRootVector,
    TypeTag,
    classify,
    enumerate_type2_type2,
    enumerate_type3_type2,
    enumerate_type3_type3,
    g_product,
    sdp,
    verify_weight6_classification,
)
from .ztiling import (
    IntegerSet,
    NewmanReport,
    TilePattern,
    TileWitness,
    brute_force_tile_period,
    motif_scan,
    newman_tiles,
    pattern_period,
    pattern_search,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
