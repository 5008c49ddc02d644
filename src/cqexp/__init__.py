"""Error-exponent toolkit for classical-quantum channels."""

from .analysis import (
    BoundResult,
    ChannelAnalysis,
    ExponentCurve,
    ExponentRow,
    OptimizationReport,
    ReliabilityResult,
    best_type,
    best_type_up_to,
    constant_composition_mi,
    holevo_capacity,
    renyi_mi_channel,
)
from .channel import CQChannel
from .channel_io import channel_from_dict, channel_to_dict, load_channel, save_channel
from .coding import (
    Codebook,
    ConstantComposition,
    ErrorReport,
    ExponentEstimate,
    IID,
    POVM,
    average_error,
    estimate_exponent,
    generate_codebook,
    ml_error_classical,
    pgm_decoder,
)
from .config import DEFAULT_CONFIG, RunConfig
from .divergences import (
    DivergenceResult,
    conditional_renyi_up,
    holevo_information,
    petz_divergence,
    quantum_relative_entropy,
    renyi_mi_channel_prior,
    renyi_mutual_info_state,
    sibson_minimizer,
)
from .linalg import (
    CQState,
    cq_state,
    herm_eig,
    hermitize,
    mat_power,
    partial_trace,
    permute_systems,
    tensor,
    tensor_all,
    von_neumann_entropy,
)
from .typeclasses import (
    TypeClass,
    enumerate_sequences,
    enumerate_types,
    nearest_type,
    type_count,
    type_of,
    type_probability,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
