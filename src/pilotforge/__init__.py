"""pilotforge: multi-user OFDM pilot pattern optimization for channel extrapolation.

Minimizes the worst-group integrated side-lobe level of the delay ambiguity
function under per-group statistical-resolution-limit ceilings, for single-band
and multiband frequency grids, and validates patterns through a full receiver
chain (code-domain interference cancellation, ML delay/gain estimation,
full-band reconstruction, NMSE).
"""

from .ambiguity import IslMatrix, SidelobeRegion, ambiguity_function, isl_matrix
from .optimizer import (EdaConfig, EdaResult, InfeasibleSamplingError, run_eda,
                        sample_individual, update_probabilities)
from .receiver import (DecoupledObservation, EstimationError, PathEstimate, PsoConfig,
                       SimulationError, decouple, estimate_paths_psols,
                       extrapolate_fullband, nmse, run_extrapolation_sim)
from .resolution import SrlResult, SrlSearch, fim, srl_of_pattern, srl_search
from .waveform import (BandLayout, PatternSet, PilotSequence, Subband,
                       channel_frequency_response, draw_channels, make_zc_sequence,
                       orthogonal_sequence_family, random_patterns,
                       synthesize_received, uniform_patterns)

__version__ = "0.1.0"
