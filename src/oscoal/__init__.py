"""Angular-momentum eigenstates of the isotropic 3-D harmonic oscillator:
exact basis-change coefficients, phase-space (Wigner) distributions, and
coalescence probabilities of Gaussian wave-packet pairs."""

__version__ = "0.1.0"

from .expansion import Ame, ExactCoeff, FeTriple, coeff, coeff_k0, coeff_oracle, d_coeff, degenerate_subspace, psi_klm
from .ho1d import OscParams, Phase1D, phi_n, quasi_prob, quasi_prob_zeta1, wigner_1d, wigner_1d_gen
from .wigner3d import PhasePoint3D, WignerGrid, export_grid, wigner_kl, wigner_kl_closed, wigner_klm
from .coalescence import PhasePoint, WavePacket, j_overlap, p_kl, p_kl_closed, p_klm_differential, poisson_sum, v_and_t
from .yields import Channel, MCConfig, ParticleRecord, YieldReport, channel_table, load_particles, pair_yields, spectrum

__all__ = [
    "__version__",
    "Ame", "ExactCoeff", "FeTriple", "coeff", "coeff_k0", "coeff_oracle",
    "d_coeff", "degenerate_subspace", "psi_klm",
    "OscParams", "Phase1D", "phi_n", "quasi_prob", "quasi_prob_zeta1",
    "wigner_1d", "wigner_1d_gen",
    "PhasePoint3D", "WignerGrid", "export_grid", "wigner_kl",
    "wigner_kl_closed", "wigner_klm",
    "PhasePoint", "WavePacket", "j_overlap", "p_kl", "p_kl_closed",
    "p_klm_differential", "poisson_sum", "v_and_t",
    "Channel", "MCConfig", "ParticleRecord", "YieldReport", "channel_table",
    "load_particles", "pair_yields", "spectrum",
]
