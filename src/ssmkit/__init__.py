"""
Invariant-manifold reduced-order models for mechanical systems.

The package computes polynomial expansions of spectral invariant
manifolds of first-order pencils B z' = A z + F(z), the reduced
dynamics on them, leading-order forced corrections, and the derived
engineering outputs: backbone curves, forced response curves with
stability, and residual-based verification.
"""

__version__ = "0.1.0"

from .errors import (SsmError, ValidationError, NumericalError,
                     OuterResonanceError)
from .model import (MechanicalSystem, FirstOrderSystem, build_first_order,
                    as_first_order, oscillator_chain, lorenz_extended,
                    cosine_forcing)
from .fileio import load_system, save_system
from .spectrum import MasterSubspace, master_spectrum, check_normalization
from .cohomology import (ResonanceReport, classify_resonances, solve_order,
                         compute_manifold, ManifoldExpansion)
from .forcing import NonAutonomousLeading, leading_order
from .analysis import (PolarROM, extract_polar_rom, BackboneCurve, backbone,
                       FrcResult, frc_sweep, stability_jacobian,
                       physical_amplitude, write_frc_csv, write_frc_json,
                       write_frc_svg, write_backbone_csv)
from .verify import (ResidualReport, invariance_residual, integrate_full,
                     steady_state_amplitude)

__all__ = [
    "SsmError", "ValidationError", "NumericalError", "OuterResonanceError",
    "MechanicalSystem", "FirstOrderSystem", "build_first_order",
    "as_first_order", "oscillator_chain", "lorenz_extended",
    "cosine_forcing",
    "load_system", "save_system",
    "MasterSubspace", "master_spectrum", "check_normalization",
    "ResonanceReport", "classify_resonances", "solve_order",
    "compute_manifold", "ManifoldExpansion",
    "NonAutonomousLeading", "leading_order",
    "PolarROM", "extract_polar_rom", "BackboneCurve", "backbone",
    "FrcResult", "frc_sweep", "stability_jacobian", "physical_amplitude",
    "write_frc_csv", "write_frc_json", "write_frc_svg", "write_backbone_csv",
    "ResidualReport", "invariance_residual", "integrate_full",
    "steady_state_amplitude",
]
