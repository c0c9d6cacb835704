"""conifold_flows: special functions, tau-function identities, and lattice
and hydrodynamic simulations for the resolved-conifold / Ablowitz-Ladik
correspondence.

Layers, bottom up:

- specfun: exact Bernoulli data, generalized Bernoulli polynomials,
  integer-order polylogarithms.
- barnes: multiple zeta/gamma/sine functions by integral-split continuation
  and the difference-equation kernels built on the rank-2/3 sines.
- gw: genus free energies, the equivariant potential, difference-equation
  and asymptotic-remainder checks.
- series / hirota: truncated multivariate power series, Miwa shifts, the
  six bilinear tau identities, and flow extraction.
- lattice: the integrable a/b lattice system with RK4 and conserved
  quantities.
- disp: dispersionless flows of hydrodynamic type, Hamiltonian densities,
  and the Frobenius-layer consistency checks.
- reporting / cli: deterministic JSON/CSV reports and the command line.
"""
from .errors import (
    DomainError,
    GradientCatastropheError,
    PoleError,
    SingularStateError,
    TruncationOrderError,
)
from .specfun import (
    bernoulli_number,
    gen_bernoulli,
    polylog,
)
from .barnes import (
    barnes_zeta,
    fold_2pii,
    log_g,
    log_h,
    log_multiple_gamma,
    log_multiple_sine,
    nonperturbative_potential,
    zeta_at_zero,
)
from .gw import (
    asymptotic_remainder_scan,
    check_difference_equation,
    constant_map_contribution,
    difference_equation_report,
    equivariant_potential,
    free_energy_genus,
    fugacity,
    genus_coefficient,
    truncated_difference_residual,
)
from .series import (
    SeriesRing,
    TruncatedSeries,
    series_inverse,
    series_log,
    series_sqrt,
)
from .hirota import (
    HIROTA_EQUATION_IDS,
    FlowDerivatives,
    TauTriple,
    extract_time_derivatives,
    first_order_claim_residual,
    first_order_triple,
    hirota_residual,
    hirota_residuals,
    miwa_shift,
    tau_from_lattice,
)
from .lattice import (
    LatticeState,
    PlaneWaveParams,
    Trajectory,
    al_rhs,
    conserved_quantity,
    gauge_transform,
    integrate,
    plane_wave_frequency,
    rk4,
    rk4_step,
)
from .disp import (
    DispersionlessFields,
    FrobeniusData,
    GridFunction,
    PotentialField,
    check_density_constraint,
    check_hamiltonian_form,
    check_principal_identification,
    check_xdif,
    classical_varpi,
    delta_flow,
    evolve_dispersionless,
    flow_rhs,
    hamiltonian_density,
    recombined_flow,
)
from .reporting import dump_json, fmt_complex, fmt_float, parse_complex

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "PoleError",
    "SingularStateError",
    "GradientCatastropheError",
    "TruncationOrderError",
    "bernoulli_number",
    "gen_bernoulli",
    "polylog",
    "barnes_zeta",
    "zeta_at_zero",
    "log_multiple_gamma",
    "log_multiple_sine",
    "log_h",
    "log_g",
    "nonperturbative_potential",
    "fold_2pii",
    "fugacity",
    "genus_coefficient",
    "free_energy_genus",
    "constant_map_contribution",
    "equivariant_potential",
    "check_difference_equation",
    "difference_equation_report",
    "truncated_difference_residual",
    "asymptotic_remainder_scan",
    "SeriesRing",
    "TruncatedSeries",
    "series_inverse",
    "series_log",
    "series_sqrt",
    "HIROTA_EQUATION_IDS",
    "TauTriple",
    "FlowDerivatives",
    "miwa_shift",
    "hirota_residual",
    "hirota_residuals",
    "extract_time_derivatives",
    "first_order_triple",
    "first_order_claim_residual",
    "tau_from_lattice",
    "LatticeState",
    "PlaneWaveParams",
    "Trajectory",
    "plane_wave_frequency",
    "al_rhs",
    "rk4",
    "rk4_step",
    "conserved_quantity",
    "integrate",
    "gauge_transform",
    "GridFunction",
    "PotentialField",
    "DispersionlessFields",
    "FrobeniusData",
    "flow_rhs",
    "recombined_flow",
    "hamiltonian_density",
    "delta_flow",
    "check_hamiltonian_form",
    "check_density_constraint",
    "check_xdif",
    "check_principal_identification",
    "classical_varpi",
    "evolve_dispersionless",
    "fmt_float",
    "fmt_complex",
    "parse_complex",
    "dump_json",
    "__version__",
]
