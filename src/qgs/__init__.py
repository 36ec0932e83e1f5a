"""Spectral toolkit for metric graphs with leads.

Differential Laplacians on metric graphs with delta-type vertex couplings:
boundary data maps on the energy axis, two independent routes to compact
spectra, external scattering matrices and their factorisation, recovery of
vertex couplings from boundary measurements, and the high-contrast periodic
chain whose spectrum converges to an explicit limit model.
"""

from .errors import (Disconnected, ExtrapolationDiverged,
                     FactorisationMismatch, GraphError, InconsistentPaths,
                     LoopContraction, NumericalError, ParseError,
                     PoleProximity, QGSError, ScanFailure, ScanResolution,
                     SingularBracket, SingularMatrix, UnconfirmedRoot,
                     UnknownEdge)
from .graphs import (Edge, MetricGraph, SpanningTreePath, ValidationReport,
                     Vertex, contract, load_graph, parse_graph,
                     serialize_graph, spanning_tree, validate)
from .highcontrast import (ConvergenceRow, HighContrastCell, Quasimomentum,
                           cell_discriminant, convergence_study, eps_spectra,
                           eps_spectrum, hom_dprime_spectra,
                           hom_dprime_spectrum, hom_tau_spectra,
                           hom_tau_spectrum, transfer_matrix)
from .inverse import (PathSumEstimate, RtDSamples, barycentric, extract_rtd,
                      f1_contracted, f1_entry, forward_f1_oracle,
                      invert_couplings, ladder_tau0, recover_couplings,
                      recover_external_couplings, recover_path_sums)
from .scattering import (ScatteringMatrix, external_factors,
                         lead_matching_oracle, sigma_external, sigma_full,
                         sigma_sweep)
from .spectra import (Eigenvalue, compact_eigenvalues, compact_spectrum,
                      kernel_margins, matching_matrix, multiplicity_at)
from .weyl import (CouplingMatrix, external_projector, robin_to_dirichlet,
                   weyl_compact, weyl_full)

# Nothing in the package scans any more; the benchmark's layer tracer
# looks up qgs.rootscan.scan_roots when it installs.
from . import rootscan  # noqa: F401,E402

__version__ = "0.1.0"

__all__ = [
    "ConvergenceRow", "CouplingMatrix", "Disconnected", "Edge", "Eigenvalue",
    "ExtrapolationDiverged", "FactorisationMismatch", "GraphError",
    "HighContrastCell", "InconsistentPaths", "LoopContraction",
    "MetricGraph", "NumericalError", "ParseError", "PathSumEstimate",
    "PoleProximity", "QGSError", "Quasimomentum", "RtDSamples",
    "ScanFailure", "ScanResolution", "ScatteringMatrix", "SingularBracket",
    "SingularMatrix", "SpanningTreePath", "UnconfirmedRoot", "UnknownEdge",
    "ValidationReport", "Vertex", "barycentric", "cell_discriminant",
    "compact_eigenvalues", "compact_spectrum", "contract",
    "convergence_study", "eps_spectra", "eps_spectrum", "external_factors",
    "external_projector", "extract_rtd", "f1_contracted", "f1_entry",
    "forward_f1_oracle", "hom_dprime_spectra", "hom_dprime_spectrum",
    "hom_tau_spectra", "hom_tau_spectrum", "invert_couplings",
    "kernel_margins", "ladder_tau0", "lead_matching_oracle", "load_graph",
    "matching_matrix", "multiplicity_at", "parse_graph", "recover_couplings",
    "recover_external_couplings", "recover_path_sums", "robin_to_dirichlet",
    "serialize_graph", "sigma_external", "sigma_full", "sigma_sweep",
    "spanning_tree", "transfer_matrix", "validate", "weyl_compact",
    "weyl_full",
]
