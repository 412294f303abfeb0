"""Exact spectral invariants of compact flat Riemannian 4-manifolds.

The manifolds are quotients R^4/Gamma by Bieberbach groups whose translation
lattice is the cubic lattice Z^4.  The package computes, in exact arithmetic:

* heat traces of the Laplacian on p-forms as polynomials in one-dimensional
  theta functions with coefficients in Q(sqrt2, sqrt3),
* eigenvalue multiplicities of the p-form Laplacians,
* length sets and class-length multiplicities of closed geodesics,
* isospectrality classifications of the full catalog of such manifolds.
"""
from .catalog import Catalog, CatalogEntry, CatalogError, catalog_path, load_catalog
from .classify import (ClassificationReport, L_isospectral, MODES,
                       bracketL_isospectral, classify_all, p_isospectral,
                       sunada_isospectral)
from .group import (AffineIsometry, BieberbachGroup, GroupError, betti,
                    build_group, is_abelian_holonomy, is_diagonal_type,
                    is_orientable, sunada_numbers, sunada_tuple)
from .kraw import krawtchouk, trace_p
from .lengths import length_multiplicity, length_set, length_spectrum
from .numspec import heat_trace_numeric, lattice_shell, multiplicities, multiplicity
from .qfield import QuadNumber, UnrepresentableRadical
from .theta import HeatTracePoly, heat_trace_poly, poly_equal, theta_value

__all__ = [
    "AffineIsometry",
    "BieberbachGroup",
    "Catalog",
    "CatalogEntry",
    "CatalogError",
    "ClassificationReport",
    "GroupError",
    "HeatTracePoly",
    "L_isospectral",
    "MODES",
    "QuadNumber",
    "UnrepresentableRadical",
    "betti",
    "bracketL_isospectral",
    "build_group",
    "catalog_path",
    "classify_all",
    "heat_trace_numeric",
    "heat_trace_poly",
    "is_abelian_holonomy",
    "is_diagonal_type",
    "is_orientable",
    "krawtchouk",
    "lattice_shell",
    "length_multiplicity",
    "length_set",
    "length_spectrum",
    "load_catalog",
    "multiplicities",
    "multiplicity",
    "p_isospectral",
    "poly_equal",
    "sunada_isospectral",
    "sunada_numbers",
    "sunada_tuple",
    "theta_value",
    "trace_p",
]

__version__ = "1.0.0"
