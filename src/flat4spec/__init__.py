"""Exact spectral invariants of compact flat Riemannian 4-manifolds.

The manifolds are quotients R^4/Gamma by Bieberbach groups whose translation
lattice is the cubic lattice Z^4.  The package computes, in exact arithmetic:

* heat traces of the Laplacian on p-forms as polynomials in one-dimensional
  theta functions with coefficients in Q(sqrt2, sqrt3),
* eigenvalue multiplicities of the p-form Laplacians,
* length sets and class-length multiplicities of closed geodesics,
* isospectrality classifications of the full catalog of such manifolds.

Importing the package is cheap: it loads no submodule.  Each public name
(and each submodule name) imports its home submodule on first use, so a
command compiles only the modules it runs.
"""
import importlib

# home submodule -> the public names it defines.  The keys are also the
# package's submodule names, resolved as attributes (flat4spec.lengths).
_HOMES = {
    "catalog": ("Catalog", "CatalogEntry", "CatalogError", "catalog_path",
                "load_catalog"),
    "classify": ("ClassificationReport", "L_isospectral", "MODES",
                 "bracketL_isospectral", "classify_all", "p_isospectral",
                 "sunada_isospectral"),
    "cli": (),
    "group": ("AffineIsometry", "BieberbachGroup", "GroupError", "betti",
              "build_group", "is_abelian_holonomy", "is_diagonal_type",
              "is_orientable", "sunada_numbers", "sunada_tuple"),
    "intlat": (),
    "kraw": ("krawtchouk", "trace_p"),
    "lengths": ("length_multiplicity", "length_set", "length_spectrum"),
    "numspec": ("heat_trace_numeric", "lattice_shell", "multiplicities",
                "multiplicity"),
    "qfield": ("QuadNumber", "UnrepresentableRadical"),
    "theta": ("HeatTracePoly", "heat_trace_poly", "poly_equal", "theta_value"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)


def __getattr__(name: str):
    """Import the submodule that defines `name` on its first use (PEP 562)."""
    if name in _HOMES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES, *__all__})


__version__ = "1.0.0"
