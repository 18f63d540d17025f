"""Exact-arithmetic workbench for curve configurations on surfaces.

Models configurations of curves as intersection lattices over the
rationals and computes Zariski decompositions, volumes, blow-up and
contraction transforms, semistable boundary parts, and the scripted
pipelines behind the bundled reference table of minimal volumes.

The package namespace is lazy (PEP 562): `import logsurf` loads no
submodule, and each public name imports its defining module on first
use, so a command-line run compiles only the modules its command calls.
"""
from importlib import import_module as _import_module
from sys import modules as _modules

_EXPORTS = {
    "_base": ("LatticeError", "rational", "rational_str"),
    "lattice": (
        "CurveConfig",
        "CurveRecord",
        "QDivisor",
        "divisor_geq",
        "is_negative_definite",
        "is_nef_on_tracked",
        "kdot",
        "make_config",
        "pa_of",
        "pairing",
        "sum_divisor",
    ),
    "formats": ("validate",),
    "zariski": ("volume", "zariski_decompose", "zariski_oracle"),
    "_result": ("ZariskiResult",),
    "birational": (
        "BlowupStep",
        "History",
        "apply_script",
        "blow_up",
        "boundary_adjustment",
        "contract_lc_trivial",
        "contract_minus_one",
        "log_class",
        "mmp_contract_disjoint",
        "mmp_contract_log",
        "pushforward",
        "relative_canonical",
        "total_transform",
    ),
    "boundary": ("BoundarySplit", "semistable_part", "tower"),
    "catalog": (
        "CatalogEntry",
        "catalog_ids",
        "entry",
        "example_143",
        "example_25_84",
        "example_rational_shape",
        "kodaira_config",
        "min_volume_pipeline",
        "resolution_script",
        "table1",
    ),
    "bounds": (
        "glue_volumes",
        "noether_stable_bound",
        "prop0_step1_bound",
        "prop1_volume",
        "prop2_bound",
        "tz_bound",
    ),
}
_HOME = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}
_EXPORTED_MODULES = ("birational", "boundary", "catalog", "lattice", "zariski")
_SUBMODULES = (*_EXPORTS, "_files", "_solve", "cli", "shapes")

__all__ = sorted([*_HOME, *_EXPORTED_MODULES])
__version__ = "0.1.0"


def __getattr__(name: str):
    # A resolved name is not stored in this namespace: every access reads
    # the defining module's current binding, so a function rebound there
    # (and later restored) is never left behind here.
    home = _HOME.get(name)
    if home is not None:
        return getattr(_modules.get(home) or _import_module(home), name)
    if name in _SUBMODULES:  # the import also binds it as a package attribute
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
