"""Exact-arithmetic workbench for curve configurations on surfaces.

Models configurations of curves as intersection lattices over the
rationals and computes Zariski decompositions, volumes, blow-up and
contraction transforms, semistable boundary parts, and the scripted
pipelines behind the bundled reference table of minimal volumes.
"""
from .lattice import (
    CurveConfig,
    CurveRecord,
    LatticeError,
    QDivisor,
    divisor_geq,
    is_negative_definite,
    is_nef_on_tracked,
    kdot,
    make_config,
    pa_of,
    pairing,
    rational,
    rational_str,
    sum_divisor,
    validate,
)
from .zariski import ZariskiResult, volume, zariski_decompose, zariski_oracle
from .birational import (
    BlowupStep,
    History,
    apply_script,
    blow_up,
    boundary_adjustment,
    contract_lc_trivial,
    contract_minus_one,
    log_class,
    mmp_contract_disjoint,
    mmp_contract_log,
    pushforward,
    relative_canonical,
    total_transform,
)
from .boundary import BoundarySplit, semistable_part, tower
from .catalog import (
    CatalogEntry,
    catalog_ids,
    entry,
    example_143,
    example_25_84,
    example_rational_shape,
    glue_volumes,
    kodaira_config,
    min_volume_pipeline,
    noether_stable_bound,
    prop0_step1_bound,
    prop1_volume,
    prop2_bound,
    resolution_script,
    table1,
    tz_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
