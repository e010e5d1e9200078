"""Intersection properties of finite disk systems.

Decide whether closed d-dimensional disks share a common point, compute
Vietoris-Rips and Cech scales, build the minimal axis-aligned bounding box
of the intersection, and emit generalized Cech filtrations.
"""

from .aabb import Box, aabb_minimal, aabb_two_disks, box_intersect
from .cech import (
    CechDecision,
    ScaleReport,
    cech_scale,
    exact_cech_scale,
    is_cech_system,
    jung_factor,
    rescale,
    rips_scale,
)
from .filtration import Filtration, WeightedSimplex, build_filtration
from .geometry import (
    DEFAULT_TOL,
    DegenerateConfiguration,
    DimensionMismatch,
    Disk,
    DiskSystem,
    EmptyIntersection,
    FullSphereError,
    GeometryError,
    ISphere,
    PointIntersection,
    Pole,
    SphereIntersection,
    boundary_poles,
    contains,
    intersect_two_spheres,
    poles_codim1,
    poles_general,
    preprocess,
    reduce_sphere_system,
)
from .oracle import OracleConfig, oracle_aabb, oracle_intersects, oracle_minimax

__version__ = "0.1.0"

__all__ = [
    "Box",
    "CechDecision",
    "DEFAULT_TOL",
    "DegenerateConfiguration",
    "DimensionMismatch",
    "Disk",
    "DiskSystem",
    "EmptyIntersection",
    "Filtration",
    "FullSphereError",
    "GeometryError",
    "ISphere",
    "OracleConfig",
    "PointIntersection",
    "Pole",
    "ScaleReport",
    "SphereIntersection",
    "WeightedSimplex",
    "aabb_minimal",
    "aabb_two_disks",
    "boundary_poles",
    "box_intersect",
    "build_filtration",
    "cech_scale",
    "contains",
    "exact_cech_scale",
    "intersect_two_spheres",
    "is_cech_system",
    "jung_factor",
    "oracle_aabb",
    "oracle_intersects",
    "oracle_minimax",
    "poles_codim1",
    "poles_general",
    "preprocess",
    "reduce_sphere_system",
    "rescale",
    "rips_scale",
]
