"""Fractal images of base-p digit expansions.

Maps base-p numbers into the complex plane and the base-p solenoid into
a solid torus, certifies when the maps are embeddings, and verifies the
scaling, measure, dimension, and flow structure numerically.
"""

from .analysis import (
    DimensionEstimate,
    EmbeddingCertificate,
    MomentResult,
    box_dimension,
    delta_certificate,
    gamma_estimate,
    measure_consistency,
    metric_divergence,
    moment,
    tuple_coefficient,
)
from .complex_map import MapParams, PlaneMap, delta_lower, s_zero
from .render import PRESETS, FigurePreset, RasterConfig, build_cloud, preset
from .solenoid import (
    SolenoidParams,
    SolenoidPoint,
    TorusMap,
    distance,
    from_padic,
    orbit,
)

__all__ = [
    "MapParams",
    "PlaneMap",
    "EmbeddingCertificate",
    "s_zero",
    "delta_lower",
    "delta_certificate",
    "SolenoidPoint",
    "SolenoidParams",
    "TorusMap",
    "distance",
    "from_padic",
    "orbit",
    "gamma_estimate",
    "MomentResult",
    "DimensionEstimate",
    "moment",
    "tuple_coefficient",
    "box_dimension",
    "metric_divergence",
    "measure_consistency",
    "RasterConfig",
    "FigurePreset",
    "PRESETS",
    "preset",
    "build_cloud",
]

__version__ = "0.1.0"
