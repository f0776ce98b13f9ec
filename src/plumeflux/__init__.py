"""Methane plume retrieval, segmentation, and emission-rate estimation."""

from .background import BackgroundSelection, clutter_sigma, match_background, total_sigma
from .errors import ConfigError, DataError, DomainError, NumericalError, PlumefluxError
from .matched_filter import (
    BackgroundStats,
    MfConfig,
    apply_mf,
    compute_stats,
    decontaminate,
    propagate_noise,
    retrieve,
)
from .quantification import (
    GasConstants,
    PlumeRecord,
    WindConfig,
    effective_wind,
    flux,
    flux_uncertainty,
    integrate_ime,
    plume_length,
    ppmm_to_kg_per_m2,
    quantify,
    quantify_plume,
)
from .scene_io import (
    EnhancementField,
    RadianceCube,
    SensorDescriptor,
    effective_gsd,
    ingest_level2,
    read_cube,
    read_raster,
    write_cube,
    write_raster,
)
from .segmentation import (
    PlumeMask,
    SegmentationParams,
    connected_components,
    morphology,
    plumes_to_geojson,
    robust_threshold,
    segment_field,
)
from .signature import (
    AbsorptionTable,
    BandAbsorption,
    band_absorption,
    load_bundled_table,
    read_absorption_table,
    target_spectrum,
    transmittance,
)
from .simulator import (
    SimParams,
    SyntheticPlumeSpec,
    add_noise,
    inject_plume,
    simulate_scene,
    synth_background,
)

__version__ = "0.1.0"
