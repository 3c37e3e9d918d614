"""Radar stair dimensioning: simulation, target extraction, and refinement.

The package covers the full chain from a parametric staircase scene to
corrected stair dimensions:

- `rf_params` / `numerics`: radar configuration and FFT/windowing helpers
- `scene`: staircase geometry and the walking sensor trajectory
- `chirp_sim`: raw chirp cube synthesis and the on-disk cube format
- `dsp_chain`: range/Doppler/AoA processing down to a target list
- `dimension`: consecutive-corner search and initial depth/height estimates
- `enhancer`: the small neural network that shrinks systematic errors
- `evaluation`: error statistics and histograms
- `scenario`: end-to-end runs and the dimension sweep grid
- `parallel`: a sweep's walks claimed one at a time by forked processes
- `codec`: the JSON form of every config dataclass

The names imported here are the package's public API.
"""

from .chirp_sim import (
    NOISELESS,
    ChirpCube,
    FrameMeta,
    NoiseConfig,
    load_cube,
    quantize_to_wire,
    save_cube,
    synthesize_frame,
)
from .dimension import (
    DEFAULT_STANDARDS,
    SWEEP_STANDARDS,
    DimensionEstimate,
    StairStandards,
    aggregate_estimates,
    correct_coordinates,
    estimate_initial,
    find_consecutive_corners,
)
from .dsp_chain import (
    CfarConfig,
    DspConfig,
    TargetEntry,
    TargetList,
    accumulate_range_profile,
    cfar_detect,
    extract_stationary_slice,
    local_maxima,
    process_frame,
    range_doppler_transform,
    stationary_slice,
    write_target_lists,
)
from .enhancer import (
    Dataset,
    EnhancerModel,
    TrainConfig,
    TrainResult,
    assemble_dataset,
    dataset_fingerprint,
    forward,
    gradient_check,
    init_model,
    load_model,
    read_dataset,
    save_model,
    split_dataset,
    train,
    write_dataset,
)
from .evaluation import (
    DimensionMetrics,
    build_error_report,
    compare_estimators,
    compute_metrics,
    report_to_dict,
)
from .numerics import rng_for
from .rf_params import DerivedAttributes, RadarConfig, derive_attributes
from .scenario import (
    ScenarioConfig,
    ScenarioResult,
    build_sweep,
    load_scenario,
    run_scenario,
    scenario_trajectory,
)
from .scene import (
    GaitFrame,
    Scatterer,
    StaircaseSpec,
    Trajectory,
    WalkConfig,
    corner_scatterers,
    corners_of,
    generate_walk,
    radar_height,
)

__version__ = "0.1.0"
