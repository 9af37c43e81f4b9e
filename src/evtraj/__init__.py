"""evtraj: dense continuous-time motion estimation from event-camera
streams by direct contrast maximization over parametric trajectory fields.

The package is organized around the estimation pipeline:

``events``     event containers, EVT1 I/O
``trajectory`` polynomial/Bezier trajectory bases on an anchor grid
``assoc``      per-bin KNN association, the displacement volume and their adjoints
``objective``  event warping, the (2, H, W) polarity-stacked IWE, and the loss terms with their derivatives (contrast G, regularizer R)
``optimize``   the loss and its gradient composed from those terms, Adam descent
``synth``      synthetic scenes with exact ground truth
``metrics``    EPE / AE / %Out / TEPE / TAE / FWL
``flowio``     FLO1 flow-map files
``cli``        synth / estimate / eval / render commands
"""

__version__ = "0.1.0"

from .assoc import (
    DisplacementVolume,
    KnnConfig,
    build_consecutive_delta_field,
    build_displacement_volume,
    interpolate_flow,
    knn_per_bin,
    regather_volume,
)
from .events import (
    EventFormatError,
    EventSlice,
    load_events,
    save_events,
)
from .flowio import load_flow, save_flow
from .metrics import (
    MotionEval,
    epe_ae,
    evaluate_trajectories,
    fwl,
    pct_out,
    tepe_tae,
)
from .objective import (
    ObjectiveConfig,
    WarpedEvents,
    build_iwe,
    contrast_g,
    regularizer_r,
    warp_events,
    write_iwe_pgm,
)
from .optimize import (
    DivergenceError,
    LossBreakdown,
    OptimConfig,
    OptimTrace,
    loss_gradient,
    minimize,
    save_trace_csv,
)
from .synth import (
    BezierMotion,
    CircularMotion,
    GroundTruth,
    SceneSpec,
    generate_events,
    scatter_points,
)
from .trajectory import (
    BEZIER,
    POLYNOMIAL,
    Basis,
    TrajectoryField,
    eval_trajectory_batch,
    load_field,
    save_field,
)

__all__ = [
    "DisplacementVolume", "KnnConfig", "build_consecutive_delta_field",
    "build_displacement_volume", "interpolate_flow", "knn_per_bin", "regather_volume",
    "EventFormatError", "EventSlice", "load_events", "save_events", "load_flow",
    "save_flow", "MotionEval", "epe_ae", "evaluate_trajectories", "fwl", "pct_out",
    "tepe_tae", "LossBreakdown", "ObjectiveConfig", "WarpedEvents", "build_iwe",
    "contrast_g", "regularizer_r", "warp_events", "write_iwe_pgm",
    "DivergenceError", "OptimConfig", "OptimTrace", "loss_gradient", "minimize",
    "save_trace_csv", "BezierMotion", "CircularMotion", "GroundTruth",
    "SceneSpec", "generate_events", "scatter_points", "BEZIER", "POLYNOMIAL", "Basis",
    "TrajectoryField", "eval_trajectory_batch", "load_field", "save_field",
]
