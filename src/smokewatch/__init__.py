"""Smoking-gesture recognition from wrist accelerometer data.

Pipeline: resample 50 Hz 3-axis gestures to a fixed 200-point series, feed
one channel mode (X, Y, Z, XYZ or AVG) to a small tanh/logistic network
trained with Levenberg-Marquardt, then detect gestures in continuous
sessions with a rolling window. A parametric synthetic generator supplies
gesture corpora and sessions for desk-scale experiments.
"""

from .detect import (
    DetectionTrace,
    GestureRanges,
    detect_session,
    load_ranges,
    save_ranges,
    score_trace,
)
from .errors import (
    ContainsPositiveClass,
    EmptyBatch,
    EmptyDataset,
    EmptyInput,
    EmptyRecording,
    EmptyTrace,
    InvalidSize,
    InvalidThreshold,
    LengthMismatch,
    MalformedModel,
    MalformedRanges,
    MalformedRow,
    NonMonotonicTime,
    NumericalFailure,
    SessionTooShort,
    SmokewatchError,
    UnorderedStarts,
)
from .metrics import (
    ConfusionCounts,
    MetricsReport,
    classify,
    confusion,
    evaluate,
    fp_attribution,
)
from .mlp import (
    Network,
    NormParams,
    forward,
    forward_batch,
    init_network,
    load_model,
    save_model,
)
from .signal import (
    ChannelMode,
    GestureClass,
    SensorRecording,
    extract_features,
    load_recording_csv,
    resample_uniform,
    window_count,
    write_recording_csv,
)
from .synth import (
    DeviceProfile,
    GestureTemplate,
    SessionKind,
    generate_corpus,
    generate_gesture,
    generate_session,
    generate_sessions,
    generate_table1,
)
# NB: the train() entry point stays on the submodule (smokewatch.train.train)
# so the `train` attribute keeps naming the submodule itself.
from .train import (
    LabeledDataset,
    StopReason,
    TrainReport,
    build_dataset,
    lm_step,
    partition,
    train_best_of,
)

__version__ = "0.1.0"
