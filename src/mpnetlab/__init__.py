"""Channel-estimation lab: unfolded matching pursuit with a trainable dictionary,
classical baselines, and a reproducible experiment harness."""

from .arrays import (
    AntennaArray,
    Dictionary,
    build_dictionary,
    doa_grid_ula,
    doa_grid_upa,
    make_ula,
    make_upa,
    perturb_array,
    steering_matrix,
    steering_vector,
)
from .channels import (
    ArrayEvent,
    ChannelSample,
    ChannelStream,
    FixedSnr,
    MultipathChannel,
    ReplayStream,
    SampleBatch,
    TruncatedGaussianSnr,
    age_antennas,
    break_antennas,
    dump_stream,
    generate_channel,
    load_stream,
    observe,
    sample_snr,
)
from .estimators import (
    BatchEstimate,
    Estimate,
    StoppingRule,
    ls_estimate,
    matching_pursuit,
    omp,
    pursuit_batch,
    sc_threshold,
    should_stop,
)
from .experiments import ExperimentResult, run_learning_experiment, snr_loss_experiment, train_online
from .metrics import depth_histogram, rmse, snr_histogram, snr_out
from .mpnet import (
    AdamState,
    MinibatchRecord,
    MpNetModel,
    OnlineTrainer,
    TrainConfig,
    adam_step,
    backward,
    estimate,
    forward,
    forward_batch,
    load_checkpoint,
    save_checkpoint,
    score_minibatch,
    xavier_init,
)
from .config import (
    ArraySpec,
    ConfigError,
    ExperimentConfig,
    SnrLossSpec,
    config_from_mapping,
    load_config,
    parse_estimator,
)

__all__ = [name for name in dir() if not name.startswith("_")]
