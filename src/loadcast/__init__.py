"""Day-ahead electricity load forecasting.

A BiLSTM encoder-decoder with feature attention, similar-day weighting,
and temporal attention, built on a self-contained float64 reverse-mode
autodiff core.  See the README for the command line and file formats.
"""

__version__ = "0.1.0"

from .attention import (AttentionParams, FeatureSweep, TemporalSweep, context_vector,
                        feature_attention, similar_day_weights, temporal_attention)
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .data import (FEATURE_WIDTH, FeatureFrame, HolidayCalendar, RawRecord,
                   StandardizationStats, WindowSample, build_features,
                   build_windows, compute_stats, destandardize_load,
                   generate_synthetic, ingest_csv, split_by_forecast_day,
                   standardize, synthetic_calendar, write_atomic, write_records_csv)
from .errors import (CompatibilityError, ConfigError, ContinuityError,
                     CoverageError, DataError, DegenerateStatsError,
                     DimensionError, DomainError, EvaluationError,
                     LoadcastError, ParseError, SchemaError, SizeError,
                     TapeError, TrainingError)
from .lstm import (BiLstmParams, FeedForwardParams, LstmParams, LstmState,
                   bilstm_sequence, feedforward_relu,
                   lstm_cell_step, lstm_sequence, zero_state)
from .metrics import MetricReport, compute_metrics, relative_error
from .model import (VARIANTS, Forecast, ForwardPass, ModelConfig, ModelParams, StackedWindows,
                    decode, encode, forward, init_params, predict)
from .params import bind, bind_constants, map_leaves, named_leaves
from .tensor import (GradCheckReport, Tape, Tensor, add, as_tensor, check_gradients,
                     concat, fused_op, hadamard, matmul, relu, reshape, scale,
                     segment, sigmoid, stable_softmax, sub, tanh, total)
from .training import (AdamState, EpochRecord, EvaluationResult, TrainConfig,
                       TrainResult, adam_step, batch_gradients,
                       clip_global_norm, evaluate, mean_mse, mse_loss, train)
from .verify import (CheckResult, model_gradient_report, run_all_checks,
                     scalar_lstm_step, tiny_model_case)
