"""Edge knowledge-transfer simulator.

A shallow student detector on a user-end node adapts to a drifting scene by
distilling from a deep oracle; key frames are chosen by a Kalman-gated
binomial selector and weights travel over a simulated LAN/Wi-Fi channel
while an energy ledger tracks the cost.
"""

from .detection import (Box, DetectionTensorSet, MetricsReport, compute_metrics, decode_boxes,
                        iou, nms)
from .harness import (EnergyLedger, RunReport, compare, emit_report, run_named_scenario,
                      run_scenario, scenario_config)
from .models import (DecoderWeights, ModelConfig, OracleModel, Precision, StudentModel,
                     adapt_decoder, distill_loss, swap_decoder)
from .netproto import (Ack, ChannelConfig, FrameUpload, ProtocolError, SimulatedChannel,
                       WeightUpdate, decode_message, encode_message, lan_config,
                       wifi_config, zero_cost_config)
from .runtime import EdgeNode, Mode, ScenarioConfig
from .scenegen import SceneScript, SceneStream, fixed_cam_default, moving_cam_default
from .selector import KalmanState, KeyFrameSelector, kalman_update, scene_change_statistic
from .tensor import AdamState, Tensor, adam_step, f16_decode, f16_encode, l2_sq_distance

__version__ = "0.1.0"
