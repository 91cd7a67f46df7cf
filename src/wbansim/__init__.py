"""Body-area-network protocol stack: frame codec, polling MAC with ARQ,
bit-flip channel, star-topology simulator, link analytics, and a barrier
payload optimizer."""

__version__ = "0.1.0"

from .frames import (Frame, FrameHeader, FrameType, ack_frame, compute_crc16,
                     data_frame, decode_frame, encode_frame, management_frame)
from .mac import (Connection, Device, LinkHandle, Primitive, PrimitiveFamily,
                  PrimitiveKind, Role, TransmissionOutcome, establish_connection,
                  fragment_sdu, make_link, send_with_arq)
from .channel import ChannelModel, FrameCorruptor, ber_for_distance, preset
from .simulator import (ExperimentConfig, ExperimentResult, LinkCounters,
                        LinkResult, SweepRow, run_experiment, sweep)
from .analytics import (ack_length_term, data_length, fer, fer_analytic,
                        frame_corruption_probability, invert_fer_analytic,
                        per, retry_success_geometric, retry_success_paper)
from .optimizer import (OptimizeResult, barrier_gradient, barrier_objective,
                        epsilon_schedule, grid_search_fer, optimize_payload,
                        penalized_fer, penalized_fer_gradient)
