"""Anti-transfer learning for convolutional networks.

Penalizes similarity between a network's conv-layer representations and those
of a network pre-trained on an orthogonal task, so the trained model becomes
invariant to factors the orthogonal task captures (speaker identity, noise
type, ...). Ships a small deterministic compute kernel, an audio spectrogram
frontend, a synthetic two-factor dataset generator, training strategies with
ablations, Grad-CAM inspection, and a CLI.
"""

from .layers import LayerSpec, ShapeError, NonFiniteError
from .network import (ArchConfig, Network, build, conv_feature_shapes, preset,
                      vgg16, vgg_tiny)
from .optim import Adam
from .losses import (ATConfig, MemoryEstimate, aggregate, at_loss_and_grad,
                     cross_entropy_and_grad, estimate_memory, gram, similarity)
from .checkpoint import (CheckpointError, CorruptFileError,
                         FingerprintMismatchError, VersionMismatchError,
                         init_from, load, save)
from .audio import (AudioClip, NormStats, Spectrogram, compute_norm_stats,
                    normalize, preprocess_clip, read_wav, resample,
                    segment_or_pad, stft_magnitude, write_wav)
from .data import (Dataset, load_dataset, load_split_dir, read_manifest,
                   split_class_wise, split_manifest, split_random,
                   write_manifest)
from .synth import SynthSpec, cramers_v, generate, render
from .training import (EpochMetrics, TrainConfig, TrainResult, evaluate,
                       sweep, sweep_points, train, TrainingDivergedError)
from .gradcam import Heatmap, gradcam, read_pgm, render as render_heatmap, write_pgm
from .gradcheck import GradCheckReport, gradcheck, run_oracle_suite

__version__ = "0.1.0"
