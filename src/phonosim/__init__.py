"""Phonetic-convergence measurement with a Siamese recurrent network."""

from .corpus import (
    Manifest,
    PairExample,
    SpeakerTraits,
    SynthConfig,
    Utterance,
    build_condition_pairs,
    build_solo_pairs,
    effective_traits,
    generate_synthetic_corpus,
    load_manifest,
    save_manifest,
    speaker_traits,
    split_by_sentence,
)
from .dsp import (
    FeatureMatrix,
    FeatureStore,
    MfccConfig,
    Waveform,
    append_deltas,
    cmvn,
    compute_mfcc,
    load_audio,
    read_features,
    write_features,
)
from .errors import PhonosimError
from .net import (
    ModelDims,
    ModelParams,
    cosine_similarity,
    embed_utterance,
    init_params,
    load_checkpoint,
    parameter_count,
    rnn_forward,
    save_checkpoint,
    siamese_forward,
)
from .train import (
    MetricsReport,
    TrainConfig,
    TrainResult,
    adam_init,
    adam_step,
    backward,
    bce_loss,
    evaluate,
    gradient_check,
    metrics_from_scores,
    roc_auc,
)
from .analysis import (
    ConvergenceReport,
    PairTable,
    build_report,
    condition_summary,
    convergence_degree,
    cross_condition_pairs,
    emit_report,
    filter_scores,
    imitation_ability,
    min_max_normalize,
    pearson,
    score_pairs,
)

__version__ = "0.1.0"
