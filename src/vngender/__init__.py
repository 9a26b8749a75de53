"""Gender prediction from Vietnamese full names.

Segments names into family / middle / given components, featurizes them as
count or TF-IDF vectors, trains six classical classifiers and a small LSTM,
evaluates with macro-averaged F1, runs the seven-way component ablation, and
serves predictions over HTTP.
"""

from .bundle import ModelBundle, bundle_predict, load_model, make_bundle, save_model
from .classical import (
    CLASSICAL_KINDS,
    KindSpec,
    fit_bernoulli_nb,
    fit_decision_tree,
    fit_linear_svm,
    fit_logistic_regression,
    fit_multinomial_nb,
    fit_random_forest,
    predict,
    train_classifier,
)
from .data_io import (
    Dataset,
    DatasetRecord,
    dataset_stats,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from .errors import ToolkitError
from .evaluation import (
    ModelSpec,
    SplitSpec,
    confusion,
    macro_metrics,
    run_ablation,
    run_experiment,
    stratified_split,
)
from .featurize import (
    LabeledMatrix,
    VectorizerConfig,
    Vocabulary,
    fit_vocabulary,
    transform,
)
from .lstm import (
    EmbeddingTable,
    LstmParams,
    LstmTrainConfig,
    Prediction,
    load_embeddings,
    lstm_forward,
    predict_lstm,
    train_lstm,
)
from .names_core import (
    ALL_MASKS,
    ComponentMask,
    NameComponents,
    normalize,
    parse_mask,
    segment,
    select_components,
)
from .service import make_server, serve

__version__ = "0.1.0"
