"""Weakly supervised classification via spectral graph grouping of bagged instances."""

from .dataset import (
    CsvSchema,
    Dataset,
    DistanceMatrix,
    load_csv,
    pairwise_distances,
    standardize,
)
from .errors import SpectralWeakError
from .evaluation import (
    GridSpec,
    GridSearchResult,
    IndexValue,
    davies_bouldin,
    f1_score,
    grid_search,
    pair_confusion,
)
from .simgraph import (
    GraphParams,
    GraphSpec,
    InitialSimilarities,
    SimilarityGraph,
    build_graph,
    connected_components,
    epsilon_graph,
    fully_connected_gaussian,
    initial_similarities,
    knn_graph,
    prob_criterion_graph,
    prob_threshold_graph,
    symmetrize,
)
from .spectral import (
    Grouping,
    SpectralEmbedding,
    degree_matrix,
    kmeans,
    smallest_k_eigenvectors,
    spectral_grouping,
    unnormalized_laplacian,
)
from .weakanno import (
    AnnotatedTrainingSet,
    SynthBags,
    SynthBagsConfig,
    annotate_groups,
    build_training_set,
    collect_unlabelled,
    synth_bags,
)
from .classify import (
    CLASSIFIERS,
    AggregationRule,
    CVResult,
    fully_supervised_baseline,
    instance_labels,
    leave_one_bag_out_cv,
    predict,
    predict_proba,
    train,
    train_knn,
    train_logistic,
    train_qda,
)
from .bench import (
    BenchCheck,
    BenchReport,
    fetch_instructions,
    load_dataset_a,
    run_suite,
)

__version__ = "0.1.0"
