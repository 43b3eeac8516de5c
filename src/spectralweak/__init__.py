"""Weakly supervised classification via spectral graph grouping of bagged instances.

scipy is imported inside the functions that call it, never at module level,
so importing the package loads numpy and the standard library only, and a
command loads only the scipy it computes with:

* no scipy for a command that builds no graph and runs no kNN vote
  (`train`, logistic or QDA `evaluate`, `--help`, a flag, config or CSV
  error);
* scipy.linalg (LAPACK eigh) for `group` on the epsilon, fully connected and
  probabilistic models, whose distances dataset.pairwise_distances computes
  in numpy; `graph` on them loads scipy.sparse (components, graph.json);
* scipy.spatial only for kNN graphs (cKDTree, cdist on widened rows and in
  the default sigma's passes, with scipy.sparse for their CSR weights and
  ARPACK) and for the kNN classifier's vote (cdist).
"""

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
)
from .spectral import (
    Grouping,
    SpectralEmbedding,
    kmeans,
    smallest_k_eigenvectors,
    spectral_grouping,
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
