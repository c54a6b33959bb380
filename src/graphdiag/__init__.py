"""Graph-neural-network fault diagnosis toolkit."""

from .graph import Graph, from_edge_list, normalized_adjacency, permute
from .autodiff import Tensor, Parameter, grad_check
from .models import ModelSpec, default_spec
from .faultgen import ProcessSpec, FaultSpec, generate_dataset, generate_preset
from .graphbuild import (knn_graph, prior_partition_graph, gae_refine_graph,
                         feature_smoothness, label_smoothness, extract_features)
from .diagnose import (SplitSpec, split, train_node_level, train_graph_level,
                       learning_curve, DiagnosisReport)

__version__ = "0.1.0"
