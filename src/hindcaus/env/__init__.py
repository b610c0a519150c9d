"""Modulo factored-POMDP environment, datasets, and enumeration oracles."""

from .config import EnvConfig, config_hash
from .dataset import (
    Dataset,
    TrainBatch,
    generate_dataset,
    load_dataset,
    save_dataset,
    stack_episodes,
)
from .modulo import (
    Episode,
    PropertyReport,
    action_allowed,
    action_options,
    check_rows,
    cmi_masks,
    enumerate_states,
    ground_truth_graph,
    reward,
    rollout,
    step,
    verify_properties,
)
from .oracle import TabularTransitionModel, enumeration_cmi, noise_entropy

__all__ = [
    "Dataset",
    "EnvConfig",
    "Episode",
    "PropertyReport",
    "TabularTransitionModel",
    "TrainBatch",
    "action_allowed",
    "action_options",
    "check_rows",
    "cmi_masks",
    "config_hash",
    "enumerate_states",
    "enumeration_cmi",
    "generate_dataset",
    "ground_truth_graph",
    "load_dataset",
    "noise_entropy",
    "reward",
    "rollout",
    "save_dataset",
    "stack_episodes",
    "step",
    "verify_properties",
]
