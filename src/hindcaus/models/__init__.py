"""Learnable components: encoders, masked transition model, reward head."""

from __future__ import annotations

from dataclasses import dataclass

from ..env.config import EnvConfig
from .encoders import ENCODER_VARIANTS, BatchEncoding, HiddenEncoder
from .store import ParameterStore, ParamFactory, load_checkpoint, save_checkpoint
from .transition import MaskedTransition, RewardHead, hidden_stack, input_indices

__all__ = [
    "ENCODER_VARIANTS",
    "BatchEncoding",
    "HiddenEncoder",
    "MaskedTransition",
    "ModelBundle",
    "ModelHyper",
    "ParameterStore",
    "ParamFactory",
    "RewardHead",
    "build_models",
    "hidden_stack",
    "input_indices",
    "load_checkpoint",
    "save_checkpoint",
]


@dataclass
class ModelHyper:
    hidden_dim: int = 64
    embed_dim: int = 16


@dataclass
class ModelBundle:
    env: EnvConfig
    store: ParameterStore
    encoder: HiddenEncoder  # phi
    encoder_target: HiddenEncoder  # phi_bar
    transition: MaskedTransition  # theta_o + theta_h
    reward: RewardHead  # psi

    def sync_target(self) -> None:
        self.store.sync_target()


def build_models(
    env: EnvConfig, variant: str, seed: int, hyper: ModelHyper | None = None
) -> ModelBundle:
    """Construct all networks with seeded init and phi_bar synced to phi."""
    hyper = hyper or ModelHyper()
    store = ParameterStore()

    def enc(group: str) -> HiddenEncoder:
        return HiddenEncoder(
            variant,
            env,
            ParamFactory(store, group, seed),
            hidden_dim=hyper.hidden_dim,
        )

    encoder = enc("phi")
    encoder_target = enc("phi_bar")
    transition = MaskedTransition(
        env,
        ParamFactory(store, "theta_o", seed),
        ParamFactory(store, "theta_h", seed),
        feat_dim=hyper.hidden_dim,
        embed_dim=hyper.embed_dim,
    )
    reward = RewardHead(env, ParamFactory(store, "psi", seed), hidden_dim=hyper.hidden_dim)
    bundle = ModelBundle(
        env=env,
        store=store,
        encoder=encoder,
        encoder_target=encoder_target,
        transition=transition,
        reward=reward,
    )
    bundle.sync_target()
    return bundle
