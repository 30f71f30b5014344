"""Trace-driven simulator and policy laboratory for multi-sensor task offloading.

The package models a perception stack of N sensor pipelines that can ship the
tail of the i lowest-value pipelines to an edge server over a fading uplink,
and asks when doing so is worth the latency and accuracy risk.  It provides
the deterministic cost model, stochastic channel and server-queue models, a
synthetic scenario generator, a gym-style environment with a piecewise
penalty-based reward, a from-scratch double-DQN agent, baseline policies, and
batch evaluation utilities.  Everything is numpy-only and reproducible from
seeds.

The top level re-exports the API that the demos and the README use; the rest
is imported from its submodule (``offloadlab.scenario.realized_map``, ...).
"""

__version__ = "0.1.0"

from .agent import QNetwork, load_checkpoint
from .channel import ChannelModel, fit_rayleigh, sample_capacities
from .config import (
    channel_model,
    generator_params,
    parse_overrides,
    queue_model,
    resolve_config,
    reward_params,
    system_params,
    train_config,
)
from .cost import Action, SystemParams, cost_table, energy_local, latency_local, total_cost
from .env import OffloadEnv
from .metrics import evaluate
from .policies import make_policy
from .queueing import QueueModel, mean_delay_ms, queue_pmf, sample_delays
from .scenario import GeneratorParams, ScenarioTrace, generate_synthetic, load_trace, save_trace

__all__ = [
    "__version__",
    "Action",
    "ChannelModel",
    "GeneratorParams",
    "OffloadEnv",
    "QNetwork",
    "QueueModel",
    "ScenarioTrace",
    "SystemParams",
    "channel_model",
    "cost_table",
    "energy_local",
    "evaluate",
    "fit_rayleigh",
    "generate_synthetic",
    "generator_params",
    "latency_local",
    "load_checkpoint",
    "load_trace",
    "make_policy",
    "mean_delay_ms",
    "parse_overrides",
    "queue_model",
    "queue_pmf",
    "resolve_config",
    "reward_params",
    "sample_capacities",
    "sample_delays",
    "save_trace",
    "system_params",
    "total_cost",
    "train_config",
]
