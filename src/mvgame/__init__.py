"""Two-agent exploratory mean-variance investment game.

Closed-form time-consistent Nash equilibria under a Gaussian mean-return
market, distortion-based exploration regularizers, policy-iteration engines
with certified convergence envelopes, and a model-free actor-critic learner.
"""

from . import choquet, config, equilibrium, market, policy_iter, rl
from .choquet import (Distortion, QuantilePolicy, build_optimal_quantile,
                      make_distortion_gini, make_distortion_normal, phi_h)
from .config import ExperimentConfig, parse_config, serialize_config
from .equilibrium import (CoefficientSet, EquilibriumPolicy, equilibrium_means,
                          equilibrium_policy, solve_coefficients, value_functions)
from .market import (AgentParams, MarketParams, SimConfig, Trajectory,
                     estimate_objective, simulate_game)
from .rl import CriticParams, TrainConfig, train

__version__ = "0.1.0"
