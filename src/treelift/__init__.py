"""Parity game solving with universal-tree labelings.

Strategy iteration for Odd over the leaves of a perfect, succinct, or
Strahler universal tree, with label-correcting and label-setting engines for
the 1-player least fixed points, plus a naive progress-measure baseline and
independent correctness oracles.
"""

from .errors import (FormatError, InvariantError, LiftBudgetExceeded,
                     TreeliftError, UsageError)
from .game import (EVEN, ODD, MeanPayoffGame, ParityGame, StrategySubgraph,
                   default_strategy, gen_random, gen_worstcase,
                   parse_pgsolver, strategy_subgraph, to_mean_payoff,
                   write_pgsolver)
from .labeling import (ArcStatus, NodeLabeling, arc_status, drop_arc,
                       is_feasible, lift_arc, progress_measure_solve)
from .one_player import (AuxiliaryDigraph, BaseNodeReport, Counters, bellman_ford,
                         build_auxiliary_digraph, compute_phi, dijkstra,
                         find_base_nodes, least_fixed_point_lc,
                         least_fixed_point_perfect, min_bottleneck_cycle_costs)
from .oracle import (NaiveRace, WinnerPartition, brute_raise, embed_check, naive_lfp,
                     zielonka_solve)
from .solver import (SolveResult, SwitchAll, SwitchFirst, SwitchRandom,
                     admissible_arcs, extract_even_strategy, pivot,
                     strategy_iteration_solve)
from .trees import (PERFECT, STRAHLER, SUCCINCT, TOP, TreeSpec, chain_info,
                    format_label, leaf_cmp, leaf_count, leaf_from_components,
                    min_leaf, min_leaf_below, raise_leaf, strip_zeros,
                    tighten_target, truncate, zeta)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
