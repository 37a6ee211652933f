"""homebench: a desk-scale household agent benchmark.

Runs planner/executor episodes against a small simulated home, scores
trajectory logs (SR, PLWSR, TP, SRR, SER, error breakdowns), and builds
SFT/DPO training datasets from them.
"""

from .core import (
    ActionType,
    ErrorCategory,
    ErrorCode,
    Feedback,
    ModelCategory,
    ModelChoice,
    PlannerOutput,
    StepRecord,
    StepStatus,
    Subtask,
    Task,
    TaskAttribute,
    Trajectory,
    normalize_name,
    parse_task_file,
    parse_trajectory_log,
    serialize_trajectory,
)
from .loop import (
    EpisodeState,
    Instruction,
    assemble_instruction,
    parse_planner_output,
    run_benchmark,
    run_episode,
)
from .metrics import (
    build_report,
    compute_tp,
    count_replans,
    match_keypath,
)
from .sim import Scene, execute, load_scene, observe, resolve_target

__version__ = "0.1.0"
