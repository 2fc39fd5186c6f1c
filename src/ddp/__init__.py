"""Data-driven prognosis for multi-dimensional time-series data-bursts.

The pipeline normalizes pairwise margins within each frame, aggregates
them into Borda counts and objective ranks, solves for dimensionless
length-scale roots, converts Borda changes into local curvature, grades
every point into stability categories, coarsens frames level by level to
measure residual curvature, estimates critical chain lengths, and raises a
global transition indicator when a super-critical unstable chain meets a
collapse of the energy exchange rate.
"""

from .config import DIMENSION_NAMES_4D, PipelineConfig
from .curvature import (
    Chain,
    detect_chains,
    escalate_chain_categories,
    update_thresholds,
)
from .errors import (
    ConfigError,
    ContractViolation,
    DdpError,
    GroupUnavailable,
    ParseError,
    TruncationError,
    ValidationError,
)
from .ingest import (
    DataBurst,
    Dataset,
    Injection,
    SubjectMeta,
    emit_xyzm,
    parse_xyzm,
    parse_xyzm_files,
    prescale_burst,
    synthesize,
)
from .lengthscale import (
    Convergence,
    LengthScaleRoots,
    solve_roots,
)
from .normalization import (
    NormalizedField,
    build_field,
    pair_margins,
)
from .pipeline import AnalysisResult, analyze_dataset, analyze_subject
from .ranking import BordaState, borda_state, delta_borda, objective_ranks
from .report import (
    BoxplotStats,
    FrameResult,
    GroupStats,
    SubjectReport,
    boxplot_stats,
    emit,
    energy_exchange_amplitude,
    group_stats,
    percent_change,
)
from .zoomout import (
    GtiRecord,
    ResidualCurvatureRecord,
    SubjectZoom,
    ZoomProfile,
    aggregate,
    critical_chain_lengths,
    gti,
    residual_curvature,
    zoom_profile,
)

__version__ = "0.1.0"
