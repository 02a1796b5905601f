"""Sequential submodular optimization for product ranking.

Modules:

- core: instances, click models, exact engagement/revenue evaluation
- oracle: exact optima by a dynamic program over prefix sets, and
  exhaustive submodularity verification
- matroid: the prefix laminar matroid, continuous greedy, pipage rounding,
  independent sampling, contention resolution
- engagement: greedy ranking and the lift-optimize-extract pipeline
- policy: layer-probability policies, flow-based implementability
  certificates, policy sampling
- revenue: the explicit LP relaxation and the bi-criteria rounding pipeline
- coverage: interest-set model, assignment LP, dependent rounding
- numerics: dense two-phase simplex and max-flow kernels
- generators: random instances for the CLI and tests
- cli: `seqsub` command-line harness

The objective evaluators live in core (`core.engagement`, `core.revenue`)
to keep them distinct from the like-named algorithm modules.
"""

from . import (  # noqa: F401
    core,
    coverage,
    engagement,
    errors,
    generators,
    matroid,
    numerics,
    oracle,
    policy,
    revenue,
    util,
)
from .core import Instance  # noqa: F401
from .errors import SeqsubError  # noqa: F401

__version__ = "0.1.0"
