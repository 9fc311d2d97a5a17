"""pitwo: a dual-semantics workbench for a finite pi-calculus.

One calculus, two semantics: a classical reduction semantics on terms and a
diagrammatic rewriting semantics on typed port-graphs, with exhaustive
desk-scale checks that the two agree (reduction steps, observables, and
bisimilarity verdicts), including the permit-token mechanism that gates
diagram rewrites.
"""

from .syntax import (
    Hole,
    Input,
    Name,
    New,
    Output,
    Par,
    ParseError,
    Process,
    Stop,
    alpha_eq,
    all_names,
    free_names,
    fresh_name,
    parse,
    pretty,
    substitute,
)
from .congruence import canonical_form, congruent
from .opsem import (
    LTS,
    Redex,
    StateBudgetError,
    find_redexes,
    fire,
    reachable,
    reduce_step,
    reduce_step_detailed,
)
from .bisim import barbs, bisimilar, bisimilarity_verdict, blocks, partition_refine
from .diagram import Diagram, apply_ev, compose, curry, equal, normalize, tensor
from .translate import (
    DiagramContext,
    TopDiagram,
    plug_diagram,
    plug_term,
    seal,
    top_equal,
    translate,
    translate_context,
    translate_top,
)
from .rewrite import (
    DiagramRedex,
    apply_comm,
    apply_concurrent,
    comm_step,
    concurrent_step,
    find_diagram_redexes,
)
from .harness import (
    DESK_SPEC,
    CorpusSpec,
    VerificationReport,
    enumerate_terms,
    semantic_barbs,
    verify_contextual_congruence,
    verify_full_abstraction,
    verify_observation_lemma,
    verify_reduction_lemma,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
