"""outlinecheck: a proof-outline checker for inductive theorems.

Small certificates — decide and unfold budgets, lemma lists, lemma trees —
are elaborated into full focused-sequent-calculus proofs over least
fixed-point definitions, with every accepted proof backed by a replayable
trace.
"""

from .fpc import Certificate, FpcDefinition
from .frontend import (
    ElabError, ParseError, TheoremFile, TheoremResult, elaborate, parse_file,
    run_session,
)
from .kernel import (
    Accepted, CheckResult, OutOfBudget, Rejected, ResourceLimits, check,
)
from .oracle import UNKNOWN, eval_ground
from .outline import (
    OUTLINE_FPC, OutlineError, OutlineFpc, OutlineState, initial_state,
    parse_outline,
)
from .replay import ReplayError, explain_failure, verify_trace
from .syntax import (
    FF, SELF, TT, All, And, App, Bound, Definition, EVar, Eq, Ex, Ff,
    Formula, Hyp, Imp, Index, InvariantAbs, LemmaName, MVar, MuAtom, Or,
    StructuralError, Term, TraceFormatError, Tt, con, open_binder, sym,
    synthesize_obvious_invariants, unfold_mu,
)
from .trace import TraceNode, count_rule, trace_from_lines, trace_to_lines
from .unify import CLASH, OK, STUCK, BindingStore, StaleCheckpointError

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
