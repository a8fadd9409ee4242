"""Static analysis (``simlint``): code lints and artifact validators.

Two halves behind one CLI (``python -m repro lint``):

1. **Code lints** — an AST rule framework with simulator-specific rules
   (unseeded RNG, wall-clock reads, mutable default arguments,
   ``schedule()`` without node attribution). See
   :mod:`repro.analysis.rules_determinism` and
   :mod:`repro.analysis.rules_simulation`. The SIM2xx family
   (:mod:`repro.analysis.rules_parallel`) is *whole-program*: it runs
   over a symbol table (:mod:`repro.analysis.symbols`), a conservative
   call graph (:mod:`repro.analysis.callgraph`), and LP-execution
   reachability (:mod:`repro.analysis.reachability`), gating the
   multi-process backend. SARIF export lives in
   :mod:`repro.analysis.export`.
2. **Artifact validators** — invariant checks over generated artifacts:
   topologies (:mod:`repro.analysis.topology_check`), AS relationship /
   BGP policy structure (:mod:`repro.analysis.bgp_check`), and partition
   assignments (:mod:`repro.analysis.partition_check`). Construction
   boundaries (maBrite, BGP configuration, hierarchical partitioning)
   call the validators so a bad artifact fails loudly at build time
   instead of producing silently wrong results.

Both halves report through the shared :class:`repro.analysis.Finding`
model, so CI can gate on one JSON document.
"""

from .astlint import lint_paths_program, lint_source, lint_sources
from .bgp_check import BgpPolicyError, check_bgp_policy, validate_bgp_policy
from .callgraph import CallGraph, build_call_graph
from .export import findings_to_sarif, write_sarif
from .findings import Finding, Severity, findings_to_json, format_findings
from .partition_check import (
    PartitionValidationError,
    check_partition,
    validate_partition,
)
from .reachability import ProgramContext, build_program_context
from .rules import LintRule, ModuleContext, all_rules, rule
from .symbols import ProgramIndex
from .topology_check import TopologyValidationError, check_topology, validate_topology

__all__ = [
    "Finding",
    "Severity",
    "LintRule",
    "ModuleContext",
    "rule",
    "all_rules",
    "lint_source",
    "lint_sources",
    "lint_paths_program",
    "ProgramIndex",
    "CallGraph",
    "build_call_graph",
    "ProgramContext",
    "build_program_context",
    "findings_to_sarif",
    "write_sarif",
    "format_findings",
    "findings_to_json",
    "check_topology",
    "validate_topology",
    "TopologyValidationError",
    "check_bgp_policy",
    "validate_bgp_policy",
    "BgpPolicyError",
    "check_partition",
    "validate_partition",
    "PartitionValidationError",
]
