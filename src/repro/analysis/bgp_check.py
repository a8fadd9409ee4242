"""BGP-policy artifact validator: Gao-Rexford consistency screening.

Validates the AS-relationship structure a generated (or imported)
network carries *before* BGP propagation runs. Coudert et al.'s
feasibility study of distributed BGP found policy-consistency errors to
dominate debugging time; these static checks catch the three classes
that matter here — asymmetric relationships, dangling AS references,
and provider-hierarchy cycles (the degenerate dispute wheel that voids
the Gao-Rexford convergence guarantee). Rule ids use ``BGP3xx``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .findings import Finding, Severity, format_findings

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..topology.models import ASDomain, Network

__all__ = ["BgpPolicyError", "check_bgp_policy", "validate_bgp_policy"]

_ARTIFACT = "<bgp-policy>"
_INVERSE = {"provider": "customer", "customer": "provider", "peer": "peer"}


class BgpPolicyError(ValueError):
    """Raised by :func:`validate_bgp_policy` when error findings exist."""

    def __init__(self, findings: list[Finding]) -> None:
        super().__init__("invalid BGP policy:\n" + format_findings(findings))
        self.findings = findings


def _finding(rule_id: str, message: str) -> Finding:
    return Finding(
        rule_id=rule_id,
        severity=Severity.ERROR,
        path=_ARTIFACT,
        line=0,
        col=0,
        message=message,
    )


def _relationship_sets(dom: "ASDomain") -> dict[str, set[int]]:
    return {"provider": dom.providers, "customer": dom.customers, "peer": dom.peers}


def _provider_cycles(domains: dict[int, "ASDomain"]) -> list[list[int]]:
    """Cycles in the customer->provider digraph (empty when hierarchical).

    A cycle ``a -> b -> ... -> a`` means each AS funds the next as its
    customer all the way around — economically impossible and exactly
    the structure that creates BGP disputes: a customer route through
    the cycle is always preferred (highest local-pref), so preference
    around the ring is circular (a dispute wheel). Iterative DFS with an
    explicit stack keeps deep hierarchies safe from recursion limits.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {a: WHITE for a in domains}
    cycles: list[list[int]] = []
    for start in sorted(domains):
        if color[start] != WHITE:
            continue
        stack: list[tuple[int, Iterable[int]]] = [
            (start, iter(sorted(domains[start].providers)))
        ]
        path = [start]
        color[start] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in domains:
                    continue  # dangling reference; reported by BGP302
                if color[nxt] == GRAY:
                    cycles.append(path[path.index(nxt):] + [nxt])
                elif color[nxt] == WHITE:
                    color[nxt] = GRAY
                    path.append(nxt)
                    stack.append((nxt, iter(sorted(domains[nxt].providers))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                path.pop()
                stack.pop()
    return cycles


def check_bgp_policy(domains: "dict[int, ASDomain] | Network") -> list[Finding]:
    """Validate AS relationships; accepts a Network or its domain dict.

    Checks (one rule id each):

    - ``BGP301`` relationship symmetry: if X lists Y as a customer, Y
      must list X as a provider (and peer links must be mutual),
    - ``BGP302`` unknown AS: a relationship, or (given a Network) a
      node, references an AS id with no domain (the class of error that
      used to surface as a bare ``KeyError`` in ``learned_relationship``,
      or as a plane that routes nothing between ASes),
    - ``BGP303`` overlapping roles: the same neighbor appears in two of
      providers/customers/peers,
    - ``BGP304`` provider-hierarchy cycle: the customer->provider digraph
      must be acyclic (static valley-free / dispute-wheel screening).
    """
    findings: list[Finding] = []
    if hasattr(domains, "as_domains"):
        net, domains = domains, domains.as_domains  # type: ignore[union-attr]
        for as_id in sorted({node.as_id for node in net.nodes} - set(domains)):
            findings.append(_finding("BGP302", f"nodes sit in unknown AS {as_id}"))

    for as_id in sorted(domains):
        dom = domains[as_id]
        sets = _relationship_sets(dom)
        for rel, members in sets.items():
            for nbr in sorted(members):
                if nbr == as_id:
                    findings.append(
                        _finding("BGP303", f"AS {as_id} lists itself as a {rel}")
                    )
                    continue
                other = domains.get(nbr)
                if other is None:
                    findings.append(
                        _finding(
                            "BGP302",
                            f"AS {as_id} lists unknown AS {nbr} as a {rel}",
                        )
                    )
                    continue
                expected = _INVERSE[rel]
                if as_id not in _relationship_sets(other)[expected]:
                    findings.append(
                        _finding(
                            "BGP301",
                            f"asymmetric relationship: AS {as_id} lists AS {nbr} "
                            f"as a {rel}, but AS {nbr} does not list AS {as_id} "
                            f"as a {expected}",
                        )
                    )
        for a, b in (("provider", "customer"), ("provider", "peer"), ("customer", "peer")):
            overlap = sets[a] & sets[b]
            for nbr in sorted(overlap):
                findings.append(
                    _finding(
                        "BGP303",
                        f"AS {as_id} lists AS {nbr} as both {a} and {b}",
                    )
                )

    for cycle in _provider_cycles(domains):
        findings.append(
            _finding(
                "BGP304",
                "provider-hierarchy cycle (dispute wheel): "
                + " -> ".join(f"AS {a}" for a in cycle),
            )
        )

    return findings


def validate_bgp_policy(domains: "dict[int, ASDomain] | Network") -> None:
    """Raise :class:`BgpPolicyError` on any error-severity finding."""
    findings = [f for f in check_bgp_policy(domains) if f.severity >= Severity.ERROR]
    if findings:
        raise BgpPolicyError(findings)
