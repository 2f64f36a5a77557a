"""PAR001 — lane pairs keep their signatures in agreement.

LANE002 guarantees each ``streaming=`` lane *exists* and is
*exercised* by the parity test.  It does not stop the signatures
from drifting apart: a fast lane that renames a parameter, or slips a
new one in front of the shared ones, still imports, still passes its
own tests — and the dispatcher, which forwards one argument tuple to
whichever lane is selected, starts binding values to the wrong names.
That is exactly the failure mode parity testing cannot see when the
drift happens to be value-compatible.

PAR001 works on the symbol table: module-level functions matching
``<stem>_scalar`` / ``<stem>_fast`` / ``<stem>_streaming`` (leading
underscore or not) form a *lane group*.  The first lane present in
scalar → fast → streaming order is the reference; every other lane
must satisfy two properties against it:

* **shared order** — parameters common to both lanes appear in the
  same relative order;
* **tail rule** — parameters unique to the lane (its legitimate
  extras, e.g. a streaming lane's ``ingest_config``) come *after*
  every shared parameter, so positional call sites written against
  the reference stay valid.

The reference lane itself is exempt from the tail rule: its unique
trailing parameters are, by construction, behind the shared prefix of
any compliant sibling.
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, List, Tuple

from repro.lint.findings import Finding
from repro.lint.graph import CallGraph, FunctionInfo, GraphRule

#: Canonical lane order; the first present lane is the reference.
LANE_ORDER: Tuple[str, ...] = ("scalar", "fast", "streaming")

_LANE_RE = re.compile(r"^(?P<stem>_?[A-Za-z0-9_]+?)_(?P<lane>scalar|fast|streaming)$")


def lane_groups(graph: CallGraph) -> Dict[Tuple[str, str], Dict[str, FunctionInfo]]:
    """``(module, stem) -> {lane: info}`` for module-level lane trios."""
    groups: Dict[Tuple[str, str], Dict[str, FunctionInfo]] = {}
    for info in graph.functions.values():
        if info.cls is not None or "." in info.qualname[len(info.module) + 1 :]:
            continue
        match = _LANE_RE.match(info.name)
        if match is None:
            continue
        key = (info.module, match.group("stem"))
        groups.setdefault(key, {})[match.group("lane")] = info
    return {key: lanes for key, lanes in groups.items() if len(lanes) >= 2}


def _shared_order_violation(
    reference: List[str], candidate: List[str]
) -> Tuple[str, str] | None:
    """First shared-parameter pair whose relative order flips, if any."""
    ref_pos = {name: i for i, name in enumerate(reference)}
    shared = [name for name in candidate if name in ref_pos]
    for earlier, later in zip(shared, shared[1:]):
        if ref_pos[earlier] > ref_pos[later]:
            return earlier, later
    return None


def _tail_violation(reference: List[str], candidate: List[str]) -> str | None:
    """A lane-unique parameter placed before a shared one, if any."""
    ref_names = set(reference)
    seen_unique: str | None = None
    for name in candidate:
        if name not in ref_names:
            seen_unique = name
        elif seen_unique is not None:
            return seen_unique
    return None


class LaneSignatureRule(GraphRule):
    """PAR001: lane-pair signatures agree up to trailing extras."""

    rule_id = "PAR001"
    name = "lane-signature"
    description = (
        "fast=/streaming= lane pairs must keep parameter lists in "
        "sync: shared parameters in the same order, lane-specific "
        "extras only at the tail"
    )

    def check_graph(self, graph: CallGraph) -> Iterator[Finding]:
        groups = lane_groups(graph)
        for (module, stem) in sorted(groups):
            lanes = groups[(module, stem)]
            present = [lane for lane in LANE_ORDER if lane in lanes]
            if len(present) < 2:
                continue
            reference = lanes[present[0]]
            ref_params = [p for p in reference.params if p not in ("self", "cls")]
            for lane in present[1:]:
                info = lanes[lane]
                params = [p for p in info.params if p not in ("self", "cls")]
                flipped = _shared_order_violation(ref_params, params)
                if flipped is not None:
                    earlier, later = flipped
                    yield self.graph_finding(
                        info,
                        f"lane signature drift: '{info.name}' orders "
                        f"shared parameters ({earlier!r} before {later!r}) "
                        f"differently from reference lane "
                        f"'{reference.name}'; positional dispatch through "
                        "the lane selector would bind them crosswise",
                    )
                    continue
                stray = _tail_violation(ref_params, params)
                if stray is not None:
                    yield self.graph_finding(
                        info,
                        f"lane signature drift: '{info.name}' places "
                        f"lane-specific parameter {stray!r} before "
                        f"parameters shared with reference lane "
                        f"'{reference.name}'; lane extras must trail the "
                        "shared signature",
                    )
