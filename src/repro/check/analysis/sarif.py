"""Minimal SARIF 2.1.0 serialization for ``repro lint --sarif``.

Only the subset CI artifact viewers need: one run, the MOB rule metadata,
and one result per finding with a physical location.  The output is
deterministic (sorted rules, findings in report order) so the uploaded
artifact diffs cleanly between runs.
"""

from __future__ import annotations

import json

from repro.check.findings import CheckReport, Finding

__all__ = ["to_sarif", "RULE_DESCRIPTIONS"]

_TOOL_NAME = "repro-lint"
_SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

RULE_DESCRIPTIONS: dict[str, str] = {
    "MOB000": "File is not analyzable (syntax error or undecodable bytes).",
    "MOB001": "Dataclass reaching repro.perf.fingerprint must be frozen=True "
    "or registered in the mutable allowlist.",
    "MOB002": "Hot-path modules must not read wall clocks or draw unseeded "
    "randomness; strict-clock modules ban all clock reads outside "
    "allowlisted reporting sites.",
    "MOB003": "Task labels must come from repro.core.labels constructors or "
    "match its compiled patterns.",
    "MOB004": "Functions reachable from the simulator/planner hot loops must "
    "be transitively clock- and RNG-free.",
    "MOB005": "Unordered set iteration on a hot path must not feed heap "
    "pushes, trace appends, fingerprints, or accumulation.",
    "MOB006": "Objects must not be mutated after flowing into "
    "repro.perf.fingerprint.",
    "MOB007": "Module-level mutable state written from parallel-worker-"
    "reachable functions must go through a documented "
    "synchronization seam.",
}


def _result(finding: Finding) -> dict:
    subject = finding.subject or ""
    path, _, line = subject.rpartition(":")
    region: dict = {}
    if line.isdigit():
        region = {"startLine": max(int(line), 1)}
    else:
        path = subject
    result = {
        "ruleId": finding.code,
        "level": "error" if finding.severity == "error" else "warning",
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": path or "unknown"},
                    **({"region": region} if region else {}),
                }
            }
        ],
    }
    if finding.symbol:
        result["properties"] = {"symbol": finding.symbol}
    return result


def to_sarif(report: CheckReport, *, indent: int | None = 2) -> str:
    """Serialize a report as a SARIF 2.1.0 JSON document."""
    codes = sorted({f.code for f in report} | set(RULE_DESCRIPTIONS))
    rules = [
        {
            "id": code,
            "shortDescription": {
                "text": RULE_DESCRIPTIONS.get(code, "repro-specific rule")
            },
        }
        for code in codes
    ]
    document = {
        "$schema": _SARIF_SCHEMA,
        "version": _SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": _TOOL_NAME,
                        "informationUri": "https://github.com/mobius-repro",
                        "rules": rules,
                    }
                },
                "results": [_result(f) for f in report],
            }
        ],
    }
    return json.dumps(document, indent=indent)
