"""panda-lint: project-specific static analysis + race detection.

Three passes, all specific to this repo's load-bearing invariant
(bit-identical simulated timings over the Panda message protocol):

- :mod:`repro.analysis.determinism` -- AST lints for nondeterminism
  hazards in sim-visible code (PL001-PL006);
- :mod:`repro.analysis.hotpath` -- locals-only contract for the
  engine's batched dispatch loop (PL007);
- :mod:`repro.analysis.protocol_check` -- every send/recv site checked
  against the protocol table (PL101-PL104);
- :mod:`repro.analysis.race` -- dynamic schedule-perturbation detector
  for order-dependence the static passes cannot see.

:func:`run_lint` composes the static passes with the
``pyproject.toml`` allowlist; the CLI
(``python -m repro lint`` / ``python -m repro race``) is a thin shell
around this module.  See DESIGN.md section 12 for the rule catalogue.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List

from repro.analysis.findings import (
    RULES,
    Finding,
    apply_allowlist,
    load_allowlist,
)

__all__ = ["LintResult", "RULES", "Finding", "run_lint"]


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: List[Finding]  #: kept (unsuppressed) findings
    suppressed: List[Finding]  #: findings matched by allowlist entries

    @property
    def ok(self) -> bool:
        return not self.findings

    def lines(self) -> List[str]:
        out = [f.format() for f in self.findings]
        out.append(
            f"panda-lint: {len(self.findings)} finding(s), "
            f"{len(self.suppressed)} suppressed by allowlist"
        )
        return out

    def as_json(self) -> dict:
        return {
            "ok": self.ok,
            "rules": RULES,
            "findings": [f.as_json() for f in self.findings],
            "suppressed": [f.as_json() for f in self.suppressed],
        }


def run_lint(root: Path) -> LintResult:
    """Run both static passes over the tree at ``root`` and apply the
    ``[tool.panda-lint]`` allowlist."""
    from repro.analysis.determinism import lint_tree
    from repro.analysis.hotpath import check_engine
    from repro.analysis.protocol_check import check_tree

    findings = lint_tree(root)
    findings.extend(check_tree(root).findings)
    findings.extend(check_engine(root))
    pyproject = root / "pyproject.toml"
    entries, problems = load_allowlist(pyproject)
    kept, suppressed = apply_allowlist(findings, entries, pyproject.name)
    kept.extend(problems)
    kept.sort(key=lambda f: (f.path, f.line, f.rule))
    return LintResult(kept, suppressed)
