"""CLI: tune CSMA/DDCR tree parameters for an HRTDM instance.

The feasibility conditions depend on the protocol configuration — the
time tree's (F, m), the class width c, and (via the problem) the static
tree.  This tool searches a candidate grid for the configuration that
maximises the binding class's slack, i.e. the most robust provably-correct
dimensioning:

    python -m repro.tools.tune instance.json
    python -m repro.tools.tune instance.json --medium atm-bus

Reports the top configurations and the slack landscape; exit status 2 when
*no* candidate is feasible.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

from repro.analysis.report import format_table
from repro.core.feasibility import TreeParameters, check_feasibility
from repro.model.problem import HRTDMProblem
from repro.model.serialize import load_problem
from repro.net.phy import MEDIA, MediumProfile

__all__ = ["TuneOutcome", "tune", "main"]

_MS = 1_000_000

#: Candidate time trees: (F, m) with F a power of m.
CANDIDATE_TREES: tuple[tuple[int, int], ...] = (
    (16, 2),
    (16, 4),
    (64, 2),
    (64, 4),
    (64, 8),
    (256, 2),
    (256, 4),
    (1024, 4),
)

#: Class-width factors: c = factor * max_deadline / F (clamped to >= slot).
CANDIDATE_WIDTH_FACTORS: tuple[float, ...] = (1.0, 2.0, 4.0)


@dataclasses.dataclass(frozen=True)
class TuneOutcome:
    """One evaluated configuration."""

    time_f: int
    time_m: int
    class_width: int
    feasible: bool
    worst_slack: float
    binding_class: str

    @property
    def horizon(self) -> int:
        return self.time_f * self.class_width


def tune(
    problem: HRTDMProblem, medium: MediumProfile
) -> list[TuneOutcome]:
    """Evaluate the candidate grid, best (most slack) first.

    The class width enters the FCs only through the protocol's runtime
    behaviour, not the bound formulas, but it determines the scheduling
    horizon c*F which must cover the deadlines — candidates whose horizon
    falls short of the largest deadline are marked infeasible here even
    when B_DDCR alone would pass (the protocol would depend on compressed
    time for every message).
    """
    max_deadline = max(cls.deadline for cls in problem.all_classes())
    outcomes: list[TuneOutcome] = []
    seen: set[tuple[int, int, int]] = set()
    for time_f, time_m in CANDIDATE_TREES:
        trees = TreeParameters(
            time_f=time_f,
            time_m=time_m,
            static_q=problem.static_q,
            static_m=problem.static_m,
        )
        report = check_feasibility(problem, medium, trees)
        for factor in CANDIDATE_WIDTH_FACTORS:
            class_width = max(
                medium.slot_time,
                math.ceil(factor * max_deadline / time_f),
            )
            key = (time_f, time_m, class_width)
            if key in seen:
                continue
            seen.add(key)
            covers = class_width * time_f >= max_deadline
            outcomes.append(
                TuneOutcome(
                    time_f=time_f,
                    time_m=time_m,
                    class_width=class_width,
                    feasible=report.feasible and covers,
                    worst_slack=report.worst.slack,
                    binding_class=report.worst.class_name,
                )
            )
    outcomes.sort(
        key=lambda o: (not o.feasible, -o.worst_slack, o.horizon)
    )
    return outcomes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.tune",
        description="Search CSMA/DDCR tree parameters maximising FC slack.",
    )
    parser.add_argument("instance", help="JSON instance file")
    parser.add_argument(
        "--medium",
        choices=sorted(MEDIA),
        default="gigabit-ethernet",
    )
    parser.add_argument(
        "--top", type=int, default=8, help="configurations to print"
    )
    args = parser.parse_args(argv)
    try:
        problem = load_problem(args.instance)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    outcomes = tune(problem, MEDIA[args.medium])
    rows = [
        [
            outcome.time_f,
            outcome.time_m,
            outcome.class_width,
            round(outcome.horizon / _MS, 3),
            "yes" if outcome.feasible else "no",
            round(outcome.worst_slack / _MS, 3),
            outcome.binding_class,
        ]
        for outcome in outcomes[: args.top]
    ]
    print(
        format_table(
            ["F", "m", "c (bits)", "horizon (ms)", "feasible",
             "slack (ms)", "binding class"],
            rows,
            title=f"Top configurations on {args.medium}",
        )
    )
    best = outcomes[0]
    if not best.feasible:
        print("\nno candidate configuration is feasible")
        return 2
    print(
        f"\nrecommended: F={best.time_f}, m={best.time_m}, "
        f"c={best.class_width} bits "
        f"(horizon {best.horizon / _MS:.2f} ms, "
        f"slack {best.worst_slack / _MS:.2f} ms on "
        f"{best.binding_class})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
