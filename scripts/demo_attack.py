#!/usr/bin/env python3
"""Run the suppression attack against the plain and the expiring protocol
side by side and print the oracle verdicts."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sleepy_tob.cli import load_scenario, run_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def main() -> int:
    for name in ("prop1_baseline", "prop1_expiring"):
        scenario = load_scenario(SCENARIOS / f"{name}.json")
        trace, report = run_scenario(scenario)
        print(f"=== {name} (eta={scenario.eta}, window=[{scenario.r_a + 1}, {scenario.r_a + scenario.pi}]) ===")
        for key, rep in sorted(report["oracles"].items()):
            if key == "ga_properties":
                print(f"  {key:<18} {len(rep['failures'])} failures over {rep['rounds_checked']} rounds")
            else:
                print(f"  {key:<18} {rep['verdict']}")
        decides = trace.decide_events()
        print(f"  decisions: {sum(len(e.pids) for e in decides)}, "
              f"latest log: {decides[-1].log if decides else None}")
        print(f"  exit code: {report['exit_code']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
