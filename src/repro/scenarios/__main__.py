"""CLI: run one scenario end to end and print its fingerprint.

Exit status is 0 when every expected invariant held, 1 otherwise (and 2
for an unknown scenario name), so the command slots into shell checks:

    python -m repro.scenarios --list
    python -m repro.scenarios spot-churn-with-crashes
    python -m repro.scenarios baseline --json

With ``--json``, stdout carries exactly one JSON document (the
fingerprint) and the ``invariant <name>: ok|FAIL`` lines go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.scenarios.registry import SCENARIOS, scenario_names
from repro.scenarios.runner import run_scenario


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="Run a registered scenario and print its fingerprint.")
    parser.add_argument("name", nargs="?", help="scenario name (see --list)")
    parser.add_argument("--list", action="store_true",
                        help="list registered scenarios and exit")
    parser.add_argument("--json", action="store_true",
                        help="print the fingerprint as JSON")
    args = parser.parse_args(argv)

    if args.list or args.name is None:
        width = max(len(name) for name in SCENARIOS)
        for name in scenario_names():
            print(f"{name:<{width}}  {SCENARIOS[name].description}")
        return 0

    if args.name not in SCENARIOS:
        known = ", ".join(scenario_names())
        print(f"unknown scenario {args.name!r} (known: {known})",
              file=sys.stderr)
        return 2

    result = run_scenario(args.name)
    if args.json:
        print(json.dumps(result.fingerprint, indent=2, sort_keys=True))
    else:
        for key, value in result.fingerprint.items():
            print(f"{key}: {value}")
    invariant_stream = sys.stderr if args.json else sys.stdout
    for name in result.scenario.expected_invariants:
        print(f"invariant {name}: "
              + ("FAIL" if any(failure.startswith(f"{name}:")
                               for failure in result.invariant_failures)
                 else "ok"), file=invariant_stream)
    for failure in result.invariant_failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
