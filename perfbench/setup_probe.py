"""Set-up probe: what a fresh process pays before any oracle or simulator call.

    python perfbench/setup_probe.py maxcut:data/p3.graph cnf:data/example.cnf ...

Imports the gmqaoa CLI (and with it every layer, as a report does), then
for each problem builds the objective table, the uniform initial state,
the spectrum and the per-level decomposition.  The caller times the
process from spawn to exit.
"""

from __future__ import annotations

import sys


def main(specs: list[str]) -> int:
    from gmqaoa import cli  # noqa: F401  (import cost is part of set-up)
    from gmqaoa.core import build_spectrum, decompose_initial_state, uniform_state
    from gmqaoa.problems import cnf_objective, maxcut_objective, parse_cnf, parse_graph

    builders = {
        "maxcut": lambda text: maxcut_objective(parse_graph(text)),
        "cnf": lambda text: cnf_objective(parse_cnf(text)),
    }
    for spec in specs:
        kind, path = spec.split(":", 1)
        with open(path, encoding="utf-8") as fh:
            table = builders[kind](fh.read())
        state = uniform_state(table.n, table.q)
        decompose_initial_state(state, build_spectrum(table))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
