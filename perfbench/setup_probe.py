"""Time getting ready to simulate, in a fresh process.

Usage: python3 perfbench/setup_probe.py WORKLOAD N_STEPS

Times ``import switchmc`` and then ``load_problem``, ``validate``,
``solve_riccati`` and ``build_quadrature`` on the workload's problem, and
prints the times as one JSON object.  Nothing is imported before the timed
``import switchmc``, so the import time includes numpy and scipy.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(workload: str, n_steps: int) -> dict:
    sys.path.insert(0, str(HERE.parent / "src"))
    times = {}
    start = time.perf_counter()
    import switchmc

    times["switchmc.import_s"] = time.perf_counter() - start

    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    problem = WORKLOADS[workload].problem()
    problem["n_steps"] = n_steps

    def timed(name, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        times[name] = time.perf_counter() - start
        return result

    model, modes = timed("model.load_problem_s", switchmc.load_problem, problem)
    report = timed("model.validate_s", switchmc.validate, model, modes, model.grid)
    if not report.ok:
        raise RuntimeError(str(report))
    timed("filtering.solve_riccati_s", switchmc.solve_riccati, model, model.grid)
    timed("filtering.build_quadrature_s", switchmc.build_quadrature, model.n1, 16)
    times["setup_s"] = sum(times.values())
    return times


if __name__ == "__main__":
    import json

    print(json.dumps(main(sys.argv[1], int(sys.argv[2]))))
