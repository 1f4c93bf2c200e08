"""Record the SVR solver baseline (``BENCH_modeling.json``).

Times the epsilon-SVR fit of :class:`repro.modeling.svr.SVR` (the dense
interior-point dual solver) against the SciPy SLSQP oracle kept in
``tests/svr_oracle.py`` (the solver the SVR used before), on Table IV
checkpoint data — checkpoint size (MB) to checkpoint time, RBF kernel at
the Table IV defaults C=50, epsilon=0.05:

* **fit time vs rows** — 16, 40, 80 and 160 training rows (a fixed
  shuffle of a 160-sample checkpoint campaign), best of several fits per
  solver, plus the interior-point iteration count;
* **the paper's grid search** — wall time of Section III-B's full 10x10
  (C, epsilon) grid with 5-fold cross validation on the 100-sample Table IV
  dataset (500 fits of 80 rows), with the selected point.

The gated number is ``oracle_over_new_at_80`` = SLSQP fit time / interior-
point fit time at 80 rows, measured on one host in one process, so it is
host comparable; the absolute times are not.

Run with::

    python benchmarks/modeling_baseline.py            # full baseline, writes JSON
    python benchmarks/modeling_baseline.py --quick    # quick config only, no write
    python benchmarks/modeling_baseline.py --quick --check
        # measure the quick config and fail (exit 1) if the 80-row
        # oracle / interior-point ratio regressed more than 30% against
        # the committed BENCH_modeling.json
    python benchmarks/modeling_baseline.py --quick --json-out out.json
        # also dump the measured numbers (CI uploads these as artifacts)
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

from _common import environment_block, make_parser, ratio_gate, write_json
from repro.measurement.checkpoint_campaign import run_checkpoint_campaign
from repro.modeling.model_selection import (PAPER_C_GRID, PAPER_EPSILON_GRID,
                                            grid_search_svr)
from repro.modeling.svr import SVR

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tests"))
from svr_oracle import OracleSVR  # noqa: E402

OUTPUT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "BENCH_modeling.json")

#: The reference configuration: the Table IV bench's checkpoint campaign
#: seed, eight repetitions per model (160 samples) for the row sweep and
#: the paper's five (100 samples) for the grid search.
REFERENCE = {"data_seed": 3, "row_sweep_repetitions": 8,
             "grid_repetitions": 5, "shuffle_seed": 0, "kernel": "rbf",
             "C": 50.0, "epsilon": 0.05, "rows": [16, 40, 80, 160],
             "grid_folds": 5}

#: Quick variant used by the CI smoke gate: the gated 80-row point only.
QUICK_ROWS = [80]

#: Allowed fractional ratio regression before ``--check`` fails.
REGRESSION_TOLERANCE = 0.30


def _checkpoint_data(repetitions: int):
    rows = run_checkpoint_campaign(repetitions=repetitions,
                                   seed=REFERENCE["data_seed"],
                                   with_sequential_check=False).measurements()
    return (np.array([[m.total_bytes / 2 ** 20] for m in rows]),
            np.array([m.duration for m in rows]))


def _best_fit_ms(model_class, features, targets, budget_s: float,
                 min_fits: int, max_fits: int):
    """Best-of wall time (ms) of repeated fits, and the last fitted model."""
    best = float("inf")
    model = None
    spent = 0.0
    fits = 0
    while fits < min_fits or (fits < max_fits and spent < budget_s):
        model = model_class(kernel=REFERENCE["kernel"], C=REFERENCE["C"],
                            epsilon=REFERENCE["epsilon"])
        started = time.perf_counter()
        model.fit(features, targets)
        elapsed = time.perf_counter() - started
        best = min(best, elapsed)
        spent += elapsed
        fits += 1
    return best * 1e3, model


def measure_rows(rows_list, features, targets) -> dict:
    order = np.random.default_rng(REFERENCE["shuffle_seed"]).permutation(
        len(targets))
    out = {}
    for rows in rows_list:
        subset = order[:rows]
        x, y = features[subset], targets[subset]
        new_ms, model = _best_fit_ms(SVR, x, y, budget_s=1.0, min_fits=5,
                                     max_fits=200)
        oracle_ms, oracle = _best_fit_ms(OracleSVR, x, y, budget_s=5.0,
                                         min_fits=2, max_fits=10)
        out[str(rows)] = {
            "interior_point_ms": round(new_ms, 3),
            "slsqp_oracle_ms": round(oracle_ms, 2),
            "oracle_over_new": round(oracle_ms / new_ms, 1),
            "interior_point_iterations": model.n_iter_,
            "max_prediction_gap": float(np.max(np.abs(
                model.predict(x) - oracle.predict(x)))),
        }
    return out


def measure_paper_grid() -> dict:
    features, targets = _checkpoint_data(REFERENCE["grid_repetitions"])
    started = time.perf_counter()
    result = grid_search_svr(features, targets, kernel=REFERENCE["kernel"],
                             n_splits=REFERENCE["grid_folds"],
                             rng=np.random.default_rng(0))
    wall = time.perf_counter() - started
    points = len(PAPER_C_GRID) * len(PAPER_EPSILON_GRID)
    return {"samples": len(targets), "grid_points": points,
            "fits": points * REFERENCE["grid_folds"],
            "wall_seconds": round(wall, 3),
            "best_C": result.best_C, "best_epsilon": result.best_epsilon,
            "best_kfold_mae": result.best_mae}


def main(argv=None) -> int:
    parser = make_parser(
        __doc__, output=OUTPUT,
        check_help="compare the quick 80-row oracle / interior-point fit "
                   "time ratio against a committed baseline (default "
                   "benchmarks/BENCH_modeling.json) and exit non-zero on a "
                   ">30%% regression")
    args = parser.parse_args(argv)

    features, targets = _checkpoint_data(REFERENCE["row_sweep_repetitions"])
    quick_rows = measure_rows(QUICK_ROWS, features, targets)
    quick = {"fits": quick_rows,
             "oracle_over_new_at_80": quick_rows["80"]["oracle_over_new"]}
    print(json.dumps({"quick": quick}, indent=2))
    measured = {"quick": quick}
    status = 0
    if args.check is not None:
        status = ratio_gate(
            args.check, quick,
            ratio_path=("oracle_over_new_at_80",),
            label="SVR fit oracle / interior-point ratio at 80 rows",
            tolerance=REGRESSION_TOLERANCE, precision=1)
    elif not args.quick:
        rows = measure_rows(REFERENCE["rows"], features, targets)
        full = {"fits": rows,
                "oracle_over_new_at_80": rows["80"]["oracle_over_new"],
                "paper_grid": measure_paper_grid()}
        measured["full"] = full
        baseline = {
            "reference": REFERENCE,
            "full": full,
            "quick": quick,
            "environment": environment_block(),
            "note": ("Fit times are best-of wall times of repeated "
                     "single fits; the SLSQP oracle is the SVR's former "
                     "solver (tests/svr_oracle.py).  Absolute times are "
                     "host specific; oracle_over_new_at_80 is the gated, "
                     "host-comparable number.  paper_grid times Section "
                     "III-B's full 10x10 (C, epsilon) grid with 5-fold "
                     "cross validation on the 100-sample Table IV dataset. "
                     "Regenerate with `python benchmarks/"
                     "modeling_baseline.py` when the SVR solver, its "
                     "kernels, or the model-selection loop changes."),
        }
        print(json.dumps({"full": full}, indent=2))
        print()
        write_json(OUTPUT, baseline)
    if args.json_out:
        write_json(args.json_out, measured)
    return status


if __name__ == "__main__":
    sys.exit(main())
