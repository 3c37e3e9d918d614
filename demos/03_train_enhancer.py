"""Shrinking the systematic estimation error with a small network.

The per-frame estimates carry structured error: range quantization, gait
tilt, and mount height all leave fingerprints that a plain axis-difference
cannot remove. This demo builds a reduced dimension sweep (35 depth/height
combinations x 3 walks each), assembles the per-frame dataset, trains the
6-16-8-2 network on held-in combinations, and compares initial vs enhanced
errors on the held-out ones.

Takes a couple of minutes; pass --quick for a 2-walk sweep.

    python3 demos/03_train_enhancer.py [--quick]
"""

import sys
import time

from stairdim import (
    TrainConfig,
    assemble_dataset,
    build_error_report,
    build_sweep,
    compare_estimators,
    forward,
    split_dataset,
    train,
)

walks = 2 if "--quick" in sys.argv[1:] else 3

t0 = time.perf_counter()
scenarios = build_sweep(base_seed=0, walks_per_combo=walks)
print(f"sweep grid: {len(scenarios)} scenarios "
      f"(35 depth/height combinations x {walks} walks)")

data = assemble_dataset(scenarios)
print(f"dataset: {data.n_rows} per-frame rows "
      f"({time.perf_counter() - t0:.1f} s)")

train_set, test_set = split_dataset(data, split_seed=0)
held_out = {s.split("_w")[0] for s in test_set.scenario_id} - {
    s.split("_w")[0] for s in train_set.scenario_id
}
print(f"split: {train_set.n_rows} train rows, {test_set.n_rows} test rows; "
      f"{len(held_out)} combinations fully unseen in training")

res = train(train_set, TrainConfig(epochs=50, seed=0))
print(f"trained {len(res.train_loss)} epochs, "
      f"final train loss {res.train_loss[-1]:.3e}, "
      f"final validation loss {res.val_loss[-1]:.3e}")

enhanced = forward(res.model, test_set.features())

report = build_error_report(
    {"initial": test_set.initial_estimate(), "enhanced": enhanced}, test_set.labels()
)
print("\nheld-out per-frame errors (cm):")
print("              mae     rmse    sigma     bias")
for dim in ("depth", "height"):
    for name, tag in (("initial", "in "), ("enhanced", "out")):
        m = report[name][dim]
        print(f"  {dim:<6} {tag} {m.mae_cm:7.3f} {m.rmse_cm:8.3f} {m.sigma_cm:8.3f} {m.bias_cm:+8.3f}")

summary = compare_estimators(report)
print("\nrelative improvement (positive = enhanced is better):")
for dim in ("depth", "height"):
    parts = ", ".join(f"{k} {v * 100:+.1f}%" for k, v in summary[dim].items())
    print(f"  {dim}: {parts}")
print(f"all metrics improved: {summary['all_metrics_improved']}")
