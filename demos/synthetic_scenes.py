"""
Synthetic perception traces
===========================

Generates a drive of correlated frames, inspects the relationship between
full-fusion quality and the degraded partial-sensor scores, and round-trips
the trace through its CSV format.
"""

import os
import tempfile

import numpy as np

from offloadlab import GeneratorParams, generate_synthetic, load_trace, save_trace

trace = generate_synthetic(GeneratorParams(), n_frames=2000, seed=7)
full = trace.map_full

print(f"{len(trace)} frames, feature dim {trace.k}")
print(f"full-fusion quality: mean {full.mean():.4f}, min {full.min():.4f},"
      f" max {full.max():.4f}")
print(f"lag-1 autocorrelation {np.corrcoef(full[:-1], full[1:])[0, 1]:.3f}"
      " (scenes evolve smoothly, they do not jump)")
print()

# partial scores are what the server can produce when some pipelines stay on
# the vehicle; dropping sensors never helps quality
print("frame 0 quality by fused subset:")
print(f"  full stack    {full[0]:.4f}")
for name, val in sorted(zip(trace.partial_keys, trace.map_partial[0])):
    print(f"  {name:12s}  {val:.4f}")
print()

# quantiles of full quality are the natural robustness thresholds to train
# against; the harder the threshold, the more frames count as uncertain
for pct in (50, 70, 90):
    th = float(np.percentile(full, pct))
    below = 100.0 * (full < th).mean()
    print(f"p{pct} threshold {th:.4f}: {below:.1f}% of frames fall below it")
print()

# CSV round-trip: reload and compare
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "drive.csv")
    save_trace(trace, path)
    back = load_trace(path)
    worst = np.abs(back.map_full - full).max()
    print(f"saved and reloaded: {len(back)} frames,"
          f" worst quality delta {worst:.2e}")
