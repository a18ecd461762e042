"""Print the sha256 of ``RunRecord.to_json()`` for short reference runs.

    python3 bench/digest.py

Each run is a 3-epoch ``run_experiment`` (pretrain, then the linear probe)
on the criterion-6 data: the criterion-6 generator with seed 23, its
80/20 stratified split, 10% balanced labels drawn with seed 0, run seed 0.
It runs ``mlp_id`` and ``full`` with one BLAS thread.  A change that claims
to leave training bit-identical should leave both digests unchanged.
"""

from __future__ import annotations

import hashlib
import sys

from run import prepare


def main() -> int:
    if not prepare():
        return 2

    import numpy as np

    from tscl.data import SynthSpec, generate, split_labels, stratified_split
    from tscl.harness import TrainConfig, run_experiment

    spec = SynthSpec(
        class_counts=(600, 250, 100, 50), length=64, channels=1, noise_sigma=0.4,
        base_frequency=2.0, frequency_step=0.25, amplitude_decay=1.0, phase_spread=1.0,
        seed=23,
    )
    train, test = stratified_split(
        generate(spec), 0.2, np.random.default_rng(np.random.SeedSequence([spec.seed, 1]))
    )
    labeled = split_labels(train, 0.10, np.random.default_rng(np.random.SeedSequence([0, 7])))
    for variant in ("mlp_id", "full"):
        config = TrainConfig(variant=variant, epochs=3, batch_size=128, seeds=(0,))
        _, record = run_experiment(config, labeled, test, seed=0)
        digest = hashlib.sha256(record.to_json().encode("utf-8")).hexdigest()
        print(f"{variant:8s} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
