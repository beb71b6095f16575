#!/usr/bin/env python3
"""Write perfbench/reference.json, the stored values the benchmark checks against.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter the program's numbers, and say
so in the change. The tolerances are set here, before any comparison.
"""

from __future__ import annotations

import json

import run


def main() -> None:
    run.prepare()
    import workloads

    gen_point, gen_image = workloads.GenPoint(), workloads.GenImage()
    image_state = gen_image.setup(0)
    dropped = gen_image.generate(image_state, gen_image.check_noise(), gen_image.check_grid, workloads.Outcome())
    reference = {
        "train_point": {
            "loss": workloads.TrainPoint().reference_loss(),
            # the loss shifts by ~1e-10 relative when only the rounding of a
            # gradient changes; a wrong gradient moves it by far more than 1e-6
            "rtol": 1e-6,
        },
        "gen_point": {
            "energy_distance_bound": 0.05,  # criterion 11
            "energy_distance": gen_point.energy_distance(gen_point.setup(0)),
        },
        "gen_image": {"fingerprint": gen_image.fingerprint(dropped), "rtol": 1e-8},
    }
    workloads.REFERENCE.write_text(json.dumps(reference, indent=2) + "\n")
    print(json.dumps(reference, indent=2))


if __name__ == "__main__":
    main()
