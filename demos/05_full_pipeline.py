"""The whole system end to end at toy scale: render a corpus, train both
autoencoders and both collision predictors, then race the modular stack
against the end-to-end baseline on paired worlds.

Toy scale (small corpus, few epochs, short campaign) so it finishes in
~10 minutes on one CPU core; expect noisier numbers than the acceptance
suite, which runs the full desk-scale protocol.
"""

import time

from depthnav.config import AppConfig, DatasetSettings, TrainSettings
from depthnav.evaluation import end_to_end_arm, modular_arm, run_campaign
from depthnav.pipeline import train_full_stack

cfg = AppConfig(train=TrainSettings(vae_epochs=12, cpn_epochs=12, e2e_epochs=12),
                dataset=DatasetSettings(vae_frames=500, episodes=80))
t0 = time.time()
stack = train_full_stack(cfg, seed=3, log_every=4)
print(f"\ntrained everything in {time.time() - t0:.0f} s "
      f"({', '.join(f'{k} {v:.0f} s' for k, v in stack.timings.items())})")

report = run_campaign(
    {"modular": modular_arm(stack.sevae, stack.cpn_modular),
     "end-to-end": end_to_end_arm(stack.cpn_end_to_end)},
    environments=("sparse",), runs=4, base_seed=500, setup=cfg,
    progress=lambda env, seed, name, r: print(f"  {env} seed {seed} {name}: {r.outcome}"),
)
print()
print(report.table())
print("(toy numbers; run the acceptance suite or the CLI for the real protocol)")
