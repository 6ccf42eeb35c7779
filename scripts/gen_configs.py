"""Regenerate the experiment and DGP config files under configs/.

Run from the repository root:

    python3 scripts/gen_configs.py

Covers every table cell: the regression designs over the four noise
correlation settings and the switching-AR designs over three rho values,
each at T in {200, 800, 1600, 3200}, plus standalone DGP parameter files
for the simulate/oracle subcommands.
"""

from __future__ import annotations

from pathlib import Path

from mixregime import ExperimentConfig, hmm_benchmark, msar_benchmark
from mixregime.errors import write_json

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"

T_VALUES = (200, 800, 1600, 3200)
# desk-scale replication counts; raise n_reps to 1000 to match the
# published tables in full
N_REPS = {200: 300, 800: 300, 1600: 200, 3200: 200}

HMM_DESIGNS = [  # (slug, rho, omega)
    ("rho0_omega0", 0.0, 0.0),
    ("rho065_omega0", 0.65, 0.0),
    ("rho0_omega065", 0.0, 0.65),
    ("rho065_omega065", 0.65, 0.65),
]
MSAR_DESIGNS = [  # (slug, rho)
    ("rho0", 0.0),
    ("rho065", 0.65),
    ("rho08", 0.8),
]


def main() -> None:
    CONFIG_DIR.mkdir(exist_ok=True)
    written = []

    seed_counter = 1000
    for slug, rho, omega in HMM_DESIGNS:
        dgp = hmm_benchmark(rho=rho, omega=omega)
        for t_len in T_VALUES:
            seed_counter += 1
            cfg = ExperimentConfig(
                dgp=dgp, T=t_len, n_reps=N_REPS[t_len], master_seed=seed_counter,
                label=f"rho*={rho}, omega*={omega}",
                out_dir=f"out/hmm_{slug}_T{t_len}")
            path = CONFIG_DIR / f"hmm_{slug}_T{t_len}.json"
            write_json(cfg, path)
            written.append(path)

    seed_counter = 2000
    for slug, rho in MSAR_DESIGNS:
        dgp = msar_benchmark(rho=rho, phi=0.9)
        for t_len in T_VALUES:
            seed_counter += 1
            cfg = ExperimentConfig(
                dgp=dgp, T=t_len, n_reps=N_REPS[t_len], master_seed=seed_counter,
                label=f"rho*={rho}",
                out_dir=f"out/msar_{slug}_T{t_len}")
            path = CONFIG_DIR / f"msar_{slug}_T{t_len}.json"
            write_json(cfg, path)
            written.append(path)

    for slug, rho, omega in HMM_DESIGNS:
        path = CONFIG_DIR / f"dgp_hmm_{slug}.json"
        write_json(hmm_benchmark(rho, omega), path)
        written.append(path)
    for slug, rho in MSAR_DESIGNS:
        path = CONFIG_DIR / f"dgp_msar_{slug}.json"
        write_json(msar_benchmark(rho=rho, phi=0.9), path)
        written.append(path)

    for path in written:
        print(path.relative_to(ROOT))
    print(f"{len(written)} files")


if __name__ == "__main__":
    main()
