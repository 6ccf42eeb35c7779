"""Regenerate the experiment and DGP config files under configs/.

Run from the repository root:

    python3 scripts/gen_configs.py

One loop over DESIGNS (the regression designs over four noise correlation
settings, the switching-AR designs over three rho values) writes each
design's DGP parameter file, for the simulate/oracle subcommands, and its
experiment files at T in {200, 800, 1600, 3200}, master seeds counting up
per family from FIRST_SEED.
"""

from __future__ import annotations

from itertools import count
from pathlib import Path

from mixregime import ExperimentConfig, hmm_benchmark, msar_benchmark
from mixregime.errors import write_json

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"

T_VALUES = (200, 800, 1600, 3200)
# desk-scale replication counts; raise n_reps to 1000 to match the
# published tables in full
N_REPS = {200: 300, 800: 300, 1600: 200, 3200: 200}
FIRST_SEED = {"hmm": 1001, "msar": 2001}

DESIGNS = [  # (family, slug, rho, omega); the switching AR has no omega
    ("hmm", "rho0_omega0", 0.0, 0.0),
    ("hmm", "rho065_omega0", 0.65, 0.0),
    ("hmm", "rho0_omega065", 0.0, 0.65),
    ("hmm", "rho065_omega065", 0.65, 0.65),
    ("msar", "rho0", 0.0, None),
    ("msar", "rho065", 0.65, None),
    ("msar", "rho08", 0.8, None),
]


def main() -> None:
    CONFIG_DIR.mkdir(exist_ok=True)
    seeds = {family: count(first) for family, first in FIRST_SEED.items()}
    written = []
    for family, slug, rho, omega in DESIGNS:
        if family == "hmm":
            dgp = hmm_benchmark(rho=rho, omega=omega)
            label = f"rho*={rho}, omega*={omega}"
        else:
            dgp, label = msar_benchmark(rho=rho, phi=0.9), f"rho*={rho}"
        records = {f"dgp_{family}_{slug}": dgp}
        for t_len in T_VALUES:
            name = f"{family}_{slug}_T{t_len}"
            records[name] = ExperimentConfig(
                dgp=dgp, T=t_len, n_reps=N_REPS[t_len],
                master_seed=next(seeds[family]), label=label,
                out_dir=f"out/{name}")
        for name, record in records.items():
            written.append(CONFIG_DIR / f"{name}.json")
            write_json(record, written[-1])

    for path in written:
        print(path.relative_to(ROOT))
    print(f"{len(written)} files")


if __name__ == "__main__":
    main()
