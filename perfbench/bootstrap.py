"""Set-up shared by a benchmark run and its set-up probes.

Set-up is what a user of mixregime pays before the first result: importing
the package from this checkout's ``src`` and loading a workload's configs.
This module imports nothing heavy itself, so that a probe process measures
exactly that work.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"

MSAR_PANEL = "msar_rho0_T1600.json"
HMM_PANEL = "hmm_rho0_omega0_T800.json"
MSAR_DGP = "dgp_msar_rho0.json"
WORKLOADS = ("mc-msar", "mc-hmm", "oracle")


class SetupError(Exception):
    """The checkout does not hold the package or its configs."""


def import_package():
    """Import mixregime from this checkout's src, never from elsewhere."""
    if not (SRC / "mixregime" / "__init__.py").is_file():
        raise SetupError(f"no mixregime package under {SRC}")
    sys.path.insert(0, str(SRC))
    import mixregime

    if Path(mixregime.__file__).resolve().parent != SRC / "mixregime":
        raise SetupError(f"mixregime imported from {mixregime.__file__}, "
                         f"not from {SRC}")
    return mixregime


def load(workload: str) -> dict:
    """Import the package and load the configs `workload` runs on."""
    if workload not in WORKLOADS:
        raise SetupError(f"unknown workload {workload!r}; one of {WORKLOADS}")
    mr = import_package()
    names = {"mc-msar": [MSAR_PANEL], "mc-hmm": [HMM_PANEL],
             "oracle": [MSAR_DGP]}[workload]
    for name in names:
        if not (CONFIGS / name).is_file():
            raise SetupError(f"missing config {CONFIGS / name}")
    if workload == "oracle":
        import json

        with open(CONFIGS / MSAR_DGP) as fh:
            return {"dgp": mr.HmmDgpParams.from_json(json.load(fh)),
                    "hmm_dgp": mr.hmm_benchmark()}
    return {"cfg": mr.load_experiment_config(CONFIGS / names[0])}
