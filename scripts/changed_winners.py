"""Record every committed panel's winners, or tabulate how two records differ.

Run from the repository root, once in each checkout to compare:

    python3 scripts/changed_winners.py run winners.json
    python3 scripts/changed_winners.py diff before.json after.json

`run` passes replications 0-19 (fewer where a panel has fewer) of every
experiment config under configs/ through run_replication in the checkout it
runs in, and writes each replication's loglik, ok/converged/degenerate flags,
error text and natural-scale estimates to JSON.  `diff` prints a Markdown
table of each replication whose loglik moves by more than 1e-9 or whose
flags change, then the counts of rises and falls.
"""

from __future__ import annotations

import argparse
import math
from pathlib import Path

from mixregime import load_experiment_config, run_replication
from mixregime.errors import read_json, write_json

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"

N_REPS = 20
LOGLIK_TOL = 1e-9
FLAGS = ("ok", "converged", "degenerate")


def record_winners(paths, n_reps: int = N_REPS) -> dict:
    """{panel: {rep: fields}} for the first n_reps replications of each
    experiment config in `paths`, labelled by file stem."""
    out = {}
    for path in paths:
        cfg = load_experiment_config(path)
        reps = {}
        for rep in range(min(n_reps, cfg.n_reps)):
            rec = run_replication(cfg, rep)
            reps[str(rep)] = {"loglik": rec.loglik, "error": rec.error,
                              "estimates": rec.estimates,
                              **{flag: getattr(rec, flag) for flag in FLAGS}}
        out[Path(path).stem] = reps
    return out


def changed_rows(before: dict, after: dict) -> list:
    """(panel, rep, loglik before, loglik after, flag changes) for each
    replication in both records whose loglik moves by more than LOGLIK_TOL
    or whose flags differ; a failed replication's loglik is None."""
    rows = []
    for panel in sorted(before.keys() & after.keys()):
        old, new = before[panel], after[panel]
        for rep in sorted(old.keys() & new.keys(), key=int):
            a, b = old[rep], new[rep]
            flags = [f"{flag} {int(a[flag])}→{int(b[flag])}" for flag in FLAGS
                     if a[flag] != b[flag]]
            la, lb = a["loglik"], b["loglik"]
            moved = ((la is None) != (lb is None)
                     or (la is not None and abs(lb - la) > LOGLIK_TOL))
            if moved or flags:
                rows.append((panel, int(rep), la, lb, flags))
    return rows


def _cell(loglik) -> str:
    return "failed" if loglik is None else f"{loglik:.10f}"


def render(rows: list) -> str:
    """The Markdown table of changed_rows and a line of counts."""
    lines = ["| panel | rep | before loglik | after loglik | Δ | flags |",
             "|---|---|---|---|---|---|"]
    rises = falls = 0
    for panel, rep, la, lb, flags in rows:
        delta = (lb - la if la is not None and lb is not None else math.nan)
        if delta > LOGLIK_TOL:
            rises += 1
        elif delta < -LOGLIK_TOL:
            falls += 1
        lines.append(f"| `{panel}` | {rep} | {_cell(la)} | {_cell(lb)} | "
                     f"{'—' if math.isnan(delta) else f'{delta:+.2e}'} | "
                     f"{', '.join(flags) or '—'} |")
    lines.append(f"\n{len(rows)} changed: {rises} rose and {falls} fell by "
                 f"more than {LOGLIK_TOL:g} in loglik.")
    return "\n".join(lines)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="record the winners of this checkout")
    run.add_argument("out")
    run.add_argument("--reps", type=int, default=N_REPS)
    diff = sub.add_parser("diff", help="tabulate the changes between records")
    diff.add_argument("before")
    diff.add_argument("after")
    args = parser.parse_args(argv)
    if args.command == "run":
        configs = sorted(p for p in CONFIG_DIR.glob("*.json")
                         if not p.name.startswith("dgp_"))
        write_json(record_winners(configs, args.reps), args.out)
    else:
        print(render(changed_rows(read_json(args.before),
                                  read_json(args.after))))


if __name__ == "__main__":
    main()
