"""Rewrite the committed figure files that tests/test_reference.py checks.

Every figure at --trials 0, and every figure with Monte Carlo rows (fig2a,
fig2b, fig3a, fig3b and fig6) at --trials 2000 --seed 1, written exactly as
`wpcn-select reproduce-figure` writes them.  A change that moves figure
values, or the package version each .meta.json records, reruns this from
the repository root and commits the rewritten files, so that their git diff
lists the moved rows:

    PYTHONPATH=src python tests/reference/regenerate.py
"""

from pathlib import Path

from wpcn_select.experiments import reproduce_figure

FIGURES = ("fig2a", "fig2b", "fig3a", "fig3b", "fig4", "fig5", "fig6")
#: directory: (figures, trials, seed)
RUNS = {
    "trials0": (FIGURES, 0, 0),
    "trials2000-seed1": (("fig2a", "fig2b", "fig3a", "fig3b", "fig6"), 2000, 1),
}


def files() -> list:
    """Every reference file, as a path relative to this directory."""
    return [f"{sub}/{fig}{ext}" for sub, (figs, _, _) in RUNS.items()
            for fig in figs for ext in (".csv", ".meta.json")]


def regenerate(root) -> None:
    """Write every reference file under root."""
    for sub, (figs, trials, seed) in RUNS.items():
        for fig in figs:
            reproduce_figure(fig, out_dir=Path(root) / sub, trials=trials, seed=seed)


if __name__ == "__main__":
    regenerate(Path(__file__).resolve().parent)
