"""Ablation: does modelling wrong-path resource usage matter?

The paper stresses that its traces "hold enough information to faithfully
simulate wrong path execution".  Wrong-path uops allocate real IQ entries
and registers until the branch resolves, which is part of why unlimited
schemes (Icount) let a thread over-occupy shared queues.  This ablation
re-runs a branchy slice of the pool with wrong-path injection disabled
(fetch idles behind an unresolved mispredict instead) and reports the
throughput delta per scheme.
"""

import dataclasses

from repro.experiments.reporting import format_table
from repro.experiments.runner import figure2_config
from repro.experiments import save_json
from repro.metrics.throughput import mean

SCHEMES = ("icount", "cssp")
CATEGORIES = ("office", "productivity", "ISPEC00", "server")


def _sweep(runner, config):
    out = {}
    for pol in SCHEMES:
        for cat in CATEGORIES:
            for wl in runner.pool.by_category(cat):
                out[(pol, cat, wl.name)] = runner.run(config, pol, wl).ipc
    return out


def bench_ablation_wrong_path(runner, results_dir, capsys):
    cfg_on = figure2_config(32)
    cfg_off = dataclasses.replace(cfg_on, model_wrong_path=False)
    with_wp = _sweep(runner, cfg_on)
    without_wp = _sweep(runner, cfg_off)

    rows = {}
    for cat in CATEGORIES:
        rows[cat] = {}
        for pol in SCHEMES:
            on = mean([v for k, v in with_wp.items() if k[0] == pol and k[1] == cat])
            off = mean(
                [v for k, v in without_wp.items() if k[0] == pol and k[1] == cat]
            )
            rows[cat][f"{pol} wp-cost"] = (off - on) / off
    table = format_table(
        "Ablation: wrong-path modelling cost "
        "(relative IPC lost to wrong-path resource usage)",
        rows,
        [f"{p} wp-cost" for p in SCHEMES],
        value_format="{:+.3%}",
    )
    with capsys.disabled():
        print()
        print(table)
    save_json(results_dir / "ablation_wrongpath.json", rows)

    # wrong-path speculation must cost performance in branchy categories
    costs = [rows[cat]["icount wp-cost"] for cat in CATEGORIES]
    assert mean(costs) > 0.0, "wrong-path uops should consume real resources"
