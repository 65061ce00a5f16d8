"""Extension: indirect branches and MROM complex ops (Table 1 components).

Table 1 lists a 4096-entry indirect-branch predictor and the MROM decoder;
the paper's opaque traces exercise them implicitly.  Our default category
profiles keep these features off (the calibrated figures do not depend on
them); this benchmark turns them on for a server-like workload and checks

* the target cache reaches a realistic accuracy band for dominant-target
  indirect branches;
* extra wrong-path pressure from indirect mispredicts does not overturn
  the paper's scheme ranking (partitioning still beats Icount).
"""

from dataclasses import replace

from repro.core.simulator import run_simulation
from repro.experiments.reporting import format_table
from repro.experiments.runner import figure2_config
from repro.experiments import save_json
from repro.trace.categories import category_profile
from repro.trace.synthesis import generate_trace

SCHEMES = ("icount", "cssp", "pc")


def bench_extension_indirect(runner, results_dir, capsys):
    cfg = figure2_config(32)
    n_uops = runner.scale.n_uops
    base_mem = category_profile("server", "mem")
    base_ilp = category_profile("ISPEC00", "ilp")

    def _indirectify(prof):
        return replace(
            prof, name=prof.name + "-ind", frac_indirect=0.5, frac_complex=0.03
        )

    results = {}
    for label, mem_prof, ilp_prof in (
        ("plain", base_mem, base_ilp),
        ("indirect", _indirectify(base_mem), _indirectify(base_ilp)),
    ):
        traces = [
            generate_trace(mem_prof, seed=31, n_uops=n_uops, kind="mem"),
            generate_trace(ilp_prof, seed=37, n_uops=n_uops, kind="ilp"),
        ]
        for pol in SCHEMES:
            # no warmup window here: the whole run counts so the
            # (sparse) indirect branches give the accuracy statistic a
            # usable sample even at small scales
            res = run_simulation(
                cfg, pol, traces,
                prewarm_caches=True,
                max_cycles=runner.scale.max_cycles,
            )
            results[(label, pol)] = res

    rows = {}
    for label in ("plain", "indirect"):
        rows[label] = {pol: results[(label, pol)].ipc for pol in SCHEMES}
        rows[label]["ind acc"] = results[(label, "icount")].stats["extra"][
            "indirect_accuracy"
        ]
        rows[label]["mispredicts"] = float(
            results[(label, "icount")].stats["mispredicts"]
        )
    table = format_table(
        "Extension: indirect branches + MROM on a server-like workload (IPC)",
        rows,
        list(SCHEMES) + ["ind acc", "mispredicts"],
        row_header="workload",
    )
    with capsys.disabled():
        print()
        print(table)
    save_json(
        results_dir / "extension_indirect.json",
        {k: {c: v for c, v in cells.items()} for k, cells in rows.items()},
    )

    ind = results[("indirect", "icount")].stats["extra"]
    assert ind["indirect_lookups"] > 30
    assert 0.2 < ind["indirect_accuracy"] < 0.95
    # the scheme ranking survives the extra wrong-path pressure
    assert rows["indirect"]["cssp"] > rows["indirect"]["icount"]
    # indirect mispredicts add real pressure
    assert rows["indirect"]["mispredicts"] > rows["plain"]["mispredicts"]
