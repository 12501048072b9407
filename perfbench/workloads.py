"""The four workloads: their job lists and what one job computes.

A library job takes one model through the whole pipeline: load, build,
enumerate, classify every invariant (with the parent search), assign
graphs to the invariants of each su2 factor, and list the cyclic current
extensions.  A CLI job is one in-process `modinv.cli.main(argv)` call
with stdout and stderr captured.  Each job returns a JSON-able record;
its digest is compared with the one recorded in reference.json.

Calls go through the module attributes (`modular.build`, not a name
imported from it), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from typing import Callable, Dict, List

from modinv import catalog, classify, cli, commutant, extensions, graphs, modular

TMP_TOKEN = "<tmp>"

# Argument lists of the CLI session; TMP_TOKEN stands for a temporary file.
CLI_SESSION = [
    ["enumerate", "zn:96:1", "--json", TMP_TOKEN],
    ["classify", "sun_currents:12:2"],
    ["graphs", "su2:16"],
    ["extend", "sun_currents:12:2"],
    ["restrict", "su10_to_su4", "conjugation"],
    ["restrict", "so8_to_su3", "sweep"],
    ["model", "show", "so8_1"],
    ["enumerate", "sun_currents:6:3", "--oracle"],
]


def job_names(workload: str) -> List[str]:
    """Job ids of a workload, in their reference order."""
    if workload == "catalog_sweep":
        return catalog.catalog_names()
    if workload == "large_modular":
        return ["su2:28", "zn:96:1", "zn:128:1"]
    if workload == "dense_search":
        return ["sun_currents:12:2", "sun_currents:8:4", "su2:4*su2:4", "zn:6:1*zn:6:1"]
    if workload == "cli_session":
        return [" ".join(argv) for argv in CLI_SESSION]
    raise ValueError(f"unknown workload '{workload}'")


def digest(record: object) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


# ---------------------------------------------------------------------------
# library jobs

def _load(name: str):
    """Catalog name, or a product 'a*b' of two catalog names."""
    factors = name.split("*")
    specs = [catalog.model_by_name(f) for f in factors]
    spec = specs[0] if len(specs) == 1 else modular.tensor_product(*specs)
    return spec, list(zip(factors, specs))


def _graph_names(md, invs) -> List[List[str]]:
    return [[g.name for g in graphs.ade_assignment(md, Z)] for Z in invs]


def model_job(name: str) -> Dict[str, object]:
    spec, factors = _load(name)
    md = modular.build(spec)
    invs = commutant.enumerate_invariants(md)
    reports = []
    for Z in invs:
        rep = classify.classify_invariant(Z, md, enumerated=invs)
        reports.append({
            "kind": rep.kind,
            "heterotic": rep.heterotic,
            "parents": rep.parents,
            "b": None if rep.branching is None else rep.branching.b.tolist(),
            "counts": rep.counts,
            "Z": cli.render_partition_function(Z, branching=rep.branching),
        })
    factor_graphs = {}
    for fname, fspec in factors:
        if not fname.startswith("su2:"):
            continue
        if len(factors) == 1:
            factor_graphs[fname] = _graph_names(md, invs)
        else:
            fmd = modular.build(fspec)
            factor_graphs[fname] = _graph_names(fmd, commutant.enumerate_invariants(fmd))
    return {
        "invariants": [cli.matrix_to_json(Z) for Z in invs],
        "reports": reports,
        "graphs": factor_graphs,
        "extensions": [
            [r.generator, r.order, list(r.elements), str(r.h_generator), r.admissible]
            for r in extensions.rehren_admissible(spec)
        ],
    }


# ---------------------------------------------------------------------------
# CLI jobs

def cli_job(argv: List[str], tmp_path: str) -> Dict[str, object]:
    args = [tmp_path if a == TMP_TOKEN else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    written = None
    if TMP_TOKEN in argv and os.path.exists(tmp_path):
        with open(tmp_path) as f:
            written = json.load(f)
        os.remove(tmp_path)
    return {
        "exit": code,
        "stdout": out.getvalue().replace(tmp_path, TMP_TOKEN),
        "stderr": err.getvalue().replace(tmp_path, TMP_TOKEN),
        "written": written,
    }


def job_runner(workload: str, work_dir: str) -> Callable[[str], Dict[str, object]]:
    """Function from a job id to its output record."""
    if workload == "cli_session":
        argv_of = {" ".join(argv): argv for argv in CLI_SESSION}
        os.makedirs(work_dir, exist_ok=True)
        tmp = os.path.join(work_dir, "cli_out.json")
        return lambda job: cli_job(argv_of[job], tmp)
    return model_job


def invariant_count(record: Dict[str, object]) -> int:
    return len(record.get("invariants", ()))
