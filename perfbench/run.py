#!/usr/bin/env python3
"""tsvplan benchmark: end-to-end timings and quality, or per-module spans.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a tsvplan checkout; it uses the sources in src/ and
the designs in designs/, and writes only under perfbench/_work/. NAME is one
of WORKLOADS, or `all` to run each in turn. Every unit is a fresh process
running the tsvplan CLI with BLAS/OpenMP threads pinned to 1; units repeat
until the next one would end after S seconds (at least one runs). The anneal
seed of every unit is N, so repeats must give identical results. Outputs are
checked after the timed region. The last line of stdout is one JSON object:
end-to-end metrics with --trace 0, per-module metrics with --trace 1.
See perfbench/README.md for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
THREADS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
UNIT_TIMEOUT_S = 150
# Gated times are scaled to the CPU speed at which unit.py's probe kernel
# takes this long (about the fastest a 2-core KVM test host ran); that host's
# speed drifted by up to 1.7x over tens of seconds, which no run length hid.
REFERENCE_PROBE_S = 65e-6


@dataclass(frozen=True)
class Workload:
    command: str         # tsvplan subcommand
    design: str          # shipped design, relative to the checkout root
    args: tuple          # further CLI arguments
    field_weighted: bool = False


# Unit sizes keep one unit to a few seconds, so a run takes the median of
# several; see README.md for what each workload stresses. field-corememory is
# not in BENCHMARK.json: its run-to-run spread stayed too wide (README.md).
WORKLOADS = {
    "proxy-multicore": Workload(
        "optimize", "designs/multicore.design", ("--max-moves", "20")),
    "field-corememory": Workload(
        "optimize", "designs/corememory.design",
        ("--max-moves", "4", "--outer-iters", "1"), field_weighted=True),
    "sweep-layers-fine": Workload(
        "sweep", "designs/corememory.design",
        ("--axis", "layers", "--values", "1,2,3,4", "--grid-cell", "25um",
         "--max-moves", "4", "--outer-iters", "1", "--leakage-lambda", "0")),
}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_ratio", "_share", "_share_value")):
        return "1"
    if name.endswith("bytes_written"):
        return "B"
    return "count"


def child_env() -> dict:
    # no byte-code files: every unit compiles tsvplan alike, and nothing is
    # written outside perfbench/_work/
    env = dict(os.environ, **THREADS, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def prepare_design(workload: Workload, work: Path) -> Path:
    """The design a unit reads; the field-weighted variant is written to work/."""
    source = ROOT / workload.design
    if not workload.field_weighted:
        return source
    text = source.read_text()
    if "gradient_weighting = false" not in text:
        raise SystemExit(f"{source}: expected 'gradient_weighting = false'")
    variant = work / source.name.replace(".design", "-field.design")
    variant.write_text(text.replace("gradient_weighting = false",
                                    "gradient_weighting = true"))
    return variant


def run_unit(workload: Workload, design: Path, seed: int, out: Path,
             traced: bool) -> dict | None:
    record_path = out.with_suffix(".json")
    launch = time.monotonic()
    argv = [sys.executable, str(HERE / "unit.py"), str(record_path), repr(launch),
            "1" if traced else "0", "--", workload.command, str(design),
            "--seed", str(seed), "--out-dir", str(out), *workload.args]
    try:
        subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True,
                       timeout=UNIT_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return None
    if not record_path.is_file():
        return None
    return json.loads(record_path.read_text())


def fingerprint(record: dict) -> dict:
    return {"trace_sha256": record["trace_sha256"],
            "evaluations": record["evaluations"],
            "temperatures": [{side: {k: p[side][k] for k in ("avgT", "peakT")}
                              for side in ("before", "after")}
                             for p in record["points"]]}


def quality(record: dict, command: str) -> dict:
    """Before-minus-after temperatures and geometry change of one result.

    Optimize: whole-stack peak and average. Sweep: core-layer peak and
    stack average, averaged over the points.
    """
    points = record["points"]
    peak = "peakT" if command == "optimize" else "core_peakT"

    def mean(values):
        return sum(values) / len(values)

    return {
        "peakT_drop_K": mean([p["before"][peak] - p["after"][peak] for p in points]),
        "avgT_drop_K": mean([p["before"]["avgT"] - p["after"]["avgT"] for p in points]),
        "wl_change_pct": mean([100 * (p["after"]["wirelength"] / p["before"]["wirelength"] - 1)
                               for p in points]),
        "area_change_pct": mean([100 * (p["after"]["area"] / p["before"]["area"] - 1)
                                 for p in points]),
    }


LAYERS = ("cli", "design_io", "model", "thermal", "metrics", "anneal", "sweeps")


def span_metrics(record: dict) -> dict:
    """Per-module metrics of one traced unit.

    A design solve (couple_leakage or solve_design) is cold when called
    without a warm field; its time includes the fixed point's inner solves.
    """
    spans = record["spans"]
    calls, total, own, counts = (spans[k] for k in ("calls", "total_s", "self_s", "counts"))

    def n(*names):
        return sum(calls.get(x, 0) for x in names)

    def t(*names):
        return sum(total.get(x, 0.0) for x in names)

    solve = "thermal.solve_steady_state"
    cold = ("thermal.couple_leakage.cold", "thermal.solve_design.cold")
    warm = ("thermal.couple_leakage.warm", "thermal.solve_design.warm")
    leakage = (cold[0], warm[0])
    moves = ("model.move_farm", "model.reshape_farm")
    root = t("cli.optimize", "cli.sweep")
    self_s = {layer: sum(s for k, s in own.items() if k.startswith(layer + "."))
              for layer in LAYERS}
    # shares that partition the run; design solves hold only thermal spans
    parts = {f"{layer} self": self_s[layer] / root for layer in LAYERS if layer != "thermal"}
    parts["thermal cold design solves"] = t(*cold) / root
    parts["thermal warm design solves"] = t(*warm) / root
    parts["thermal other"] = (self_s["thermal"] - t(*cold) - t(*warm)) / root
    points = counts.get("sweeps.points", 0)
    out = {
        "metrics.cost_calls": n("metrics.cost"),
        "metrics.cost_s": t("metrics.cost"),
        "metrics.path_calls": n("metrics.path_conductivity"),
        "metrics.path_s": t("metrics.path_conductivity"),
        "metrics.pairs_s": t("metrics.adjacent_block_pairs"),
        "metrics.wirelength_s": t("metrics.wirelength"),
        "metrics.calibrate_s": t("metrics.CostWeights.calibrated"),
        "model.move_calls": n(*moves),
        "model.move_s": t(*moves),
        "model.legal_ratio": counts.get("model.legal", 0) / max(n(*moves), 1),
        "anneal.moves": record["moves"],
        "anneal.null_moves": record["null_moves"],
        "anneal.evaluations": record["evaluations"],
        "anneal.accept_ratio": record["accepted"] / max(record["moves"] - record["null_moves"], 1),
        "anneal.gen_move_s": t("anneal.gen_move"),
        "anneal.summarize_calls": n("anneal.summarize"),
        "anneal.summarize_s": t("anneal.summarize"),
        "thermal.solve_calls": n(solve),
        "thermal.solve_s": t(solve),
        "thermal.unknowns": counts.get("thermal.unknowns_total", 0) / max(n(solve), 1),
        "thermal.cold_solves": n(*cold),
        "thermal.cold_solve_s": t(*cold),
        "thermal.cold_solve_share": parts["thermal cold design solves"],
        "thermal.leakage_calls": n(*leakage),
        "thermal.leakage_iters": counts.get("thermal.leakage_iters", 0),
        "thermal.leakage_s": t(*leakage),
        "thermal.rasterize_calls": n("thermal.rasterize"),
        "thermal.rasterize_s": t("thermal.rasterize"),
        "thermal.network_s": t("thermal.build_network"),
        "thermal.assemble_s": t("thermal.system_matrix"),
        "design_io.parse_s": t("design_io.parse_design"),
        "design_io.write_s": t("design_io.write_design", "design_io.write_thermal_maps",
                               "design_io.write_report", "design_io.format_trace"),
        "design_io.bytes_written": record["bytes_written"],
        "sweeps.points": points,
        "sweeps.point_s": t("anneal.optimize_stack") / points if points else 0.0,
        "sweeps.transform_s": t("sweeps.with_memory_layers", "sweeps.set_farm_conductivity"),
        "sweeps.failed_points": counts.get("sweeps.failed_points", 0),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.self_share"] = self_s[layer] / root
    out["largest_share"] = max(parts, key=parts.get)
    out["largest_share_value"] = parts[out["largest_share"]]
    return out


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy")}


def median(values):
    return statistics.median(values) if values else float("nan")


def scaled(seconds: float, probe_s: float) -> float:
    return seconds * REFERENCE_PROBE_S / probe_s


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    from checks import CHECK_ERRORS, check_optimize, check_sweep

    workload = WORKLOADS[name]
    work = WORK / f"{name}-seed{seed}-trace{int(traced)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    design = prepare_design(workload, work)
    # untimed warm-up: read the interpreter, numpy, scipy and tsvplan files
    # into the page cache
    subprocess.run([sys.executable, "-c", "import tsvplan.cli"], env=child_env(),
                   cwd=ROOT, check=True, timeout=UNIT_TIMEOUT_S)

    # a traced run alternates untraced and traced units of the same seed, so
    # the difference of their wall times is the tracing overhead
    modes = [False, True] if traced else [False]
    units = []       # (out dir, traced, record or None)
    durations = []   # per round of modes
    start = time.monotonic()
    while not units or time.monotonic() - start + median(durations) <= seconds:
        began = time.monotonic()
        for mode in modes:
            out = work / f"unit{len(units)}"
            units.append((out, mode, run_unit(workload, design, seed, out, mode)))
        durations.append(time.monotonic() - began)

    failures = []
    good = []
    reference = None
    for out, mode, record in units:
        if record is None:
            failures.append(f"{out.name}: no record (crash or timeout)")
            continue
        if record["exit_code"] != 0:
            failures.append(f"{out.name}: exit code {record['exit_code']}")
            continue
        try:
            if workload.command == "optimize":
                problems = check_optimize(out, design, record)
            else:
                values = workload.args[workload.args.index("--values") + 1].split(",")
                problems = check_sweep(out, values)
        except CHECK_ERRORS as exc:
            problems = [f"output check raised {exc!r}"]
        reference = reference or fingerprint(record)
        if fingerprint(record) != reference:
            problems.append("result fingerprint differs from the run's first unit")
        if problems:
            failures += [f"{out.name}: {p}" for p in problems]
            continue
        record["bytes_written"] = sum(f.stat().st_size for f in out.iterdir())
        good.append((mode, record))

    plain = [r for mode, r in good if not mode]
    walls = [scaled(r["wall_s"], r["probe_s"]) for r in plain]
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "traced": traced,
        "environment": environment(), "attempted": len(units),
        "failed": len(units) - len(good), "failures": failures,
        "fingerprint": reference,
        "end_to_end": {
            "wall_s": median(walls),
            "setup_s": median([scaled(r["setup_s"], r["setup_probe_s"]) for r in plain]),
            "moves_per_s": median([r["moves"] / scaled(r["optimize_s"], r["probe_s"])
                                   for r in plain]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        },
        "measured": {
            "wall_s": median([r["wall_s"] for r in plain]),
            "wall_s_max": max([r["wall_s"] for r in plain], default=float("nan")),
            "setup_s": median([r["setup_s"] for r in plain]),
            "moves_per_s": median([r["moves"] / r["optimize_s"] for r in plain]),
            "probe_us": 1e6 * median([r["probe_s"] for r in plain]),
        },
        "quality": {**(quality(plain[0], workload.command) if plain else {}),
                    "error_rate": (len(units) - len(good)) / len(units)},
        "units": [{k: r[k] for k in ("wall_s", "setup_s", "optimize_s", "moves",
                                     "peak_rss_mb", "probe_s", "setup_probe_s")}
                  | {"traced": mode} for mode, r in good],
    }
    if traced:
        spans = [span_metrics(r) for mode, r in good if mode]
        layer = {}
        if spans:
            layer = {k: median([s[k] for s in spans]) for k in spans[0] if k != "largest_share"}
            layer["largest_share"] = statistics.mode(s["largest_share"] for s in spans)
            traced_wall = median([scaled(r["wall_s"], r["probe_s"]) for mode, r in good if mode])
            layer["trace.overhead_s"] = traced_wall - median(walls)
            layer["trace.overhead_pct"] = 100 * layer["trace.overhead_s"] / median(walls)
        result["per_layer"] = layer
    (work / "result.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return result


def recorded_fingerprint(name: str, seed: int):
    path = HERE / "fingerprints.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(name, {}).get(str(seed))


def print_report(result: dict) -> None:
    env = result["environment"]
    measured = result["measured"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {int(result['traced'])}  units {result['attempted']} "
          f"({result['failed']} failed)")
    print(f"  env nproc={env['nproc']} cpu={env['cpu']!r} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    units = {"wall_s": "s", "setup_s": "s", "moves_per_s": "1/s", "peak_rss_mb": "MB"}
    for key, value in result["end_to_end"].items():
        raw = f"  (as measured {measured[key]:.6g})" if key in measured else ""
        print(f"  {key:<28}{value:>14.6g} {units[key]}{raw}")
    print(f"  {'wall_s max':<28}{measured['wall_s_max']:>14.6g} s  (as measured; "
          f"{len([u for u in result['units'] if not u['traced']])} samples, too few "
          f"for a high percentile, which needs >= 11)")
    print(f"  {'probe_us':<28}{measured['probe_us']:>14.6g} us  (speed probe, "
          f"reference {REFERENCE_PROBE_S * 1e6:g} us)")
    quality_units = {"peakT_drop_K": "K", "avgT_drop_K": "K", "wl_change_pct": "%",
                     "area_change_pct": "%", "error_rate": "1"}
    for key, value in result["quality"].items():
        print(f"  {key:<28}{value:>14.6g} {quality_units[key]}")
    for key, value in result.get("per_layer", {}).items():
        shown = value if isinstance(value, str) else f"{value:.6g}"
        print(f"  {key:<28}{shown:>14} {'' if isinstance(value, str) else unit_of(key)}")
    fp = result["fingerprint"]
    if fp is not None:
        repeats = "NO" if any("fingerprint" in f for f in result["failures"]) else "yes"
        print(f"  fingerprint trace_sha256={fp['trace_sha256'][:16]}... "
              f"evaluations={fp['evaluations']} repeats identical: {repeats}")
        recorded = recorded_fingerprint(result["workload"], result["seed"])
        if recorded is None:
            print("  fingerprint: no recorded baseline for this seed")
        elif recorded == fp:
            print("  fingerprint: matches the recorded baseline (fingerprints.json)")
        else:
            print("  fingerprint: DIFFERS from the recorded baseline (fingerprints.json);"
                  " a change that alters a fixed-seed result must say so")


def contract_line(result: dict, spec: dict) -> dict:
    section = "per_layer" if result["traced"] else "end_to_end"
    values = result.get(section, {})
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
               for m in spec[section]}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    needed = [ROOT / "src" / "tsvplan" / "cli.py", ROOT / "BENCHMARK.json"]
    needed += [ROOT / w.design for w in WORKLOADS.values()]
    missing = [str(p.relative_to(ROOT)) for p in dict.fromkeys(needed) if not p.is_file()]
    if missing:
        print(f"not a tsvplan checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    os.environ.update(THREADS)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    names = list(WORKLOADS) if opts.workload == "all" else [opts.workload]
    lines = {}
    for name in names:
        result = run_workload(name, opts.seed, opts.seconds, bool(opts.trace))
        print_report(result)
        lines[name] = contract_line(result, spec)
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
