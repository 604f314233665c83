#!/usr/bin/env python3
"""DeepCaps int8-vs-fp32 benchmark: offline at two threads, open-loop
serving and the Q-CapsNets search at one.

    python3 qbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 qbench/run.py --make-checkpoint

Builds the qbench binary (qbench/CMakeLists.txt) into .bench_build, makes the
untimed inputs (the int8 .qcg and its calibrated spec) from the pinned
checkpoint, runs the workload in its own process under a fixed OpenMP team,
checks the outputs, and prints one JSON object as the last stdout line:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
See qbench/README.md.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
BINARY = BUILD / "qbench"
CHECKPOINT = BENCH / "deepcaps_cifar_s13.bin"
CHECKPOINT_SHA256 = (
    "a3fca7cb11809caacc10b27109d1215204b67f0f208837c99d21841d9b6770bf")

# Workload -> (qbench mode, OpenMP team size).
WORKLOADS = {
    "deep_offline_2t": ("offline", 2),
    "deep_serve_1t": ("serve", 1),
    "deep_search_1t": ("search", 1),
}

# Offline check: int8 accuracy on the pinned test set within this many
# points of core::Evaluator's fake-quant accuracy at the same spec; fp32
# accuracy above the floor. README records today's figures.
INT8_VS_FAKE_QUANT_MARGIN = 0.03
FP32_ACC_FLOOR = 0.95

# End-to-end metrics: name -> (unit, qbench value per mode).
END_TO_END = {
    "int8_ms": ("ms", {"offline": "int8_ms", "serve": "int8_ms",
                       "search": "search_ms"}),
    "fp32_ms": ("ms", {"offline": "fp32_ms", "serve": "fp32_ms",
                       "search": "fp32_ms"}),
    "w_mem_x": ("x", None),
    "setup_s": ("s", None),
    "peak_rss_mb": ("MB", None),
}

KINDS = ["convcaps", "conv2d", "convcaps3d", "routing", "votes", "residual",
         "rescale"]
NN_LAYERS = ["L1", "B2", "B3", "B4", "B5", "L6"]
PER_LAYER = (
    [("tensor.qgemm_gmacs", "GMAC/s"), ("tensor.gemm_gmacs", "GMAC/s"),
     ("tensor.gemm_mmacs_per_call", "MMAC"),
     ("tensor.qgemm_kib_per_call", "KiB"), ("tensor.gemm_kib_per_call", "KiB"),
     ("qengine.forward_ms", "ms"), ("qengine.cpu_ms_per_img", "ms"),
     ("qengine.compile_ms", "ms"), ("qengine.kib_per_img", "KiB")]
    + [("qengine.kind_ms." + k, "ms") for k in KINDS]
    + [("nn.forward_ms", "ms"), ("nn.forward_b1_ms", "ms")]
    + [("nn.layer_ms." + n, "ms") for n in NN_LAYERS]
    + [("io.load_ms", "ms"), ("io.qcg_kib", "KiB")]
    + [(f"serve.{m}.{model}", u) for m, u in
       [("mean_batch", "imgs"), ("compute_ms", "ms"), ("wait_ms", "ms"),
        ("client_ms", "ms")] for model in ("int8", "fp32")]
    + [("serve.sys_cpu_ms_per_req", "ms")]
    + [("core." + c, "count") for c in
       ["evals", "compiles", "memo_hits", "fallbacks", "early_exits",
        "wcache_hits"]]
    + [("core.eval_ms", "ms"), ("core.calibrate_ms", "ms")]
)

SCALAR_TIERS = {"QCAPS_GEMM_NATIVE": "0", "QCAPS_QGEMM_NATIVE": "0",
                "QCAPS_CAPS_NATIVE": "0"}


def log(msg):
    print(f"[qbench] {msg}", file=sys.stderr, flush=True)


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SystemExit("qbench: the program's sources (CMakeLists.txt, src/) "
                         "are not beside qbench/")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "qbench",
                    "-j", str(min(3, os.cpu_count() or 1))],
                   stdout=sys.stderr, check=True)


def run_binary(mode, threads, *args, extra_env=None, timeout=170):
    """Run one qbench process; returns its last-line JSON."""
    env = dict(os.environ, OMP_NUM_THREADS=str(threads))
    env.pop("QCAPS_QGRAPH_PROFILE", None)
    env.update(extra_env or {})
    proc = subprocess.run([str(BINARY), "--mode", mode, *map(str, args)],
                          env=env, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise SystemExit(f"qbench: mode {mode} exited "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def prepare():
    """The int8 .qcg, its spec and the fake-quant reference accuracy; remade
    whenever the checkpoint or the qbench binary changes."""
    OUT.mkdir(exist_ok=True)
    qcg = OUT / "deepcaps_int8.qcg"
    meta = OUT / "prepare.json"
    key = sha256(CHECKPOINT) + sha256(BINARY)
    if meta.is_file() and qcg.is_file():
        cached = json.loads(meta.read_text())
        if cached.get("key") == key:
            return qcg, cached["result"]
    result = run_binary("prepare", 2, "--checkpoint", CHECKPOINT, "--qcg", qcg)
    meta.write_text(json.dumps({"key": key, "result": result}))
    return qcg, result


def profile_kinds(path, images):
    """Per-image ms per op kind and KiB per image from the executor's
    per-node profile dump."""
    prof = json.loads(Path(path).read_text())
    out = {"qengine.kind_ms." + k: 0.0 for k in KINDS}
    for row in prof["kinds"]:
        name = "qengine.kind_ms." + row["kind"]
        if name in out:
            out[name] = row["ns"] / 1e6 / images
    out["qengine.kib_per_img"] = (
        sum(n["bytes"] for n in prof["nodes"]) / 1024 / images)
    return out


def self_times(spans):
    """Self ms per layer (span-name prefix) -- each span's duration minus
    the part of it its child spans cover -- for the workload's own spans and,
    apart, for the per-layer probes that run after it."""
    child = [0.0] * len(spans)
    root = list(range(len(spans)))
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            child[s["parent"]] += s["t1"] - s["t0"]
            root[i] = root[s["parent"]]
    tables = {"workload": {}, "probe": {}}
    for i, s in enumerate(spans):
        table = tables["probe" if spans[root[i]]["name"] == "probe"
                       else "workload"]
        layer = s["name"].split(".")[0]
        table[layer] = table.get(layer, 0.0) + s["t1"] - s["t0"] - child[i]
    tables["probe"].pop("probe", None)
    return tables


def trace_report(workload, seed, values, spans_path):
    """Self time per layer for the traced run, plus tracing overhead against
    the untraced runs of this workload recorded in .bench_out."""
    spans = json.loads(Path(spans_path).read_text())["spans"]
    tables = self_times(spans)
    mode = WORKLOADS[workload][0]
    history = OUT / "results.jsonl"
    untraced = []
    if history.is_file():
        for line in history.read_text().splitlines():
            rec = json.loads(line)
            if rec["workload"] == workload and rec["trace"] == 0:
                untraced.append(rec["metrics"]["int8_ms"]["value"])
    traced = values[END_TO_END["int8_ms"][1][mode]]
    lines = [f"# Traced run: {workload}, seed {seed}", ""]
    for title, table in tables.items():
        total = sum(table.values()) or 1.0
        lines += [f"Self time, {title} spans:", "",
                  "| layer | self ms | share |", "|---|---|---|"]
        for layer, ms in sorted(table.items(), key=lambda kv: -kv[1]):
            lines.append(f"| {layer} | {ms:.1f} | {100 * ms / total:.1f}% |")
        lines.append("")
    if untraced:
        base = statistics.median(untraced)
        lines.append(f"Tracing overhead on int8_ms: traced {traced:.4g} vs "
                     f"untraced median {base:.4g} over {len(untraced)} runs "
                     f"= {100 * (traced / base - 1):+.1f}%")
    else:
        lines.append(f"Tracing overhead: no untraced run of {workload} "
                     f"recorded yet (traced int8_ms {traced:.4g})")
    path = OUT / f"trace_report_{workload}.md"
    path.write_text("\n".join(lines) + "\n")
    log(f"traced-run report: {path}")


def run(workload, seed, seconds, trace):
    mode, threads = WORKLOADS[workload]
    build()
    if sha256(CHECKPOINT) != CHECKPOINT_SHA256:
        raise SystemExit(f"qbench: {CHECKPOINT.name} does not match its "
                         "pinned hash; remake it with --make-checkpoint")
    qcg, prep = prepare()
    args = ["--checkpoint", CHECKPOINT, "--qcg", qcg, "--seed", seed,
            "--seconds", seconds]
    checks = []
    if mode == "offline":
        oracle = OUT / f"scalar_scores_{seed}.txt"
        run_binary("scores", 1, "--qcg", qcg, "--seed", seed, "--out", oracle,
               extra_env=SCALAR_TIERS)
        args += ["--oracle", oracle]
    extra_env = {}
    spans = OUT / f"trace_{workload}_{seed}.json"
    profile = OUT / f"profile_{workload}_{seed}.json"
    if trace:
        args += ["--trace", spans]
        if mode != "search":
            extra_env["QCAPS_QGRAPH_PROFILE"] = str(profile)
            profile.unlink(missing_ok=True)
    res = run_binary(mode, threads, *args, extra_env=extra_env)
    v = res["values"]
    checks += [(c["what"], c["ok"]) for c in res["checks"]]
    if mode == "offline":
        fq = prep["values"]["fake_quant_acc"]
        checks.append((f"int8 accuracy {v['int8_acc']:.4f} within "
                       f"{INT8_VS_FAKE_QUANT_MARGIN} of fake-quant {fq:.4f}",
                       abs(v["int8_acc"] - fq) <= INT8_VS_FAKE_QUANT_MARGIN))
        checks.append((f"fp32 accuracy {v['fp32_acc']:.4f} above "
                       f"{FP32_ACC_FLOOR}", v["fp32_acc"] >= FP32_ACC_FLOOR))
    for what, ok in checks:
        if not ok:
            log(f"CHECK FAILED: {what}")

    side = {k: v[k] for k in sorted(v) if not k.startswith(
        ("tensor.", "qengine.", "nn.", "io.", "serve.", "core."))}
    print(json.dumps({"workload": workload, "seed": seed, "trace": trace,
                      "threads": threads, "checks": len(checks),
                      "host": res["labels"], "info": side}))
    if trace:
        metrics = {name: {"value": v.get(name, 0.0), "unit": unit}
                   for name, unit in PER_LAYER}
        if mode != "search":
            images = v["qengine.profiled_images"]
            for name, val in profile_kinds(profile, images).items():
                metrics[name]["value"] = val
        trace_report(workload, seed, v, spans)
    else:
        metrics = {}
        for name, (unit, by_mode) in END_TO_END.items():
            val = v[by_mode[mode]] if by_mode else v[name]
            metrics[name] = {"value": val, "unit": unit}
        with open(OUT / "results.jsonl", "a") as f:
            f.write(json.dumps({"workload": workload, "seed": seed,
                                "trace": 0, "metrics": metrics}) + "\n")
    print(json.dumps({"correct": all(ok for _, ok in checks),
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))


def make_checkpoint():
    build()
    res = run_binary("train", 2, "--out", CHECKPOINT, timeout=3600)
    log(f"fp32 test accuracy {res['values']['fp32_acc']:.4f}; "
        f"sha256 {sha256(CHECKPOINT)}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--make-checkpoint", action="store_true")
    a = p.parse_args()
    if a.make_checkpoint:
        make_checkpoint()
    elif a.workload:
        run(a.workload, a.seed, a.seconds, a.trace)
    else:
        p.error("--workload or --make-checkpoint is required")


if __name__ == "__main__":
    main()
