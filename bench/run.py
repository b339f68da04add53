"""Benchmark of the refnet pipeline: train, decode and gradcheck workloads.

    python3 bench/run.py --workload train --seed 77 --seconds 20 --trace 0
    python3 bench/run.py                  # every workload, one process each

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics (``pass_s``, ``setup_s``, ``peak_rss_mb``); with
``--trace 1`` the workload runs once untraced and once traced, and the
object carries the per-layer metrics listed in BENCHMARK.json. The full result, with run metadata and the whole
per-layer table, is written to ``bench/out/``. The exit code is non-zero
when any output check fails.
"""

from __future__ import annotations

import os

# one BLAS thread: the matrices are tiny, and runs stay comparable
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("train", "decode", "gradcheck")
# per-layer name of a failure count -> the check counter (its attempted count)
FAILURE_COUNTS = {"training.nonfinite_batches": "training.batches",
                  "decode.failed_sentences": "decode.sentences",
                  "gradcheck.failed_checks": "gradcheck.checks"}
OUT_DIR = os.path.join(BENCH_DIR, "out")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="run one workload in this process (default: all, "
                        "each in its own process)")
    p.add_argument("--seed", type=int, default=77, help="corpus seed")
    p.add_argument("--seconds", type=int, default=20,
                   help="approximate length of the measurement; sets the passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: also run traced and report per-layer metrics")
    return p.parse_args(argv)


def import_program():
    """Put the checkout's ``src`` first on the path; refuse any other refnet."""
    if not os.path.isfile(os.path.join(SRC, "refnet", "__init__.py")):
        sys.exit(f"bench: no refnet sources under {SRC}")
    sys.path.insert(0, SRC)
    import refnet
    if not os.path.abspath(refnet.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported refnet from {refnet.__file__}, not {SRC}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def program_modules():
    import refnet
    from refnet import (autodiff, brefnet, cli, corpus, evaluation, gradcheck,
                        lcc, model, mrefnet, params, seq2seq, training)
    return [refnet, autodiff, brefnet, cli, corpus, evaluation, gradcheck, lcc,
            model, mrefnet, params, seq2seq, training]


# ---------------------------------------------------------------------------
# metadata

def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "refnet")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def metadata(args):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "loadavg_start": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# one workload

def corpus_seed(args):
    import workloads as wl
    return wl.DECODE_SEED if args.workload == "decode" else args.seed


def set_up(args, workdir, checks):
    """Returns (state for the measured pass, the corpus generations' clock,
    set-up training seconds)."""
    import workloads as wl
    task, corpus = wl.repeat_corpus(corpus_seed(args))
    if args.workload != "decode":
        return task, corpus, 0.0
    state, train_s = wl.decode_setup(task, args.seed, workdir, checks)
    return state, corpus, train_s


def measure(args, state, workdir, checks, between=lambda: None):
    import workloads as wl
    if args.workload == "train":
        return wl.run_train(state, args.seed, args.seconds, workdir, checks,
                            between)
    if args.workload == "decode":
        return wl.run_decode(*state, args.seconds, workdir, checks, between)
    return wl.run_gradcheck(args.seed, args.seconds, checks, between)


def layer_metrics(tracer, traced_s, checks, census, overhead):
    """Every per-layer figure this run can give, keyed by metric name.

    A span's ``self_pct`` is its self time as a percentage of the traced
    measurement's wall time, which holds still while the box's speed swings.
    """
    share = lambda seconds: 100.0 * seconds / traced_s  # noqa: E731
    out = {"trace.spans": len(tracer.spans), "trace.overhead": overhead}
    for name, row in tracer.table().items():
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.self_pct"] = share(row["self_s"])
    steps = out.get("seq2seq.model_step.calls", 0)
    if steps:
        out["seq2seq.model_step.rows_per_call"] = (
            tracer.counts["seq2seq.model_step.rows"] / steps)
    in_beam = tracer.count_within("seq2seq.model_step", "seq2seq.beam_search")
    if in_beam:
        wasted = tracer.count_within("seq2seq.model_step", "seq2seq.beam_search",
                                     "seq2seq.greedy_decode")
        out["seq2seq.beam_search.greedy_share"] = wasted / in_beam
    out["lcc.tri_scores.in_f_s.self_pct"] = share(tracer.self_s_within(
        "lcc.tri_scores", "brefnet.f_s"))
    out["lcc.tri_scores.in_fit.self_pct"] = share(tracer.self_s_within(
        "lcc.tri_scores", "lcc.fit_anchors"))
    for stage, (nodes, nbytes, ops) in census.items():
        out[f"autodiff.tape_nodes.{stage}"] = nodes
        out[f"autodiff.tape_bytes.{stage}"] = nbytes
        for op, count in ops.items():
            out[f"autodiff.tape_nodes.{stage}.{op}"] = count
    for failed_name, counter in FAILURE_COUNTS.items():
        out[counter], out[failed_name] = checks.counts.get(counter, (0, 0))
    return out


def run_workload(args, spec):
    import spans
    import workloads as wl
    checks = wl.Checks()
    meta = metadata(args)
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        state, corpus, train_s = set_up(args, workdir, checks)
        # generate the corpus again after every pass (every check in
        # gradcheck), so that its median samples the box's speed over the
        # whole run, not only at its start
        t0 = time.perf_counter()
        plain = measure(args, state, workdir, checks, lambda: wl.repeat_corpus(
            corpus_seed(args), corpus, times=1))
        plain_s = time.perf_counter() - t0
        setup_s = corpus.quantile(50)["corpus"] + train_s
        traced = tracer = None
        if args.trace:
            tracer = spans.Tracer()
            t0 = time.perf_counter()
            with tracer.installed(program_modules()):
                traced = measure(args, state, workdir, checks)
            traced_s = time.perf_counter() - t0
            census = {}
            if args.workload == "train":
                census = wl.census(state, args.seed, traced.checkpoints)
    meta["loadavg_end"] = os.getloadavg()
    meta["python_threads"] = threading.active_count()

    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    e2e = {"pass_s": plain.pass_s, "setup_s": setup_s,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    e2e = {k: {"value": v, "unit": e2e_units[k]} for k, v in e2e.items()}
    meta["samples"] = {"pass_s": plain.repeats, "setup_s": len(corpus.passes),
                       "peak_rss_mb": 1}
    detail = {"metadata": meta, "parts": plain.parts,
              "pass_wall_s": {"median": statistics.median(plain.walls),
                              "samples": len(plain.walls), "all": plain.walls},
              "details": plain.details,
              "failures": checks.failures, "checks": checks.counts}
    if args.trace:
        # both passes timed alike, each piece at its fastest repeat
        overhead = traced.pass_s / plain.pass_s - 1.0
        layers = layer_metrics(tracer, traced_s, checks, census, overhead)
        metrics = {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        detail["traced_vs_untraced"] = {
            f"parts.{k}": {"untraced": v, "traced": traced.parts[k]}
            for k, v in plain.parts.items()}
        detail["traced_vs_untraced"]["pass_s"] = {"untraced": plain.pass_s,
                                                  "traced": traced.pass_s}
        detail["traced_vs_untraced"]["wall_s"] = {"untraced": plain_s,
                                                  "traced": traced_s}
        detail["layers"] = layers
        detail["census"] = census
    else:
        metrics = e2e
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    write_outputs(args, dict(detail, result=result, end_to_end=e2e), tracer)
    print_report(args, detail, e2e)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def write_outputs(args, detail, tracer):
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, default=str)
    if tracer is not None:
        with gzip.open(stem + "-spans.json.gz", "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": tracer.spans}, fh)


def print_report(args, detail, e2e):
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    print("# metadata " + json.dumps(detail["metadata"], default=str))
    for name, m in e2e.items():
        print(f"{name:>22} {m['value']:14.4f} {m['unit']}")
    for name, seconds in detail["parts"].items():
        print(f"{'part ' + name:>22} {seconds:14.4f} s")
    for name, pair in detail.get("traced_vs_untraced", {}).items():
        print(f"{name:>22} untraced {pair['untraced']:12.4f} "
              f"traced {pair['traced']:12.4f}")
    for name, row in sorted(detail.get("layers", {}).items()):
        if name.endswith(".self_pct") or name.endswith(".calls"):
            print(f"  {name:<52} {row:14.6g}")
    for failure in detail["failures"]:
        print(f"FAILED: {failure}")


# ---------------------------------------------------------------------------
# every workload, one process each

def run_all(args):
    code = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"# {workload}: exit code {proc.returncode}")
            code = 1
            continue
        result = json.loads(lines[-1])
        print(f"# {workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
    return code


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    spec = import_program()
    if args.workload is None:
        return run_all(args)
    try:
        return run_workload(args, spec)
    except Exception:  # report and fail without printing a result line
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
