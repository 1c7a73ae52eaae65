"""Benchmark worker: one fresh interpreter that imports `modecap.cli`, says
"ready" on stdout, and, given a job file, runs one workload's invocations of
`modecap.cli.main` in-process.

    python3 perfbench/worker.py            # set-up probe: import, say ready, exit
    python3 perfbench/worker.py JOB.json   # run the job, print one JSON result line

The parent times set-up from process start to the "ready" line, so nothing
but `sys` is imported before `modecap.cli`.
"""
import sys


def _run_job(job_path: str) -> int:
    import gc
    import hashlib
    import json
    import os
    import resource
    import time

    from modecap import cli

    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    src = os.path.realpath(job["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"worker: modecap imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    tracer = None
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()

    out = job["out"]
    records: list[dict] = []

    def invoke(traced: bool) -> None:
        if os.path.exists(out):
            os.remove(out)
        gc.collect()
        if traced:
            tracer.invocation = len(records)
            tracer.install()
        start = time.perf_counter()
        try:
            code = cli.main(job["argv"])
        except Exception as exc:  # an escaped exception is a failed invocation
            print(f"worker: invocation raised {exc!r}", file=sys.stderr)
            code = None
        elapsed = time.perf_counter() - start
        maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if traced:
            tracer.uninstall()
        data = b""
        if os.path.exists(out):
            with open(out, "rb") as fh:
                data = fh.read()
        if not records:
            with open(job["first_out"], "wb") as fh:
                fh.write(data)
        records.append(
            {
                "index": len(records),
                "elapsed_s": elapsed,
                "code": code,
                "sha256": hashlib.sha256(data).hexdigest(),
                "bytes": len(data),
                "traced": traced,
                "maxrss_mb": maxrss_mb,
            }
        )

    invoke(traced=False)  # warm-up: checked, not timed
    begin = time.perf_counter()
    while True:
        untraced = sum(1 for r in records[1:] if not r["traced"])
        traced = len(records) - 1 - untraced
        enough = untraced >= job["min_samples"] and (tracer is None or traced >= job["min_samples"])
        if enough and time.perf_counter() - begin >= job["seconds"]:
            break
        # The traced run alternates traced and untraced invocations, so the
        # overhead is measured under the same conditions.
        invoke(traced=tracer is not None and traced < untraced)

    result = {"records": records, "layers": None}
    if tracer is not None:
        with open(job["spans_out"], "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        traced_ids = [r["index"] for r in records if r["traced"]]
        result["layers"] = tracing.layer_metrics(tracer.spans, traced_ids)
    print(json.dumps(result))
    return 0


def main() -> int:
    import modecap.cli  # noqa: F401  (the set-up being timed)

    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if len(sys.argv) < 2:
        return 0
    return _run_job(sys.argv[1])


if __name__ == "__main__":
    raise SystemExit(main())
