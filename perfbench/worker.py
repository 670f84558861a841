"""Run one benchmark job in a fresh process and print its measurements as JSON.

Usage: python3 perfbench/worker.py '<job json>'

The job is either {"kind": "pipeline", "config": ..., "output_dir": ...},
a full ``run_pipeline`` over a config file, or {"kind": "communities",
"edges": ..., "output": ...}, the ``sentinet communities`` CLI job. Both
carry "spawned_at" (the parent's ``time.monotonic()`` just before it started
this process, so set-up time includes interpreter start) and "trace".
Set-up ends when the job's entry point is called; the word lists and
lexicons that ``run_pipeline`` loads count in the job's time.
Nothing of the input generator lives in this process, so its peak resident
memory is that of the job alone. The peak is the kernel's VmHWM of this
process: ``getrusage``'s ru_maxrss would include the resident set of the
parent, which a started process inherits.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path


def _peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _file_state(root: Path) -> dict[str, tuple[int, int]]:
    stats = {str(path): path.stat() for path in root.rglob("*") if path.is_file()}
    return {path: (st.st_size, st.st_mtime_ns) for path, st in stats.items()}


def main(job: dict) -> dict:
    from sentinet import cli, pipeline
    from sentinet.config import load_config

    if job["kind"] == "pipeline":
        config = load_config(job["config"], env={"SENTINEL_OUTPUT_DIR": job["output_dir"]})
        written = Path(job["output_dir"])

        def run() -> str:
            pipeline.run_pipeline(config)
            return ""

    else:
        argv = ["communities", "--edges", job["edges"], "--output", job["output"], "--seed", "13"]
        written = Path(job["output"]).parent

        def run() -> str:
            with contextlib.redirect_stdout(io.StringIO()) as captured:
                status = cli.main(argv)
            if status != 0:
                raise RuntimeError(f"sentinet {' '.join(argv)} exited with {status}")
            return captured.getvalue()

    setup_s = time.monotonic() - job["spawned_at"]
    result = {"setup_s": setup_s}
    if job["trace"]:
        from tracer import Tracer, installed, layer_metrics

        before = _file_state(written) if written.exists() else {}
        with installed(Tracer()) as tracer:
            start, cpu = time.perf_counter(), time.process_time()
            result["stdout"] = run()
            result["wall_s"] = time.perf_counter() - start
            result["cpu_s"] = time.process_time() - cpu
        after = _file_state(written)
        result["layers"] = layer_metrics(tracer)
        result["layers"]["pipeline.bytes_written"] = sum(
            size for path, (size, mtime) in after.items() if before.get(path) != (size, mtime)
        )
        result["spans"] = tracer.to_json()
    else:
        start, cpu = time.perf_counter(), time.process_time()
        result["stdout"] = run()
        result["wall_s"] = time.perf_counter() - start
        result["cpu_s"] = time.process_time() - cpu
    result["peak_rss_mb"] = _peak_rss_mb()
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
