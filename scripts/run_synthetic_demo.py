#!/usr/bin/env python3
"""Generate the synthetic corpus, run the full pipeline, and summarize.

Usage:
    python scripts/run_synthetic_demo.py [--dest DIR]

Ends with the flagged burst days and the driver-confirmation verdicts.
"""

import argparse
import json
import tempfile
from pathlib import Path

from sentinet.config import PipelineConfig
from sentinet.ingest import write_corpus
from sentinet.pipeline import run_pipeline
from sentinet.synthetic import SyntheticSpec, generate_corpus


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dest", type=Path, default=None)
    args = parser.parse_args()
    dest = args.dest or Path(tempfile.mkdtemp(prefix="sentinet-demo-"))
    dest.mkdir(parents=True, exist_ok=True)

    records, truth = generate_corpus(SyntheticSpec())
    corpus = dest / "corpus.jsonl"
    write_corpus(records, corpus)
    config = PipelineConfig(
        corpus=corpus,
        output_dir=dest / "out",
        window_start=truth.window[0],
        window_end=truth.window[1],
        split=truth.split,
    )
    summary = run_pipeline(config)

    print("pipeline summary")
    for key in sorted(summary):
        print(f"  {key}: {summary[key]}")
    report = json.loads((config.output_dir / "lsa_drivers.json").read_text())
    print(f"designed viral day: {truth.viral_day.isoformat()}")
    for event in report["events"]:
        verdict = "driver confirmed" if event["is_driver"] else "not confirmed"
        recomputed = event["recomputed_burst_score"]
        recomputed_text = "n/a" if recomputed is None else f"{recomputed:.2f}"
        print(
            f"  flagged {event['day']} pair {event['pair']}: "
            f"H={event['burst_score']:.2f} -> {recomputed_text} ({verdict})"
        )
    print(f"artifacts: {config.output_dir}")


if __name__ == "__main__":
    main()
