#!/usr/bin/env python3
"""Generate the bundled synthetic corpus and a matching pipeline config.

Usage:
    python scripts/generate_synthetic_corpus.py [--dest DIR] [--seed N]

Writes corpus.jsonl, demo.cfg and ground_truth.json into DIR (default
./demo). Run the pipeline afterwards with:

    sentinet run --config DIR/demo.cfg
"""

import argparse
import json
from pathlib import Path

from sentinet.config import PipelineConfig, write_config
from sentinet.ingest import write_corpus
from sentinet.synthetic import SyntheticSpec, generate_corpus


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dest", type=Path, default=Path("demo"))
    parser.add_argument("--seed", type=int, default=SyntheticSpec().seed)
    args = parser.parse_args()

    args.dest.mkdir(parents=True, exist_ok=True)
    records, truth = generate_corpus(SyntheticSpec(seed=args.seed))
    corpus = args.dest / "corpus.jsonl"
    write_corpus(records, corpus)

    # relative to demo.cfg, against whose directory load_config resolves them
    config = PipelineConfig(
        corpus=Path(corpus.name),
        output_dir=Path("out"),
        window_start=truth.window[0],
        window_end=truth.window[1],
        split=truth.split,
    )
    write_config(config, args.dest / "demo.cfg")

    (args.dest / "ground_truth.json").write_text(
        json.dumps(
            {
                "communities": list(truth.communities),
                "cluster_of_community": truth.cluster_of_community,
                "hubs": {name: list(hubs) for name, hubs in truth.hubs.items()},
                "viral_day": truth.viral_day.isoformat(),
                "viral_tweet_ids": list(truth.viral_tweet_ids),
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {len(records)} records to {corpus}")
    print(f"config: {args.dest / 'demo.cfg'}")


if __name__ == "__main__":
    main()
