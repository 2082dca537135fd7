"""Bundled toy trainer: the external-command integration stand-in.

Trains nothing. It reads the genotype payload and settings files that the
command backend materializes, evaluates the same closed-form fitness as the
in-process surrogate, prints one accuracy line per epoch, and finishes with
the ``FITNESS=<dd.dd>`` line the command backend parses.

Run as::

    python -m evonas.toy_trainer --payload p.txt --settings s.json --seed 7 --slot 0
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .backends import DEFAULT_TAU, SurrogateBackend, saturation, _quantize
from .jobs import JobSpec


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="toy-trainer", description=__doc__)
    parser.add_argument("--payload", required=True, help="canonical genotype text file")
    parser.add_argument("--settings", required=True, help="JSON settings file")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--slot", type=int, default=0)
    args = parser.parse_args(argv)

    payload = Path(args.payload).read_text(encoding="utf-8").strip()
    settings = {k: str(v) for k, v in json.loads(Path(args.settings).read_text(encoding="utf-8")).items()}
    epochs = int(settings.get("epochs", settings.get("total_epoch", 1)))

    import hashlib

    identifier = hashlib.sha224(payload.encode("utf-8")).hexdigest()
    job = JobSpec(
        name="toy", identifier=identifier, payload=payload, backend="surrogate",
        settings=settings, seed=args.seed, epochs=epochs,
    )
    fitness, _ = SurrogateBackend().evaluate(job)

    # per-epoch curve: same saturating form the final fitness follows
    tau = float(settings.get("tau", DEFAULT_TAU))
    full = saturation(epochs, tau)
    for epoch in range(1, epochs + 1):
        acc = fitness * saturation(epoch, tau) / full if full > 0 else 0.0
        print(f"epoch {epoch}/{epochs} acc {_quantize(acc):.2f}")
    print(f"FITNESS={fitness:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
