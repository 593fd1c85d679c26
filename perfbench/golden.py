"""Fixed-seed reference run, compared with outputs recorded in reference.json.

Every benchmark run first trains a tiny switchprompt model twice at seed 0,
whatever ``--seed`` is, and checks that

* the two runs write byte-identical ``metrics.jsonl`` files,
* the per-step training losses match the recorded trace,
* the reloaded checkpoint's logits and predictions on ragged texts match
  the recorded ones.

Matches are within a rounding tolerance, so a change that only reorders
float operations still passes; the sha256 digests in the file are
information, not a gate. Record the reference again only when a change is
meant to alter these numbers:

    python3 perfbench/golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from switchprompt import autograd as ag
from switchprompt import data, runner

from tracing import StepClock
from workloads import SPECS, make_inputs, mine_keywords, run_config

REFERENCE = Path(__file__).with_name("reference.json")
SEED = 0
SPEC = replace(
    SPECS["eval-cold"], words=(4, 30), examples_per_class=12, shots=3, embed_dim=16,
    ffn_dim=32, epochs=3, mlm_steps=20, eval_texts=16, warm_texts=0,
)
LOSS_RTOL, LOSS_ATOL = 1e-7, 1e-9
LOGIT_ATOL = 1e-7


def golden_outputs(work_dir: Path) -> dict:
    inputs = make_inputs(SPEC, SEED)
    config = run_config(SPEC, SEED)
    traces, files = [], []
    for attempt in range(2):
        run_dir = work_dir / f"golden{attempt}"
        with StepClock(record_losses=True) as clock:
            split = data.sample_fewshot(inputs.dataset, shots=SPEC.shots, seed=SEED)
            runner.train(config, split, mine_keywords(inputs), run_dir)
        traces.append(clock.losses)
        files.append((run_dir / "metrics.jsonl").read_bytes())
    model = runner.load_model(run_dir / f"model_seed{SEED}.bin")
    with ag.no_grad():
        logits = model.logits(inputs.eval_set.texts()).data
    return {
        "seed": SEED,
        "losses": traces[0],
        "logits": logits.tolist(),
        "predictions": np.argmax(logits, axis=1).tolist(),
        "metrics_identical": files[0] == files[1] and traces[0] == traces[1],
        "digests": {
            "metrics.jsonl": hashlib.sha256(files[0]).hexdigest(),
            "logits": hashlib.sha256(logits.tobytes()).hexdigest(),
        },
    }


def compare(outputs: dict, reference: dict) -> list[tuple[str, int]]:
    """Problems as (message, failed operations); empty when the gate passes."""
    problems = []
    steps = len(reference["losses"])
    if not outputs["metrics_identical"]:
        problems.append(("two identical golden runs disagree (metrics.jsonl or losses)", steps))
    got, want = np.array(outputs["losses"]), np.array(reference["losses"])
    if got.shape != want.shape:
        problems.append((f"golden run took {got.size} steps, reference has {want.size}", steps))
    else:
        bad = ~np.isclose(got, want, rtol=LOSS_RTOL, atol=LOSS_ATOL)
        if bad.any():
            first = int(np.argmax(bad))
            problems.append((
                f"loss trace differs from the reference at {int(bad.sum())} steps, "
                f"first at step {first}: {got[first]!r} != {want[first]!r}",
                int(bad.sum()),
            ))
    got, want = np.array(outputs["logits"]), np.array(reference["logits"])
    if got.shape != want.shape:
        problems.append((f"golden logits have shape {got.shape}, reference {want.shape}", len(want)))
    else:
        bad = ~np.all(np.isclose(got, want, rtol=0.0, atol=LOGIT_ATOL), axis=1)
        bad |= np.array(outputs["predictions"]) != np.array(reference["predictions"])
        if bad.any():
            problems.append((f"golden logits or predictions differ on {int(bad.sum())} texts",
                             int(bad.sum())))
    return problems


def operations(reference: dict) -> int:
    """Steps plus classified texts that the gate checks."""
    return len(reference["losses"]) + len(reference["logits"])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as scratch:
        outputs = golden_outputs(Path(scratch))
    if not outputs["metrics_identical"]:
        sys.exit("golden runs are not deterministic; reference not written")
    del outputs["metrics_identical"]
    REFERENCE.write_text(json.dumps(outputs, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")
