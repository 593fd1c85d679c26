"""Tests of the benchmark itself: python3 -m pytest perfbench

They run the workloads at tiny sizes, so they take seconds, not minutes.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
for path in (str(HERE.parent / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import golden  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checks import oracle_problems  # noqa: E402
from switchprompt import autograd, data, runner  # noqa: E402
from tracing import StepClock, Tracer  # noqa: E402
from workloads import SPECS, TINY, WORKLOADS, make_inputs, mine_keywords, run_config  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tiny_result(capsys, monkeypatch, workload, trace, expected_exit=0):
    monkeypatch.setitem(workloads.SPECS, workload, TINY[workload])
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == expected_exit
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(capsys, monkeypatch, workload, trace):
    lines, result = _tiny_result(capsys, monkeypatch, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert np.isfinite(reported["value"])
        assert any(line.startswith(metric["name"] + " ") and line.endswith(" " + metric["unit"])
                   for line in lines)
    env = json.loads(next(line for line in lines if line.startswith('{"env"')))["env"]
    assert env["seed"] == 3 and env["source_lines"]["total"] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_an_exception_in_the_program_is_a_failed_result(capsys, monkeypatch, workload):
    def broken(*args, **kwargs):
        raise RuntimeError("broken train")

    monkeypatch.setattr(runner, "train", broken)
    _, result = _tiny_result(capsys, monkeypatch, workload, 0, expected_exit=1)
    assert not result["correct"]
    assert result["failed"] >= 1 and result["attempted"] >= result["failed"]


@pytest.mark.parametrize("workload", sorted(SPECS))
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    def snapshot(inputs):
        parts = [inputs.general, inputs.dataset.examples]
        if inputs.eval_set is not None:
            parts += [inputs.eval_set.examples, inputs.warm_set.examples]
        return parts

    spec = SPECS[workload]
    first = snapshot(make_inputs(spec, 7))
    assert first == snapshot(make_inputs(spec, 7))
    assert first != snapshot(make_inputs(spec, 8))
    texts = [text for text, _ in make_inputs(spec, 7).dataset.examples]
    assert len(set(texts)) == len(texts)
    lengths = {len(text.split()) for text in texts}
    assert min(lengths) >= spec.words[0] and max(lengths) <= spec.words[1]


def test_eval_cold_texts_are_unique_and_ragged():
    inputs = make_inputs(SPECS["eval-cold"], 1)
    texts = inputs.eval_set.texts()
    assert len(texts) >= 2000 and len(set(texts)) == len(texts)
    assert not set(texts) & set(inputs.warm_set.texts())
    lengths = [len(text.split()) for text in texts]
    assert min(lengths) == 4 and max(lengths) == 100


def _patched_names():
    with Tracer() as tracer, StepClock(record_losses=True) as clock:
        names = [(o, n) for o, n, _ in tracer._patches._saved + clock._patches._saved]
    return names


def test_every_wrapped_attribute_is_restored_after_a_traced_run(tmp_path):
    names = _patched_names()
    wrapped_ops = {n for o, n in names if o is autograd}
    assert wrapped_ops == set(autograd.__all__) - {"Tensor", "DropoutRng", "no_grad"}
    before = {key: key[0].__dict__[key[1]] for key in names}
    spec = TINY["eval-cold"]
    with Tracer() as tracer:
        outcome = WORKLOADS["eval-cold"](spec, make_inputs(spec, 2), None, tmp_path)
    assert outcome.failed == 0 and tracer.metrics()["autograd.backward_s"] > 0
    after = {key: key[0].__dict__[key[1]] for key in names}
    assert all(after[key] is before[key] for key in names)


def test_golden_gate_passes_here_and_fails_on_a_perturbed_loss_trace(tmp_path):
    reference = json.loads(golden.REFERENCE.read_text(encoding="utf-8"))
    outputs = golden.golden_outputs(tmp_path)
    assert golden.compare(outputs, reference) == []

    perturbed = dict(outputs, losses=list(outputs["losses"]))
    perturbed["losses"][3] *= 1.0 + 1e-5
    problems = golden.compare(perturbed, reference)
    assert len(problems) == 1 and problems[0][1] == 1 and "step 3" in problems[0][0]

    nondeterministic = dict(outputs, metrics_identical=False)
    assert golden.compare(nondeterministic, reference)[0][1] == len(reference["losses"])


def test_oracle_flags_a_wrong_activation(tmp_path, monkeypatch):
    spec = TINY["train-small"]
    inputs = make_inputs(spec, 4)
    split = data.sample_fewshot(inputs.dataset, shots=spec.shots, seed=4)
    runner.train(run_config(spec, 4), split, mine_keywords(inputs), tmp_path)
    model = runner.load_model(tmp_path / "model_seed4.bin")
    texts = split.test.texts()
    assert oracle_problems(model, texts, 4) == []
    monkeypatch.setattr(autograd, "gelu", autograd.relu)
    assert len(oracle_problems(model, texts, 4)) == 4
