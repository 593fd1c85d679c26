"""Batched classification equals the one-example-at-a-time path.

The reference below is the per-example path: one B = 1 no-grad plain pass
for the gates and one B = 1 prompted encoder pass per text, drawing dropout in text order from the
shared stream, then one head call on the stacked CLS vectors. A batched
``PromptedClassifier.logits`` must match it on random ragged batches, in
values and in gradients, and the length-bucketed ``evaluate`` must match
one-text-at-a-time scoring.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from switchprompt import autograd as ag
from switchprompt import runner
from switchprompt.autograd import DropoutRng, Tensor
from switchprompt.data import LabeledDataset
from switchprompt.encoder import ClassificationHead, EncoderConfig, EncoderWeights, TransformerEncoder
from switchprompt.prompts import init_prompt_state, per_layer_prompts
from switchprompt.runner import PromptedClassifier
from switchprompt.tokenizer import Tokenizer

WORDS = [f"w{i}" for i in range(10)]
LABELS = ["a", "b", "c"]
EMBED = 8

texts_strategy = st.lists(
    st.lists(st.sampled_from(WORDS + ["unseen"]), min_size=1, max_size=12).map(" ".join),
    min_size=1,
    max_size=6,
)


def make_model(encoder_dropout: float = 0.1, head_dropout: float = 0.1):
    tokenizer = Tokenizer(WORDS)
    cfg = EncoderConfig(
        vocab_size=tokenizer.vocab_size, embed_dim=EMBED, num_layers=2, num_heads=2, ffn_dim=16,
        max_seq_len=24, dropout_rate=encoder_dropout,
    )
    encoder = TransformerEncoder(cfg, EncoderWeights.init(cfg, seed=3))
    rng = np.random.default_rng(4)
    state = init_prompt_state("switchprompt", 2, EMBED, soft_len=2,
                              keyword_vectors=rng.standard_normal((3, EMBED)), rng=rng)
    # larger gate weights than the 0.02 init, so the gates vary with the input
    state.gate1_weights.data = rng.standard_normal(EMBED)
    state.gate2_weights.data = rng.standard_normal(EMBED)
    head = ClassificationHead.init(EMBED, len(LABELS), head_dropout, rng)
    head.projection.data = rng.standard_normal(head.projection.shape)
    return PromptedClassifier(encoder, head, state, tokenizer, LABELS)


def per_example_logits(model, texts, train=False, rng=None):
    layers, state = model.encoder.config.num_layers, model.prompt_state
    rows = []
    for text in texts:
        ids = model._ids(text)
        with ag.no_grad():
            s = Tensor(model.encoder.encode_plain(ids)[0].data)
        prompts = per_layer_prompts(state, s, layers)
        cls = model.encoder.encode_prompted(ids, prompts, train=train, rng=rng)
        rows.append(ag.reshape(cls, (1, EMBED)))
    return model.head(ag.concat(rows, axis=0), train=train, rng=rng)


def gradients(model, build):
    for p in model.parameters():
        p.grad = None
    ag.backward(build())
    return [p.grad.copy() for p in model.parameters()]


@settings(max_examples=25, deadline=None)
@given(texts=texts_strategy)
def test_batched_logits_equal_per_example_logits_without_grad(texts):
    model = make_model()
    with ag.no_grad():
        batched = model.logits(texts).data
        fresh = make_model()  # same weights, empty gate cache
        single = np.vstack([fresh.logits([text]).data for text in texts])
        reference = per_example_logits(model, texts).data
    np.testing.assert_allclose(batched, single, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(batched, reference, rtol=0.0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(texts=texts_strategy, step=st.integers(0, 1000))
def test_batched_train_logits_and_gradients_equal_per_example_path(texts, step):
    # encoder dropout 0.1 and head dropout 0.1: every mask must line up
    model = make_model()
    labels = [i % len(LABELS) for i in range(len(texts))]

    def run(path):
        drop = DropoutRng(5)
        drop.begin_step(step)
        logits = path(texts, train=True, rng=drop)
        return logits.data, gradients(model, lambda: ag.softmax_cross_entropy(logits, labels))

    batched, batched_grads = run(model.logits)
    reference, reference_grads = run(lambda t, **kw: per_example_logits(model, t, **kw))
    np.testing.assert_allclose(batched, reference, rtol=0.0, atol=1e-12)
    assert len(batched_grads) == len(reference_grads) == len(model.parameters())
    for got, want in zip(batched_grads, reference_grads):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(texts=texts_strategy, step=st.integers(0, 1000))
def test_batch_equals_stacked_single_calls_in_train_mode(texts, step):
    # without head dropout, B one-text calls on one stream draw exactly the
    # encoder masks of one B-text call
    model = make_model(encoder_dropout=0.1, head_dropout=0.0)
    batched_rng, single_rng = DropoutRng(9), DropoutRng(9)
    batched_rng.begin_step(step)
    single_rng.begin_step(step)
    batched = model.logits(texts, train=True, rng=batched_rng).data
    single = np.vstack([model.logits([t], train=True, rng=single_rng).data for t in texts])
    np.testing.assert_allclose(batched, single, rtol=0.0, atol=1e-12)
    assert batched_rng.calls == single_rng.calls


@settings(max_examples=25, deadline=None)
@given(texts=st.lists(st.lists(st.sampled_from(WORDS), min_size=1, max_size=12).map(" ".join),
                      min_size=1, max_size=12),
       budget=st.integers(1, 64))
def test_bucketed_evaluate_equals_one_text_at_a_time(texts, budget):
    model = make_model()
    dataset = LabeledDataset([(t, LABELS[i % 3]) for i, t in enumerate(texts)],
                             {label: i for i, label in enumerate(LABELS)})
    labels = [i % 3 for i in range(len(texts))]
    saved = runner.EVAL_TOKEN_BUDGET
    runner.EVAL_TOKEN_BUDGET = budget
    try:
        accuracy, loss = runner._evaluate(model, dataset)
    finally:
        runner.EVAL_TOKEN_BUDGET = saved
    with ag.no_grad():
        logits = np.vstack([model.logits([t]).data for t in texts])
    assert accuracy == float((np.argmax(logits, axis=1) == labels).mean())
    assert runner.evaluate(model, dataset) == accuracy
    want = ag.softmax_cross_entropy(Tensor(logits), labels).item()
    assert abs(loss - want) <= 1e-12
