"""Independent numpy oracle for a trained switchprompt classifier.

It recomputes the logits straight from the model's arrays, with no tape:
a plain pass gives the CLS vector that drives both gates, the gates mix
the soft and keyword prompts (P = g1 pad(soft) + (1 - g1) P_d, with
P_d = g2 [soft; kw] + (1 - g2) [kw; soft]), and a prompted pass with that
prompt prefixed to keys and values at every layer feeds the linear head.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

from switchprompt import autograd as ag

# logits are O(1); the program and the oracle differ only in summation order
ORACLE_ATOL = 1e-8


def _layer_norm(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def _activation(name: str, x):
    if name == "gelu":
        return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))
    return np.maximum(x, 0.0)


def _sigmoid(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x)) if x >= 0 else math.exp(x) / (1.0 + math.exp(x))


def _final_states(w, cfg, ids, prompts):
    h = w["token_emb"][ids] + w["pos_emb"][: len(ids)]
    d = cfg.embed_dim // cfg.num_heads
    for i in range(cfg.num_layers):
        p = f"layer{i}."
        q = h @ w[p + "wq"] + w[p + "bq"]
        k = h @ w[p + "wk"] + w[p + "bk"]
        v = h @ w[p + "wv"] + w[p + "bv"]
        if prompts is not None:
            k = np.vstack([prompts[i], k])
            v = np.vstack([prompts[i], v])
        heads = []
        for head in range(cfg.num_heads):
            cols = slice(head * d, (head + 1) * d)
            scores = q[:, cols] @ k[:, cols].T / math.sqrt(d)
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            heads.append(e / e.sum(axis=1, keepdims=True) @ v[:, cols])
        attn = np.hstack(heads) @ w[p + "wo"] + w[p + "bo"]
        h = _layer_norm(h + attn, w[p + "ln1_gain"], w[p + "ln1_bias"])
        f = _activation(cfg.activation, h @ w[p + "w1"] + w[p + "b1"]) @ w[p + "w2"] + w[p + "b2"]
        h = _layer_norm(h + f, w[p + "ln2_gain"], w[p + "ln2_bias"])
    return _layer_norm(h, w["final_ln.gain"], w["final_ln.bias"])


def oracle_logits(model, texts: list[str]) -> np.ndarray:
    """Logits of a switchprompt-variant ``PromptedClassifier`` in eval mode."""
    cfg = model.encoder.config
    w = {name: t.data for name, t in model.encoder.weights.tensors.items()}
    state = model.prompt_state
    soft = [p.data for p in state.soft_prompts]
    kw = state.keyword_vectors.data
    padding = np.zeros((kw.shape[0], cfg.embed_dim))
    budget = cfg.max_seq_len - soft[0].shape[0] - kw.shape[0]
    vocab = model.tokenizer.word_to_id
    rows = []
    for text in texts:
        ids = np.array([0] + [vocab.get(word, 1) for word in text.lower().split()])[:budget]
        s = _final_states(w, cfg, ids, None)[0]
        g1 = _sigmoid(float(state.gate1_weights.data @ s))
        g2 = _sigmoid(float(state.gate2_weights.data @ s))
        prompts = [
            g1 * np.vstack([layer, padding])
            + (1.0 - g1) * (g2 * np.vstack([layer, kw]) + (1.0 - g2) * np.vstack([kw, layer]))
            for layer in soft
        ]
        cls = _final_states(w, cfg, ids, prompts)[0]
        rows.append(cls @ model.head.projection.data + model.head.bias.data)
    return np.array(rows)


def oracle_problems(model, texts: list[str], count: int) -> list[str]:
    """Compare ``model.logits`` with the oracle on ``count`` evenly spaced texts."""
    chosen = texts[:: max(1, len(texts) // count)][:count]
    with ag.no_grad():
        got = model.logits(chosen).data
    want = oracle_logits(model, chosen)
    return [
        f"logits of {text!r} differ from the numpy oracle by {np.abs(g - x).max():.3e}"
        for text, g, x in zip(chosen, got, want)
        if not np.allclose(g, x, rtol=0.0, atol=ORACLE_ATOL)
    ]
