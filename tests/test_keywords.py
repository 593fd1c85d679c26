"""Keyword mining against exhaustive brute-force scoring."""

from collections import Counter

import numpy as np
import pytest

from switchprompt.encoder import EncoderConfig, EncoderWeights, TransformerEncoder
from switchprompt.keywords import (
    CorpusStats,
    compute_stats,
    read_keywords,
    score_word,
    select_keywords,
    vectorize_keywords,
    write_keywords,
)
from switchprompt.tokenizer import Tokenizer


def brute_force_top_n(general_docs, domain_docs, alpha, n):
    """Independent oracle: recount from raw text, score every domain word,
    pick the n best by repeated scan (never reusing the library's sort)."""
    g_counts, d_counts = Counter(), Counter()
    for doc in general_docs:
        g_counts.update(doc.lower().split())
    for doc in domain_docs:
        d_counts.update(doc.lower().split())
    g_total, d_total = sum(g_counts.values()), sum(d_counts.values())
    scores = {
        w: alpha * (g_counts.get(w, 0) / g_total) + d_counts[w] / d_total for w in d_counts
    }
    remaining = dict(scores)
    picked = []
    for _ in range(n):
        best = None
        for word, score in remaining.items():
            if best is None or score > remaining[best] or (
                score == remaining[best] and word < best
            ):
                best = word
        picked.append((best, remaining.pop(best)))
    return picked


def random_corpora(rng, vocab_limit=200):
    shared = [f"s{i}" for i in range(rng.integers(5, vocab_limit // 2))]
    domain_only = [f"d{i}" for i in range(rng.integers(3, vocab_limit // 2))]
    def doc(words):
        k = rng.integers(3, 15)
        return " ".join(words[j] for j in rng.integers(0, len(words), size=k))
    general = [doc(shared) for _ in range(rng.integers(3, 20))]
    domain = [doc(shared + domain_only) for _ in range(rng.integers(3, 20))]
    return general, domain


class TestComputeStats:
    def test_simple_counts(self):
        stats = compute_stats(["a a b"])
        assert stats.counts == {"a": 2, "b": 1}
        assert stats.total_tokens == 3

    def test_duplicated_corpus_has_identical_tf(self):
        docs = ["x y y", "z x"]
        once = compute_stats(docs)
        twice = compute_stats(docs + docs)
        for word in once.counts:
            assert once.tf(word) == twice.tf(word)

    def test_tf_sums_to_one_on_random_corpora(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            docs = [
                " ".join(f"w{j}" for j in rng.integers(0, 30, size=rng.integers(1, 12)))
                for _ in range(rng.integers(1, 8))
            ]
            stats = compute_stats(docs)
            # oracle: recount and normalize independently
            recount = Counter(w for d in docs for w in d.split())
            assert stats.counts == dict(recount)
            assert abs(sum(stats.tf(w) for w in stats.counts) - 1.0) < 1e-12

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            compute_stats([])
        with pytest.raises(ValueError, match="empty corpus"):
            compute_stats(["   ", ""])

    def test_lowercases(self):
        stats = compute_stats(["Foo FOO foo"])
        assert stats.counts == {"foo": 3}


class TestScoreWord:
    def setup_method(self):
        self.general = CorpusStats({"common": 1, "rare": 0}, 100, "general")
        self.domain = CorpusStats({"term": 5}, 100, "domain")

    def test_word_absent_from_general(self):
        general = CorpusStats({"x": 10}, 100, "general")
        domain = CorpusStats({"term": 5}, 100, "domain")
        assert score_word("term", general, domain, alpha=-1.0) == 0.05

    def test_direct_substitution(self):
        general = CorpusStats({"term": 1}, 100, "general")
        domain = CorpusStats({"term": 5}, 100, "domain")
        assert abs(score_word("term", general, domain, alpha=-1.0) - 0.04) < 1e-15

    def test_general_frequent_word_scores_negative(self):
        general = CorpusStats({"the": 50}, 100, "general")
        domain = CorpusStats({"the": 5, "exclusive": 5}, 100, "domain")
        the_score = score_word("the", general, domain, alpha=-1.0)
        excl_score = score_word("exclusive", general, domain, alpha=-1.0)
        assert the_score < 0 < excl_score

    def test_non_negative_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            score_word("w", self.general, self.domain, alpha=0.0)


class TestSelectKeywords:
    def test_domain_exclusive_word_wins(self):
        general = compute_stats(["common words here"], "general")
        domain = compute_stats(["common special"], "domain")
        ks = select_keywords(general, domain, alpha=-1.0, n=1)
        assert ks.words == ["special"]

    def test_full_vocabulary_sorted_by_score(self):
        general = compute_stats(["a a a b"], "general")
        domain = compute_stats(["a b c c"], "domain")
        ks = select_keywords(general, domain, alpha=-1.0, n=3)
        assert set(ks.words) == {"a", "b", "c"}
        assert ks.scores == sorted(ks.scores, reverse=True)
        assert ks.words[0] == "c"

    def test_n_larger_than_vocab_rejected(self):
        general = compute_stats(["x"], "general")
        domain = compute_stats(["y z"], "domain")
        with pytest.raises(ValueError, match="only 2 words"):
            select_keywords(general, domain, alpha=-1.0, n=3)

    def test_negative_n_rejected_and_zero_selects_nothing(self):
        general = compute_stats(["x"], "general")
        domain = compute_stats(["y z"], "domain")
        with pytest.raises(ValueError, match="keyword count n must be >= 0, got -1"):
            select_keywords(general, domain, alpha=-1.0, n=-1)
        assert select_keywords(general, domain, alpha=-1.0, n=0).words == []

    def test_matches_brute_force_on_random_corpora(self):
        rng = np.random.default_rng(1)
        for trial in range(50):
            general_docs, domain_docs = random_corpora(rng)
            alpha = float(rng.choice([-0.5, -1.0, -2.0]))
            domain_vocab = {w for d in domain_docs for w in d.split()}
            n = int(rng.integers(1, len(domain_vocab) + 1))
            ks = select_keywords(
                compute_stats(general_docs, "general"),
                compute_stats(domain_docs, "domain"),
                alpha=alpha,
                n=n,
            )
            expected = brute_force_top_n(general_docs, domain_docs, alpha, n)
            assert ks.words == [w for w, _ in expected]
            assert ks.scores == [s for _, s in expected]

    def test_tie_break_is_lexicographic(self):
        general = compute_stats(["filler"], "general")
        domain = compute_stats(["zeta beta zeta beta"], "domain")
        ks = select_keywords(general, domain, alpha=-1.0, n=2)
        assert ks.words == ["beta", "zeta"]  # equal scores, word order decides


class TestScoreInvariants:
    def test_more_negative_alpha_never_raises_scores(self):
        rng = np.random.default_rng(2)
        general_docs, domain_docs = random_corpora(rng)
        general = compute_stats(general_docs, "general")
        domain = compute_stats(domain_docs, "domain")
        for word in domain.counts:
            s1 = score_word(word, general, domain, alpha=-0.5)
            s2 = score_word(word, general, domain, alpha=-2.0)
            if general.tf(word) == 0:
                assert s1 == s2
            else:
                assert s2 < s1

    def test_selection_invariant_to_document_order(self):
        rng = np.random.default_rng(3)
        general_docs, domain_docs = random_corpora(rng)
        a = select_keywords(
            compute_stats(general_docs, "general"), compute_stats(domain_docs, "domain"), -1.0, 5
        )
        b = select_keywords(
            compute_stats(list(reversed(general_docs)), "general"),
            compute_stats(list(reversed(domain_docs)), "domain"),
            -1.0,
            5,
        )
        assert a.words == b.words and a.scores == b.scores

    def test_count_scaling_leaves_scores_unchanged(self):
        rng = np.random.default_rng(4)
        general_docs, domain_docs = random_corpora(rng)
        general = compute_stats(general_docs, "general")
        domain = compute_stats(domain_docs, "domain")
        for k in (2, 3, 7):
            scaled_g = CorpusStats({w: c * k for w, c in general.counts.items()},
                                   general.total_tokens * k, "general")
            scaled_d = CorpusStats({w: c * k for w, c in domain.counts.items()},
                                   domain.total_tokens * k, "domain")
            for word in domain.counts:
                assert score_word(word, general, domain, -1.0) == score_word(
                    word, scaled_g, scaled_d, -1.0
                )


class TestVectorizeKeywords:
    def make_encoder_and_tokenizer(self):
        texts = ["alpha beta gamma delta epsilon zeta"]
        tok = Tokenizer.build(texts)
        cfg = EncoderConfig(vocab_size=tok.vocab_size, embed_dim=8, num_layers=1,
                            num_heads=1, ffn_dim=8, max_seq_len=16)
        enc = TransformerEncoder(cfg, EncoderWeights.init(cfg, seed=0))
        return tok, enc

    def test_single_token_keyword_equals_embedding_row(self):
        tok, enc = self.make_encoder_and_tokenizer()
        from switchprompt.keywords import KeywordSet

        ks = KeywordSet(words=["beta"], scores=[1.0], alpha=-1.0)
        vectors = vectorize_keywords(ks, tok, enc)
        row = enc.weights["token_emb"].data[tok.word_to_id["beta"]]
        np.testing.assert_array_equal(vectors.data[0], row)

    def test_rank_order_equivariance(self):
        tok, enc = self.make_encoder_and_tokenizer()
        from switchprompt.keywords import KeywordSet

        fwd = vectorize_keywords(KeywordSet(["alpha", "zeta"], [2.0, 1.0], -1.0), tok, enc)
        rev = vectorize_keywords(KeywordSet(["zeta", "alpha"], [2.0, 1.0], -1.0), tok, enc)
        np.testing.assert_array_equal(fwd.data, rev.data[::-1])

    def test_multi_token_keyword_is_mean_of_embeddings(self):
        tok, enc = self.make_encoder_and_tokenizer()
        from switchprompt.keywords import KeywordSet

        ks = KeywordSet(words=["beta gamma"], scores=[1.0], alpha=-1.0)
        vectors = vectorize_keywords(ks, tok, enc)
        table = enc.weights["token_emb"].data
        manual = (table[tok.word_to_id["beta"]] + table[tok.word_to_id["gamma"]]) / 2.0
        np.testing.assert_allclose(vectors.data[0], manual, atol=1e-15)

    def test_oov_keyword_maps_to_unk_embedding(self):
        tok, enc = self.make_encoder_and_tokenizer()
        from switchprompt.keywords import KeywordSet
        from switchprompt.tokenizer import UNK_ID

        vectors = vectorize_keywords(KeywordSet(["nonexistent"], [1.0], -1.0), tok, enc)
        np.testing.assert_array_equal(vectors.data[0], enc.weights["token_emb"].data[UNK_ID])

    def test_cls_mode_runs_full_pass(self):
        tok, enc = self.make_encoder_and_tokenizer()
        from switchprompt.keywords import KeywordSet

        ks = KeywordSet(["beta"], [1.0], -1.0)
        emb = vectorize_keywords(ks, tok, enc, method="embedding")
        cls = vectorize_keywords(ks, tok, enc, method="cls")
        assert not np.allclose(emb.data, cls.data)
        assert not cls.requires_grad

    def test_vectors_carry_no_gradient(self):
        tok, enc = self.make_encoder_and_tokenizer()
        from switchprompt.keywords import KeywordSet

        vectors = vectorize_keywords(KeywordSet(["beta"], [1.0], -1.0), tok, enc)
        assert not vectors.requires_grad


class TestKeywordFileIO:
    def test_roundtrip(self, tmp_path):
        general = compute_stats(["w w q"], "general")
        domain = compute_stats(["q t t u"], "domain")
        ks = select_keywords(general, domain, alpha=-1.5, n=3)
        path = tmp_path / "keywords.tsv"
        write_keywords(path, ks)
        loaded = read_keywords(path, alpha=-1.5)
        assert loaded.words == ks.words
        assert loaded.scores == ks.scores

    def test_file_format_is_word_score_rank(self, tmp_path):
        from switchprompt.keywords import KeywordSet

        path = tmp_path / "keywords.tsv"
        write_keywords(path, KeywordSet(["apple", "pear"], [0.5, 0.25], -1.0))
        lines = path.read_text().splitlines()
        assert lines[0].split("\t") == ["apple", "0.5", "1"]
        assert lines[1].split("\t") == ["pear", "0.25", "2"]

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("word_without_fields\n")
        with pytest.raises(ValueError, match=":1:"):
            read_keywords(path)

    @pytest.mark.parametrize("line, problem", [
        ("beta\tnotanumber\t2", "score 'notanumber' is not a number"),
        ("\t0.5\t2", "empty keyword"),
        (" \t0.5\t2", "empty keyword"),
    ])
    def test_bad_field_names_file_and_line(self, tmp_path, line, problem):
        path = tmp_path / "bad.tsv"
        path.write_text(f"alpha\t0.75\t1\n{line}\n")
        with pytest.raises(ValueError, match=f"bad.tsv:2: {problem}"):
            read_keywords(path)

    @pytest.mark.parametrize("word", ["alpha", "Alpha", " ALPHA "])
    def test_repeated_keyword_names_both_lines(self, tmp_path, word):
        # words are compared as the tokenizer sees them, since that is what
        # gives each keyword its prompt row
        path = tmp_path / "repeat.tsv"
        path.write_text(f"alpha\t0.75\t1\nbeta\t0.5\t2\n{word}\t0.25\t3\n")
        with pytest.raises(ValueError, match=f"repeat.tsv:3: keyword {word!r} repeats line 1$"):
            read_keywords(path)
