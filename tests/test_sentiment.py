"""Tokenizer, lexicon scoring, negation, composites, external verdicts."""

from __future__ import annotations

import json
import random
import re

import pytest

from esgsent.errors import InvariantError, SchemaError
from esgsent.sentiment import (
    NEGATION_WINDOW,
    Lexicon,
    ScoredDocument,
    SentimentLabel,
    SentimentVerdict,
    default_lexicon,
    import_external_verdicts,
    load_lexicon,
    read_scored,
    score_corpus,
    score_document,
    score_tokens,
    serialize_scored,
    tokenize,
    write_scored,
)
from esgsent.corpus import Source

from conftest import AWKWARD_STRINGS, make_doc

LEX = Lexicon(
    positive_terms=frozenset({"good", "great", "clean", "praised"}),
    negative_terms=frozenset({"bad", "toxic", "fined", "probe"}),
    negators=frozenset({"not", "never", "no"}),
)


class TestTokenize:
    def test_url_and_punctuation_removed(self):
        assert tokenize("Tesla cuts emissions! https://t.co/x") == ["tesla", "cuts", "emissions"]

    def test_empty(self):
        assert tokenize("") == []

    def test_hashtag_stripped_mention_removed(self):
        assert tokenize("#ESG @bank NOT green") == ["esg", "not", "green"]

    def test_contractions_survive(self):
        assert tokenize("They don't care") == ["they", "don't", "care"]


@pytest.mark.parametrize(
    "label,expected",
    [
        (SentimentLabel.POSITIVE, 1),
        (SentimentLabel.NEUTRAL, 0),
        (SentimentLabel.NEGATIVE, -1),
    ],
)
def test_weight_mapping(label, expected):
    assert SentimentVerdict(label, 1.0).composite == expected


@pytest.mark.parametrize(
    "label,score,expected",
    [
        (SentimentLabel.POSITIVE, 0.9, 0.9),
        (SentimentLabel.NEUTRAL, 0.7, 0.0),
        (SentimentLabel.NEGATIVE, 0.75, -0.75),
    ],
)
def test_composite(label, score, expected):
    assert SentimentVerdict(label, score).composite == expected


def test_verdict_score_bounds():
    with pytest.raises(InvariantError):
        SentimentVerdict(SentimentLabel.POSITIVE, 1.2)
    with pytest.raises(InvariantError):
        SentimentVerdict(SentimentLabel.NEGATIVE, -0.1)


class TestScoreTokens:
    def test_two_positive_hits(self):
        # p=2, n=0 -> |2-0|/2 = 1.0
        verdict = score_tokens(["good", "and", "great"], LEX)
        assert verdict == SentimentVerdict(SentimentLabel.POSITIVE, 1.0)

    def test_tie_is_neutral(self):
        verdict = score_tokens(["good", "but", "toxic"], LEX)
        assert verdict == SentimentVerdict(SentimentLabel.NEUTRAL, 0.0)

    def test_negated_positive_flips(self):
        # the single hit flips: |0-1|/1 = 1.0 negative
        verdict = score_tokens(["not", "good"], LEX)
        assert verdict == SentimentVerdict(SentimentLabel.NEGATIVE, 1.0)

    def test_negated_negative_flips(self):
        verdict = score_tokens(["never", "toxic"], LEX)
        assert verdict == SentimentVerdict(SentimentLabel.POSITIVE, 1.0)

    def test_negator_window_is_three_tokens(self):
        inside = score_tokens(["not", "a", "b", "good"], LEX)
        assert inside.label is SentimentLabel.NEGATIVE
        outside = score_tokens(["not", "a", "b", "c", "good"], LEX)
        assert outside.label is SentimentLabel.POSITIVE

    def test_no_hits_neutral(self):
        assert score_tokens(["nothing", "here"], LEX) == SentimentVerdict(SentimentLabel.NEUTRAL, 0.0)

    def test_mixed_counts(self):
        # p=1, n=3 -> |1-3|/4 = 0.5 negative
        verdict = score_tokens(["good", "toxic", "bad", "probe"], LEX)
        assert verdict == SentimentVerdict(SentimentLabel.NEGATIVE, 0.5)

    def test_repeated_words_count_repeatedly(self):
        # p=2, n=1 -> |2-1|/3 = 1/3 positive (counting each word once would give a neutral tie)
        verdict = score_tokens(["good", "good", "bad"], LEX)
        assert verdict.label is SentimentLabel.POSITIVE
        assert verdict.score == pytest.approx(1 / 3)

    def test_permutation_invariant_without_negators(self):
        rng = random.Random(11)
        vocabulary = ["good", "great", "bad", "toxic", "cat", "dog", "market"]
        for _ in range(200):
            tokens = [rng.choice(vocabulary) for _ in range(rng.randrange(0, 14))]
            baseline = score_tokens(tokens, LEX)
            shuffled = tokens[:]
            rng.shuffle(shuffled)
            assert score_tokens(shuffled, LEX) == baseline

    def test_swapping_lexicon_swaps_label_keeps_score(self):
        rng = random.Random(13)
        vocabulary = ["good", "great", "bad", "toxic", "not", "cat", "probe", "praised"]
        swapped = Lexicon(LEX.negative_terms, LEX.positive_terms, LEX.negators)
        flip = {
            SentimentLabel.POSITIVE: SentimentLabel.NEGATIVE,
            SentimentLabel.NEGATIVE: SentimentLabel.POSITIVE,
            SentimentLabel.NEUTRAL: SentimentLabel.NEUTRAL,
        }
        for _ in range(200):
            tokens = [rng.choice(vocabulary) for _ in range(rng.randrange(0, 14))]
            original = score_tokens(tokens, LEX)
            mirrored = score_tokens(tokens, swapped)
            assert mirrored.label is flip[original.label]
            assert mirrored.score == original.score

    def test_scoring_is_pure(self):
        doc = make_doc("t1", text="clean energy praised, no toxic waste")
        assert score_document(doc, LEX) == score_document(doc, LEX)


def slice_window_verdict(tokens: list[str], lexicon: Lexicon) -> SentimentVerdict:
    """The rule written as a look-back: a hit flips when any of the
    NEGATION_WINDOW tokens before it is a negator."""
    positives = negatives = 0
    for i, token in enumerate(tokens):
        if token in lexicon.positive_terms:
            polarity = 1
        elif token in lexicon.negative_terms:
            polarity = -1
        else:
            continue
        if any(t in lexicon.negators for t in tokens[max(0, i - NEGATION_WINDOW):i]):
            polarity = -polarity
        if polarity > 0:
            positives += 1
        else:
            negatives += 1
    if positives == negatives:
        return SentimentVerdict(SentimentLabel.NEUTRAL, 0.0)
    label = SentimentLabel.POSITIVE if positives > negatives else SentimentLabel.NEGATIVE
    return SentimentVerdict(label, abs(positives - negatives) / (positives + negatives))


# "no" is a negator and a positive term.
NEGATOR_IS_POSITIVE = Lexicon(
    positive_terms=frozenset({"good", "no"}),
    negative_terms=frozenset({"bad"}),
    negators=frozenset({"no", "not"}),
)


class TestOnePassMatchesSliceWindow:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("lexicon", [LEX, NEGATOR_IS_POSITIVE], ids=["plain", "negator-is-positive"])
    def test_random_token_lists(self, seed, lexicon):
        rng = random.Random(seed)
        vocabulary = sorted(lexicon.positive_terms | lexicon.negative_terms | lexicon.negators) + ["a", "b", "c"]
        for _ in range(500):
            tokens = [rng.choice(vocabulary) for _ in range(rng.randrange(0, 30))]
            assert score_tokens(tokens, lexicon) == slice_window_verdict(tokens, lexicon), tokens

    @pytest.mark.parametrize(
        "tokens,label",
        [
            (["not", "a", "b", "good"], SentimentLabel.NEGATIVE),  # distance 3: flipped
            (["not", "a", "b", "c", "good"], SentimentLabel.POSITIVE),  # distance 4: kept
            (["not", "never", "no", "good"], SentimentLabel.NEGATIVE),  # a run of negators
            (["not", "never", "a", "b", "c", "good"], SentimentLabel.POSITIVE),  # run ends 4 back
            (["not", "a", "never", "b", "c", "good"], SentimentLabel.NEGATIVE),  # later one 3 back
            (["no", "bad", "a", "toxic"], SentimentLabel.POSITIVE),  # one negator, both hits in reach
        ],
    )
    def test_negator_distances(self, tokens, label):
        verdict = score_tokens(tokens, LEX)
        assert verdict.label is label
        assert verdict == slice_window_verdict(tokens, LEX)

    @pytest.mark.parametrize(
        "tokens,label",
        [
            (["no"], SentimentLabel.POSITIVE),  # a negator does not flip itself
            (["no", "no"], SentimentLabel.NEUTRAL),  # the second is flipped by the first
            (["not", "no"], SentimentLabel.NEGATIVE),
            (["no", "a", "b", "c", "no"], SentimentLabel.POSITIVE),
        ],
    )
    def test_negator_that_is_also_a_positive_term(self, tokens, label):
        verdict = score_tokens(tokens, NEGATOR_IS_POSITIVE)
        assert verdict.label is label
        assert verdict == slice_window_verdict(tokens, NEGATOR_IS_POSITIVE)

    def test_polarity_map(self):
        assert NEGATOR_IS_POSITIVE.polarity == {"good": 1, "no": 1, "bad": -1, "not": 0}


class TestLexicon:
    def test_overlap_rejected(self):
        with pytest.raises(InvariantError):
            Lexicon(frozenset({"good"}), frozenset({"good"}), frozenset())

    def test_non_lowercase_rejected(self):
        with pytest.raises(InvariantError):
            Lexicon(frozenset({"Good"}), frozenset(), frozenset())

    def test_load_from_directory_with_comments(self, tmp_path):
        (tmp_path / "positive.txt").write_text("# header\ngood\nGREAT\n\n", encoding="utf-8")
        (tmp_path / "negative.txt").write_text("bad\n", encoding="utf-8")
        (tmp_path / "negators.txt").write_text("not\n", encoding="utf-8")
        lex = load_lexicon(tmp_path)
        assert lex.positive_terms == {"good", "great"}  # entries are lowercased
        assert lex.negators == {"not"}

    def test_missing_file_rejected(self, tmp_path):
        (tmp_path / "positive.txt").write_text("good\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_lexicon(tmp_path)

    def test_default_lexicon_loads_and_is_disjoint(self):
        lex = default_lexicon()
        assert len(lex.positive_terms) > 100
        assert len(lex.negative_terms) > 100
        assert not (lex.positive_terms & lex.negative_terms)


class TestExternalVerdicts:
    def _write(self, tmp_path, rows, header="id,source,label,score"):
        path = tmp_path / "verdicts.csv"
        path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
        return path

    def test_rows_parse(self, tmp_path):
        path = self._write(tmp_path, ["t1,tweet,positive,0.93", "t2,tweet,Neutral,0.51"])
        verdicts = import_external_verdicts(path)
        assert verdicts[("tweet", "t1")] == SentimentVerdict(SentimentLabel.POSITIVE, 0.93)
        assert verdicts[("tweet", "t2")] == SentimentVerdict(SentimentLabel.NEUTRAL, 0.51)

    def _assert_rejected(self, tmp_path, row, problem):
        # Rows are named by their line in the file, so a blank line before a row counts.
        for rows, line in ((["t0,news,negative,0.5", row], 3), (["t0,news,negative,0.5", "", row], 4)):
            path = self._write(tmp_path, rows)
            with pytest.raises(SchemaError, match=f"^{re.escape(f'{path}:{line}: {problem}')}$"):
                import_external_verdicts(path)

    def test_unknown_label_rejected(self, tmp_path):
        self._assert_rejected(tmp_path, "t1,tweet,bullish,0.5", "unknown label 'bullish'")
        self._assert_rejected(tmp_path, "t1,tweet", "unknown label None")

    def test_score_above_one_rejected(self, tmp_path):
        self._assert_rejected(tmp_path, "t3,tweet,positive,1.2", "sentiment score 1.2 outside [0, 1]")
        self._assert_rejected(tmp_path, "t3,tweet,positive,-0.1", "sentiment score -0.1 outside [0, 1]")
        self._assert_rejected(tmp_path, "t3,tweet,positive,high", "bad score 'high'")

    def test_unknown_source_rejected(self, tmp_path):
        self._assert_rejected(tmp_path, "t1,reddit,positive,0.5", "unknown source 'reddit'")
        self._assert_rejected(tmp_path, "t1,,positive,0.5", "unknown source ''")

    def test_source_and_label_case_and_padding_ignored(self, tmp_path):
        path = self._write(tmp_path, ["t1, News , POSITIVE ,0.5"])
        assert import_external_verdicts(path) == {("news", "t1"): SentimentVerdict(SentimentLabel.POSITIVE, 0.5)}

    def test_wrong_header_rejected(self, tmp_path):
        path = self._write(tmp_path, ["t1,tweet,positive,0.5"], header="doc,source,label,score")
        with pytest.raises(SchemaError):
            import_external_verdicts(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = self._write(tmp_path, ["t1,tweet,positive,0.5", "t1,tweet,negative,0.5"])
        with pytest.raises(SchemaError):
            import_external_verdicts(path)

    @pytest.mark.parametrize("line", [1, 3])
    def test_field_over_the_csv_limit_is_one_schema_error_naming_file_and_line(self, tmp_path, line):
        # csv.reader refuses a field longer than 131,072 characters with csv.Error.
        lines = ["id,source,label,score", "t1,tweet,positive,0.5", "t2,tweet,negative,0.5"]
        lines[line - 1] = "x" * 200_000 + lines[line - 1]
        path = self._write(tmp_path, lines[1:], header=lines[0])
        message = f"{path}:{line}: field larger than field limit (131072)"
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            import_external_verdicts(path)


class TestScoreCorpus:
    def test_three_docs_no_external(self):
        docs = [
            make_doc("a", text="clean and good"),
            make_doc("b", text="toxic probe"),
            make_doc("c", text="nothing relevant"),
        ]
        scored = score_corpus(docs, LEX)
        assert [sd.document.id for sd in scored] == ["a", "b", "c"]
        assert [sd.verdict.label for sd in scored] == [
            SentimentLabel.POSITIVE,
            SentimentLabel.NEGATIVE,
            SentimentLabel.NEUTRAL,
        ]

    def test_external_verdict_wins(self):
        doc = make_doc("a", text="clean and good")
        external = {doc.key: SentimentVerdict(SentimentLabel.NEGATIVE, 0.8)}
        (scored,) = score_corpus([doc], LEX, external)
        assert scored.verdict.composite == -0.8

    def test_empty_corpus(self):
        assert score_corpus([], LEX) == []

    def test_news_scores_on_title(self):
        doc = make_doc(
            "n1",
            source=Source.NEWS,
            text="placeholder body reference",
            title="bank praised for clean audit",
        )
        (scored,) = score_corpus([doc], LEX)
        assert scored.verdict.label is SentimentLabel.POSITIVE


@pytest.mark.parametrize("doc_id", AWKWARD_STRINGS)
@pytest.mark.parametrize(
    "label,score",
    [
        (SentimentLabel.NEUTRAL, 0.0),
        (SentimentLabel.POSITIVE, 1 / 3),
        (SentimentLabel.NEGATIVE, 1e-7),
        (SentimentLabel.NEGATIVE, 0.0),  # composite -0.0
        (SentimentLabel.POSITIVE, 1.0),
    ],
)
def test_serialize_scored_matches_json_dumps(doc_id, label, score):
    sd = ScoredDocument(make_doc(doc_id), SentimentVerdict(label, score))
    obj = {"id": doc_id, "source": "tweet", "label": label.value, "score": score, "composite": sd.verdict.composite}
    assert serialize_scored(sd) == json.dumps(obj, ensure_ascii=False, separators=(", ", ": "))


def test_scored_file_round_trip(tmp_path):
    docs = [make_doc("a", text="clean energy"), make_doc("b", text="toxic spill probe")]
    scored = score_corpus(docs, LEX)
    path = tmp_path / "scored.jsonl"
    write_scored(scored, path)
    assert read_scored(path, docs) == scored


@pytest.mark.parametrize("composite_value", ['"x"', "[1]", "0.9"])
def test_scored_line_with_bad_composite_is_schema_error(tmp_path, composite_value):
    doc = make_doc("a")
    path = tmp_path / "scored.jsonl"
    path.write_text(
        f'{{"id": "a", "source": "tweet", "label": "positive", "score": 0.5, "composite": {composite_value}}}\n',
        encoding="utf-8",
    )
    with pytest.raises(SchemaError):
        read_scored(path, [doc])


def test_scored_line_with_inconsistent_composite_names_the_line(tmp_path):
    path = tmp_path / "scored.jsonl"
    path.write_text(
        '\n{"id": "a", "source": "tweet", "label": "negative", "score": 0.5, "composite": 0.5}\n',
        encoding="utf-8",
    )
    with pytest.raises(SchemaError, match=r"scored\.jsonl:2: composite inconsistent with verdict$"):
        read_scored(path, [make_doc("a")])

