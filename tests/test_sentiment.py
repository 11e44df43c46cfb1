"""Tokenizer, lexicon scoring, negation, composites, external verdicts."""

from __future__ import annotations

import json
import math
import random
import re
import sys
import tracemalloc
from datetime import datetime, timezone

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
    score_tokens,
    scoring_text,
    tokenize,
)
from esgsent.corpus import Document, Source, _parse_timestamp, format_timestamp, parse_document_payload
from esgsent.util import json_lines

from conftest import AWKWARD_STRINGS, make_doc, scored_of
from tokenize_reference import reference_tokenize

LEX = Lexicon(
    positive_terms=frozenset({"good", "great", "clean", "praised"}),
    negative_terms=frozenset({"bad", "toxic", "fined", "probe"}),
    negators=frozenset({"not", "never", "no"}),
)


# URLs, mentions, '#', both apostrophes, Unicode whitespace, the Kelvin sign
# (lowercases to ASCII 'k'), 'İ' (lowercases to two code points), lone surrogates.
TOKENIZE_FRAGMENTS = [
    "http://t.co/a'b", "https://x.example/p?q=1#f", "www.esg.org/x", "HTTP://Y.Z", "@bank_1", "@", "@’s",
    "#", "#ESG", "'", "’", "''", "don't", "rock'n'roll", "o’s", "a", "Z", "9", "green", "NOT", "_", "-", ".",
    " ", "\t", "\n", "\u00a0", "\u2028", "\u3000", "\u200b", "\u0085", "\u212a", "\u0130", "\ud800",
    "\udfff", "\U0001f600", "é", "ß", "Σ", "ﬁ", "０", "²", "\x00",
]


class TestTokenize:
    def test_url_and_punctuation_removed(self):
        assert tokenize("Tesla cuts emissions! https://t.co/x") == ["tesla", "cuts", "emissions"]

    def test_empty(self):
        assert tokenize("") == []

    def test_hashtag_stripped_mention_removed(self):
        assert tokenize("#ESG @bank NOT green") == ["esg", "not", "green"]

    def test_contractions_survive(self):
        assert tokenize("They don't care") == ["they", "don't", "care"]

    def test_non_ascii_characters_separate_tokens(self):
        assert tokenize("Café ESG\u00a0fund’s ＧＯＯＤ \u212a2 \ud800x") == ["caf", "esg", "fund's", "k2", "x"]

    def test_matches_the_regex_reference_on_seeded_strings(self):
        # Every code point is compared by tests/tokenize_reference.py, run as a script.
        rng = random.Random(19)
        samples = [
            "".join(rng.choice(TOKENIZE_FRAGMENTS) for _ in range(rng.randrange(1, 16)))
            for _ in range(10_000)
        ]
        for text in samples:
            assert tokenize(text) == reference_tokenize(text), repr(text)


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
        assert score_tokens(tokenize(scoring_text(doc)), LEX) == score_tokens(tokenize(scoring_text(doc)), LEX)


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

    @pytest.mark.parametrize("term", ["", " ", "good news", "café", "eco-friendly", "#esg", "don'", "'s", "\ufeffable"])
    def test_a_term_that_is_not_a_whole_token_is_rejected(self, term):
        with pytest.raises(InvariantError, match=f"^{re.escape(f'bad lexicon entry in negators: {term!r}')}$"):
            Lexicon(frozenset({"good"}), frozenset({"bad"}), frozenset({term}))

    def test_every_shipped_term_is_its_own_token(self):
        assert all(tokenize(term) == [term] for terms in default_lexicon() for term in terms)

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
        # Cells after the fourth are ignored.
        path = self._write(tmp_path, ["t1,tweet,positive,0.93", "t2,tweet,Neutral,0.51", "t3,news,negative,0.2,x,"])
        assert import_external_verdicts(path) == {
            ("tweet", "t1"): SentimentVerdict(SentimentLabel.POSITIVE, 0.93),
            ("tweet", "t2"): SentimentVerdict(SentimentLabel.NEUTRAL, 0.51),
            ("news", "t3"): SentimentVerdict(SentimentLabel.NEGATIVE, 0.2),
        }

    def _assert_rejected(self, tmp_path, row, problem):
        # Rows are named by their line in the file, so a blank line before a row counts.
        for rows, line in ((["t0,news,negative,0.5", row], 3), (["t0,news,negative,0.5", "", row], 4)):
            path = self._write(tmp_path, rows)
            with pytest.raises(SchemaError, match=f"^{re.escape(f'{path}:{line}: {problem}')}$"):
                import_external_verdicts(path)

    def test_every_key_holds_its_source_members_own_value_string(self, tmp_path):
        path = self._write(tmp_path, ["t1,tweet,positive,0.9", "t2, NEWS ,negative,0.2", "t3,Tweet,neutral,0"])
        sources = [source for source, _ in import_external_verdicts(path)]
        assert sources == ["tweet", "news", "tweet"]
        assert all(source is Source.TWEET.value or source is Source.NEWS.value for source in sources)

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

    @pytest.mark.parametrize(
        "text,got",
        [
            ("doc,source,label,score\nt1,tweet,positive,0.5\n", "doc,source,label,score"),
            ("id,source,label\nt1,tweet,positive,0.5\n", "id,source,label"),
            ("", ""),
            ("\nid,source,label,score\nt1,tweet,positive,0.5\n", ""),
        ],
    )
    def test_wrong_header_rejected(self, tmp_path, text, got):
        path = tmp_path / "verdicts.csv"
        path.write_text(text, encoding="utf-8")
        message = f"{path}: expected header id,source,label,score, got {got}"
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
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


def score_to(tmp_path, docs, external=None, lexicon=LEX):
    """score_corpus writing its two files under tmp_path."""
    return score_corpus(docs, lexicon, external, tmp_path / "corpus.jsonl", tmp_path / "scored.jsonl")


def read_back_corpus(path) -> list[Document]:
    return [parse_document_payload(payload) for _, payload in json_lines(path)]


class TestScoreCorpus:
    @pytest.mark.parametrize("external", [None, {}])
    def test_three_docs_no_external(self, tmp_path, external):
        docs = [
            make_doc("a", text="clean and good"),
            make_doc("b", text="toxic probe"),
            make_doc("c", text="nothing relevant"),
        ]
        scored = score_to(tmp_path, docs, external)
        assert [sd.id for sd in scored] == ["a", "b", "c"]
        assert [sd.verdict.label for sd in scored] == [
            SentimentLabel.POSITIVE,
            SentimentLabel.NEGATIVE,
            SentimentLabel.NEUTRAL,
        ]

    def test_external_verdict_wins(self, tmp_path):
        doc, other = make_doc("a", text="clean and good"), make_doc("b", text="clean and good")
        external = {doc.key: SentimentVerdict(SentimentLabel.NEGATIVE, 0.8)}
        scored = score_to(tmp_path, [doc, other], external)
        assert [sd.verdict.composite for sd in scored] == [-0.8, 1.0]

    @pytest.mark.parametrize("name", ["id", "source", "timestamp", "ticker", "verdict", "extra"])
    def test_scored_document_is_immutable(self, name):
        verdict = SentimentVerdict(SentimentLabel.NEUTRAL, 0.0)
        sd = scored_of(make_doc("a"), verdict)
        with pytest.raises(AttributeError):
            setattr(sd, name, None)
        assert sd == ("a", Source.TWEET, make_doc("a").timestamp, "GS", verdict)

    def test_record_carries_the_document_key_timestamp_and_ticker(self, tmp_path):
        doc = make_doc("n1", source=Source.NEWS, ticker="TSLA", hour=23, text="toxic probe")
        (sd,) = score_to(tmp_path, [doc])
        assert (sd.id, sd.source, sd.timestamp, sd.ticker) == (doc.id, doc.source, doc.timestamp, doc.ticker)
        assert sd.key == doc.key == ("news", "n1")

    def test_empty_corpus(self, tmp_path):
        assert score_to(tmp_path, []) == []
        assert (tmp_path / "corpus.jsonl").read_bytes() == (tmp_path / "scored.jsonl").read_bytes() == b""

    def test_news_scores_on_title(self, tmp_path):
        doc = make_doc(
            "n1",
            source=Source.NEWS,
            text="placeholder body reference",
            title="bank praised for clean audit",
        )
        (scored,) = score_to(tmp_path, [doc])
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
def test_scored_line_matches_json_dumps(tmp_path, doc_id, label, score):
    verdict = SentimentVerdict(label, score)
    score_to(tmp_path, [make_doc(doc_id, ticker=doc_id)], {("tweet", doc_id): verdict})
    obj = {"id": doc_id, "source": "tweet", "timestamp": "2022-07-20T12:00:00Z", "ticker": doc_id,
           "label": label.value, "score": score, "composite": verdict.composite}
    line = json.dumps(obj, ensure_ascii=False, separators=(", ", ": ")) + "\n"
    assert (tmp_path / "scored.jsonl").read_text(encoding="utf-8") == line


def test_an_external_score_of_minus_zero_is_written_with_its_sign(tmp_path):
    # -0.0 equals 0.0, so any verdict cache must keep the two apart.
    rows = ["a,tweet,positive,-0", "b,tweet,positive,0", "c,tweet,neutral,0", "d,tweet,neutral,-0",
            "e,tweet,negative,-0", "f,tweet,negative,0"]
    (tmp_path / "verdicts.csv").write_text("id,source,label,score\n" + "\n".join(rows) + "\n", encoding="utf-8")
    external = import_external_verdicts(tmp_path / "verdicts.csv")
    # Twice over, so a cached zero of either sign is looked up.
    score_to(tmp_path, [make_doc(doc_id) for doc_id in "abcdefabcdef"], external)
    text = (tmp_path / "scored.jsonl").read_text(encoding="utf-8")
    fields = [line.split('"label": ')[1] for line in text.splitlines()]
    assert fields == 2 * [
        '"positive", "score": -0.0, "composite": -0.0}', '"positive", "score": 0.0, "composite": 0.0}',
        '"neutral", "score": 0.0, "composite": 0.0}', '"neutral", "score": -0.0, "composite": -0.0}',
        '"negative", "score": -0.0, "composite": 0.0}', '"negative", "score": 0.0, "composite": -0.0}',
    ]


def test_both_files_round_trip(tmp_path):
    docs = [
        make_doc("a", text="clean energy"),
        make_doc("b", text="toxic spill probe", ticker="HSBC"),
        make_doc("c", source=Source.NEWS, text="body", title="bank praised"),
        Document("d", Source.TWEET, datetime(2022, 7, 21, 9, 30, 5, 750000, tzinfo=timezone.utc), "GS", "good"),
    ]
    scored = score_to(tmp_path, docs)
    for name in ("corpus.jsonl", "scored.jsonl"):
        assert '"timestamp": "2022-07-21T09:30:05.750000Z"' in (tmp_path / name).read_text(encoding="utf-8")
    assert read_back_corpus(tmp_path / "corpus.jsonl") == docs
    assert list(read_scored(tmp_path / "scored.jsonl")) == scored


def test_the_two_lines_of_a_document_share_their_head(tmp_path):
    docs = [
        make_doc("日本語-é \"q\"", ticker="HSBC", text="good"),
        Document("t2", Source.TWEET, datetime(2022, 7, 21, 9, 30, 5, 123456, tzinfo=timezone.utc), "GS", "bad"),
        make_doc("n3", source=Source.NEWS, text="body", title="praised"),
        *[make_doc(f"t{i}", text=text) for i, text in enumerate(AWKWARD_STRINGS)],
    ]
    external = {("tweet", "t0"): SentimentVerdict(SentimentLabel.NEGATIVE, 0.25)}
    score_to(tmp_path, docs, external)
    corpus = (tmp_path / "corpus.jsonl").read_bytes().splitlines()
    scored = (tmp_path / "scored.jsonl").read_bytes().splitlines()
    assert len(corpus) == len(scored) == len(docs)
    for corpus_line, scored_line, doc in zip(corpus, scored, docs):
        end = corpus_line.index(b', "text": ') + 2
        assert corpus_line[:end] == scored_line[:end]
        assert json.loads(scored_line[:end - 2] + b"}") == {
            "id": doc.id, "source": doc.source.value, "timestamp": format_timestamp(doc.timestamp), "ticker": doc.ticker}
    assert b'"timestamp": "2022-07-21T09:30:05.123456Z"' in scored[1]


class TestScoreCorpusWritesBothFilesAtomically:
    @staticmethod
    def docs(n: int, text: str = "placeholder text") -> list[Document]:
        return [make_doc(f"t{i}", text=text, title=f"headline {i}") for i in range(n)]

    def test_a_failure_part_way_leaves_both_old_files(self, tmp_path):
        first = self.docs(3)
        scored = score_to(tmp_path, first)
        before = [(tmp_path / name).read_bytes() for name in ("corpus.jsonl", "scored.jsonl")]
        assert read_back_corpus(tmp_path / "corpus.jsonl") == first
        assert list(read_scored(tmp_path / "scored.jsonl")) == scored
        # The bad title is met only after 1,000 lines have gone to each temporary file.
        with pytest.raises(TypeError):
            score_to(tmp_path, [*self.docs(1000), make_doc("bad", title=object())])
        assert [(tmp_path / name).read_bytes() for name in ("corpus.jsonl", "scored.jsonl")] == before
        assert not list(tmp_path.glob("*.tmp"))

    def test_holds_no_buffer_the_size_of_either_file(self, tmp_path):
        docs = self.docs(5000, text="words of an esg tweet " * 9)
        tracemalloc.start()
        try:
            scored = score_to(tmp_path, docs)
            peak, retained = tracemalloc.get_traced_memory()[::-1]
        finally:
            tracemalloc.stop()
        sizes = [(tmp_path / name).stat().st_size for name in ("corpus.jsonl", "scored.jsonl")]
        assert sizes[0] > 1_500_000 and sizes[1] > 500_000
        # Beyond the scored records it returns, the pass holds about a line of each file.
        assert peak - retained < sizes[1] / 10, (peak, retained, sizes)
        assert read_back_corpus(tmp_path / "corpus.jsonl") == docs
        assert list(read_scored(tmp_path / "scored.jsonl")) == scored


def test_verdicts_keep_no_state_and_the_text_cache_is_bounded(tmp_path):
    rng = random.Random(23)
    docs = [make_doc(f"t{i}") for i in range(10_000)]
    labels = list(SentimentLabel)
    external = {("tweet", doc.id): SentimentVerdict(rng.choice(labels), rng.random()) for doc in docs}
    assert len(set(external.values())) == 10_000
    tracemalloc.start()
    try:
        scored = score_to(tmp_path, docs, external)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not hasattr(scored[0].verdict, "__dict__")
    # Beyond the records it returns the pass keeps nothing, and it never holds
    # the text of more than 256 verdicts: that of all 10,000 would take 1.5 MB.
    records = sys.getsizeof(scored) + sum(map(sys.getsizeof, scored))
    assert retained - records < 300_000, (retained, records)
    assert peak - retained < 300_000, (peak, retained)
    assert list(read_scored(tmp_path / "scored.jsonl")) == scored


@pytest.mark.parametrize("ts", [
    datetime(2022, 7, 20, 12, 0, 0, tzinfo=timezone.utc),
    datetime(2022, 7, 20, 12, 0, 0, 750, tzinfo=timezone.utc),
    datetime(1, 1, 1, tzinfo=timezone.utc),
    datetime(9999, 12, 31, 23, 59, 59, 999999, tzinfo=timezone.utc),
    datetime(2022, 7, 29, 23, 59, 59, 999999, tzinfo=timezone.utc),
])
def test_format_timestamp_is_isoformat_with_z_for_the_offset(ts):
    assert format_timestamp(ts) == ts.isoformat()[:-6] + "Z"


def test_read_scored_records_of_one_ticker_share_one_ticker_string(golden_dir):
    ids: dict[str, set[int]] = {}
    for sd in read_scored(golden_dir / "scored.jsonl"):
        ids.setdefault(sd.ticker, set()).add(id(sd.ticker))
    assert sorted(ids) == ["AMZN", "GS", "HSBC", "TSLA"]
    assert all(len(objects) == 1 for objects in ids.values()), ids


@pytest.mark.parametrize("composite_value", ['"x"', "[1]", "0.9"])
def test_scored_line_with_bad_composite_is_schema_error(tmp_path, composite_value):
    path = tmp_path / "scored.jsonl"
    path.write_text(scored_line(composite=composite_value) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        list(read_scored(path))


def test_scored_line_with_inconsistent_composite_names_the_line(tmp_path):
    path = tmp_path / "scored.jsonl"
    path.write_text("\n" + scored_line(label="negative", composite="0.5") + "\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=r"scored\.jsonl:2: composite inconsistent with verdict$"):
        list(read_scored(path))


def scored_line(doc_id="a", label="positive", score="0.5", composite="0.5", source="tweet",
                timestamp="2022-07-20T12:00:00Z"):
    return (f'{{"id": "{doc_id}", "source": "{source}", "timestamp": "{timestamp}", "ticker": "GS", '
            f'"label": "{label}", "score": {score}, "composite": {composite}}}')


def read_lines(tmp_path, lines):
    path = tmp_path / "scored.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return list(read_scored(path))


class TestScoredLineForms:
    """Forms a scored line may take besides the one write_scored writes, each read as float() reads it."""

    @pytest.mark.parametrize(
        "label,score,composite,expected",
        [
            ("positive", "1", "1", (SentimentLabel.POSITIVE, 1.0)),  # int score and composite
            ("negative", '"0.25"', '"-0.25"', (SentimentLabel.NEGATIVE, 0.25)),  # numeric strings
            ("positive", "true", "1.0", (SentimentLabel.POSITIVE, 1.0)),  # bools
            ("neutral", "false", "false", (SentimentLabel.NEUTRAL, 0.0)),
            ("neutral", "0", "0", (SentimentLabel.NEUTRAL, 0.0)),
        ],
    )
    def test_non_float_score_reads_as_float(self, tmp_path, label, score, composite, expected):
        (sd,) = read_lines(tmp_path, [scored_line(label=label, score=score, composite=composite)])
        assert sd.verdict == SentimentVerdict(*expected)
        assert type(sd.verdict.score) is float and repr(sd.verdict.score) == repr(expected[1])

    def test_extra_fields_and_reordered_keys(self, tmp_path):
        line = ('{"composite": -0.5, "extra": [1, {"x": null}], "score": 0.5, "ticker": "GS", "label": "negative", '
                '"timestamp": "2022-07-20T14:00:00+02:00", "id": "a", "source": "tweet"}')
        (sd,) = read_lines(tmp_path, [line])
        assert sd == scored_of(make_doc("a"), SentimentVerdict(SentimentLabel.NEGATIVE, 0.5))
        assert sd.timestamp.tzinfo is timezone.utc

    @pytest.mark.parametrize("order", ["negative zero first", "positive zero first"])
    def test_negative_zero_score_keeps_its_sign(self, tmp_path, order):
        lines = [scored_line("a", "neutral", "0.0", "0.0"), scored_line("b", "neutral", "-0.0", "-0.0")]
        if order == "negative zero first":
            lines.reverse()
        scored = {sd.id: sd.verdict.score for sd in read_lines(tmp_path, lines)}
        assert math.copysign(1.0, scored["a"]) == 1.0
        assert math.copysign(1.0, scored["b"]) == -1.0

    def test_same_label_and_score_give_equal_verdicts(self, tmp_path):
        lines = [scored_line("a"), scored_line("b"), scored_line("c", score="0.25", composite="0.25")]
        a, b, c = read_lines(tmp_path, lines)
        assert a.verdict == b.verdict == SentimentVerdict(SentimentLabel.POSITIVE, 0.5)
        assert c.verdict == SentimentVerdict(SentimentLabel.POSITIVE, 0.25)

    @pytest.mark.parametrize(
        "bad_line,message",
        [
            (scored_line("c", composite="-0.5"), "composite inconsistent with verdict"),
            (scored_line("a"), "duplicate scored line for ('tweet', 'a')"),
            (scored_line("c", source="blog"), "unknown source 'blog'"),
            (scored_line("c", timestamp="2022-07-20"), "document 'c': bad timestamp '2022-07-20'"),
            (scored_line("c", score="1.5", composite="1.5"), "sentiment score 1.5 outside [0, 1]"),
            (scored_line("c", score="NaN", composite="NaN"), "sentiment score nan outside [0, 1]"),
            (scored_line("c", label="Positive"), "'Positive' is not a valid SentimentLabel"),
        ],
    )
    def test_bad_line_after_a_reused_verdict_names_its_own_line(self, tmp_path, bad_line, message):
        with pytest.raises(SchemaError, match=f"scored\\.jsonl:4: {re.escape(message)}$"):
            read_lines(tmp_path, [scored_line("a"), scored_line("b"), "", bad_line])


def reference_scored_line(path, lineno, obj, seen):
    """The field-by-field reader read_scored replaced, kept as the reference for its checks and messages."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}:{lineno}: scored line must be an object, got {type(obj).__name__}")
    for field_name in ("id", "source", "timestamp", "ticker", "label", "score", "composite"):
        if field_name not in obj:
            raise SchemaError(f"{path}:{lineno}: missing field {field_name!r}")
    for field_name in ("id", "source", "ticker"):
        if not isinstance(obj[field_name], str):
            raise SchemaError(f"{path}:{lineno}: field {field_name!r} must be a string")
    if obj["source"] not in ("tweet", "news"):
        raise SchemaError(f"{path}:{lineno}: unknown source {obj['source']!r}")
    if obj["id"] == "":
        raise SchemaError(f"{path}:{lineno}: field 'id' must be non-empty")
    try:
        timestamp = _parse_timestamp(obj["timestamp"], obj["id"])
    except SchemaError as exc:
        raise SchemaError(f"{path}:{lineno}: {exc}") from exc
    key = (obj["source"], obj["id"])
    if key in seen:
        raise SchemaError(f"{path}:{lineno}: duplicate scored line for {key}")
    seen.add(key)
    try:
        verdict = SentimentVerdict(SentimentLabel(obj["label"]), float(obj["score"]))
        stated = float(obj["composite"])
    except (TypeError, ValueError, InvariantError) as exc:
        raise SchemaError(f"{path}:{lineno}: {exc}") from exc
    if stated != verdict.composite:
        raise SchemaError(f"{path}:{lineno}: composite inconsistent with verdict")
    return ScoredDocument(obj["id"], Source(obj["source"]), timestamp, obj["ticker"], verdict)


def reference_read_scored(path):
    seen = set()
    return [reference_scored_line(path, lineno, obj, seen) for lineno, obj in json_lines(path)]


# Pieces of a scored line: each good list, then forms that are still read, then bad ones.
REF_LABELS = (["positive", "neutral", "negative"], [], ["Positive", "mixed", 1, None, True, ["positive"], {"positive": 1}])
REF_SCORES = ([0.5, 0.25, 1 / 3, 0.0, 1.0, 1e-7], [0, 1, "0.5", " 0.25 ", True, False, -0.0], ["x", math.nan, 1.5, None, [0.5]])
REF_SOURCES = (["tweet"], ["news"], ["blog", "Tweet", ""])
REF_TIMESTAMPS = (
    ["2022-07-20T12:00:00Z", "2022-07-21T09:30:00.250000Z"],
    ["2022-07-20T14:00:00+02:00", "2022-07-19T23:00:00.750-03:00", "2022-07-20T00:00:00+00:00"],
    ["July", 5, None, "2022-07-20T12:00:00", "20220720T120000Z", "2022-07-20T12:00:00.75Z"],
)
REF_TICKERS = (["GS", "HSBC"], ["BRK-B", ""], [5, None, ["GS"]])
REF_IDS = ["a", "b", "c", "d", "e", "f", "zz"]


def pick(rng, pieces):
    """A good piece mostly, another accepted form often, a bad one sometimes."""
    good, other, bad = pieces
    roll = rng.random()
    return rng.choice(bad if roll < 0.06 else other if other and roll < 0.3 else good)


def random_scored_line(rng, used_ids):
    """One scored line's JSON text: mostly good, else bad in one of the ways read_scored checks."""
    if rng.random() < 0.02:
        return rng.choice(["[1, 2]", '"positive"', "3", "null", "true"])
    label, score = pick(rng, REF_LABELS), pick(rng, REF_SCORES)
    try:
        composite = {"positive": 1, "neutral": 0, "negative": -1}[label] * float(score)
    except (KeyError, TypeError, ValueError):
        composite = 0.5
    roll = rng.random()
    if roll < 0.03:
        composite += 0.25  # mismatched
    elif roll < 0.05:
        composite = rng.choice([None, [composite], "x"])
    elif roll < 0.2:
        composite = repr(composite)  # a numeric string
    roll = rng.random()
    if used_ids and roll < 0.03:
        doc_id = rng.choice(used_ids)  # a repeated key
    elif roll < 0.05:
        doc_id = ""  # an empty id
    else:
        doc_id = rng.choice([i for i in REF_IDS if i not in used_ids])
    obj = {"id": doc_id, "source": pick(rng, REF_SOURCES), "timestamp": pick(rng, REF_TIMESTAMPS),
           "ticker": pick(rng, REF_TICKERS), "label": label, "score": score, "composite": composite}
    if rng.random() < 0.03:
        for name in rng.sample(["id", "source"], rng.randint(1, 2)):
            obj[name] = rng.choice([7, None, ["a"]])
    if rng.random() < 0.02:
        del obj[rng.choice(list(obj))]  # a missing field
    if rng.random() < 0.1:
        obj["extra"] = [1, {"x": None}]
    items = list(obj.items())
    if rng.random() < 0.2:
        rng.shuffle(items)
    used_ids.append(doc_id)
    return json.dumps(dict(items))


def test_read_scored_equals_the_field_by_field_reference(tmp_path):
    """Same records, score signs included, or the same SchemaError on the same line."""
    rng = random.Random(2210_00731)
    path = tmp_path / "scored.jsonl"
    outcomes = set()
    for _ in range(600):
        used_ids = []
        lines = [random_scored_line(rng, used_ids) for _ in range(rng.randint(1, 6))]
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        try:
            expected = reference_read_scored(path)
        except SchemaError as exc:
            outcomes.add("error")
            with pytest.raises(SchemaError, match=f"^{re.escape(str(exc))}$"):
                list(read_scored(path))
            continue
        outcomes.add("read")
        got = list(read_scored(path))
        assert got == expected, lines
        assert [repr(sd.verdict.score) for sd in got] == [repr(sd.verdict.score) for sd in expected], lines
        assert [sd.timestamp.tzinfo for sd in got] == [timezone.utc] * len(got), lines
    assert outcomes == {"error", "read"}
