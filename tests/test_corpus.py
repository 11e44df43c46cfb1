"""Document model, corpus file round-trips, dedupe and window filtering."""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import stat
import subprocess
import sys
import tracemalloc
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import pytest

import esgsent
from esgsent.corpus import (
    Document,
    Source,
    TimeWindow,
    dedupe,
    fetch_documents,
    filter_window,
    parse_document_line,
    parse_document_payload,
    serialize_document,
)
from esgsent.errors import SchemaError, TransportError
from esgsent.sentiment import default_lexicon, score_corpus
from esgsent.transport import ReplayDocumentTransport
from esgsent.util import _FILE_MODE, atomic_open, atomic_write_text, drain, json_line

from conftest import AWKWARD_STRINGS, FIXTURES_DIR, make_doc, run_cli

TWEET_LINE = (
    '{"id": "t1", "source": "tweet", "timestamp": "2022-07-20T12:00:00Z", '
    '"ticker": "GS", "text": "good news", "author": "a", "followers": 5}'
)
NEWS_LINE = (
    '{"id": "n1", "source": "news", "timestamp": "2022-07-21T09:00:00Z", '
    '"ticker": "GS", "text": "headline", "url": "https://x.example/a", "title": "headline"}'
)


def test_window_rejects_reversed_bounds():
    with pytest.raises(ValueError):
        TimeWindow(date(2022, 7, 29), date(2022, 7, 20))


class TestParseSerialize:
    def test_tweet_line_parses(self):
        doc = parse_document_line(TWEET_LINE)
        assert doc.source is Source.TWEET
        assert doc.timestamp == datetime(2022, 7, 20, 12, tzinfo=timezone.utc)
        assert doc == Document("t1", Source.TWEET, doc.timestamp, "GS", "good news")

    def test_news_line_parses_with_url_title(self):
        doc = parse_document_line(NEWS_LINE)
        assert doc.source is Source.NEWS
        assert doc.title == "headline"
        assert doc == Document("n1", Source.NEWS, doc.timestamp, "GS", "headline", "headline")

    def test_round_trip_equality(self):
        fractional = TWEET_LINE.replace("12:00:00Z", "12:00:00.750+00:00")
        for line in (TWEET_LINE, NEWS_LINE, fractional):
            doc = parse_document_line(line)
            assert parse_document_line(serialize_document(doc)) == doc
        assert '"timestamp": "2022-07-20T12:00:00.750000Z"' in serialize_document(parse_document_line(fractional))
        assert '"timestamp": "2022-07-20T12:00:00Z"' in serialize_document(parse_document_line(TWEET_LINE))

    @pytest.mark.parametrize(
        "name,value,message",
        [
            ("id", None, "document None: id must be a string, got None"),
            ("id", 7, "document 7: id must be a string, got 7"),
            ("ticker", 5, "document 't1': ticker must be a string, got 5"),
            ("text", None, "document 't1': text must be a string, got None"),
            ("text", ["bad", "loss"], "document 't1': text must be a string, got ['bad', 'loss']"),
            ("place", 5, "document 't1': place must be a string, got 5"),
            ("url", {"a": 1}, "document 't1': url must be a string, got {'a': 1}"),
            ("title", 5, "document 't1': title must be a string, got 5"),
            ("followers", 2.9, "document 't1': bad follower count 2.9"),
            ("followers", True, "document 't1': bad follower count True"),
            ("followers", "5", "document 't1': bad follower count '5'"),
        ],
    )
    def test_field_of_the_wrong_json_type_is_one_schema_error(self, name, value, message):
        payload = json.loads(TWEET_LINE)
        payload[name] = value
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            parse_document_line(json.dumps(payload))

    def test_a_ticker_of_a_str_subclass_parses(self):
        class Key(str):
            pass

        payload = json.loads(TWEET_LINE)
        payload["ticker"] = Key("GS")
        doc = parse_document_payload(payload)
        assert type(doc.ticker) is Key and doc == parse_document_line(TWEET_LINE)

    def test_null_optional_field_reads_as_absent(self):
        payload = json.loads(NEWS_LINE)
        payload.update(title=None, place=None, followers=None)
        doc = parse_document_line(json.dumps(payload))
        assert doc.title is None
        assert serialize_document(doc) == (
            '{"id": "n1", "source": "news", "timestamp": "2022-07-21T09:00:00Z", "ticker": "GS", "text": "headline"}')

    def test_malformed_json_is_schema_error(self):
        with pytest.raises(SchemaError):
            parse_document_line("{not json")

    def test_missing_required_field(self):
        payload = json.loads(TWEET_LINE)
        del payload["timestamp"]
        with pytest.raises(SchemaError, match="timestamp"):
            parse_document_line(json.dumps(payload))

    def test_empty_text_rejected(self):
        payload = json.loads(TWEET_LINE)
        payload["text"] = "   "
        with pytest.raises(SchemaError):
            parse_document_line(json.dumps(payload))

    @pytest.mark.parametrize("source", ["blog", "TWEET", ["tweet"], None])
    def test_bad_source_rejected(self, source):
        payload = json.loads(TWEET_LINE)
        payload["source"] = source
        message = f"document 't1': bad source {source!r}"
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            parse_document_line(json.dumps(payload))

    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("2022-07-20T12:34:56Z", datetime(2022, 7, 20, 12, 34, 56, tzinfo=timezone.utc)),
            ("2022-07-20T12:00:00.750Z", datetime(2022, 7, 20, 12, 0, 0, 750000, tzinfo=timezone.utc)),
            ("2022-07-20T12:00:00.000001Z", datetime(2022, 7, 20, 12, 0, 0, 1, tzinfo=timezone.utc)),
            ("2022-07-20T01:00:00+02:00", datetime(2022, 7, 19, 23, tzinfo=timezone.utc)),
            ("2022-07-20T12:00:00.750-05:30", datetime(2022, 7, 20, 17, 30, 0, 750000, tzinfo=timezone.utc)),
            ("2022-07-20T12:00:00", "timestamp '2022-07-20T12:00:00' lacks a UTC offset"),
            # Accepted by datetime.fromisoformat from Python 3.11 on, not on 3.10.
            ("2022-W29-3T12:00:00Z", "bad timestamp '2022-W29-3T12:00:00Z'"),
            ("20220720T120000Z", "bad timestamp '20220720T120000Z'"),
            ("2022-07-20T12:00:00.75Z", "bad timestamp '2022-07-20T12:00:00.75Z'"),
            ("2022-07-20T12:00:00.7500Z", "bad timestamp '2022-07-20T12:00:00.7500Z'"),
            ("2022-07-20T12:00:00+0200", "bad timestamp '2022-07-20T12:00:00+0200'"),
            ("2022-07-20T12:00Z", "bad timestamp '2022-07-20T12:00Z'"),
            # Accepted by fromisoformat on every version, but not the documented form.
            ("2022-07-20 12:00:00Z", "bad timestamp '2022-07-20 12:00:00Z'"),
            ("2022-07-20T12:00:00+02:00:00", "bad timestamp '2022-07-20T12:00:00+02:00:00'"),
            # A trailing line break, which a $ anchor would let through, and a non-ASCII digit.
            ("2022-07-20T12:00:00Z\n", "bad timestamp '2022-07-20T12:00:00Z\\n'"),
            ("２022-07-20T12:00:00Z", "bad timestamp '２022-07-20T12:00:00Z'"),
            # The documented form, but no such day or time.
            ("2022-02-30T12:00:00Z", "bad timestamp '2022-02-30T12:00:00Z'"),
            ("2022-07-20T25:00:00Z", "bad timestamp '2022-07-20T25:00:00Z'"),
            ("July", "bad timestamp 'July'"),
            (20220720, "bad timestamp 20220720"),
            (None, "bad timestamp None"),
        ],
    )
    def test_one_timestamp_form_on_every_python(self, raw, expected):
        payload = json.loads(TWEET_LINE)
        payload["timestamp"] = raw
        if isinstance(expected, datetime):
            assert parse_document_line(json.dumps(payload)).timestamp == expected
        else:
            with pytest.raises(SchemaError, match="^" + re.escape("document 't1': " + expected) + "$"):
                parse_document_line(json.dumps(payload))

    @pytest.mark.parametrize(
        "name,value,message",
        [
            ("id", "", "document id must be non-empty"),
            ("text", " \n\t", "document 'a' has empty text"),
            ("timestamp", datetime(2022, 7, 20, 1, tzinfo=timezone(timedelta(hours=2))),
             "document 'a' timestamp is not in UTC"),
        ],
    )
    def test_document_constructor_checks_each_field(self, name, value, message):
        fields = {"id": "a", "source": Source.TWEET, "timestamp": datetime(2022, 7, 20, tzinfo=timezone.utc),
                  "ticker": "GS", "text": "text", name: value}
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            Document(**fields)
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            make_doc("a")._replace(**{name: value})

    @pytest.mark.parametrize("name", ["id", "source", "timestamp", "ticker", "text", "title", "extra"])
    def test_document_is_immutable(self, name):
        doc = make_doc("a")
        with pytest.raises(AttributeError):
            setattr(doc, name, "x")
        assert doc == make_doc("a")

    def test_unknown_field_strict_vs_lenient(self, tmp_path, capsys):
        payload = json.loads(TWEET_LINE)
        payload["retweets"] = 9
        line = json.dumps(payload)
        with pytest.raises(SchemaError, match="retweets"):
            parse_document_payload(payload, strict=True)
        assert parse_document_line(line).id == "t1"
        # A run prints one note per input file that had unknown fields, not one per record.
        fixtures = tmp_path / "fixtures" / "GS"
        shutil.copytree(FIXTURES_DIR / "GS", fixtures)
        extra = {"tweets.jsonl": ["retweets"], "news.jsonl": ["lang", "paywall"]}
        for name, fields in extra.items():
            records = [json.loads(text) for text in (fixtures / name).read_text(encoding="utf-8").splitlines()]
            for i, record in enumerate(records):
                record.update((field, i) for field in fields[: i + 1])
            (fixtures / name).write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        argv = ["run", "--fixtures", str(fixtures.parent), "--out", str(tmp_path / "out"), "--tickers", "GS",
                "--window", "2022-07-20:2022-07-29"]
        capsys.readouterr()
        assert run_cli(argv) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"note[schema]: {fixtures / 'tweets.jsonl'}: ignored unknown field(s) retweets in 5 record(s)",
            f"note[schema]: {fixtures / 'news.jsonl'}: ignored unknown field(s) lang, paywall in 4 record(s)",
        ]
        assert run_cli([*argv, "--strict"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error[schema]: {fixtures / 'tweets.jsonl'}:1: document payload has unknown field(s): retweets"
        ]

    def test_negative_followers_rejected(self):
        payload = json.loads(TWEET_LINE)
        payload["followers"] = -1
        with pytest.raises(SchemaError, match="^document 't1' has negative follower count$"):
            parse_document_line(json.dumps(payload))
        payload["followers"] = 0
        assert parse_document_line(json.dumps(payload)).id == "t1"


class TestDedupe:
    def test_duplicate_dropped(self):
        d1 = make_doc("a", day=date(2022, 7, 20))
        d2 = make_doc("b", day=date(2022, 7, 21))
        assert dedupe([d1, d1, d2]) == [d1, d2]

    def test_empty(self):
        assert dedupe([]) == []

    def test_unique_sorted_list_unchanged(self):
        docs = [make_doc("a", day=date(2022, 7, 20)), make_doc("b", day=date(2022, 7, 21))]
        assert dedupe(docs) == docs

    def test_earliest_record_wins(self):
        late = make_doc("a", day=date(2022, 7, 22), text="late copy")
        early = make_doc("a", day=date(2022, 7, 20), text="early copy")
        assert dedupe([late, early]) == [early]

    def test_idempotent_on_random_inputs(self):
        rng = random.Random(7)
        for _ in range(50):
            docs = [
                make_doc(f"d{rng.randrange(8)}", day=date(2022, 7, rng.randrange(1, 28)))
                for _ in range(rng.randrange(0, 12))
            ]
            once = dedupe(docs)
            assert dedupe(once) == once
            assert len({doc.key for doc in once}) == len(once)

    def test_matches_the_tuple_key_rule(self):
        def reference(docs):
            """The rule as first written: one sort by (timestamp, id), then a set of (source, id)."""
            seen, out = set(), []
            for doc in sorted(docs, key=lambda doc: (doc.timestamp, doc.id)):
                if (doc.source.value, doc.id) not in seen:
                    seen.add((doc.source.value, doc.id))
                    out.append(doc)
            return out

        rng = random.Random(21)
        docs = [
            make_doc(f"d{rng.randrange(40)}", source=rng.choice([Source.TWEET, Source.NEWS]),
                     day=date(2022, 7, rng.randrange(20, 23)), hour=rng.randrange(3), text=f"copy {i}")
            for i in range(300)
        ]
        # The corpus holds each case: an id that is both a tweet and a news item,
        # a key at two timestamps, and one (timestamp, id) in both sources.
        ids = {source: {doc.id for doc in docs if doc.source is source} for source in Source}
        assert ids[Source.TWEET] & ids[Source.NEWS]
        assert len({(doc.key, doc.timestamp) for doc in docs}) > len({doc.key for doc in docs})
        assert len({(doc.timestamp, doc.id, doc.source) for doc in docs}) > len({(doc.timestamp, doc.id) for doc in docs})
        for _ in range(20):
            rng.shuffle(docs)
            expected = reference(docs)
            # Identity, not equality: among equal (timestamp, id) records the earlier input wins.
            assert [id(doc) for doc in dedupe(docs)] == [id(doc) for doc in expected]


class TestFilterWindow:
    def test_start_boundary_retained(self, july_window):
        doc = make_doc("a", day=july_window.start, hour=0)
        assert filter_window([doc], july_window) == [doc]

    def test_day_after_end_dropped(self, july_window):
        doc = make_doc("a", day=date(2022, 7, 30))
        assert filter_window([doc], july_window) == []

    def test_mixed_list_keeps_two_in_order(self, july_window):
        inside_1 = make_doc("i1", day=date(2022, 7, 25))
        inside_2 = make_doc("i2", day=date(2022, 7, 21))
        docs = [
            make_doc("o1", day=date(2022, 7, 10)),
            inside_1,
            make_doc("o2", day=date(2022, 8, 2)),
            inside_2,
            make_doc("o3", day=date(2022, 7, 19)),
        ]
        assert filter_window(docs, july_window) == [inside_1, inside_2]


class TestFetchDocuments:
    def _write_fixture(self, tmp_path, ticker_key, lines, name="tweets.jsonl"):
        ticker_dir = tmp_path / ticker_key
        ticker_dir.mkdir(parents=True, exist_ok=True)
        (ticker_dir / name).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return ReplayDocumentTransport(tmp_path)

    def _payload(self, doc_id, day, ticker="HSBC"):
        return json.dumps(
            {
                "id": doc_id,
                "source": "news",
                "timestamp": f"{day}T10:00:00Z",
                "ticker": ticker,
                "text": f"story {doc_id}",
            }
        )

    def test_three_matching_one_outside(self, tmp_path, july_window):
        transport = self._write_fixture(
            tmp_path,
            "HSBC",
            [
                self._payload("n1", "2022-07-21"),
                self._payload("n2", "2022-07-25"),
                self._payload("n3", "2022-07-15"),  # outside the window
                self._payload("n4", "2022-07-29"),
            ],
        )
        docs = fetch_documents("HSBC", july_window, transport)
        assert [doc.id for doc in docs] == ["n1", "n2", "n4"]

    def test_empty_fixture_gives_empty_list(self, tmp_path, july_window):
        transport = self._write_fixture(tmp_path, "HSBC", [])
        assert fetch_documents("HSBC", july_window, transport) == []

    def test_row_missing_timestamp_is_schema_error(self, tmp_path, july_window):
        transport = self._write_fixture(
            tmp_path,
            "HSBC",
            ['{"id": "n1", "source": "news", "ticker": "HSBC", "text": "x"}'],
        )
        with pytest.raises(SchemaError):
            fetch_documents("HSBC", july_window, transport)

    def test_missing_fixture_dir_is_transport_error(self, tmp_path, july_window):
        transport = ReplayDocumentTransport(tmp_path)
        with pytest.raises(TransportError):
            fetch_documents("HSBC", july_window, transport)

    def test_output_sorted_by_timestamp_then_id(self, tmp_path, july_window):
        transport = self._write_fixture(
            tmp_path,
            "HSBC",
            [
                self._payload("zz", "2022-07-22"),
                self._payload("aa", "2022-07-28"),
                self._payload("mm", "2022-07-22"),
            ],
        )
        docs = dedupe(fetch_documents("HSBC", july_window, transport))
        assert [doc.id for doc in docs] == ["mm", "zz", "aa"]

    def test_offset_timestamp_is_windowed_by_its_utc_date(self, tmp_path, july_window):
        payload = json.loads(self._payload("n1", "2022-07-20"))
        payload["timestamp"] = "2022-07-20T01:00:00+02:00"
        transport = self._write_fixture(tmp_path, "HSBC", [json.dumps(payload)])
        doc = parse_document_line(json.dumps(payload))
        assert doc.timestamp == datetime(2022, 7, 19, 23, tzinfo=timezone.utc)
        assert '"timestamp": "2022-07-19T23:00:00Z"' in serialize_document(doc)
        assert july_window.start == date(2022, 7, 20)
        assert fetch_documents("HSBC", july_window, transport) == []

    def test_documents_of_one_ticker_share_one_ticker_string(self, fixtures_dir, july_window):
        transport = ReplayDocumentTransport(fixtures_dir)
        for key in ("GS", "AMZN", "TSLA", "HSBC"):
            docs = fetch_documents(key, july_window, transport)
            assert len(docs) > 1 and len({id(doc.ticker) for doc in docs}) == 1, key

    def test_holds_each_record_once_and_empties_the_transport_list(self, tmp_path, july_window):
        """Each line is freed once its document exists, so the traced peak stays near what is returned."""
        rng = random.Random(2000)
        words = ["green", "bond", "carbon", "emissions", "board", "diversity", "probe", "fine", "growth", "plan"]
        for name, source in (("tweets.jsonl", "tweet"), ("news.jsonl", "news")):
            lines = []
            for k in range(1600 if source == "tweet" else 400):
                text = " ".join(rng.choice(words) for _ in range(24))
                payload = {"id": f"{source}-{k:05d}", "source": source,
                           "timestamp": f"2022-07-{rng.randrange(20, 30)}T{rng.randrange(24):02d}:00:00Z",
                           "ticker": "GS", "text": text}
                if source == "tweet":
                    payload.update(author=f"user_{rng.randrange(99999)}", followers=rng.randrange(10**6))
                else:
                    payload.update(url=f"https://news.example.com/gs/{k}", title=text[:60])
                lines.append(json.dumps(payload))
            self._write_fixture(tmp_path, "GS", lines, name=name)

        transport = ReplayDocumentTransport(tmp_path)
        docs = fetch_documents("GS", july_window, transport)  # warm-up
        assert len(docs) == 2000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            again = fetch_documents("GS", july_window, transport)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        retained = after - before
        assert again == docs
        assert peak - after < retained / 2, (peak - before, retained)

        class KeepingTransport(ReplayDocumentTransport):
            def fetch(self, ticker):
                self.lines = super().fetch(ticker)
                return self.lines

        keeping = KeepingTransport(tmp_path)
        assert fetch_documents("GS", july_window, keeping) == docs and keeping.lines == []

        lexicon = default_lexicon()
        paths = tmp_path / "corpus.jsonl", tmp_path / "scored.jsonl"
        with atomic_open(*paths) as files:
            expected = score_corpus(list(docs), lexicon, None, *files)
        with atomic_open(*paths) as files:
            assert score_corpus(drain(docs), lexicon, None, *files) == expected and docs == []

    def test_a_key_with_a_copy_before_the_window_is_dropped_even_with_its_only_copy_inside(self, tmp_path, july_window):
        # News "a" has a copy before the window, news "b" only one after it, and the copy
        # of news "c" before the window is another ticker's; tweet "a" is another key.
        tweet_a = json.loads(self._payload("a", "2022-07-24"))
        tweet_a["source"] = "tweet"
        transport = self._write_fixture(tmp_path, "HSBC", [
            self._payload("a", "2022-07-22"), json.dumps(tweet_a), self._payload("a", "2022-07-15"),
            self._payload("b", "2022-07-21"), self._payload("b", "2022-08-02"),
            self._payload("c", "2022-07-23"), self._payload("c", "2022-07-10", ticker="GS"),
        ])
        docs = fetch_documents("HSBC", july_window, transport)
        assert [doc.key for doc in docs] == [("tweet", "a"), ("news", "b"), ("news", "c")]
        # A window that holds the earlier copy keeps the key, as its earliest copy.
        wider = TimeWindow(date(2022, 7, 15), july_window.end)
        assert [(doc.key, doc.timestamp.day) for doc in dedupe(fetch_documents("HSBC", wider, transport))] == [
            (("news", "a"), 15), (("news", "b"), 21), (("news", "c"), 23), (("tweet", "a"), 24)]

    def test_other_ticker_records_skipped(self, tmp_path, july_window):
        transport = self._write_fixture(
            tmp_path,
            "HSBC",
            [self._payload("n1", "2022-07-21"), self._payload("x1", "2022-07-21", ticker="GS")],
        )
        docs = fetch_documents("HSBC", july_window, transport)
        assert [doc.id for doc in docs] == ["n1"]


def dumps_reference(doc: Document) -> str:
    """The corpus line as json.dumps writes the document's fields."""
    obj = {
        "id": doc.id,
        "source": doc.source.value,
        "timestamp": doc.timestamp.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "ticker": doc.ticker,
        "text": doc.text,
    }
    if doc.title is not None:
        obj["title"] = doc.title
    return json.dumps(obj, ensure_ascii=False, separators=(", ", ": "))


class TestSerializeMatchesJsonDumps:
    @pytest.mark.parametrize("text", AWKWARD_STRINGS)
    def test_strings_in_every_field(self, text):
        doc = make_doc(text, ticker=text, text=text, title=text)
        assert serialize_document(doc) == dumps_reference(doc)

    @pytest.mark.parametrize(
        "author",
        [0, -3, 10**30, 1.5, 1e-7, -0.0, float("nan"), float("inf"), True, False,
         [1, "x", None, [2.5]], {"k": {"n": None, "s": 'a"b'}}, "", []],
    )
    def test_author_of_any_json_type(self, author):
        payload = {**json.loads(TWEET_LINE), "author": author}
        assert serialize_document(parse_document_payload(payload, strict=True)) == (
            '{"id": "t1", "source": "tweet", "timestamp": "2022-07-20T12:00:00Z", "ticker": "GS", "text": "good news"}')

    def test_random_documents(self):
        rng = random.Random(5)
        alphabet = 'ab "\\\n\t\x01é日😀/'
        for _ in range(300):
            title = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 12)))
            doc = make_doc(
                "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 8))),
                source=rng.choice(list(Source)),
                text="x" + "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 40))),
                title=rng.choice([None, title]),
            )
            assert serialize_document(doc) == dumps_reference(doc)


@pytest.mark.parametrize("name,value", [
    ("id", "t\ud800"),
    ("ticker", "GS\udfff"),
    ("text", "caf\u00e9 \ud800 news"),
    ("title", "\udbff\u00e9"),
])
def test_a_lone_surrogate_is_a_schema_error_naming_the_field(name, value):
    payload = {**json.loads(NEWS_LINE), name: value}
    with pytest.raises(SchemaError) as exc_info:
        parse_document_payload(payload)
    assert str(exc_info.value) == (
        f"document {payload['id']!r}: {name} holds a lone surrogate, which UTF-8 cannot encode")


def test_escaped_surrogate_pairs_and_non_ascii_text_parse():
    line = NEWS_LINE.replace('"headline"}', '"\\ud83d\\ude00 caf\\u00e9", "author": {"n": ["\\u65e5"]}}')
    doc = parse_document_line(line)
    assert doc.title == "\U0001f600 caf\u00e9"
    assert parse_document_line(serialize_document(doc)) == doc


def test_shipped_fixture_lines_round_trip(fixtures_dir):
    lines = []
    for path in sorted(fixtures_dir.glob("*/[tn]*.jsonl")):
        lines.extend(line for line in path.read_text(encoding="utf-8").splitlines() if line.strip())
    assert lines, "expected shipped document fixtures"
    for line in lines:
        doc = parse_document_line(line)
        assert parse_document_line(serialize_document(doc)) == doc


def write_old_file(path, data: bytes, mode: int = _FILE_MODE) -> os.stat_result:
    """A file at path with these bytes and mode and an mtime in 2001, so any rewrite shows."""
    path.write_bytes(data)
    os.chmod(path, mode)
    os.utime(path, ns=(1_000_000_000 * 10**9, 1_000_000_000 * 10**9))
    return path.stat()


def assert_kept(path, before: os.stat_result) -> None:
    after = path.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)


def assert_replaced(path, before: os.stat_result, expected: bytes) -> None:
    after = os.lstat(path)
    assert stat.S_ISREG(after.st_mode) and stat.S_IMODE(after.st_mode) == _FILE_MODE
    assert after.st_ino != before.st_ino
    assert path.read_bytes() == expected
    assert [p.name for p in path.parent.iterdir()] == [path.name]


class TestAtomicWriteText:
    def test_a_temporary_name_that_exists_is_passed_over_and_not_followed(self, tmp_path, monkeypatch):
        path = tmp_path / "summary.csv"
        taken = tmp_path / ".000000000000.tmp"
        taken.symlink_to(tmp_path / "elsewhere")  # a dangling link, which O_CREAT alone would follow
        names = iter([bytes(6), bytes(6), b"\x01" * 6])
        monkeypatch.setattr(os, "urandom", lambda n: next(names))
        atomic_write_text(path, "GS,3\n")
        assert path.read_bytes() == b"GS,3\n" and stat.S_IMODE(path.stat().st_mode) == _FILE_MODE
        assert taken.is_symlink() and not (tmp_path / "elsewhere").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == [taken.name, "summary.csv"]

    def test_an_identical_file_keeps_its_inode_and_mtime(self, tmp_path):
        path = tmp_path / "summary.csv"
        text = "ticker,n_docs\r\nGS,3\n"
        before = write_old_file(path, text.encode("utf-8"))
        atomic_write_text(path, text)
        assert_kept(path, before)
        assert path.read_bytes() == text.encode("utf-8")

    @pytest.mark.parametrize("old", [b"ticker,n_docs\nGS,3\r", b"ticker,n_docs\nGS,3\n\n", b"ticker,n_docs\nGS,3", b""])
    def test_a_file_with_other_bytes_is_replaced(self, tmp_path, old):
        path = tmp_path / "summary.csv"
        before = write_old_file(path, old)
        atomic_write_text(path, "ticker,n_docs\nGS,3\n")
        assert_replaced(path, before, b"ticker,n_docs\nGS,3\n")

    def test_the_same_bytes_with_another_mode_are_replaced_with_the_umask_mode(self, tmp_path):
        path = tmp_path / "summary.csv"
        before = write_old_file(path, b"GS,3\n", mode=0o600)
        assert _FILE_MODE != 0o600
        atomic_write_text(path, "GS,3\n")
        assert_replaced(path, before, b"GS,3\n")

    def test_a_symlink_to_an_identical_file_is_replaced_and_its_target_left(self, tmp_path):
        target = tmp_path / "target" / "summary.csv"
        target.parent.mkdir()
        target_before = write_old_file(target, b"GS,3\n")
        path = tmp_path / "out" / "summary.csv"
        path.parent.mkdir()
        path.symlink_to(target)
        before = os.lstat(path)
        atomic_write_text(path, "GS,3\n")
        assert_replaced(path, before, b"GS,3\n")
        assert_kept(target, target_before)
        assert target.read_bytes() == b"GS,3\n"

    def test_a_fifo_is_replaced_without_waiting_for_a_writer(self, tmp_path):
        path = tmp_path / "summary.csv"
        os.mkfifo(path)
        code = "import sys; from esgsent.util import atomic_write_text; atomic_write_text(sys.argv[1], 'GS,3\\n')"
        env = {**os.environ, "PYTHONPATH": str(Path(esgsent.__file__).parent.parent)}
        # Opening a FIFO for reading without O_NONBLOCK would wait for a writer; the timeout ends the test.
        subprocess.run([sys.executable, "-c", code, str(path)], env=env, check=True, timeout=20)
        assert stat.S_ISREG(os.lstat(path).st_mode)
        assert path.read_bytes() == b"GS,3\n"

    def test_a_non_ascii_text_of_several_slices_is_compared_in_full(self, tmp_path):
        path = tmp_path / "analysis.json"
        text = ("é😀a" * 10_000)[:20_005]
        assert len(text.encode("utf-8")) > 40_000
        before = write_old_file(path, text.encode("utf-8"))
        atomic_write_text(path, text)
        assert_kept(path, before)
        # The same length in characters and bytes, one character near the end changed.
        last = text.rindex("😀")
        changed = text[:last] + "😁" + text[last + 1:]
        assert len(changed.encode("utf-8")) == len(text.encode("utf-8"))
        atomic_write_text(path, changed)
        assert_replaced(path, before, changed.encode("utf-8"))
        # Every byte matches and one more follows.
        before = write_old_file(path, text.encode("utf-8") + b"a")
        atomic_write_text(path, text)
        assert_replaced(path, before, text.encode("utf-8"))

    @pytest.mark.parametrize("size", [0, 1, 32767, 32768, 32769, 98304])
    def test_writes_every_character_at_slice_edges(self, tmp_path, size):
        path = tmp_path / "out.txt"
        text = ("ab\r\n😀" * size)[:size]
        atomic_write_text(path, text)
        assert path.read_bytes() == text.encode("utf-8")


# Pieces of lines for the decoder check: what may stand before a value, the
# value, and what may follow it. \x0b and \x85 are str.isspace but not JSON
# whitespace; U+0085 and U+2028 inside a string are not line breaks.
BEFORE = ["", " ", "\t", "\x0b", "\x85"]
VALUES = [
    '{"id": "a", "n": 1}', '[1, 2.5, "x", null, true]', '"text"', "0", "-0.0", "12345678901234567890",
    "NaN", "-Infinity", "1e400", '{"k": 1, "k": 2}', '"raw \x85 and \u2028 inside"', '"\\ud800"',
    '{"id": "bad",', '{"a": [1, {"b": ', "[]", '""', "nul",
]
AFTER = ["", " ", "\t", " \t ", "\x0b", "\x85", "x", " {\"b\": 2}", ' "two"', "]"]


def test_json_line_decodes_as_json_loads(tmp_path):
    """Every line reads as json.loads reads it, or is a SchemaError with its message where json.loads raises."""
    rng = random.Random(2210)
    path = tmp_path / "records.jsonl"
    for _ in range(600):
        line = rng.choice(BEFORE) + rng.choice(VALUES) + rng.choice(AFTER)
        try:
            expected = json.loads(line)
        except json.JSONDecodeError as exc:
            with pytest.raises(SchemaError, match=f"^{re.escape(f'{path}:1: malformed JSON: {exc}')}$"):
                json_line(line + rng.choice(["\n", ""]), path, 1)
            continue
        # repr tells NaN, -0.0, 1 and 1.0, True and 1 apart, and shows key order.
        assert repr(json_line(line + rng.choice(["\n", ""]), path, 1)) == repr(expected), line
